"""The format version of every tabfusion artifact, and its one model-file reader, config rule and writer."""

import base64
import contextlib
import json
import math
import os
import tempfile
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

FORMAT_VERSION = 5  # 5: a network's `params` are the base64 text of their little-endian float64 bytes


def check_header(d, kind: str | None = None) -> None:
    """Reject a model document that is not a JSON object, or is of another format version or kind."""
    if not isinstance(d, dict):
        raise ValueError(f"a model file must be a JSON object, got {type(d).__name__}")
    if (version := d.get("format_version")) != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r} (this build reads version {FORMAT_VERSION})")
    if kind is not None and d.get("kind") != kind:
        raise ValueError(f"expected a model file of kind {kind!r}, got kind {d.get('kind')!r}")


def read_model_file(path) -> dict:
    """A model file's document; ValueError, naming the file, unless it holds a JSON object of this version."""
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"model file not found: {path}")
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
        check_header(d)
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path}: {exc}") from None
    return d


def flat_array(what: str, values, integer: bool = False) -> np.ndarray:
    """A JSON list, tuple or array as a 1-D array of finite numbers (intp if ``integer``, else float64); no bools."""
    a = np.asarray(values)
    has_bool = isinstance(values, (list, tuple)) and bool in set(map(type, values))  # [0.5, true] reads as float64
    if has_bool or a.ndim != 1 or (a.size and a.dtype.kind not in ("i" if integer else "if")):
        raise ValueError(f"{what} must be a flat list of {'integers' if integer else 'numbers'}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} holds non-finite values")
    return a.astype(np.intp if integer else np.float64)


def pack_floats(a) -> str:
    """The base64 text of an array's little-endian float64 bytes, its exact bits; ValueError if any is not finite."""
    a = np.asarray(a, "<f8")
    if not np.isfinite(a).all():
        raise ValueError("cannot write non-finite values")
    return base64.b64encode(a.tobytes()).decode("ascii")


def unpack_floats(what: str, text) -> np.ndarray:
    """The float64 array ``pack_floats`` wrote as ``text``; ValueError, naming ``what``, for any other value."""
    if not isinstance(text, str):
        raise ValueError(f"{what} must be base64 text, got {type(text).__name__}")
    try:  # only the text b64encode writes: validate=True lets through non-zero bits after the last byte
        if base64.b64encode(raw := base64.b64decode(text, validate=True)).decode("ascii") != text:
            raise ValueError("not the canonical encoding of its bytes")
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{what} is not base64 text: {exc}") from None
    if len(raw) % 8:
        raise ValueError(f"{what} holds {len(raw)} bytes, not a whole number of float64 values")
    return flat_array(what, np.frombuffer(raw, "<f8"))


def _integer(value) -> int:
    if type(value) is not int:  # bool is not an int here
        raise TypeError
    return value


def _finite(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError
    return float(value)


def _integers(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return tuple(_integer(w) for w in value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _optional_float(text: str):
    return None if text.strip().lower() in ("auto", "none") else float(text)


# The one rule for config values, by declared type: the check of a JSON value,
# the reading of `.conf` text as a JSON value, and what the type is called.
_RULES = {
    int: (_integer, int, "an integer"),
    float: (_finite, float, "a finite number"),
    float | None: (_finite, _optional_float, "a finite number, or auto/none/null"),
    tuple[int, ...]: (_integers, lambda text: [int(w) for w in text.split(",") if w.strip()], "a list of integers"),
    str: (_string, str, "a string"),
}


def coerce(hint, value, text: bool = False):
    """``value`` as a config value of type ``hint``; ValueError if it is not one.
    A string is read as `.conf` text only if ``text``; in JSON it is a value only of a str field."""
    check, parse, expected = _RULES[hint]
    try:
        json_value = parse(value) if text and isinstance(value, str) else value
        return None if json_value is None and hint == float | None else check(json_value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected {expected}, got {value!r}") from None


def config_to_dict(cfg) -> dict:
    """A config dataclass as a model document's `config` object: its fields in order, tuples as lists."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(cfg).items()}


def config_from_dict(config_cls, raw, text: bool = False):
    """A `config_cls` instance from a mapping of its field names to JSON values (or `.conf`
    text, if ``text``), each read by ``coerce`` by its field's type; ValueError if any key or value is bad."""
    if not isinstance(raw, dict):
        raise ValueError(f"'config' must be an object, got {type(raw).__name__}")
    hints = typing.get_type_hints(config_cls)
    values = {}
    for key, value in raw.items():
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = coerce(hints[key], value, text)
        except ValueError as exc:
            raise ValueError(f"invalid config: {key}: {exc}") from None
    return config_cls(**values)


def _write_atomic(path: Path, text: str) -> None:
    """Write through a uniquely named temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode a plain open() would give, not mkstemp's 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json(path, doc) -> None:
    """Write a document atomically as compact JSON: whitespace is not part of the format."""
    _write_atomic(Path(path), json.dumps(doc, separators=(",", ":")) + "\n")
