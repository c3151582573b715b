"""The format version of every tabfusion artifact, the checks its readers make, and its one writer."""

import contextlib
import json
import os
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

FORMAT_VERSION = 2  # 2: gbdt.json holds its trees as per-node arrays


def check_header(d: dict, kind: str) -> None:
    """Reject a model document that is not a JSON object, or is of another format version or kind."""
    if not isinstance(d, dict):
        raise ValueError(f"a model document must be a JSON object, got {type(d).__name__}")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    if d.get("kind") != kind:
        raise ValueError(f"expected a model file of kind {kind!r}, got kind {d.get('kind')!r}")


def config_to_dict(cfg) -> dict:
    """A config dataclass as a model document's `config` object: its fields in order, tuples as lists."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in asdict(cfg).items()}


def config_from_dict(config_cls, raw):
    """A model document's `config` object as a `config_cls` instance.

    JSON lists become tuples. Anything else the dataclass would reject with a
    TypeError (a non-object, an unknown key, a value of the wrong type) raises
    ValueError instead, so a malformed file fails like any other bad value.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"'config' must be an object, got {type(raw).__name__}")
    known = {f.name for f in fields(config_cls)}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    try:
        return config_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
    except TypeError as exc:
        raise ValueError(f"invalid config: {exc}") from None


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
