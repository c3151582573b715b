"""The format version of every tabfusion artifact, and the checks its readers make."""

from dataclasses import asdict, fields

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
