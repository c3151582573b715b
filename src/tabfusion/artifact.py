"""The format version of every tabfusion artifact, and the check its readers make."""

FORMAT_VERSION = 2  # 2: gbdt.json holds its trees as per-node arrays


def check_header(d: dict, kind: str) -> None:
    """Reject a model document of another format version or of another kind."""
    if d.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {d.get('format_version')!r}")
    if d.get("kind") != kind:
        raise ValueError(f"expected a model file of kind {kind!r}, got kind {d.get('kind')!r}")
