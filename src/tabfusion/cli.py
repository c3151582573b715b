"""Command-line pipeline: preprocess, train both models, blend, evaluate, persist.

Exit codes: 0 success, 1 configuration error, 2 data/model-file error,
3 training failure. Every failure names the stage it happened in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import (
    DataError,
    Schema,
    apply_transform,
    fit_transform,
    load_csv,
    stratified_split,
    transform_from_dict,
    transform_to_dict,
)
from .ensemble import (
    BlendConfig,
    EnsembleModel,
    blend,
    ensemble_from_dict,
    ensemble_to_dict,
    grid_search_alpha,
)
from .gbdt import GBDTConfig, feature_importance, gbdt_from_dict, gbdt_to_dict, predict_gbdt, train_gbdt
from .metrics import evaluate, format_report_table, roc_curve, roc_points_csv
from .xdeepfm import XDeepFMConfig, forward, train_xdeepfm, xdeepfm_from_dict, xdeepfm_to_dict

FORMAT_VERSION = 1
EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_TRAIN = 0, 1, 2, 3


class ConfigError(ValueError):
    """Bad flags, bad config file, or bad option values."""


@dataclass(frozen=True)
class RunConfig:
    data_path: Path
    out_dir: Path
    schema: Schema
    encoding_mode: str
    test_fraction: float
    val_fraction: float
    seed: int
    gbdt: GBDTConfig
    xdfm: XDeepFMConfig
    blend: BlendConfig


def parse_kv_file(path: Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; order is preserved."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: str, target_type):
    try:
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"option {key!r}: cannot parse {value!r} as {target_type.__name__}") from None


def _sub_config(kv: dict[str, str], prefix: str, config_cls, seed: int):
    """Build a model config dataclass from `prefix.field` keys."""
    allowed = {f.name: f for f in fields(config_cls)}
    kwargs = {"seed": seed}
    for key, value in kv.items():
        if not key.startswith(prefix + "."):
            continue
        name = key[len(prefix) + 1 :]
        if name not in allowed:
            raise ConfigError(f"unknown option {key!r}")
        if name == "base_score" and value.lower() in ("none", "auto"):
            kwargs[name] = None
        elif name == "deep_widths":
            try:
                kwargs[name] = tuple(int(w) for w in value.split(",") if w.strip())
            except ValueError:
                raise ConfigError(f"option {key!r}: expected comma-separated integers") from None
        elif name == "hidden_activation":
            kwargs[name] = value
        else:
            field_type = allowed[name].type
            py_type = int if "int" in str(field_type) else float if "float" in str(field_type) else str
            kwargs[name] = _coerce(key, value, py_type)
    try:
        return config_cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_TOP_KEYS = {
    "data",
    "out_dir",
    "missing_token",
    "positive_label",
    "encoding_mode",
    "test_fraction",
    "val_fraction",
    "seed",
}


def build_run_config(kv: dict[str, str]) -> RunConfig:
    columns = []
    for key, value in kv.items():
        if key.startswith("column."):
            columns.append((key[len("column.") :], value))
        elif key in _TOP_KEYS or key.split(".", 1)[0] in ("gbdt", "xdfm", "blend"):
            continue
        else:
            raise ConfigError(f"unknown option {key!r}")
    if "data" not in kv:
        raise ConfigError("missing required option 'data'")
    if not columns:
        raise ConfigError("no 'column.<name>' entries found")
    try:
        schema = Schema(
            columns=tuple(columns),
            missing_token=kv.get("missing_token", "N/A"),
            positive_label=kv.get("positive_label", "1"),
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    encoding_mode = kv.get("encoding_mode", "one_hot")
    if encoding_mode not in ("one_hot", "label"):
        raise ConfigError(f"encoding_mode must be 'one_hot' or 'label', got {encoding_mode!r}")
    test_fraction = _coerce("test_fraction", kv.get("test_fraction", "0.2"), float)
    val_fraction = _coerce("val_fraction", kv.get("val_fraction", "0.2"), float)
    for name, fraction in (("test_fraction", test_fraction), ("val_fraction", val_fraction)):
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1), got {fraction}")
    seed = _coerce("seed", kv.get("seed", "0"), int)
    blend_step = _coerce("blend.grid_step", kv.get("blend.grid_step", "0.01"), float)
    try:
        blend_cfg = BlendConfig(grid_step=blend_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in kv:
        if key.startswith("blend.") and key != "blend.grid_step":
            raise ConfigError(f"unknown option {key!r}")
    return RunConfig(
        data_path=Path(kv["data"]),
        out_dir=Path(kv.get("out_dir", "runs/out")),
        schema=schema,
        encoding_mode=encoding_mode,
        test_fraction=test_fraction,
        val_fraction=val_fraction,
        seed=seed,
        gbdt=_sub_config(kv, "gbdt", GBDTConfig, _coerce("gbdt.seed", kv.get("gbdt.seed", str(seed)), int)),
        xdfm=_sub_config(kv, "xdfm", XDeepFMConfig, _coerce("xdfm.seed", kv.get("xdfm.seed", str(seed)), int)),
        blend=blend_cfg,
    )


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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _predictions_csv(probs: np.ndarray) -> str:
    lines = ["row_id,probability"]
    lines += [f"{i},{p!r}" for i, p in enumerate(probs.tolist())]
    return "\n".join(lines) + "\n"


def _fail(stage: str, exc: Exception, code: int) -> int:
    detail = f"missing required field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    print(f"error [{stage}]: {detail}", file=sys.stderr)
    return code


def cmd_run(cfg: RunConfig) -> int:
    try:
        full = load_csv(cfg.data_path, cfg.schema)
        train_all, test = stratified_split(full, cfg.test_fraction, cfg.seed)
        # validation rows for the blend coefficient never touch model training
        fit_train, val = stratified_split(train_all, cfg.val_fraction, cfg.seed + 1)
        ft, dm_train = fit_transform(fit_train, cfg.encoding_mode)
        dm_val = apply_transform(ft, val)
        dm_test = apply_transform(ft, test)
    except DataError as exc:
        return _fail("data", exc, EXIT_DATA)

    try:
        gbdt_model = train_gbdt(dm_train, cfg.gbdt)
        xdfm_model = train_xdeepfm(dm_train, cfg.xdfm)
    except Exception as exc:
        return _fail("train", exc, EXIT_TRAIN)

    try:
        val_g = predict_gbdt(gbdt_model, dm_val.dense)
        val_x = forward(xdfm_model, dm_val.cat_indices, dm_val.dense)
        alpha, record = grid_search_alpha(dm_val.labels, val_g, val_x, cfg.blend)
        val_reports = [
            evaluate("GBDT", dm_val.labels, val_g),
            evaluate("xDeepFM", dm_val.labels, val_x),
            evaluate("Ensemble", dm_val.labels, blend(val_g, val_x, alpha)),
        ]
        test_g = predict_gbdt(gbdt_model, dm_test.dense)
        test_x = forward(xdfm_model, dm_test.cat_indices, dm_test.dense)
        test_blended = blend(test_g, test_x, alpha)
        test_reports = [
            evaluate("GBDT", dm_test.labels, test_g),
            evaluate("xDeepFM", dm_test.labels, test_x),
            evaluate("Ensemble", dm_test.labels, test_blended),
        ]
    except Exception as exc:
        return _fail("evaluate", exc, EXIT_TRAIN)

    report = "\n".join(
        [
            "Test metrics",
            format_report_table(test_reports),
            "",
            f"Validation metrics (blend coefficient alpha = {alpha!r})",
            format_report_table(val_reports),
            "",
            f"rows: train={dm_train.labels.size} val={dm_val.labels.size} test={dm_test.labels.size}",
            f"seeds: split={cfg.seed} val_split={cfg.seed + 1} gbdt={cfg.gbdt.seed} xdfm={cfg.xdfm.seed}",
            f"format_version: {FORMAT_VERSION}",
        ]
    )

    try:
        out = cfg.out_dir
        out.mkdir(parents=True, exist_ok=True)
        transform_dict = transform_to_dict(ft)
        gbdt_dict = gbdt_to_dict(gbdt_model)
        gbdt_dict["transform"] = transform_dict
        xdfm_dict = xdeepfm_to_dict(xdfm_model)
        xdfm_dict["transform"] = transform_dict
        ens = EnsembleModel(
            alpha=alpha,
            gbdt_ref="gbdt.json",
            xdeepfm_ref="xdeepfm.json",
            search_record=tuple(record),
        )
        ens_dict = ensemble_to_dict(ens)
        ens_dict["seeds"] = {"gbdt": cfg.gbdt.seed, "xdfm": cfg.xdfm.seed}
        _write_atomic(out / "gbdt.json", _json_text(gbdt_dict))
        _write_atomic(out / "xdeepfm.json", _json_text(xdfm_dict))
        _write_atomic(out / "ensemble.json", _json_text(ens_dict))
        _write_atomic(out / "predictions.csv", _predictions_csv(test_blended))
        record_lines = ["alpha,auc"] + [f"{a!r},{s!r}" for a, s in record]
        _write_atomic(out / "search_record.csv", "\n".join(record_lines) + "\n")
        _write_atomic(out / "report.txt", report + "\n")
        manifest = {
            "format_version": FORMAT_VERSION,
            "seeds": {
                "split": cfg.seed,
                "val_split": cfg.seed + 1,
                "gbdt": cfg.gbdt.seed,
                "xdfm": cfg.xdfm.seed,
            },
            "alpha": alpha,
            "validation_auc": {r.model: r.auc for r in val_reports},
            "test_auc": {r.model: r.auc for r in test_reports},
            "artifacts": [
                "gbdt.json",
                "xdeepfm.json",
                "ensemble.json",
                "predictions.csv",
                "search_record.csv",
                "report.txt",
            ],
        }
        _write_atomic(out / "manifest.json", _json_text(manifest))
    except OSError as exc:
        return _fail("write", exc, EXIT_DATA)

    print(report)
    return EXIT_OK


def _load_model_file(path: Path) -> dict:
    if not path.is_file():
        raise DataError(f"model file not found: {path}")
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot parse model file {path}: {exc}") from None
    if d.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format_version {d.get('format_version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return d


def _predict_from_file(model_path: Path, data_path: Path) -> np.ndarray:
    d = _load_model_file(model_path)
    kind = d.get("kind")
    if kind == "ensemble":
        ens = ensemble_from_dict(d)
        base = model_path.parent
        return blend(
            _predict_from_file(base / ens.gbdt_ref, data_path),
            _predict_from_file(base / ens.xdeepfm_ref, data_path),
            ens.alpha,
        )
    if "transform" not in d:
        raise DataError(f"{model_path}: model file carries no fitted transform")
    ft = transform_from_dict(d["transform"])
    dm = apply_transform(ft, load_csv(data_path, ft.schema))
    if kind == "gbdt":
        return predict_gbdt(gbdt_from_dict(d), dm.dense)
    if kind == "xdeepfm":
        return np.asarray(forward(xdeepfm_from_dict(d), dm.cat_indices, dm.dense))
    raise DataError(f"{model_path}: unknown model kind {kind!r}")


def cmd_predict(model_path: Path, data_path: Path, out_path: Path | None) -> int:
    try:
        probs = _predict_from_file(model_path, data_path)
    except (DataError, ValueError, KeyError) as exc:
        return _fail("predict", exc, EXIT_DATA)
    text = _predictions_csv(probs)
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(out_path, text)
    return EXIT_OK


def cmd_importance(model_path: Path, top_k: int) -> int:
    try:
        d = _load_model_file(model_path)
        if d.get("kind") != "gbdt":
            raise DataError(f"{model_path}: feature importance needs a gbdt model file")
        model = gbdt_from_dict(d)
    except (DataError, ValueError, KeyError) as exc:
        return _fail("importance", exc, EXIT_DATA)
    scores = feature_importance(model)
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))[:top_k]
    width = max([len("feature")] + [len(model.feature_names[i]) for i in order])
    print(f"{'feature':<{width}}  {'importance':>10}")
    for i in order:
        print(f"{model.feature_names[i]:<{width}}  {scores[i]:>10.4f}")
    return EXIT_OK


def cmd_evaluate(model_path: Path, data_path: Path, name: str | None, roc_out: Path | None) -> int:
    try:
        probs = _predict_from_file(model_path, data_path)
        d = _load_model_file(model_path)
        ft_source = d if "transform" in d else _load_model_file(model_path.parent / d["gbdt_ref"])
        ft = transform_from_dict(ft_source["transform"])
        labels = load_csv(data_path, ft.schema).labels()
        report = evaluate(name or d.get("kind", "model"), labels, probs)
    except (DataError, ValueError, KeyError) as exc:
        return _fail("evaluate", exc, EXIT_DATA)
    print(format_report_table([report]))
    print(f"n: {report.n}  positives: {report.positives}")
    if roc_out is not None:
        roc_out.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(roc_out, roc_points_csv(roc_curve(labels, probs)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag problems are config errors
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tabfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full pipeline: split, train, blend, evaluate, persist")
    run.add_argument("--config", required=True, type=Path, help="flat key=value config file")
    run.add_argument("--data", type=Path, help="override the config's data path")
    run.add_argument("--out", type=Path, help="override the config's output directory")
    run.add_argument("--seed", type=int, help="override the config's seed")
    run.add_argument("--test-fraction", type=float, help="override the config's test fraction")
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config option (repeatable)",
    )

    predict = sub.add_parser("predict", help="write row_id,probability for every input row")
    predict.add_argument("--model", required=True, type=Path)
    predict.add_argument("--data", required=True, type=Path)
    predict.add_argument("--out", type=Path, help="output CSV (default: stdout)")

    importance = sub.add_parser("importance", help="top-k features of a gbdt model by split gain")
    importance.add_argument("--model", required=True, type=Path)
    importance.add_argument("--top", type=int, default=10)

    ev = sub.add_parser("evaluate", help="AUC/BCE of a saved model on a labeled CSV")
    ev.add_argument("--model", required=True, type=Path)
    ev.add_argument("--data", required=True, type=Path)
    ev.add_argument("--name", help="model name to print")
    ev.add_argument("--roc-csv", type=Path, help="also write ROC curve points to this CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            kv = parse_kv_file(args.config)
            if args.data is not None:
                kv["data"] = str(args.data)
            if args.out is not None:
                kv["out_dir"] = str(args.out)
            if args.seed is not None:
                kv["seed"] = str(args.seed)
            if args.test_fraction is not None:
                kv["test_fraction"] = str(args.test_fraction)
            for item in args.set:
                if "=" not in item:
                    raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
                key, _, value = item.partition("=")
                kv[key.strip()] = value.strip()
            cfg = build_run_config(kv)
            return cmd_run(cfg)
        if args.command == "predict":
            return cmd_predict(args.model, args.data, args.out)
        if args.command == "importance":
            return cmd_importance(args.model, args.top)
        if args.command == "evaluate":
            return cmd_evaluate(args.model, args.data, args.name, args.roc_csv)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
