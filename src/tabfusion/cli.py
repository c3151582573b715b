"""Command-line pipeline: preprocess, train both models, blend, evaluate, persist.

Exit codes: 0 success, 1 configuration error, 2 data/model-file error,
3 training failure. Every failure names the stage it happened in.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import FORMAT_VERSION, _write_atomic, coerce, config_from_dict, read_model_file, write_json
from .dataset import (
    DataError,
    Schema,
    apply_transform,
    fit_transform,
    load_csv,
    read_csv_chunks,
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
from .xdeepfm import _BLOCK_ROWS

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_TRAIN = 0, 1, 2, 3


class ConfigError(ValueError):
    """Bad flags, bad config file, or bad option values."""


class StageError(Exception):
    """A command's failure at one stage, and its exit code; the error it stands for is its ``__cause__``."""

    def __init__(self, stage: str, code: int):
        self.stage, self.code = stage, code

    def __str__(self) -> str:
        return f"error [{self.stage}]: {_detail(self.__cause__)}"


@contextlib.contextmanager
def _stage(name: str, code: int, errors):
    """Raise StageError(name, code) from any of ``errors`` that the block raises."""
    try:
        yield
    except errors as exc:
        raise StageError(name, code) from exc


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
    """Flat `key = value` lines; '#' starts a comment; order is preserved; a leading BOM is dropped."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.start counts from after a BOM, as exc.object does
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def _option(kv: dict[str, str], key: str, default: str, hint):
    """A top-level option's value, read by the config rule of `tabfusion.artifact`."""
    try:
        return coerce(hint, kv.get(key, default), text=True)
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: {exc}") from None


def _sub_config(kv: dict[str, str], prefix: str, config_cls, **defaults):
    """Build a config dataclass from `prefix.field` keys over `defaults`, by the one config rule."""
    raw = dict(defaults)
    raw.update((key[len(prefix) + 1 :], value) for key, value in kv.items() if key.startswith(prefix + "."))
    try:
        return config_from_dict(config_cls, raw, text=True)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


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
    test_fraction = _option(kv, "test_fraction", "0.2", float)
    val_fraction = _option(kv, "val_fraction", "0.2", float)
    for name, fraction in (("test_fraction", test_fraction), ("val_fraction", val_fraction)):
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1), got {fraction}")
    seed = _option(kv, "seed", "0", int)
    if seed < 0:  # NumPy's generators take no negative seed
        raise ConfigError(f"option 'seed' must be non-negative, got {seed}")
    return RunConfig(
        data_path=Path(kv["data"]),
        out_dir=Path(kv.get("out_dir", "runs/out")),
        schema=schema,
        encoding_mode=encoding_mode,
        test_fraction=test_fraction,
        val_fraction=val_fraction,
        seed=seed,
        gbdt=_sub_config(kv, "gbdt", GBDTConfig, seed=seed),
        xdfm=_sub_config(kv, "xdfm", XDeepFMConfig, seed=seed),
        blend=_sub_config(kv, "blend", BlendConfig),
    )


def load_run_config(path: Path, settings=(), **flags) -> RunConfig:
    """The config file's RunConfig, overridden by the ``flags`` that are not None, then by each KEY=VALUE setting."""
    with _stage("config", EXIT_CONFIG, ConfigError):
        kv = parse_kv_file(path)
        kv.update((key, str(value)) for key, value in flags.items() if value is not None)
        for item in settings:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            kv[key.strip()] = value.strip()
        return build_run_config(kv)


def _write_output(path: Path, content) -> None:
    """Write one output file, a str as text and anything else as JSON; an OS error fails at stage `write`."""
    with _stage("write", EXIT_DATA, OSError):
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            _write_atomic(path, content)
        else:
            write_json(path, content)


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout, or raise. Unbuffered, ``sys.stdout.write`` drops
    what a pipe did not take when its reader went; writing the rest raises BrokenPipeError."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stdout, e.g. under contextlib.redirect_stdout(io.StringIO())
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode("utf-8"))
    while data:
        data = data[buffer.write(data) :]


def _predictions_csv(probs: np.ndarray) -> str:
    lines = ["row_id,probability"]
    lines += [f"{i},{p!r}" for i, p in enumerate(probs.tolist())]
    return "\n".join(lines) + "\n"


def _detail(exc: Exception) -> str:
    return f"missing required field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def _train_learners(dm_train, dm_val, cfg: RunConfig):
    """Fit the GBDT in a forked child while the network trains on this thread; a GBDT error is raised first."""
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader, open(write_end, "wb") as writer:
        if (pid := os.fork()) == 0:  # pickles (ok, model or exception) into the pipe; os._exit runs no exit handler
            try:
                try:
                    reply = (True, train_gbdt(dm_train, cfg.gbdt, dm_val))
                except Exception as exc:
                    reply = (False, exc)
                writer.write(pickle.dumps(reply))
                writer.flush()
                os._exit(0)
            finally:
                os._exit(1)
        writer.close()  # the child's is now the only write end: reading stops when it closes
        status = xdfm_error = None
        try:
            try:
                xdfm_model = train_xdeepfm(dm_train, cfg.xdfm)
            except Exception as exc:
                xdfm_error = exc
            reply, status = reader.read(), os.waitpid(pid, 0)[1]
        finally:
            if status is None:  # an interrupt or an error left early: end the child
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not reply:
        code = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
        raise RuntimeError(f"GBDT: training process died with {'signal' if code < 0 else 'exit status'} {abs(code)}")
    ok, gbdt_model = pickle.loads(reply)
    if not ok:
        raise gbdt_model
    if xdfm_error is not None:  # a network error names its learner; a GBDT error reads as it is
        raise RuntimeError(f"xDeepFM: {xdfm_error}") from xdfm_error
    return gbdt_model, xdfm_model


def run_pipeline(cfg: RunConfig) -> dict:
    """All of `run` in memory, or StageError: the run directory's files by name, `manifest.json` last."""
    seeds = {"split": cfg.seed, "val_split": cfg.seed + 1, "gbdt": cfg.gbdt.seed, "xdfm": cfg.xdfm.seed}
    with _stage("data", EXIT_DATA, DataError):
        full = load_csv(cfg.data_path, cfg.schema)
        train_all, test = stratified_split(full, cfg.test_fraction, seeds["split"])
        # validation rows choose the GBDT's tree count and the blend coefficient; test rows neither
        fit_train, val = stratified_split(train_all, cfg.val_fraction, seeds["val_split"])
        ft, dm_train = fit_transform(fit_train, cfg.encoding_mode)
        dm_val = apply_transform(ft, val)
        dm_test = apply_transform(ft, test)
    with _stage("train", EXIT_TRAIN, Exception):
        gbdt_model, xdfm_model = _train_learners(dm_train, dm_val, cfg)

    trees_kept = int(gbdt_model.forest.roots.size)
    reports = {}  # partition -> its evaluate rows, one per model
    with _stage("evaluate", EXIT_TRAIN, Exception):  # the validation partition comes first: alpha is searched on it
        for partition, dm in (("validation", dm_val), ("test", dm_test)):
            p_gbdt = predict_gbdt(gbdt_model, dm.dense)
            p_xdfm = forward(xdfm_model, dm.cat_indices, dm.dense)
            if partition == "validation":
                alpha, record = grid_search_alpha(dm.labels, p_gbdt, p_xdfm, cfg.blend)
            blended = blend(p_gbdt, p_xdfm, alpha)  # after the loop, the test partition's
            scored = zip(("GBDT", "xDeepFM", "Ensemble"), (p_gbdt, p_xdfm, blended))
            reports[partition] = [evaluate(name, dm.labels, p) for name, p in scored]

    report = "\n".join(
        [
            "Test metrics",
            format_report_table(reports["test"]),
            "",
            f"Validation metrics (blend coefficient alpha = {alpha!r})",
            format_report_table(reports["validation"]),
            "These rows chose the GBDT's tree count and alpha, so the GBDT and Ensemble AUCs above read high.",
            "",
            f"rows: train={dm_train.labels.size} val={dm_val.labels.size} test={dm_test.labels.size}",
            f"gbdt trees: {trees_kept} kept of at most n_trees={cfg.gbdt.n_trees}",
            "seeds: " + " ".join(f"{name}={seed}" for name, seed in seeds.items()),
            f"format_version: {FORMAT_VERSION}",
        ]
    )
    transform_dict = transform_to_dict(ft)
    ens = EnsembleModel(alpha=alpha, gbdt_ref="gbdt.json", xdeepfm_ref="xdeepfm.json", search_record=tuple(record))
    # the run directory, in writing order: a str is written as text, anything else as JSON
    files = {
        "gbdt.json": {**gbdt_to_dict(gbdt_model), "transform": transform_dict},
        "xdeepfm.json": {**xdeepfm_to_dict(xdfm_model), "transform": transform_dict},
        "ensemble.json": {**ensemble_to_dict(ens), "seeds": {"gbdt": seeds["gbdt"], "xdfm": seeds["xdfm"]}},
        "predictions.csv": _predictions_csv(blended),
        "search_record.csv": "\n".join(["alpha,auc"] + [f"{a!r},{s!r}" for a, s in record]) + "\n",
        "report.txt": report + "\n",
    }
    files["manifest.json"] = {
        "format_version": FORMAT_VERSION,
        "seeds": seeds,
        "alpha": alpha,
        "gbdt_trees": trees_kept,
        "validation_auc": {r.model: r.auc for r in reports["validation"]},
        "test_auc": {r.model: r.auc for r in reports["test"]},
        "artifacts": list(files),
    }
    return files


# A learner whose validation AUC is at most this ranks the rows little better than chance.
_NEAR_CHANCE_AUC = 0.6


def cmd_run(cfg: RunConfig) -> None:
    files = run_pipeline(cfg)
    for name, content in files.items():
        _write_output(cfg.out_dir / name, content)
    sys.stdout.write(files["report.txt"])
    for learner in ("GBDT", "xDeepFM"):  # the run succeeds, and stderr says which learner it can hardly use
        auc = files["manifest.json"]["validation_auc"][learner]
        if auc <= _NEAR_CHANCE_AUC:
            print(f"warning: {learner} validation AUC {auc:.4f} is near chance", file=sys.stderr)


# Rows `predict` and `evaluate` parse, transform and score at a time: whole blocks of
# `forward`, and a last piece under one block joins the chunk before it, so every row
# goes through the same matrix products as in one call on the whole table.
_CHUNK_ROWS = 16 * _BLOCK_ROWS


def _predict_from_file(model_path: Path, data_path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """The model's kind, and its probabilities and the 0/1 labels of every row of data_path.

    A lone model file is read by its own kind; an ensemble's components by their role, so its
    `gbdt_ref` must name a gbdt file and its `xdeepfm_ref` an xdeepfm file, and an error in a
    component names its file. The CSV is read in chunks of `_CHUNK_ROWS` rows, one pass per
    schema; each chunk is scored by both components, each distinct fitted transform applied
    once (a run writes the same one into both), and only the probabilities and labels are kept.
    """
    d = read_model_file(model_path)
    kind = d.get("kind")
    parts = [(kind, model_path, d)]  # (role, path, document)
    if kind == "ensemble":
        ens = ensemble_from_dict(d)
        refs = (("gbdt", ens.gbdt_ref), ("xdeepfm", ens.xdeepfm_ref))
        parts = [(role, model_path.parent / ref, read_model_file(model_path.parent / ref)) for role, ref in refs]
    elif kind not in ("gbdt", "xdeepfm"):
        raise DataError(f"{model_path}: unknown model kind {kind!r}")
    models = []  # (role, model, fitted transform) of each part
    for role, path, doc in parts:
        try:
            model = gbdt_from_dict(doc) if role == "gbdt" else xdeepfm_from_dict(doc)  # each checks the kind
            ft = transform_from_dict(doc["transform"]) if "transform" in doc else None
        except (ValueError, KeyError) as exc:
            if kind != "ensemble":
                raise
            raise DataError(f"{path}: {_detail(exc)}") from None
        if ft is None:
            raise DataError(f"{path}: model file carries no fitted transform")
        models.append((role, model, ft))
    schemas = list(dict.fromkeys(ft.schema for _, _, ft in models))
    readers = [read_csv_chunks(data_path, schema, _CHUNK_ROWS, _BLOCK_ROWS) for schema in schemas]
    probs, labels = [], []
    for chunks in zip(*readers):  # the same file rows under each schema
        datasets = dict(zip(schemas, chunks))
        matrices = {ft: apply_transform(ft, datasets[ft.schema]) for ft in dict.fromkeys(ft for _, _, ft in models)}
        scores = [
            predict_gbdt(model, matrices[ft].dense)
            if role == "gbdt"
            else np.asarray(forward(model, matrices[ft].cat_indices, matrices[ft].dense))
            for role, model, ft in models
        ]
        probs.append(blend(scores[0], scores[1], ens.alpha) if kind == "ensemble" else scores[0])
        labels.append(matrices[models[0][2]].labels)
        del chunks, datasets, matrices  # before the next chunk is read
    return kind, np.concatenate(probs), np.concatenate(labels)


def cmd_predict(model_path: Path, data_path: Path, out_path: Path | None) -> None:
    with _stage("predict", EXIT_DATA, (ValueError, KeyError)):
        _, probs, _ = _predict_from_file(model_path, data_path)
    text = _predictions_csv(probs)
    if out_path is None:
        _write_stdout(text)
    else:
        _write_output(out_path, text)


def cmd_importance(model_path: Path, top_k: int) -> None:
    if top_k < 1:  # the slice [:top_k] would drop features from the end of the ranking
        raise StageError("config", EXIT_CONFIG) from ConfigError(f"--top must be at least 1, got {top_k}")
    with _stage("importance", EXIT_DATA, (ValueError, KeyError)):
        model = gbdt_from_dict(read_model_file(model_path))  # ValueError for another kind
    scores = feature_importance(model)
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))[:top_k]
    width = max([len("feature")] + [len(model.feature_names[i]) for i in order])
    print(f"{'feature':<{width}}  {'importance':>10}")
    for i in order:
        print(f"{model.feature_names[i]:<{width}}  {scores[i]:>10.4f}")


def cmd_evaluate(model_path: Path, data_path: Path, name: str | None, roc_out: Path | None) -> None:
    with _stage("evaluate", EXIT_DATA, (ValueError, KeyError)):
        kind, probs, labels = _predict_from_file(model_path, data_path)
        report = evaluate(name or kind, labels, probs)
    print(format_report_table([report]))
    print(f"n: {report.n}  positives: {report.positives}")
    if roc_out is not None:
        _write_output(roc_out, roc_points_csv(roc_curve(labels, probs)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); flag problems are config errors
        raise StageError("config", EXIT_CONFIG) from ConfigError(message)


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
    try:
        with _stage("write", EXIT_DATA, BrokenPipeError):  # the reader of stdout has gone, e.g. `| head -1`
            args = _build_parser().parse_args(argv)
            if args.command == "run":
                flags = {"data": args.data, "out_dir": args.out, "seed": args.seed, "test_fraction": args.test_fraction}
                cmd_run(load_run_config(args.config, args.set, **flags))
            elif args.command == "predict":
                cmd_predict(args.model, args.data, args.out)
            elif args.command == "importance":
                cmd_importance(args.model, args.top)
            else:  # the parser takes no other command
                cmd_evaluate(args.model, args.data, args.name, args.roc_csv)
            sys.stdout.flush()  # a closed stdout then fails here, not at interpreter exit
    except StageError as exc:
        if isinstance(exc.__cause__, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush writes there
        print(exc, file=sys.stderr)
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
