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

from .artifact import FORMAT_VERSION, _write_atomic, config_from_dict, read_model_file, write_json
from .dataset import (
    DataError,
    Schema,
    apply_transform,
    csv_split,
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


def parse_kv_file(path: Path) -> dict[str, str]:
    """Flat `key = value` lines in order, a leading BOM dropped; a line whose first non-blank is '#' is a comment."""
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


@dataclass(frozen=True)
class RunOptions:
    """A run config's top-level keys, the ones without a dot, with their defaults."""

    data: str = ""
    out_dir: str = "runs/out"
    missing_token: str = "N/A"
    positive_label: str = "1"
    test_fraction: float = 0.2
    val_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not self.data:
            raise ValueError("missing required option 'data'")
        for name in ("test_fraction", "val_fraction"):
            if not 0.0 < (fraction := getattr(self, name)) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {fraction}")
        if self.seed < 0:  # NumPy's generators take no negative seed
            raise ValueError(f"option 'seed' must be non-negative, got {self.seed}")


@dataclass(frozen=True, kw_only=True)
class RunConfig(RunOptions):
    """A run's options, its schema and each learner's and the blend's config."""

    schema: Schema
    gbdt: GBDTConfig
    xdfm: XDeepFMConfig
    blend: BlendConfig


# The config class of each section: a key `section.field` sets that field, and a key without a dot a field of
# RunOptions. The `column` section is the schema: `column.<name> = <kind>`, in column order.
_SECTIONS = {"": RunOptions, "gbdt": GBDTConfig, "xdfm": XDeepFMConfig, "blend": BlendConfig}


def build_run_config(kv: dict[str, str]) -> RunConfig:
    raw = {section: {} for section in ("column", *_SECTIONS)}  # section -> {field: text}
    for key, value in kv.items():
        head, dot, name = key.partition(".")
        section, name = (head, name) if dot else ("", key)
        if section not in raw or (section != "column" and name not in _SECTIONS[section].__dataclass_fields__):
            raise ConfigError(f"unknown option {key!r}")
        raw[section][name] = value
    sections = {}  # section -> its config
    for section, config_cls in _SECTIONS.items():
        if section in ("gbdt", "xdfm"):  # a learner's seed is the run's unless set
            raw[section].setdefault("seed", sections[""].seed)
        try:
            sections[section] = config_from_dict(config_cls, raw[section], text=True)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}" if section else str(exc)) from None
    options = sections.pop("")
    if not raw["column"]:
        raise ConfigError("no 'column.<name>' entries found")
    try:
        schema = Schema(tuple(raw["column"].items()), options.missing_token, options.positive_label)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(**vars(options), schema=schema, **sections)


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


def _prediction_lines(probs: np.ndarray, start: int = 0) -> str:
    """One `row_id,probability` line per probability, row ids counted from ``start``."""
    return "".join(f"{i},{p!r}\n" for i, p in enumerate(probs.tolist(), start))


def _predictions_csv(probs: np.ndarray) -> str:
    return "row_id,probability\n" + _prediction_lines(probs)


def _detail(exc: Exception) -> str:
    return f"missing required field {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


@contextlib.contextmanager
def _forked(work, name: str):
    """Run ``work()`` in a forked child while the block runs. The block gets a function that waits for the
    child and returns what ``work`` returned or raises what it raised; a block left before that kills the
    child. The child is always reaped."""
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader, open(write_end, "wb") as writer:
        if (pid := os.fork()) == 0:  # pickles (ok, value or exception) into the pipe; os._exit runs no exit handler
            try:
                try:
                    reply = (True, work())
                except Exception as exc:
                    reply = (False, exc)
                writer.write(pickle.dumps(reply))
                writer.flush()
                os._exit(0)
            finally:
                os._exit(1)
        writer.close()  # the child's is now the only write end: reading stops when it closes
        status = None

        def result():
            nonlocal status
            reply, status = reader.read(), os.waitpid(pid, 0)[1]
            if not reply:
                code = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
                raise ChildProcessError(f"{name} died with {'signal' if code < 0 else 'exit status'} {abs(code)}")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            if status is None:  # an interrupt or an error left early: end the child
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _train_learners(dm_train, dm_val, cfg: RunConfig):
    """Fit the GBDT in a forked child while the network trains on this thread, both stopping on the validation
    rows; a GBDT error is raised first."""
    with _forked(lambda: train_gbdt(dm_train, cfg.gbdt, dm_val), "GBDT: training process") as gbdt_result:
        xdfm_error = None
        try:
            xdfm_model = train_xdeepfm(dm_train, cfg.xdfm, dm_val)
        except Exception as exc:
            xdfm_error = exc
        gbdt_model = gbdt_result()
    if xdfm_error is not None:  # a network error names its learner; a GBDT error reads as it is
        raise RuntimeError(f"xDeepFM: {xdfm_error}") from xdfm_error
    return gbdt_model, xdfm_model


def run_pipeline(cfg: RunConfig) -> dict:
    """All of `run` in memory, or StageError: the run directory's files by name, `manifest.json` last."""
    seeds = {"split": cfg.seed, "val_split": cfg.seed + 1, "gbdt": cfg.gbdt.seed, "xdfm": cfg.xdfm.seed}
    with _stage("data", EXIT_DATA, DataError):
        full = load_csv(cfg.data, cfg.schema)
        train_all, test = stratified_split(full, cfg.test_fraction, seeds["split"])
        # validation rows choose the GBDT's tree count, the network's epochs and the blend coefficient; test rows none
        fit_train, val = stratified_split(train_all, cfg.val_fraction, seeds["val_split"])
        ft, dm_train = fit_transform(fit_train)
        dm_val = apply_transform(ft, val)
        dm_test = apply_transform(ft, test)
    with _stage("train", EXIT_TRAIN, Exception):
        gbdt_model, xdfm_model = _train_learners(dm_train, dm_val, cfg)

    trees_kept = int(gbdt_model.forest.roots.size)
    epochs_kept = xdfm_model.config.n_epochs
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
            "These rows chose the GBDT's tree count, the network's epochs and alpha, so every AUC above reads high.",
            "",
            f"rows: train={dm_train.labels.size} val={dm_val.labels.size} test={dm_test.labels.size}",
            f"gbdt trees: {trees_kept} kept of at most n_trees={cfg.gbdt.n_trees}",
            f"xdeepfm epochs: {epochs_kept} kept of at most n_epochs={cfg.xdfm.n_epochs}",
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
        "xdfm_epochs": epochs_kept,
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
        _write_output(Path(cfg.out_dir) / name, content)
    sys.stdout.write(files["report.txt"])
    for learner in ("GBDT", "xDeepFM"):  # the run succeeds, and stderr says which learner it can hardly use
        auc = files["manifest.json"]["validation_auc"][learner]
        if auc <= _NEAR_CHANCE_AUC:
            print(f"warning: {learner} validation AUC {auc:.4f} is near chance", file=sys.stderr)


# Rows `predict` and `evaluate` parse, transform and score at a time: whole blocks of
# `forward`, so every chunk starts on a block boundary and every row goes through the
# same matrix products as in one call on the whole table.
_CHUNK_ROWS = 16 * _BLOCK_ROWS


def _predict_from_file(model_path: Path, data_path: Path, keep) -> tuple[str, list]:
    """The model's kind, and ``keep(probs, labels, start)`` of each part of the rows of data_path, in row
    order: the probabilities and 0/1 labels of a part's rows, and the 0-based index of its first row.

    A lone model file is read by its own kind; an ensemble's components by their role, so its
    `gbdt_ref` must name a gbdt file and its `xdeepfm_ref` an xdeepfm file. An error in a model
    file names that file, and an ensemble whose components carry different fitted transforms is
    refused: a run writes the same one into both. The CSV is read in chunks of `_CHUNK_ROWS`
    rows; that transform is applied to each chunk once, both components score it, and only the
    probabilities and labels are kept.

    On two or more CPUs, a file that `csv_split` can cut at a chunk boundary is read as two
    parts: this process scores the first and a forked child the second, each reading only its
    own rows. The chunks are one reader's, so the bytes are the same, and so is the error
    reported: the one a single pass meets first.
    """
    d = read_model_file(model_path)
    kind = d.get("kind")
    files = [(kind, model_path, d)]  # (role, path, document)
    if kind == "ensemble":
        try:
            ens = ensemble_from_dict(d)
        except (ValueError, KeyError) as exc:
            raise DataError(f"{model_path}: {_detail(exc)}") from None
        refs = (("gbdt", ens.gbdt_ref), ("xdeepfm", ens.xdeepfm_ref))
        files = [(role, model_path.parent / ref, read_model_file(model_path.parent / ref)) for role, ref in refs]
    elif kind not in ("gbdt", "xdeepfm"):
        raise DataError(f"{model_path}: unknown model kind {kind!r}")
    models, transforms = [], set()  # (role, model) of each file, and the fitted transforms they carry
    for role, path, doc in files:
        try:  # each reader checks the kind
            models.append((role, gbdt_from_dict(doc) if role == "gbdt" else xdeepfm_from_dict(doc)))
            transforms.add(transform_from_dict(doc["transform"]))
        except (ValueError, KeyError) as exc:
            raise DataError(f"{path}: {_detail(exc)}") from None
    if len(transforms) > 1:
        raise DataError(f"{model_path}: its gbdt and xdeepfm files carry different fitted transforms")
    (ft,) = transforms

    def score(part=(0, 1, None)):
        """keep() of the rows of `part`, as read_csv_chunks reads it."""
        probs, labels = [], []
        for chunk in read_csv_chunks(data_path, ft.schema, _CHUNK_ROWS, part):
            dm = apply_transform(ft, chunk)
            scores = [
                predict_gbdt(model, dm.dense) if role == "gbdt" else forward(model, dm.cat_indices, dm.dense)
                for role, model in models
            ]
            probs.append(blend(scores[0], scores[1], ens.alpha) if kind == "ensemble" else scores[0])
            labels.append(dm.labels)
            del chunk, dm  # before the next chunk is read
        return keep(np.concatenate(probs), np.concatenate(labels), part[1] - 1)

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    split = len(cpus) > 1 and csv_split(data_path, _CHUNK_ROWS)
    if not split:  # on one CPU, a second process only slows the first down
        return kind, [score()]
    offset, rows = split
    with _forked(lambda: score((offset, rows + 1, None)), "scoring process") as second:
        return kind, [score((0, 1, rows)), second()]


def cmd_predict(model_path: Path, data_path: Path, out_path: Path | None) -> None:
    with _stage("predict", EXIT_DATA, (ValueError, KeyError, ChildProcessError)):
        _, parts = _predict_from_file(model_path, data_path, lambda probs, _, start: _prediction_lines(probs, start))
    text = "row_id,probability\n" + "".join(parts)
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
    with _stage("evaluate", EXIT_DATA, (ValueError, KeyError, ChildProcessError)):
        kind, parts = _predict_from_file(model_path, data_path, lambda probs, labels, _: (probs, labels))
        probs, labels = (np.concatenate(arrays) for arrays in zip(*parts))
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
                flags = {"data": args.data, "out_dir": args.out, "seed": args.seed}
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
