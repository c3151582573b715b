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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifact import FORMAT_VERSION, _write_atomic, coerce, config_from_dict, read_model_file, write_json
from .dataset import (
    DataError,
    DesignMatrix,
    FittedTransform,
    Schema,
    TabularDataset,
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
from .xdeepfm import XDeepFMConfig, XDeepFMModel, forward, train_xdeepfm, xdeepfm_from_dict, xdeepfm_to_dict

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
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
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


def _write_output(path: Path, text: str) -> int:
    """Write one output file of `predict` or `evaluate`; an OS error fails at stage `write`."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, text)
    except OSError as exc:
        return _fail("write", exc, EXIT_DATA)
    return EXIT_OK


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


def _fail(stage: str, exc: Exception, code: int) -> int:
    detail = f"missing required field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    print(f"error [{stage}]: {detail}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _network_in_child():
    """Start a child interpreter to train the network; yield ``train(dm, cfg)``, which hands it
    its request and returns a function that waits for the trained network.

    ``train`` writes the request to a file and closes the child's stdin, which the child
    waits on, so this process never blocks on the child. The child (`_network_child`) runs on
    one BLAS thread, so it and a GBDT fit here each keep one core busy, and keeps 16 MiB of
    freed heap, which glibc would otherwise trim and fault back in on every Adam step. Its
    stderr is this process's stderr. It is killed and reaped on every way out of the block.
    """
    import pickle
    import subprocess

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["MALLOC_TRIM_THRESHOLD_"] = str(16 << 20)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    # on a pipe the child would block until this process reads its reply, after the GBDT fit
    with tempfile.TemporaryFile() as request, tempfile.TemporaryFile() as reply:
        proc = subprocess.Popen(
            [sys.executable, "-c", f"from tabfusion.cli import _network_child; _network_child({request.fileno()})"],
            stdin=subprocess.PIPE,
            stdout=reply,
            env=env,
            pass_fds=(request.fileno(),),
        )

        def train(dm: DesignMatrix, cfg: XDeepFMConfig):
            pickle.dump((dm, cfg), request, protocol=pickle.HIGHEST_PROTOCOL)
            request.seek(0)  # flushes; the child reads from the shared offset
            proc.stdin.close()  # the child's cue; closing never blocks, even once the child is gone
            return result

        def result() -> XDeepFMModel:
            proc.wait()
            reply.seek(0)
            out = reply.read()
            if proc.returncode != 0:
                detail = out.decode("utf-8", "replace").strip() or f"training process exited with code {proc.returncode}"
                raise RuntimeError(f"xDeepFM: {detail}")
            try:
                return xdeepfm_from_dict(json.loads(out))
            except ValueError as exc:
                raise ValueError(f"xDeepFM: {exc}") from None

        try:
            yield train
        finally:
            proc.kill()  # a no-op once the child has been reaped
            proc.wait()
            proc.stdin.close()


def _network_child(request_fd: int) -> None:
    """Child side of `_network_in_child`: once stdin closes, a pickled (DesignMatrix, XDeepFMConfig) in ``request_fd``.

    Writes the trained network's `xdeepfm_to_dict` document to stdout as JSON
    in one write, or one `Type: message` line, and exits 1 if training fails.
    """
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_DFL)  # on Ctrl-C the parent reports; the child just stops
    sys.stdin.buffer.read()  # returns once the parent has written the request
    try:
        dm, cfg = pickle.load(os.fdopen(request_fd, "rb"))
        doc = xdeepfm_to_dict(train_xdeepfm(dm, cfg))
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
        sys.exit(1)
    sys.stdout.write(json.dumps(doc))  # json.dump would make one write per token


def cmd_run(cfg: RunConfig) -> int:
    with contextlib.ExitStack() as child:
        try:  # the network child starts first, so its start-up overlaps the data stage
            train_network = child.enter_context(_network_in_child())
        except OSError as exc:
            return _fail("train", exc, EXIT_TRAIN)
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
            network = train_network(dm_train, cfg.xdfm)
            gbdt_model = train_gbdt(dm_train, cfg.gbdt)  # a GBDT error wins over the network's
            xdfm_model = network()
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
        write_json(out / "gbdt.json", gbdt_dict)
        write_json(out / "xdeepfm.json", xdfm_dict)
        write_json(out / "ensemble.json", ens_dict)
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
        write_json(out / "manifest.json", manifest)
    except OSError as exc:
        return _fail("write", exc, EXIT_DATA)

    print(report)
    return EXIT_OK


def _predict_from_file(model_path: Path, data_path: Path) -> tuple[str, np.ndarray, np.ndarray]:
    """The model's kind, and its probabilities and the 0/1 labels of every row of data_path.

    An ensemble scores both components from one parse of the CSV, and each
    distinct fitted transform is applied once: a run writes the same one into both.
    """
    d = read_model_file(model_path)
    kind = d.get("kind")
    parts = [(model_path, d)]
    if kind == "ensemble":
        ens = ensemble_from_dict(d)
        paths = [model_path.parent / ens.gbdt_ref, model_path.parent / ens.xdeepfm_ref]
        parts = [(path, read_model_file(path)) for path in paths]
    datasets: dict[Schema, TabularDataset] = {}
    matrices: dict[FittedTransform, DesignMatrix] = {}  # one per distinct fitted transform
    dms = []  # each part's design matrix
    for path, doc in parts:
        if "transform" not in doc:
            raise DataError(f"{path}: model file carries no fitted transform")
        ft = transform_from_dict(doc["transform"])
        if ft not in matrices:
            if ft.schema not in datasets:
                datasets[ft.schema] = load_csv(data_path, ft.schema)
            matrices[ft] = apply_transform(ft, datasets[ft.schema])
        dms.append(matrices[ft])
    datasets.clear()  # the parsed cells outweigh the matrices; free them before scoring
    probs = []
    for (path, doc), dm in zip(parts, dms):
        if doc.get("kind") == "gbdt":
            probs.append(predict_gbdt(gbdt_from_dict(doc), dm.dense))
        elif doc.get("kind") == "xdeepfm":
            probs.append(np.asarray(forward(xdeepfm_from_dict(doc), dm.cat_indices, dm.dense)))
        else:
            raise DataError(f"{path}: unknown model kind {doc.get('kind')!r}")
    p = blend(probs[0], probs[1], ens.alpha) if kind == "ensemble" else probs[0]
    return kind, p, dms[0].labels


def cmd_predict(model_path: Path, data_path: Path, out_path: Path | None) -> int:
    try:
        _, probs, _ = _predict_from_file(model_path, data_path)
    except (DataError, ValueError, KeyError) as exc:
        return _fail("predict", exc, EXIT_DATA)
    text = _predictions_csv(probs)
    if out_path is None:
        _write_stdout(text)
        return EXIT_OK
    return _write_output(out_path, text)


def cmd_importance(model_path: Path, top_k: int) -> int:
    try:
        model = gbdt_from_dict(read_model_file(model_path))  # ValueError for another kind
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
        kind, probs, labels = _predict_from_file(model_path, data_path)
        report = evaluate(name or kind, labels, probs)
    except (DataError, ValueError, KeyError) as exc:
        return _fail("evaluate", exc, EXIT_DATA)
    print(format_report_table([report]))
    print(f"n: {report.n}  positives: {report.positives}")
    if roc_out is None:
        return EXIT_OK
    return _write_output(roc_out, roc_points_csv(roc_curve(labels, probs)))


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
    try:
        args = _build_parser().parse_args(argv)
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
            code = cmd_run(build_run_config(kv))
        elif args.command == "predict":
            code = cmd_predict(args.model, args.data, args.out)
        elif args.command == "importance":
            code = cmd_importance(args.model, args.top)
        else:  # the parser takes no other command
            code = cmd_evaluate(args.model, args.data, args.name, args.roc_csv)
        sys.stdout.flush()  # a closed stdout then fails here, not at interpreter exit
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except BrokenPipeError as exc:  # the reader of stdout has gone, e.g. `| head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush writes there
        return _fail("write", exc, EXIT_DATA)
    return code


if __name__ == "__main__":
    sys.exit(main())
