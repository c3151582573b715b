#!/usr/bin/env python3
"""tabfusion benchmark: train-stroke, score-batch and score-row workloads.

Drives the unmodified package from outside: the `tabfusion` CLI entry point
(`cli.main`) in-process, and the public library functions for single-row
scoring. Run it from the repository root:

    python3 perfbench/run.py --workload train-stroke --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Inputs are synthetic stroke tables from `tabfusion.synth`, drawn from --seed.
Every workload is a closed loop with one client and no think time. The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Lines before it, starting with '#', record the environment and the
metrics under their per-workload names. perfbench/README.md says why each
workload exists and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "stroke.conf"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-stroke", "score-batch", "score-row")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p90_ms": "ms",
    "gbdt_test_auc": "auc",
    "xdfm_test_auc": "auc",
    "ensemble_test_auc": "auc",
    "artifact_bytes": "bytes",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Sizes:
    train_rows: int = 5110  # the stock stroke table
    batch_rows: int = 100_000  # score-batch input
    row_table: int = 2000  # distinct rows score-row cycles through
    min_requests: int = 1000  # score-row operations per run, at least
    min_runs: int = 2  # train-stroke/score-batch operations; byte identity needs two
    holdout_rows: int = 20_000  # table the test AUCs are measured on
    setup_probes: int = 5
    run_overrides: tuple[str, ...] = ()


STOCK = Sizes()
TINY = Sizes(
    batch_rows=5000,
    row_table=100,
    holdout_rows=2000,
    min_requests=50,
    setup_probes=2,
    run_overrides=("--set", "gbdt.n_trees=20", "--set", "xdfm.n_epochs=3"),
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


class PrepFailed(Exception):
    """Untimed preparation failed, so nothing can be measured."""


# ---------------------------------------------------------------- helpers


def data_seeds(seed: int) -> tuple[int, int]:
    """Training-table and scoring-table seeds; they differ for every --seed."""
    return 2 * seed, 2 * seed + 1


def generate(path: Path, n_rows: int, seed: int) -> None:
    """Write a synthetic stroke table in a child process, outside peak_rss_mb."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from tabfusion.synth import write_stroke_csv;"
        "write_stroke_csv(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(path), str(n_rows), str(seed)], check=True, timeout=170
    )


def read_table(path: Path) -> tuple[list[str], list[tuple[str, ...]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [tuple(row) for row in reader]


def labels_of(header: list[str], rows: list[tuple[str, ...]]):
    import numpy as np

    j = header.index("stroke")
    return np.array([row[j] == "1" for row in rows], dtype=np.int64)


def config_value(key: str) -> str:
    for line in CONFIG.read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            return value.strip()
    raise PrepFailed(f"{CONFIG} has no {key!r}")


def auc(labels, scores) -> float:
    """Mann-Whitney AUC with tied scores sharing their mean rank."""
    import numpy as np

    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def read_predictions(path: Path, n_rows: int):
    """The probabilities of a `row_id,probability` file, checked row by row."""
    import numpy as np

    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "row_id,probability":
        raise CheckFailed(f"{path.name}: bad header")
    if len(lines) - 1 != n_rows:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, expected {n_rows}")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(c) != 2 or c[0] != str(i) for i, c in enumerate(cells)):
        raise CheckFailed(f"{path.name}: row ids are not 0..{n_rows - 1}")
    try:
        probs = np.array([c[1] for c in cells], dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    if not (np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0):
        raise CheckFailed(f"{path.name}: a probability is non-finite or outside [0, 1]")
    return probs


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def call_cli(cli, *argv) -> int:
    """In-process `tabfusion <argv>`; its report on stdout is discarded."""
    with redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


@dataclass
class Artifacts:
    ft: object
    gbdt: object
    xdfm: object
    alpha: float


def load_artifacts(model_dir: Path) -> Artifacts:
    """Read and parse the three model files, as a library caller would."""
    from tabfusion import dataset, ensemble, gbdt, xdeepfm

    def read(name: str) -> dict:
        return json.loads((model_dir / name).read_text(encoding="utf-8"))

    ens = ensemble.ensemble_from_dict(read("ensemble.json"))
    g = read(ens.gbdt_ref)
    return Artifacts(
        ft=dataset.transform_from_dict(g["transform"]),
        gbdt=gbdt.gbdt_from_dict(g),
        xdfm=xdeepfm.xdeepfm_from_dict(read(ens.xdeepfm_ref)),
        alpha=ens.alpha,
    )


def setup_probe(model_dir: str) -> None:
    """Child process: time the tabfusion import (and the model load) from a cold start."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tabfusion.cli  # noqa: F401  (the import is what is timed)

    if model_dir:
        load_artifacts(Path(model_dir))
    print(repr(time.perf_counter() - t0))


def measure_setup(n: int, model_dir: Path | None) -> float:
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", str(model_dir or "")],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_sha() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [CONFIG]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "data_seeds": dict(zip(("train", "score"), data_seeds(args.seed))),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads or f"library default (up to {os.cpu_count()})",
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- workloads


class Workload:
    """Untimed preparation, one timed operation, and its output check."""

    root_name = "cli.main"
    min_ops = 1
    setup_loads_models = False  # set-up also reads the model files of run_dir

    def __init__(self, mods, sizes: Sizes, seed: int, work: Path):
        self.mods, self.sizes, self.work = mods, sizes, work
        self.train_seed, self.score_seed = data_seeds(seed)
        self.train_csv = work / "train.csv"
        generate(self.train_csv, sizes.train_rows, self.train_seed)
        self.run_dir: Path | None = None  # the training run that is scored and described

    def train(self, out: Path) -> int:
        return call_cli(self.mods["cli"], "run", "--config", CONFIG, "--data", self.train_csv, "--out", out,
                        *self.sizes.run_overrides)

    def prepare_models(self) -> None:
        """One stock training run of the code under test; its files are what gets scored."""
        out = self.work / "model"
        if self.train(out) != 0:
            raise PrepFailed("the training run that prepares the model files failed")
        self.run_dir = out

    def run_metrics(self) -> dict[str, float]:
        """Untimed, after measuring: each model's AUC on the holdout table, and the run's size.

        The run's own 1,022-row test split holds about 50 positives, so its AUC
        moves by several percent from seed to seed; 20,000 rows hold about 1,000.
        """
        holdout, pred = self.work / "holdout.csv", self.work / "holdout-pred.csv"
        generate(holdout, self.sizes.holdout_rows, self.score_seed)
        labels = labels_of(*read_table(holdout))
        out = {}
        for metric, model in (("gbdt", "gbdt.json"), ("xdfm", "xdeepfm.json"), ("ensemble", "ensemble.json")):
            if call_cli(self.mods["cli"], "predict", "--model", self.run_dir / model, "--data", holdout,
                        "--out", pred) != 0:
                raise PrepFailed(f"tabfusion predict --model {model} on the holdout table failed")
            out[f"{metric}_test_auc"] = auc(labels, read_predictions(pred, labels.size))
        out["artifact_bytes"] = dir_bytes(self.run_dir)
        return out

    def setup(self, tracer) -> None:
        """Work a caller does once before its first request (traced in trace mode)."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> None:
        raise NotImplementedError

    def summary(self, latencies: list[float]) -> list[str]:
        raise NotImplementedError


class TrainStroke(Workload):
    """Back-to-back `tabfusion run --config configs/stroke.conf`, each into a fresh directory."""

    def __init__(self, *a):
        super().__init__(*a)
        self.min_ops = self.sizes.min_runs
        header, rows = read_table(self.train_csv)
        y = labels_of(header, rows)
        fraction = float(config_value("test_fraction"))
        n_pos = int(y.sum())
        self.test_rows = round(n_pos * fraction) + round((y.size - n_pos) * fraction)
        self.reference: dict[str, str] | None = None

    def op(self, i: int):
        out = self.work / f"run-{i}"
        return self.train(out), out

    def check(self, i: int, result) -> None:
        rc, out = result
        try:
            if rc != 0:
                raise CheckFailed(f"tabfusion run exited {rc}")
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            names = manifest["artifacts"] + ["manifest.json"]
            hashes = {name: sha256(out / name) for name in names}
            if self.reference is None:
                val = manifest["validation_auc"]
                if not val["Ensemble"] >= max(val["GBDT"], val["xDeepFM"]):
                    raise CheckFailed(f"ensemble validation AUC below a component: {val}")
                read_predictions(out / "predictions.csv", self.test_rows)
                self.reference = hashes
                self.run_dir = out
            elif hashes != self.reference:
                changed = sorted(n for n in names if hashes[n] != self.reference.get(n))
                raise CheckFailed(f"artifacts differ from the first run: {changed}")
        finally:
            if out != self.run_dir:
                shutil.rmtree(out, ignore_errors=True)

    def summary(self, latencies):
        return [f"pipeline_s {statistics.median(latencies):.6f} s (median of {len(latencies)} runs)"]


class ScoreBatch(Workload):
    """`tabfusion predict --model ensemble.json` on a fresh 100,000-row table."""

    def __init__(self, *a):
        super().__init__(*a)
        self.min_ops = self.sizes.min_runs
        self.prepare_models()
        self.batch_csv = self.work / "batch.csv"
        generate(self.batch_csv, self.sizes.batch_rows, self.score_seed)
        header, rows = read_table(self.batch_csv)
        self.labels = labels_of(header, rows)
        self.reference: str | None = None

    def op(self, i: int):
        out = self.work / f"pred-{i}.csv"
        rc = call_cli(self.mods["cli"], "predict", "--model", self.run_dir / "ensemble.json",
                      "--data", self.batch_csv, "--out", out)
        return rc, out

    def check(self, i: int, result) -> None:
        rc, out = result
        try:
            if rc != 0:
                raise CheckFailed(f"tabfusion predict exited {rc}")
            digest = sha256(out)
            if digest == self.reference:
                return  # the same bytes as an output that passed every check
            probs = read_predictions(out, self.labels.size)
            score = auc(self.labels, probs)
            if score < 0.80:
                raise CheckFailed(f"AUC {score:.4f} on the scored rows is below 0.80")
            self.reference = self.reference or digest
        finally:
            out.unlink(missing_ok=True)

    def summary(self, latencies):
        rate = self.sizes.batch_rows / statistics.median(latencies)
        return [f"score_rows_per_s {rate:.3f} rows/s (median of {len(latencies)} predict calls)"]


class ScoreRow(Workload):
    """Single-row requests through the library API against artifacts loaded once."""

    root_name = "bench.request"
    setup_loads_models = True

    def __init__(self, *a):
        super().__init__(*a)
        self.min_ops = self.sizes.min_requests
        self.prepare_models()
        table = self.work / "rows.csv"
        generate(table, self.sizes.row_table, self.score_seed)
        self.header, self.rows = read_table(table)
        ref_csv = self.work / "rows-batch.csv"
        if call_cli(self.mods["cli"], "predict", "--model", self.run_dir / "ensemble.json",
                    "--data", table, "--out", ref_csv) != 0:
            raise PrepFailed("batch prediction of the request rows failed")
        self.batch_probs = read_predictions(ref_csv, len(self.rows))
        self.art: Artifacts | None = None

    def setup(self, tracer) -> None:
        if tracer is None:
            self.art = load_artifacts(self.run_dir)
        else:
            with tracer.installed(), tracer.root("bench.setup", "setup"):
                self.art = load_artifacts(self.run_dir)
        if list(self.art.ft.schema.column_names) != self.header:
            raise PrepFailed("request table columns are not in schema order")

    def op(self, i: int):
        """One request: the functions are looked up on their modules, so tracing sees them."""
        dataset, gbdt, xdeepfm = self.mods["dataset"], self.mods["gbdt"], self.mods["xdeepfm"]
        art, row = self.art, self.rows[i % len(self.rows)]
        dm = dataset.apply_transform(art.ft, dataset.TabularDataset(art.ft.schema, (row,)))
        p_gbdt = gbdt.predict_gbdt(art.gbdt, dm.dense)
        p_xdfm = xdeepfm.forward(art.xdfm, dm.cat_indices, dm.dense)
        return float(self.mods["ensemble"].blend(p_gbdt, p_xdfm, art.alpha)[0])

    def check(self, i: int, result) -> None:
        expected = float(self.batch_probs[i % len(self.rows)])
        if not abs(result - expected) <= 1e-9:
            raise CheckFailed(f"row {i % len(self.rows)}: single-row {result!r} vs batch {expected!r}")

    def summary(self, latencies):
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        n = len(latencies)
        return [
            f"row_p50_ms {p50 * 1e3:.6f} ms (n={n})",
            f"row_p99_ms {p99 * 1e3:.6f} ms (n={n})",
        ]


WORKLOAD_CLASSES = {"train-stroke": TrainStroke, "score-batch": ScoreBatch, "score-row": ScoreRow}


# ---------------------------------------------------------------- measurement


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def measure(w: Workload, seconds: float, tracer):
    """Closed loop until `seconds` have passed and at least `w.min_ops` ran.

    With a tracer, even operations run untraced and odd ones traced, so the
    two sets share the machine's drift.
    """
    latencies = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < w.min_ops or time.perf_counter() - start < seconds:
        i = attempted
        traced = tracer is not None and i % 2 == 1
        attempted += 1
        try:
            if traced:
                with tracer.installed(), tracer.root(w.root_name, "op") as span:
                    result = w.op(i)
                elapsed = span.end - span.start
            else:
                t0 = time.perf_counter()
                result = w.op(i)
                elapsed = time.perf_counter() - t0
            w.check(i, result)
        except Exception:  # a failed operation is counted, and the loop goes on
            failed += 1
            print(f"# operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies[traced].append(elapsed)
    return latencies, attempted, failed


def run_workload(args, sizes: Sizes) -> tuple[dict, list[str]]:
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sys.path.insert(0, str(SRC))
        import tabfusion
        from tabfusion import cli, dataset, ensemble, gbdt, metrics, xdeepfm

        mods = {"tabfusion": tabfusion, "cli": cli, "dataset": dataset, "gbdt": gbdt,
                "xdeepfm": xdeepfm, "ensemble": ensemble, "metrics": metrics}
        w = WORKLOAD_CLASSES[args.workload](mods, sizes, args.seed, work)
        env = environment(args)
        lines = [f"# env {json.dumps(env, sort_keys=True)}"]
        if args.trace:
            from spans import Tracer

            tracer = Tracer(mods)
        else:
            tracer = None
            setup_s = measure_setup(sizes.setup_probes, w.run_dir if w.setup_loads_models else None)
        w.setup(tracer)
        latencies, attempted, failed = measure(w, args.seconds, tracer)
        plain = latencies[False]
        if not plain or (tracer is not None and not latencies[True]):
            raise PrepFailed("no operation succeeded")
        lines += [f"# {line}" for line in w.summary(plain)]
        lines.append(f"# fail_ratio {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
        if tracer is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": setup_s,
                "op_p90_ms": percentile(plain, 90) * 1e3,
                **w.run_metrics(),
                "peak_rss_mb": peak_rss_mb,
            }
            shaped = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        else:
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = statistics.fmean(latencies[True]) / statistics.fmean(plain)
            shaped = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps({"env": env, "spans": tracer.to_json()}), encoding="utf-8")
            lines.append(f"# spans written to {trace_path.relative_to(ROOT)}")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shaped}
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_rows"):
        return "rows"
    return "count"


# ---------------------------------------------------------------- self-check


def self_check() -> int:
    """Every workload once, tiny, in both modes: all metrics present with units, all checks pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    all_ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            cmd = [sys.executable, __file__, "--workload", workload["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
                problems.append("no JSON result line")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if result and set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result and (result.get("correct") is not True or result.get("failed") != 0):
                problems.append(f"output checks failed: {result.get('failed')} of {result.get('attempted')}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if result and got != expected:
                wrong = sorted(set(got.items()) ^ set(expected.items()))
                problems.append(f"metric names/units differ from BENCHMARK.json: {wrong}")
            all_ok &= not problems
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload['name']:<13} trace={trace} {status}")
            if problems:
                sys.stderr.write(proc.stderr[-4000:])
    return 0 if all_ok else 1


# ---------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed; the inputs follow from it")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--tiny", action="store_true", help="small inputs and models, for --self-check")
    parser.add_argument("--self-check", action="store_true", help="run every workload once at a tiny size")
    parser.add_argument("--setup-probe", metavar="MODEL_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe)
        return 0
    if not (SRC / "tabfusion" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"error: run from a tabfusion checkout; {SRC} or {CONFIG} is missing", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, lines = run_workload(args, TINY if args.tiny else STOCK)
    except (PrepFailed, CheckFailed, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
