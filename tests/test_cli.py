import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion import cli
from tabfusion.artifact import coerce, config_from_dict, config_to_dict
from tabfusion.dataset import apply_transform, fit_transform, load_csv, transform_from_dict
from tabfusion.ensemble import BlendConfig, blend, ensemble_from_dict
from tabfusion.gbdt import GBDTConfig, feature_importance, gbdt_from_dict, predict_gbdt
from tabfusion.synth import write_stroke_csv
from tabfusion.xdeepfm import XDeepFMConfig, forward, train_xdeepfm, xdeepfm_from_dict, xdeepfm_to_dict

MINI_OVERRIDES = {
    "gbdt.n_trees": "25",
    "gbdt.max_depth": "3",
    "xdfm.n_epochs": "6",
    "xdfm.deep_widths": "16,8",
}


@pytest.fixture(scope="module")
def mini_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("mini") / "mini.csv"
    write_stroke_csv(path, n_rows=700, seed=11)
    return path


def _write_config(tmp_path, data_path, out_dir, extra=None):
    lines = [
        f"data = {data_path}",
        f"out_dir = {out_dir}",
        "column.gender = categorical",
        "column.age = numeric",
        "column.hypertension = binary",
        "column.heart_disease = binary",
        "column.ever_married = categorical",
        "column.work_type = categorical",
        "column.Residence_type = categorical",
        "column.avg_glucose_level = numeric",
        "column.bmi = numeric",
        "column.smoking_status = categorical",
        "column.stroke = target",
        "missing_token = N/A",
        "positive_label = 1",
        "seed = 7",
    ]
    for key, value in {**MINI_OVERRIDES, **(extra or {})}.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, mini_csv):
    tmp = tmp_path_factory.mktemp("run")
    out = tmp / "out"
    config = _write_config(tmp, mini_csv, out)
    assert cli.main(["run", "--config", str(config)]) == 0
    return {"out": out, "config": config, "data": mini_csv}


@pytest.fixture
def children(monkeypatch):
    """Every process started through subprocess.Popen while the test runs, with the `env` it was given."""
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.env = kwargs.get("env")
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started


def _read_predictions(path):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row_id", "probability"]
    return np.array([float(p) for _, p in rows[1:]])


def test_run_writes_all_artifacts(completed_run):
    names = {p.name for p in completed_run["out"].iterdir()}
    assert {
        "gbdt.json",
        "xdeepfm.json",
        "ensemble.json",
        "predictions.csv",
        "search_record.csv",
        "report.txt",
        "manifest.json",
    } <= names


def test_run_report_lists_three_models(completed_run):
    report = (completed_run["out"] / "report.txt").read_text(encoding="utf-8")
    for name in ("GBDT", "xDeepFM", "Ensemble"):
        assert name in report
    assert "format_version" in report and "seeds" in report


def test_run_validation_ensemble_dominates_components(completed_run):
    manifest = json.loads((completed_run["out"] / "manifest.json").read_text(encoding="utf-8"))
    val = manifest["validation_auc"]
    assert val["Ensemble"] >= val["GBDT"] - 1e-15
    assert val["Ensemble"] >= val["xDeepFM"] - 1e-15


def test_run_search_record_matches_grid(completed_run):
    lines = (completed_run["out"] / "search_record.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,auc"
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas[0] == 0.0 and alphas[-1] == 1.0 and len(alphas) == 101


def test_run_is_byte_identical_across_reruns(tmp_path, mini_csv, completed_run, children):
    out2 = tmp_path / "out2"
    config2 = _write_config(tmp_path, mini_csv, out2)
    environ = dict(os.environ)
    assert cli.main(["run", "--config", str(config2)]) == 0
    # the network trained in one child process, which has exited and been reaped
    assert len(children) == 1 and "_network_child" in children[0].args[-1]
    assert children[0].returncode == 0
    # one BLAS thread and a kept heap in the child only
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert children[0].env[name] == "1"
    assert int(children[0].env["MALLOC_TRIM_THRESHOLD_"]) > 0
    assert dict(os.environ) == environ
    for name in ("gbdt.json", "xdeepfm.json", "ensemble.json", "report.txt", "predictions.csv"):
        assert (out2 / name).read_bytes() == (completed_run["out"] / name).read_bytes()


def test_run_ignores_a_stale_temp_name_in_out_dir(tmp_path, mini_csv, completed_run):
    out = tmp_path / "out"
    (out / "gbdt.json.tmp").mkdir(parents=True)  # e.g. left by another writer of this out_dir
    config = _write_config(tmp_path, mini_csv, out)
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "gbdt.json").read_bytes() == (completed_run["out"] / "gbdt.json").read_bytes()
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == ["gbdt.json.tmp"]


def test_write_atomic_keeps_plain_file_mode_and_cleans_up_on_failure(tmp_path):
    cli._write_atomic(tmp_path / "a.txt", "text\n")
    (tmp_path / "plain.txt").write_text("text\n", encoding="utf-8")
    assert (tmp_path / "a.txt").read_bytes() == b"text\n"
    assert (tmp_path / "a.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        cli._write_atomic(tmp_path / "taken", "text\n")  # cannot replace a directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "plain.txt", "taken"]


def test_run_missing_data_file_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "never"
    config = _write_config(tmp_path, tmp_path / "absent.csv", out)
    assert cli.main(["run", "--config", str(config)]) == 2
    assert not out.exists()


def test_run_unknown_config_key_exits_1(tmp_path, mini_csv):
    config = _write_config(tmp_path, mini_csv, tmp_path / "out", extra={"gbdt.wat": "1"})
    assert cli.main(["run", "--config", str(config)]) == 1


def test_run_bad_flag_exits_1():
    assert cli.main(["run", "--no-such-flag"]) == 1


def _mini_matrix(mini_csv, stroke_schema):
    return fit_transform(load_csv(mini_csv, stroke_schema), "one_hot")[1]


def test_run_training_failure_exits_3(tmp_path, mini_csv, monkeypatch, capsys, children):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic training failure")

    monkeypatch.setattr(cli, "train_gbdt", boom)
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    assert cli.main(["run", "--config", str(config)]) == 3
    assert capsys.readouterr().err == "error [train]: synthetic training failure\n"
    assert len(children) == 1 and all(child.returncode is not None for child in children)


def test_run_interrupted_during_training_reaps_the_network_child(tmp_path, mini_csv, monkeypatch, children):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train_gbdt", interrupt)
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", str(config)])
    assert len(children) == 1 and all(child.returncode is not None for child in children)


def test_run_network_failure_exits_3_without_traceback(tmp_path, mini_csv, monkeypatch, capfd, children):
    start = cli._network_in_child

    @contextlib.contextmanager
    def one_class():  # the GBDT trains on the real labels; only the network fails
        with start() as train:
            yield lambda dm, cfg: train(dataclasses.replace(dm, labels=np.zeros_like(dm.labels)), cfg)

    monkeypatch.setattr(cli, "_network_in_child", one_class)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    err = capfd.readouterr().err
    assert err == "error [train]: xDeepFM: ValueError: training requires both classes to be present\n"
    assert not out.exists()
    assert len(children) == 1 and children[0].returncode == 1


def test_network_reply_never_waits_for_the_gbdt(tmp_path, mini_csv, monkeypatch, children):
    train_gbdt = cli.train_gbdt

    def after_the_network_child_exits(*args, **kwargs):
        deadline = time.monotonic() + 60.0
        while children[0].poll() is None:
            if time.monotonic() > deadline:
                raise TimeoutError("the network child did not exit while the GBDT waited")
            time.sleep(0.02)
        return train_gbdt(*args, **kwargs)

    monkeypatch.setattr(cli, "train_gbdt", after_the_network_child_exits)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 0
    doc = json.loads((out / "xdeepfm.json").read_text(encoding="utf-8"))
    reply = json.dumps(xdeepfm_to_dict(xdeepfm_from_dict(doc)))  # what the child wrote
    assert len(reply) > 64 * 1024  # more than a pipe buffer holds


def test_network_trained_in_child_equals_in_process_training(mini_csv, stroke_schema):
    dm = _mini_matrix(mini_csv, stroke_schema)
    cfg = XDeepFMConfig(deep_widths=(16, 8), n_epochs=6, seed=7)
    with cli._network_in_child() as train:
        model = train(dm, cfg)()
    # json text, not dict equality, so that a 0.0 against a -0.0 would differ too
    assert json.dumps(xdeepfm_to_dict(model)) == json.dumps(xdeepfm_to_dict(train_xdeepfm(dm, cfg)))


def test_network_warning_in_child_reaches_stderr(mini_csv, stroke_schema, capfd):
    dm = _mini_matrix(mini_csv, stroke_schema)
    dm = dataclasses.replace(dm, dense=dm.dense * 1e100)  # Adam's squared gradients overflow to inf
    with cli._network_in_child() as train:
        train(dm, XDeepFMConfig(n_epochs=1, seed=7))()
    assert "RuntimeWarning: overflow encountered" in capfd.readouterr().err


def _main_within(seconds: float, argv: list) -> int:
    """``cli.main(argv)`` on a thread that must return within ``seconds``: a hang fails the test."""
    codes = []
    thread = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"`tabfusion {' '.join(argv)}` did not return within {seconds} s"
    return codes[0]


def test_network_child_starts_before_the_data_is_read(tmp_path, mini_csv, monkeypatch, children):
    load_csv = cli.load_csv
    started = []

    def after_the_child_starts(*args, **kwargs):
        started.append(len(children) == 1 and children[0].poll() is None)  # running, waiting for its request
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", after_the_child_starts)
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, tmp_path / "out"))]) == 0
    assert started == [True]
    assert len(children) == 1 and children[0].returncode == 0


def _with_bad_cell(tmp_path, mini_csv):
    with mini_csv.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[3][rows[0].index("bmi")] = "12..5"
    data = tmp_path / "bad.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return data, "row 3: cannot parse '12..5' as a number in column 'bmi'"


def _broken_csv(tmp_path, mini_csv, failure):
    """A copy of mini_csv whose data row 3 is not UTF-8 text or not well-formed CSV, and the error it gives."""
    lines = mini_csv.read_bytes().split(b"\n")
    data = tmp_path / "broken.csv"
    if failure == "undecodable byte":
        lines[3] = lines[3].replace(b",", b"\xff,", 1)
        message = f"{data}: row 3: not UTF-8 text"
    elif failure == "oversized field":
        lines[3] = b"x" * 200_000 + lines[3]
        message = f"{data}: row 3: field larger than field limit (131072)"
    else:  # the quote swallows the rest of the file into one field
        lines[3] = b'"' + lines[3]
        lines += lines[4:] * 5
        message = f"{data}: row 3: field larger than field limit (131072)"
    data.write_bytes(b"\n".join(lines))
    return data, message


_BROKEN_CSV = ["undecodable byte", "oversized field", "unmatched quote"]


@pytest.mark.parametrize("failure", ["missing file", "bad cell", *_BROKEN_CSV])
def test_run_data_error_exits_2_and_reaps_the_started_child(tmp_path, mini_csv, capsys, children, failure):
    if failure == "missing file":
        data, message = tmp_path / "absent.csv", "absent.csv"
    elif failure == "bad cell":
        data, message = _with_bad_cell(tmp_path, mini_csv)
    else:
        data, message = _broken_csv(tmp_path, mini_csv, failure)
    out = tmp_path / "out"
    assert _main_within(60.0, ["run", "--config", str(_write_config(tmp_path, data, out))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [data]: ") and message in err and err.count("\n") == 1
    assert not out.exists()
    # the child was started before the data stage and never got a request; it is gone
    assert len(children) == 1 and children[0].returncode is not None


def test_network_child_that_dies_before_its_request_exits_3_without_a_hang(
    tmp_path, mini_csv, monkeypatch, capsys, children
):
    fit_transform = cli.fit_transform

    def after_the_child_dies(*args, **kwargs):
        children[0].kill()
        children[0].wait()
        return fit_transform(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_transform", after_the_child_dies)
    out = tmp_path / "out"
    assert _main_within(60.0, ["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    assert capsys.readouterr().err == "error [train]: xDeepFM: training process exited with code -9\n"
    assert not out.exists()


def test_network_child_that_cannot_start_exits_3_at_train_before_the_data_stage(
    tmp_path, mini_csv, monkeypatch, capsys
):
    def no_process(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    def never(*args, **kwargs):
        raise AssertionError("the data stage ran without a network child")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(cli, "load_csv", never)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    assert capsys.readouterr().err == "error [train]: [Errno 11] Resource temporarily unavailable\n"
    assert not out.exists()


def test_request_never_blocks_on_a_child_that_is_not_reading(tmp_path, mini_csv, monkeypatch, children):
    # a stopped child reads nothing; the request (more than a pipe buffer) goes to a file
    load_csv, train_gbdt = cli.load_csv, cli.train_gbdt
    reached = []

    def after_stopping_the_child(*args, **kwargs):
        os.kill(children[0].pid, signal.SIGSTOP)
        return load_csv(*args, **kwargs)

    def resume_the_child(dm, cfg):  # the request is written by now
        reached.append(len(pickle.dumps((dm, XDeepFMConfig()), protocol=pickle.HIGHEST_PROTOCOL)))
        os.kill(children[0].pid, signal.SIGCONT)
        return train_gbdt(dm, cfg)

    monkeypatch.setattr(cli, "load_csv", after_stopping_the_child)
    monkeypatch.setattr(cli, "train_gbdt", resume_the_child)
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    try:
        assert _main_within(60.0, ["run", "--config", str(config)]) == 0
    finally:
        for child in children:
            child.kill()
    assert len(reached) == 1 and reached[0] > 64 * 1024


def test_predict_probabilities_in_unit_interval(completed_run, tmp_path):
    out_csv = tmp_path / "preds.csv"
    rc = cli.main(
        [
            "predict",
            "--model",
            str(completed_run["out"] / "ensemble.json"),
            "--data",
            str(completed_run["data"]),
            "--out",
            str(out_csv),
        ]
    )
    assert rc == 0
    probs = _read_predictions(out_csv)
    assert probs.size == 700
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_predict_recomposes_from_component_files(completed_run, tmp_path):
    out_csv = tmp_path / "preds.csv"
    assert (
        cli.main(
            [
                "predict",
                "--model",
                str(completed_run["out"] / "ensemble.json"),
                "--data",
                str(completed_run["data"]),
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    written = _read_predictions(out_csv)
    gbdt_doc = json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    xdfm_doc = json.loads((completed_run["out"] / "xdeepfm.json").read_text(encoding="utf-8"))
    ens_doc = json.loads((completed_run["out"] / "ensemble.json").read_text(encoding="utf-8"))
    ft = transform_from_dict(gbdt_doc["transform"])
    dm = apply_transform(ft, load_csv(completed_run["data"], ft.schema))
    recomposed = blend(
        predict_gbdt(gbdt_from_dict(gbdt_doc), dm.dense),
        forward(xdeepfm_from_dict(xdfm_doc), dm.cat_indices, dm.dense),
        ens_doc["alpha"],
    )
    assert np.array_equal(written, recomposed)


def test_predict_zero_tree_model_is_constant(tmp_path, mini_csv):
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out, extra={"gbdt.n_trees": "0"})
    assert cli.main(["run", "--config", str(config)]) == 0
    preds_csv = tmp_path / "preds.csv"
    assert (
        cli.main(
            ["predict", "--model", str(out / "gbdt.json"), "--data", str(mini_csv), "--out", str(preds_csv)]
        )
        == 0
    )
    probs = _read_predictions(preds_csv)
    assert np.all(probs == probs[0])


def test_predict_rejects_unsupported_version(tmp_path, completed_run):
    doc = json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    doc["format_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["predict", "--model", str(bad), "--data", str(completed_run["data"])]) == 2


def _nested_tree(forest: dict, i: int) -> dict:
    """Node i of a forest in the nested form of format version 1; a split's left child is node i + 1."""
    if forest["feature"][i] < 0:
        return {"weight": forest["value"][i]}
    return {
        "feature": forest["feature"][i],
        "threshold": forest["threshold"][i],
        "gain": forest["gain"][i],
        "left": _nested_tree(forest, i + 1),
        "right": _nested_tree(forest, forest["right"][i]),
    }


def test_predict_rejects_a_version_1_gbdt_file(tmp_path, completed_run, capsys):
    doc = json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    forest = doc.pop("forest")
    doc.update(format_version=1, trees=[_nested_tree(forest, root) for root in forest["roots"]])
    old = tmp_path / "gbdt.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["predict", "--model", str(old), "--data", str(completed_run["data"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [predict]: ")
    assert "format_version 1" in err and "version 4" in err


def _format_2(name: str, doc: dict) -> dict:
    """A format-3 gbdt.json or xdeepfm.json document as format version 2 wrote it."""
    if name == "gbdt.json":
        forest = doc["forest"]
        left = [i + 1 if f >= 0 else i for i, f in enumerate(forest["feature"])]
        arrays = {**forest, "left": left}
        forest = {k: arrays[k] for k in ("roots", "feature", "threshold", "gain", "left", "right", "value")}
        return {**doc, "format_version": 2, "forest": forest}
    model = xdeepfm_from_dict({k: v for k, v in doc.items() if k != "transform"})
    old = {k: v for k, v in doc.items() if k not in ("vocab_sizes", "params")}
    old.update(
        format_version=2,
        embeddings=[t.tolist() for t in model.embeddings.tables],
        cross_layers=[{"W": l.W.tolist(), "b": l.b.tolist(), "c": l.c.tolist()} for l in model.cross_layers],
        deep_layers=[
            {"W": l.W.tolist(), "b": l.b.tolist(), "activation": doc["config"]["hidden_activation"]}
            for l in model.deep.layers
        ],
        head={"w": model.head_w.tolist(), "b": float(model.head_b[0])},
    )
    return old


@pytest.mark.parametrize("name", ["gbdt.json", "xdeepfm.json"])
def test_predict_rejects_a_version_2_model_file(tmp_path, completed_run, capsys, name):
    doc = json.loads((completed_run["out"] / name).read_text(encoding="utf-8"))
    old = tmp_path / name
    old.write_text(json.dumps(_format_2(name, doc)), encoding="utf-8")
    assert cli.main(["predict", "--model", str(old), "--data", str(completed_run["data"])]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error [predict]: {old}: unsupported format_version 2 (this build reads version 4)\n"
    )
    assert captured.out == ""


def _format_3_transform(t: dict) -> dict:
    """A format-4 transform as format version 3 wrote it: per-column statistics, indexed vocabularies."""
    columns = t["schema"]["columns"]
    numeric = [(name, kind) for name, kind in columns if kind in ("numeric", "binary")]
    categorical = [name for name, kind in columns if kind == "categorical"]
    stats = {
        name: {"impute_value": fill, "mean": mean, "std": std, "scaled": kind == "numeric"}
        for (name, kind), fill, mean, std in zip(numeric, t["fill"], t["mean"], t["std"])
    }
    vocabs = {name: [[text, i] for i, text in enumerate(v, start=1)] for name, v in zip(categorical, t["vocabs"])}
    return {"schema": t["schema"], "encoding_mode": t["encoding_mode"], "numeric_stats": stats, "vocabs": vocabs}


@pytest.mark.parametrize("name", ["gbdt.json", "xdeepfm.json", "ensemble.json"])
def test_predict_rejects_a_version_3_model_file(tmp_path, completed_run, capsys, name):
    for part in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
        (tmp_path / part).write_bytes((completed_run["out"] / part).read_bytes())
    doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
    doc["format_version"] = 3
    if "transform" in doc:
        doc["transform"] = _format_3_transform(doc["transform"])
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for model in sorted({name, "ensemble.json"}):  # read alone, and as a component of the ensemble
        assert cli.main(["predict", "--model", str(tmp_path / model), "--data", str(completed_run["data"])]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error [predict]: {tmp_path / name}: unsupported format_version 3 (this build reads version 4)\n"
        )
        assert captured.out == ""


def test_predict_malformed_tree_arrays_exit_2_without_traceback(tmp_path, completed_run, capsys):
    doc = json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    bad = tmp_path / "gbdt.json"
    for name, entry, value in [("right", 0, 0), ("right", 0, 10**6), ("feature", 0, 999), ("feature", 0, -5)]:
        corrupt = json.loads(json.dumps(doc))
        corrupt["forest"][name][entry] = value
        bad.write_text(json.dumps(corrupt), encoding="utf-8")
        assert cli.main(["predict", "--model", str(bad), "--data", str(completed_run["data"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [predict]: ") and "Traceback" not in err, (name, value, err)


def test_ensemble_predict_and_evaluate_read_and_transform_the_csv_once(completed_run, tmp_path, monkeypatch):
    calls = {"load_csv": 0, "apply_transform": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    ensemble = str(completed_run["out"] / "ensemble.json")
    out_csv = tmp_path / "preds.csv"
    assert cli.main(["predict", "--model", ensemble, "--data", str(completed_run["data"]), "--out", str(out_csv)]) == 0
    assert calls == {"load_csv": 1, "apply_transform": 1}
    assert cli.main(["evaluate", "--model", ensemble, "--data", str(completed_run["data"])]) == 0
    assert calls == {"load_csv": 2, "apply_transform": 2}
    # components fitted apart: two transforms over one schema still share one parse
    for name in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
        (tmp_path / name).write_bytes((completed_run["out"] / name).read_bytes())
    doc = json.loads((tmp_path / "gbdt.json").read_text(encoding="utf-8"))
    doc["transform"]["mean"][0] += 1.0
    (tmp_path / "gbdt.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["predict", "--model", str(tmp_path / "ensemble.json"), "--data", str(completed_run["data"])]) == 0
    assert calls == {"load_csv": 3, "apply_transform": 4}


@pytest.mark.parametrize("failure", _BROKEN_CSV)
def test_predict_on_an_undecodable_or_malformed_csv_exits_2_without_traceback(tmp_path, completed_run, capsys, failure):
    data, message = _broken_csv(tmp_path, completed_run["data"], failure)
    out = tmp_path / "preds.csv"
    args = ["predict", "--model", str(completed_run["out"] / "ensemble.json"), "--data", str(data), "--out", str(out)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error [predict]: {message}\n" and captured.out == ""
    assert not out.exists()


def test_predict_rejects_schema_mismatch(tmp_path, completed_run):
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n", encoding="utf-8")
    rc = cli.main(
        ["predict", "--model", str(completed_run["out"] / "gbdt.json"), "--data", str(wrong)]
    )
    assert rc == 2


def test_importance_prints_topk_and_matches_recompute(completed_run, capsys):
    assert cli.main(["importance", "--model", str(completed_run["out"] / "gbdt.json"), "--top", "5"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[0].startswith("feature")
    assert len(lines) == 6
    model = gbdt_from_dict(
        json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    )
    scores = feature_importance(model)
    expected = sorted(range(scores.size), key=lambda i: (-scores[i], i))[:5]
    printed = [line.rsplit(None, 1)[0].rstrip() for line in lines[1:]]
    assert printed == [model.feature_names[i] for i in expected]


def test_importance_single_split_model_has_one_nonzero_row(tmp_path, capsys):
    from tabfusion.gbdt import Forest, GBDTConfig, GBDTModel, save_gbdt

    tree = Forest(
        roots=[0],
        feature=[1, -1, -1],
        threshold=[0.5, 0.0, 0.0],
        gain=[2.0, 0.0, 0.0],
        right=[2, 1, 2],
        value=[0.0, 0.1, -0.1],
    )
    path = tmp_path / "single.json"
    save_gbdt(GBDTModel(GBDTConfig(), 0.5, tree, ("a", "b", "c")), path)
    assert cli.main(["importance", "--model", str(path), "--top", "10"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()][1:]
    nonzero = [l for l in lines if float(l.rsplit(None, 1)[1]) > 0.0]
    assert len(nonzero) == 1
    assert nonzero[0].startswith("b")


def test_importance_k_beyond_feature_count_lists_all(completed_run, capsys):
    assert cli.main(["importance", "--model", str(completed_run["out"] / "gbdt.json"), "--top", "9999"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    model = gbdt_from_dict(
        json.loads((completed_run["out"] / "gbdt.json").read_text(encoding="utf-8"))
    )
    assert len(lines) == len(model.feature_names) + 1


def test_importance_rejects_non_gbdt_model(completed_run):
    assert cli.main(["importance", "--model", str(completed_run["out"] / "xdeepfm.json")]) == 2


def test_evaluate_prints_metrics_and_writes_roc(completed_run, tmp_path, capsys):
    roc_csv = tmp_path / "roc.csv"
    rc = cli.main(
        [
            "evaluate",
            "--model",
            str(completed_run["out"] / "ensemble.json"),
            "--data",
            str(completed_run["data"]),
            "--name",
            "Ensemble",
            "--roc-csv",
            str(roc_csv),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ensemble" in out and "AUC" in out
    lines = roc_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) > 2


def test_indented_model_files_give_the_same_outputs_as_compact_ones(completed_run, tmp_path, capsys):
    # run writes compact JSON; older builds wrote the same format with indent=2
    indented = tmp_path / "indented"
    indented.mkdir()
    for name in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
        text = (completed_run["out"] / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        (indented / name).write_text(json.dumps(json.loads(text), indent=2), encoding="utf-8")
    data = str(completed_run["data"])

    def outputs(model_dir, tag):
        ens = str(model_dir / "ensemble.json")
        preds, roc = tmp_path / f"{tag}-preds.csv", tmp_path / f"{tag}-roc.csv"
        assert cli.main(["predict", "--model", ens, "--data", data, "--out", str(preds)]) == 0
        assert cli.main(["evaluate", "--model", ens, "--data", data, "--roc-csv", str(roc)]) == 0
        assert cli.main(["importance", "--model", str(model_dir / "gbdt.json")]) == 0
        return preds.read_bytes(), roc.read_bytes(), capsys.readouterr().out

    assert outputs(indented, "indented") == outputs(completed_run["out"], "compact")


REPO_STROKE_CSV = Path(__file__).resolve().parents[1] / "data" / "stroke.csv"


@pytest.mark.parametrize(
    "data_row, column, cell, message",
    [
        (5, "avg_glucose_level", "inf", "row 5: non-finite value 'inf' in column 'avg_glucose_level'"),
        (4000, "bmi", "12..5", "row 4000: cannot parse '12..5' as a number in column 'bmi'"),
    ],
)
def test_run_bad_cell_names_its_file_row(tmp_path, capsys, data_row, column, cell, message):
    with REPO_STROKE_CSV.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[data_row][rows[0].index(column)] = cell  # rows[0] is the header
    data = tmp_path / "stroke.csv"
    with data.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    config = _write_config(tmp_path, data, tmp_path / "out")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error [data]: {message}\n"


@pytest.mark.parametrize(
    "command, model",
    [
        ("predict", "gbdt.json"),
        ("predict", "xdeepfm.json"),
        ("importance", "gbdt.json"),
        ("evaluate", "gbdt.json"),
        ("evaluate", "xdeepfm.json"),
    ],
)
def test_malformed_model_config_exits_2_without_traceback(tmp_path, completed_run, capsys, command, model):
    doc = json.loads((completed_run["out"] / model).read_text(encoding="utf-8"))
    args = [command, "--model", str(tmp_path / model)]
    if command != "importance":
        args += ["--data", str(completed_run["data"])]
    for config, detail in [
        ({**doc["config"], "bogus": 1}, "unknown config key 'bogus'"),
        ([1, 2], "'config' must be an object"),
        ({**doc["config"], "learning_rate": "fast"}, "invalid config"),
        ({**doc["config"], "learning_rate": True}, "invalid config: learning_rate"),
        ({**doc["config"], "seed": "x"}, "invalid config: seed"),
        ({**doc["config"], "learning_rate": "0.1"}, "invalid config: learning_rate"),
        ({**doc["config"], "seed": "0"}, "invalid config: seed"),
    ]:
        (tmp_path / model).write_text(json.dumps({**doc, "config": config}), encoding="utf-8")
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {detail}"), err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge cross weights overflow, as they should
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_malformed_model_parameters_exit_2_without_traceback(tmp_path, completed_run, capsys, command):
    # each corruption goes into one component file of the ensemble that is scored
    out_csv = tmp_path / "preds.csv"
    args = [command, "--model", str(tmp_path / "ensemble.json"), "--data", str(completed_run["data"])]
    args += ["--out", str(out_csv)] if command == "predict" else []

    def huge_cross_weights(d):  # finite, but (c . h) overflows to +inf and -inf in the first cross layer
        k, n_fields, n_dense = d["config"]["embedding_dim"], len(d["vocab_sizes"]), d["n_dense"]
        p = k * n_fields + n_dense
        c = k * sum(d["vocab_sizes"]) + p * p + p  # where the first cross layer's c starts
        d["params"][c : c + p] = [sys.float_info.max] * p

    for name, corrupt, detail in [
        ("xdeepfm.json", lambda d: d["params"].__setitem__(-1, float("nan")), "non-finite"),
        ("xdeepfm.json", lambda d: d["params"].pop(), "'params' has"),
        ("xdeepfm.json", lambda d: d["vocab_sizes"].__setitem__(0, d["vocab_sizes"][0] + 1), "'params' has"),
        ("xdeepfm.json", lambda d: d["vocab_sizes"].__setitem__(0, 0), "vocab_sizes"),
        ("xdeepfm.json", lambda d: d.__setitem__("n_dense", True), "n_dense"),
        ("xdeepfm.json", lambda d: d.__setitem__("params", [[1.0]]), "'params' must be a flat list"),
        ("xdeepfm.json", huge_cross_weights, "NaN"),
        ("gbdt.json", lambda d: d.__setitem__("base_score", float("nan")), "base_score"),
        ("gbdt.json", lambda d: d.__setitem__("base_score", 1.5), "base_score"),
        ("gbdt.json", lambda d: d.__setitem__("feature_names", 3), "malformed gbdt model file"),
        ("gbdt.json", lambda d: d.__setitem__("feature_names", [0] * len(d["feature_names"])), "strings"),
        ("ensemble.json", lambda d: d.__setitem__("alpha", "0.5"), "malformed ensemble model file"),
        ("ensemble.json", lambda d: d.__setitem__("search_record", 5), "malformed ensemble model file"),
    ]:
        for part in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
            (tmp_path / part).write_bytes((completed_run["out"] / part).read_bytes())
        doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        corrupt(doc)
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(args) == 2, (name, detail)
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error [{command}]: ") and detail in captured.err, captured.err
        assert "Traceback" not in captured.err and "nan" not in captured.out.lower()
        assert not out_csv.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_malformed_transform_exits_2_without_traceback(tmp_path, completed_run, capsys, command):
    def set_entry(key, i, value):
        return lambda d: d["transform"][key].__setitem__(i, value)

    for corrupt, detail in [
        (lambda d: d.__setitem__("transform", 5), "malformed transform"),
        (lambda d: d["transform"].__setitem__("schema", 5), "malformed transform"),
        (set_entry("mean", 0, "x"), "transform 'mean' must be a flat list of numbers"),
        (set_entry("fill", 4, True), "transform 'fill' must be a flat list of numbers"),
        (set_entry("std", 0, 0), "std of column 'age' must be positive"),
        (lambda d: d["transform"]["fill"].pop(), "transform 'fill' must hold one number per"),
        (lambda d: d["transform"]["vocabs"][0].append("Male"), "vocab of column 'gender' must hold distinct"),
        (set_entry("vocabs", 0, {"Male": 1}), "malformed transform"),
    ]:
        for name in ("gbdt.json", "xdeepfm.json"):
            doc = json.loads((completed_run["out"] / name).read_text(encoding="utf-8"))
            corrupt(doc)
            (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
            out_csv = tmp_path / "preds.csv"
            args = [command, "--model", str(tmp_path / name), "--data", str(completed_run["data"])]
            args += ["--out", str(out_csv)] if command == "predict" else []
            assert cli.main(args) == 2, (name, detail)
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error [{command}]: ") and captured.err.count("\n") == 1
            assert detail in captured.err, captured.err
            assert not out_csv.exists() and captured.out == ""


@pytest.mark.parametrize("doc", [[], 1, "x", None])
def test_model_file_that_is_not_an_object_exits_2_without_traceback(tmp_path, completed_run, capsys, doc):
    data = str(completed_run["data"])
    for part in ("ensemble.json", "xdeepfm.json"):
        (tmp_path / part).write_bytes((completed_run["out"] / part).read_bytes())
    (tmp_path / "gbdt.json").write_text(json.dumps(doc), encoding="utf-8")  # an ensemble component
    expected = f"a model file must be a JSON object, got {type(doc).__name__}\n"
    for args in [
        ["predict", "--model", str(tmp_path / "gbdt.json"), "--data", data],
        ["predict", "--model", str(tmp_path / "ensemble.json"), "--data", data],
        ["importance", "--model", str(tmp_path / "gbdt.json")],
        ["evaluate", "--model", str(tmp_path / "gbdt.json"), "--data", data],
    ]:
        assert cli.main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.err == f"error [{args[0]}]: {tmp_path / 'gbdt.json'}: {expected}"
        assert captured.out == ""
    for reader in (gbdt_from_dict, xdeepfm_from_dict, ensemble_from_dict):
        with pytest.raises(ValueError, match="must be a JSON object"):
            reader(doc)


@pytest.mark.parametrize("command, flag", [("predict", "--out"), ("evaluate", "--roc-csv")])
def test_output_path_that_is_a_directory_exits_2_at_write(tmp_path, completed_run, capsys, command, flag):
    target = tmp_path / "taken"
    target.mkdir()
    model = str(completed_run["out"] / "gbdt.json")
    assert cli.main([command, "--model", model, "--data", str(completed_run["data"]), flag, str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [write]: ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any(target.iterdir())


def test_config_to_dict_lists_fields_in_order_and_round_trips():
    for cfg in [
        GBDTConfig(n_trees=7, lambda1=0.5, base_score=0.25, seed=3),
        GBDTConfig(),
        XDeepFMConfig(deep_widths=(5, 2), hidden_activation="sigmoid", n_epochs=4),
    ]:
        d = config_to_dict(cfg)
        assert list(d) == [f.name for f in dataclasses.fields(cfg)]
        assert config_from_dict(type(cfg), json.loads(json.dumps(d))) == cfg
    assert config_to_dict(XDeepFMConfig(deep_widths=(5, 2)))["deep_widths"] == [5, 2]


@pytest.mark.parametrize("value", ["relu", "sigmoid", "tanh"])
def test_hidden_activation_option_is_read_as_a_string(tmp_path, value):
    kv = cli.parse_kv_file(_write_config(tmp_path, tmp_path / "x.csv", tmp_path / "out"))
    kv["xdfm.hidden_activation"] = value
    if value == "tanh":
        with pytest.raises(cli.ConfigError, match="hidden_activation must be"):
            cli.build_run_config(kv)
    else:
        assert cli.build_run_config(kv).xdfm.hidden_activation == value


def test_one_config_rule_for_conf_text_and_json_values():
    assert coerce(int, "7", text=True) == coerce(int, 7) == 7
    assert coerce(float, "0.1", text=True) == coerce(float, 0.1) == 0.1 and type(coerce(float, 1)) is float
    assert coerce(float | None, "auto", text=True) is coerce(float | None, "None", text=True) is None
    assert coerce(float | None, None) is None and coerce(float | None, "0.25", text=True) == 0.25
    assert coerce(tuple[int, ...], "64,32", text=True) == coerce(tuple[int, ...], [64, 32]) == (64, 32)
    assert coerce(tuple[int, ...], "", text=True) == ()
    assert coerce(str, "relu") == coerce(str, "relu", text=True) == "relu"
    rejected = [
        (int, True), (int, 1.5), (int, None), (int, "7"),
        (float, True), (float, math.nan), (float, 10**400), (float, [0.1]), (float, "0.1"),
        (float | None, "auto"), (tuple[int, ...], [64, True]), (tuple[int, ...], 64), (tuple[int, ...], "64,32"),
        (str, 5),
    ]  # fmt: skip
    rejected_text = [
        (int, "1.5"), (int, "x"), (float, "inf"), (float, "-inf"), (float | None, "nan"), (tuple[int, ...], "64,x"),
    ]  # fmt: skip
    for hint, value, text in [(h, v, False) for h, v in rejected] + [(h, v, True) for h, v in rejected_text]:
        with pytest.raises(ValueError, match="expected"):
            coerce(hint, value, text)
            pytest.fail(f"{hint} accepted {value!r}")
    for raw in [{"learning_rate": True}, {"n_trees": 1.5}, {"seed": "x"}, {"lambda2": math.inf}]:
        with pytest.raises(ValueError, match=f"invalid config: {next(iter(raw))}"):
            config_from_dict(GBDTConfig, raw)


@pytest.mark.parametrize("setting", ["xdfm.learning_rate=inf", "gbdt.lambda2=nan", "blend.grid_step=inf"])
def test_non_finite_config_float_fails_at_config_before_training(tmp_path, mini_csv, capsys, children, setting):
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out)
    assert cli.main(["run", "--config", str(config), "--set", setting]) == 1
    prefix, _, rest = setting.partition(".")
    field, _, value = rest.partition("=")
    expected = f"error [config]: {prefix}: invalid config: {field}: expected a finite number, got {value!r}\n"
    assert capsys.readouterr().err == expected
    assert children == [] and not out.exists()


def test_undecodable_config_exits_1_at_config(tmp_path, mini_csv, capsys, children):
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out)
    lines = config.read_bytes().split(b"\n")
    lineno = lines.index(b"seed = 7") + 1
    lines[lineno - 1] += b" # \xe9t\xe9"  # Latin-1, not UTF-8
    config.write_bytes(b"\n".join(lines))
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error [config]: {config}:{lineno}: not UTF-8 text\n"
    assert children == [] and not out.exists()


_KV_PIECES = [b"seed", b"data.x", b"=", b" ", b"#", b"\n", b"\r\n", b"\r", b"7", b"\x00", b"\xff", b"\xc3", b"\xc3\xa9"]


@given(st.binary(max_size=200) | st.lists(st.sampled_from(_KV_PIECES), max_size=40).map(b"".join))
@settings(max_examples=300, deadline=None)
def test_parse_kv_file_fails_closed_on_arbitrary_bytes(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.conf"
    path.write_bytes(content)
    try:
        kv = cli.parse_kv_file(path)
    except cli.ConfigError:
        return
    assert all(isinstance(key, str) and key and isinstance(value, str) for key, value in kv.items())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-3, 300) | st.floats() | st.floats(0.0, 1.0)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@given(st.sampled_from([GBDTConfig, XDeepFMConfig, BlendConfig]), st.data())
@settings(max_examples=500, deadline=None)
def test_config_from_dict_fails_closed_on_arbitrary_json_values(config_cls, data):
    keys = st.sampled_from([f.name for f in dataclasses.fields(config_cls)]) | st.text(max_size=4)
    raw = data.draw(_JSON_VALUES | st.dictionaries(keys, _JSON_VALUES, max_size=4))
    try:
        cfg = config_from_dict(config_cls, raw)
    except ValueError:
        return
    assert isinstance(cfg, config_cls) and set(raw) <= {f.name for f in dataclasses.fields(config_cls)}


def test_stock_config_parses_through_the_one_rule():
    cfg = cli.build_run_config(cli.parse_kv_file(Path(__file__).resolve().parents[1] / "configs" / "stroke.conf"))
    assert cfg.gbdt.base_score is None  # gbdt.base_score = auto
    assert cfg.xdfm.deep_widths == (64, 32)  # xdfm.deep_widths = 64,32
    assert cfg.blend == BlendConfig(grid_step=0.01)
    assert cfg.gbdt.seed == cfg.xdfm.seed == cfg.seed == 7  # the run seed, unless gbdt.seed/xdfm.seed is set


def _tabfusion(args, unbuffered: bool, **kwargs) -> subprocess.Popen:
    """`python -m tabfusion args` from this source tree, with stdout unbuffered or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "tabfusion", *args], env=env, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_run_to_a_closed_stdout_exits_2_at_write_without_traceback(tmp_path, mini_csv, completed_run, unbuffered):
    # `run` prints its report in one write at the end, so its reader has gone before it writes
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    config = _write_config(tmp_path, mini_csv, out)
    proc = _tabfusion(["run", "--config", str(config)], unbuffered, stdout=write_end)
    os.close(write_end)
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (2, b"error [write]: [Errno 32] Broken pipe\n")
    for name in ("gbdt.json", "xdeepfm.json", "predictions.csv"):  # written before the report
        assert (out / name).read_bytes() == (completed_run["out"] / name).read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_predict_to_stdout_closed_after_one_line_exits_2_at_write(tmp_path_factory, completed_run, unbuffered):
    data = tmp_path_factory.getbasetemp() / "big.csv"
    if not data.exists():
        write_stroke_csv(data, n_rows=10_000, seed=3)  # about 250 KB of predictions: more than a pipe holds
    model = completed_run["out"] / "gbdt.json"
    proc = _tabfusion(["predict", "--model", str(model), "--data", str(data)], unbuffered, stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"row_id,probability\n"
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (2, b"error [write]: [Errno 32] Broken pipe\n")


def test_predict_to_a_text_only_stdout_writes_the_same_rows(tmp_path, completed_run, capsys):
    # as an in-process caller runs the CLI: sys.stdout is a StringIO, with no binary buffer
    args = ["predict", "--model", str(completed_run["out"] / "ensemble.json"), "--data", str(completed_run["data"])]
    assert cli.main(args + ["--out", str(tmp_path / "preds.csv")]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(args) == 0
    assert out.getvalue() == (tmp_path / "preds.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""
