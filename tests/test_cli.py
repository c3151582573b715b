import base64
import contextlib
import csv
import dataclasses
import importlib.util
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
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabfusion import cli
from tabfusion.artifact import coerce, config_from_dict, config_to_dict, unpack_floats
from tabfusion.dataset import apply_transform, load_csv, transform_from_dict
from tabfusion.ensemble import BlendConfig, blend, ensemble_from_dict
from tabfusion.gbdt import GBDTConfig, feature_importance, gbdt_from_dict, predict_gbdt
from tabfusion.metrics import evaluate, format_report_table, roc_curve, roc_points_csv
from tabfusion.synth import write_stroke_csv
from tabfusion.xdeepfm import XDeepFMConfig, forward, train_xdeepfm, xdeepfm_from_dict, xdeepfm_to_dict

_STOCK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "stroke.conf"

MINI_OVERRIDES = {
    "gbdt.n_trees": "25",
    "gbdt.max_depth": "3",
    "xdfm.n_epochs": "6",
    "xdfm.deep_widths": "16,8",
    "xdfm.learning_rate": "0.01",  # at the default 0.001, 6 epochs leave the network at chance
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
    validation_auc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["validation_auc"]
    for learner in ("GBDT", "xDeepFM"):  # both learn: a mini run warns of neither
        assert validation_auc[learner] > cli._NEAR_CHANCE_AUC, (learner, validation_auc)
    return {"out": out, "config": config, "data": mini_csv}


def _read_predictions(path):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row_id", "probability"]
    return np.array([float(p) for _, p in rows[1:]])


def test_run_writes_all_artifacts(completed_run):
    out = completed_run["out"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    written = manifest["artifacts"] + ["manifest.json"]
    assert written == [
        "gbdt.json",
        "xdeepfm.json",
        "ensemble.json",
        "predictions.csv",
        "search_record.csv",
        "report.txt",
        "manifest.json",
    ]
    assert sorted(written) == sorted(p.name for p in out.iterdir())
    mtimes = [(out / name).stat().st_mtime_ns for name in written]
    assert mtimes == sorted(mtimes)  # written in the manifest's order, the manifest last
    report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    (seeds_line,) = [line for line in report if line.startswith("seeds: ")]
    assert seeds_line == "seeds: " + " ".join(f"{name}={seed}" for name, seed in manifest["seeds"].items())
    assert manifest["seeds"] == {"split": 7, "val_split": 8, "gbdt": 7, "xdfm": 7}
    kept = len(json.loads((out / "gbdt.json").read_text(encoding="utf-8"))["forest"]["roots"])
    assert manifest["gbdt_trees"] == kept <= 25
    assert f"gbdt trees: {kept} kept of at most n_trees=25" in report


def test_run_stops_boosting_on_the_validation_rows_and_records_the_trees_kept(tmp_path, mini_csv, monkeypatch):
    calls = _learner_spies(monkeypatch, tmp_path)
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out, extra={"gbdt.n_trees": "80"})  # a cap it stops short of
    assert cli.main(["run", "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    report = (out / "report.txt").read_text(encoding="utf-8")
    (rows_line,) = [line for line in report.splitlines() if line.startswith("rows: ")]
    seen = [args[2].labels.size for name, _, _, args in calls() if name == "gbdt"]
    assert seen == [int(rows_line.split("val=")[1].split()[0])]  # the validation rows, not the test rows
    kept = len(json.loads((out / "gbdt.json").read_text(encoding="utf-8"))["forest"]["roots"])
    assert manifest["gbdt_trees"] == kept < 80
    assert f"gbdt trees: {kept} kept of at most n_trees=80" in report.splitlines()


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


def test_run_is_byte_identical_across_reruns(tmp_path, mini_csv, completed_run):
    out2 = tmp_path / "out2"
    config2 = _write_config(tmp_path, mini_csv, out2)
    environ = dict(os.environ)
    assert cli.main(["run", "--config", str(config2)]) == 0
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


def test_run_pipeline_returns_the_files_run_writes_and_writes_nothing(tmp_path, mini_csv, completed_run, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = cli.run_pipeline(cli.load_run_config(_write_config(tmp_path, mini_csv, tmp_path / "out")))
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]  # not even the out_dir
    manifest = json.loads((completed_run["out"] / "manifest.json").read_text(encoding="utf-8"))
    assert list(files) == manifest["artifacts"] + ["manifest.json"]
    for name, content in files.items():  # through the writer `run` uses
        cli._write_output(tmp_path / "written" / name, content)
        assert (tmp_path / "written" / name).read_bytes() == (completed_run["out"] / name).read_bytes(), name


@pytest.mark.parametrize("stage, code", [("data", 2), ("train", 3)])
def test_run_pipeline_failure_raises_its_stage_and_code(tmp_path, mini_csv, monkeypatch, stage, code):
    data, message = _with_bad_cell(tmp_path, mini_csv) if stage == "data" else (mini_csv, "synthetic training failure")

    def boom(*args, **kwargs):  # a bad cell fails before training
        raise RuntimeError("synthetic training failure")

    monkeypatch.setattr(cli, "train_gbdt", boom)
    cfg = cli.load_run_config(_write_config(tmp_path, data, tmp_path / "out"))
    with pytest.raises(cli.StageError) as info:
        cli.run_pipeline(cfg)
    assert (info.value.stage, info.value.code) == (stage, code)
    assert str(info.value).startswith(f"error [{stage}]: ") and message in str(info.value)
    assert not (tmp_path / "out").exists()


def _seed_sweep():
    path = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
    spec = importlib.util.spec_from_file_location("seed_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_rows_equal_the_run_manifests_and_reruns_are_byte_identical(
    tmp_path, mini_csv, completed_run, capsys
):
    config = _write_config(tmp_path, mini_csv, tmp_path / "unused")
    assert cli.main(["run", "--config", str(config), "--seed", "11", "--out", str(tmp_path / "run11")]) == 0
    manifests = {"7": completed_run["out"] / "manifest.json", "11": tmp_path / "run11" / "manifest.json"}
    capsys.readouterr()
    sweep = _seed_sweep()
    outputs = []
    for _ in range(2):
        assert sweep.main(["--config", str(config), "--seeds", "7,11"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    header, *_ = outputs[0].splitlines()
    models = [f"{model}_{part}_auc" for model in ("GBDT", "xDeepFM", "Ensemble") for part in ("validation", "test")]
    assert header.split(",") == ["seed", "alpha", "GBDT_trees"] + models
    rows = list(csv.DictReader(io.StringIO(outputs[0])))
    assert [row["seed"] for row in rows] == ["7", "11"]
    for row in rows:
        manifest = json.loads(manifests[row["seed"]].read_text(encoding="utf-8"))
        expected = {"seed": row["seed"], "alpha": repr(manifest["alpha"]), "GBDT_trees": repr(manifest["gbdt_trees"])}
        for part in ("validation", "test"):
            expected.update((f"{model}_{part}_auc", repr(auc)) for model, auc in manifest[f"{part}_auc"].items())
        assert row == expected
    assert not (tmp_path / "unused").exists()


@pytest.fixture(scope="module")
def stock_csv(tmp_path_factory):
    """The stock data file, as `scripts/make_stroke_data.py` writes it."""
    path = tmp_path_factory.mktemp("stock") / "stroke.csv"
    write_stroke_csv(path)
    return path


def _stock_run(tmp_path, stock_csv, capsys, *settings):
    """`tabfusion run` of the stock config on the stock data: its stderr, manifest and config."""
    args = ["run", "--config", str(_STOCK_CONFIG), "--data", str(stock_csv), "--out", str(tmp_path / "out")]
    args += [arg for setting in settings for arg in ("--set", setting)]
    capsys.readouterr()
    assert cli.main(args) == 0
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    return err, manifest, cli.load_run_config(_STOCK_CONFIG, settings, data=stock_csv, out_dir=tmp_path / "out")


def test_stock_run_prints_nothing_on_stderr(tmp_path, stock_csv, capsys):
    err, manifest, _ = _stock_run(tmp_path, stock_csv, capsys)
    assert err == ""
    assert min(manifest["validation_auc"].values()) > cli._NEAR_CHANCE_AUC


def test_run_warns_of_a_network_near_chance_and_still_exits_0(tmp_path, stock_csv, capsys):
    """A learning rate of 50 leaves the network's parameters finite and its ranking no better than chance."""
    err, manifest, cfg = _stock_run(tmp_path, stock_csv, capsys, "xdfm.learning_rate=50")
    auc = manifest["validation_auc"]["xDeepFM"]
    assert auc <= cli._NEAR_CHANCE_AUC < manifest["validation_auc"]["GBDT"]
    assert err == f"warning: xDeepFM validation AUC {auc:.4f} is near chance\n"
    for name, content in cli.run_pipeline(cfg).items():  # the warning is not written into the run directory
        cli._write_output(tmp_path / "pipeline" / name, content)
        assert (tmp_path / "pipeline" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


def test_a_diverging_network_fails_at_train_and_writes_nothing(tmp_path, mini_csv):
    """A learning rate of 1e300 leaves the network's parameters non-finite after its first epoch."""
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out)
    args = ["run", "--config", str(config), "--set", "xdfm.learning_rate=1e300"]
    proc = _tabfusion(args, unbuffered=False, stdout=subprocess.PIPE)
    stdout, err = proc.communicate(timeout=120)
    assert (proc.returncode, stdout) == (3, b"")  # no report: the run stops before its files are made
    assert err == b"error [train]: xDeepFM: parameters are not finite after epoch 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "gbdt_auc, xdfm_auc, warned",
    [(0.6, 0.61, ["GBDT"]), (0.61, 0.6, ["xDeepFM"]), (0.2, 0.5, ["GBDT", "xDeepFM"]), (0.6000001, 0.9, [])],
)
def test_run_warns_of_each_learner_whose_validation_auc_is_at_most_the_bound(
    tmp_path, monkeypatch, capsys, gbdt_auc, xdfm_auc, warned
):
    aucs = {"GBDT": gbdt_auc, "xDeepFM": xdfm_auc, "Ensemble": 0.3}  # the blend is not a learner
    files = {"report.txt": "report\n", "manifest.json": {"validation_auc": aucs}}
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: files)
    cli.cmd_run(dataclasses.replace(cli.load_run_config(_STOCK_CONFIG), out_dir=tmp_path / "out"))
    captured = capsys.readouterr()
    assert captured.out == "report\n"
    assert captured.err == "".join(f"warning: {name} validation AUC {aucs[name]:.4f} is near chance\n" for name in warned)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "report.txt"]


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


def test_run_training_failure_exits_3(tmp_path, mini_csv, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic training failure")

    monkeypatch.setattr(cli, "train_gbdt", boom)
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    assert cli.main(["run", "--config", str(config)]) == 3
    assert capsys.readouterr().err == "error [train]: synthetic training failure\n"


def test_run_network_failure_exits_3_without_traceback(tmp_path, mini_csv, monkeypatch, capsys):
    train_xdeepfm = cli.train_xdeepfm

    def one_class(dm, cfg):  # the GBDT trains on the real labels; only the network fails
        return train_xdeepfm(dataclasses.replace(dm, labels=np.zeros_like(dm.labels)), cfg)

    monkeypatch.setattr(cli, "train_xdeepfm", one_class)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    assert capsys.readouterr().err == "error [train]: xDeepFM: training requires both classes to be present\n"
    assert not out.exists()
    _assert_no_child_process()


def test_network_failure_raises_train_from_the_networks_own_error(tmp_path, mini_csv, monkeypatch):
    train_xdeepfm = cli.train_xdeepfm
    monkeypatch.setattr(
        cli, "train_xdeepfm", lambda dm, cfg: train_xdeepfm(dataclasses.replace(dm, labels=np.zeros_like(dm.labels)), cfg)
    )
    with pytest.raises(cli.StageError) as info:
        cli.run_pipeline(cli.load_run_config(_write_config(tmp_path, mini_csv, tmp_path / "out")))
    assert (info.value.stage, info.value.code) == ("train", 3)
    assert str(info.value) == "error [train]: xDeepFM: training requires both classes to be present"
    assert isinstance(info.value.__cause__.__cause__, ValueError)
    assert not (tmp_path / "out").exists()


def _learner_spies(monkeypatch, tmp_path):
    """Wrap cli.train_gbdt and cli.train_xdeepfm; each call appends (learner, pid, thread, its arguments)
    to a file, so that a call in a forked child is recorded too. Returns a reader of the calls so far."""
    log = tmp_path / "learner_calls.pickle"
    train_gbdt, train_xdeepfm = cli.train_gbdt, cli.train_xdeepfm

    def record(learner, *args):
        with log.open("ab") as fh:  # one write per call: the child's and the parent's do not interleave
            fh.write(pickle.dumps((learner, os.getpid(), threading.get_ident(), args)))

    def gbdt(dm, cfg, val):
        record("gbdt", dm, cfg, val)
        return train_gbdt(dm, cfg, val)

    def xdfm(dm, cfg):
        record("xdeepfm", dm, cfg)
        return train_xdeepfm(dm, cfg)

    monkeypatch.setattr(cli, "train_gbdt", gbdt)
    monkeypatch.setattr(cli, "train_xdeepfm", xdfm)

    def calls():
        if not log.exists():
            return []
        with log.open("rb") as fh:
            return [pickle.load(fh) for _ in iter(lambda: fh.peek(1), b"")]

    return calls


def _assert_no_child_process():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_fits_the_gbdt_in_one_forked_child_and_the_network_on_this_thread(
    tmp_path, mini_csv, completed_run, monkeypatch
):
    calls = _learner_spies(monkeypatch, tmp_path)
    forked = []
    fork = os.fork

    def spy_fork():
        pid = fork()
        if pid:  # the parent's record: the child's pid
            forked.append(pid)
        return pid

    def no_process(*args, **kwargs):
        raise AssertionError("run started a process other than its one fork")

    monkeypatch.setattr(os, "fork", spy_fork)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 0
    (child,) = forked
    here = (os.getpid(), threading.get_ident())
    assert sorted((name, pid) for name, pid, _, _ in calls()) == [("gbdt", child), ("xdeepfm", here[0])]
    assert [(pid, thread) for name, pid, thread, _ in calls() if name == "xdeepfm"] == [here]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in completed_run["out"].iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (completed_run["out"] / path.name).read_bytes(), path.name
    _assert_no_child_process()


def test_both_learners_fit_the_same_rows_and_only_the_gbdt_reads_the_validation_rows(tmp_path, mini_csv, monkeypatch):
    calls = _learner_spies(monkeypatch, tmp_path)
    cfg = cli.load_run_config(_write_config(tmp_path, mini_csv, tmp_path / "out"))
    files = cli.run_pipeline(cfg)
    args = {name: args for name, _, _, args in calls()}
    (dm, gbdt_cfg, val), (xdfm_dm, xdfm_cfg) = args["gbdt"], args["xdeepfm"]
    assert pickle.dumps(xdfm_dm) == pickle.dumps(dm) and (gbdt_cfg, xdfm_cfg) == (cfg.gbdt, cfg.xdfm)
    assert f"rows: train={dm.labels.size} val={val.labels.size} test=" in files["report.txt"]


def test_network_trained_beside_the_gbdt_equals_a_network_trained_alone(tmp_path, completed_run, monkeypatch):
    calls = _learner_spies(monkeypatch, tmp_path)
    cli.run_pipeline(cli.load_run_config(completed_run["config"]))
    ((dm, cfg),) = [args for name, _, _, args in calls() if name == "xdeepfm"]
    doc = json.loads((completed_run["out"] / "xdeepfm.json").read_text(encoding="utf-8"))
    del doc["transform"]
    # json text, not dict equality, so that a 0.0 against a -0.0 would differ too
    assert json.dumps(doc) == json.dumps(xdeepfm_to_dict(train_xdeepfm(dm, cfg)))


def test_network_overflow_within_a_finite_fit_completes_without_a_warning(tmp_path, mini_csv, monkeypatch):
    """The fit is judged by its parameters after each epoch, not by the overflows on the way."""
    train_xdeepfm = cli.train_xdeepfm

    def overflowing(dm, cfg):  # Adam's squared gradients overflow to inf; the parameters stay finite
        return train_xdeepfm(dataclasses.replace(dm, dense=dm.dense * 1e100), cfg)

    monkeypatch.setattr(cli, "train_xdeepfm", overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, tmp_path / "out"))]) == 0
    doc = json.loads((tmp_path / "out" / "xdeepfm.json").read_text(encoding="utf-8"))
    assert np.isfinite(unpack_floats("'params'", doc["params"])).all()


def test_run_interrupted_during_network_training_kills_the_gbdt_child_and_writes_nothing(
    tmp_path, mini_csv, monkeypatch
):
    train_gbdt = cli.train_gbdt

    def slow_gbdt(*args):  # still fitting when the network is interrupted, unless it is killed
        train_gbdt(*args)
        time.sleep(120)

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train_gbdt", slow_gbdt)
    monkeypatch.setattr(cli, "train_xdeepfm", interrupt)
    out = tmp_path / "out"
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))])
    assert time.monotonic() - start < 60 and not out.exists()  # the run did not wait for the GBDT
    _assert_no_child_process()


def test_gbdt_error_is_reported_before_a_network_error(tmp_path, mini_csv, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic training failure")

    def network_boom(*args, **kwargs):
        raise RuntimeError("synthetic network failure")

    monkeypatch.setattr(cli, "train_gbdt", boom)
    monkeypatch.setattr(cli, "train_xdeepfm", network_boom)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    assert capsys.readouterr().err == "error [train]: synthetic training failure\n"
    assert not out.exists()
    _assert_no_child_process()


@pytest.mark.parametrize(
    "death, detail",
    [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(7), "exit status 7"),
    ],
    ids=["SIGKILL", "exit 7"],
)
def test_a_gbdt_child_that_dies_without_a_reply_fails_at_train_and_writes_nothing(
    tmp_path, mini_csv, monkeypatch, capsys, death, detail
):
    monkeypatch.setattr(cli, "train_gbdt", lambda *args: death())  # runs in the child only
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out))]) == 3
    assert capsys.readouterr().err == f"error [train]: GBDT: training process died with {detail}\n"
    assert not out.exists()
    _assert_no_child_process()


def test_the_gbdt_child_runs_no_exit_handler_and_flushes_no_buffer_of_the_caller(tmp_path, mini_csv):
    """The child ends with os._exit: text the caller left in its stdout buffer and its atexit handlers show once."""
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    code = (
        "import atexit, sys; from tabfusion import cli;"
        "atexit.register(lambda: print('exit handler'));"
        "print('buffered before run');"
        f"sys.exit(cli.main(['run', '--config', {str(config)!r}]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_source_env(), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    lines = proc.stdout.decode("utf-8").splitlines()
    assert (lines.count("buffered before run"), lines.count("exit handler")) == (1, 1)
    assert lines[0] == "buffered before run" and lines[-1] == "exit handler"


def test_run_data_error_trains_neither_learner(tmp_path, mini_csv, monkeypatch, capsys):
    calls = _learner_spies(monkeypatch, tmp_path)
    data, message = _with_bad_cell(tmp_path, mini_csv)
    assert cli.main(["run", "--config", str(_write_config(tmp_path, data, tmp_path / "out"))]) == 2
    assert capsys.readouterr().err == f"error [data]: {message}\n"
    assert calls() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_is_byte_identical_at_one_and_two_blas_threads(tmp_path, completed_run, monkeypatch, threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    out = tmp_path / "out"
    args = ["run", "--config", str(completed_run["config"]), "--out", str(out)]
    proc = _tabfusion(args, unbuffered=False, stdout=subprocess.DEVNULL)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    expected = sorted(p.name for p in completed_run["out"].iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (completed_run["out"] / name).read_bytes(), name


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts the threads in /proc/self/task")
@pytest.mark.parametrize("caller", [None, "2"])
def test_importing_tabfusion_sets_one_blas_thread_unless_the_caller_set_a_number(caller):
    code = "import os, tabfusion; print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_source_env(OPENBLAS_NUM_THREADS=caller), capture_output=True, timeout=60
    )
    value, threads = proc.stdout.decode("ascii").split()
    assert (proc.returncode, value) == (0, caller or "1")
    if caller is None:  # NumPy loaded after the setting: OpenBLAS started no thread of its own
        assert threads == "1"


def _main_within(seconds: float, argv: list) -> int:
    """``cli.main(argv)`` on a thread that must return within ``seconds``: a hang fails the test."""
    codes = []
    thread = threading.Thread(target=lambda: codes.append(cli.main(argv)), daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"`tabfusion {' '.join(argv)}` did not return within {seconds} s"
    return codes[0]


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
def test_run_data_error_exits_2_within_60_s(tmp_path, mini_csv, capsys, failure):
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


def test_predict_scores_a_network_file_that_reads_the_one_hot_columns_as_before(completed_run, tmp_path):
    """A network written before it dropped the one-hot tail has n_dense equal to the full dense width.

    `predict` scores it alone and in an ensemble, exit 0 and one row per data row, with the
    probabilities the network gives the whole one-hot matrix.
    """
    run = completed_run["out"]
    doc = json.loads((run / "xdeepfm.json").read_text(encoding="utf-8"))
    ft = transform_from_dict(doc["transform"])
    dm = apply_transform(ft, load_csv(completed_run["data"], ft.schema))
    old = train_xdeepfm(dataclasses.replace(dm, n_onehot=0), xdeepfm_from_dict(doc).config)
    assert (doc["n_dense"], old.n_dense) == (5, dm.dense.shape[1]) and dm.n_onehot > 0
    for name in ("gbdt.json", "ensemble.json"):
        (tmp_path / name).write_bytes((run / name).read_bytes())
    (tmp_path / "xdeepfm.json").write_text(json.dumps({**xdeepfm_to_dict(old), "transform": doc["transform"]}))
    p_xdfm = forward(xdeepfm_from_dict(json.loads((tmp_path / "xdeepfm.json").read_text())), dm.cat_indices, dm.dense)
    alpha = json.loads((run / "ensemble.json").read_text(encoding="utf-8"))["alpha"]
    p_gbdt = predict_gbdt(gbdt_from_dict(json.loads((run / "gbdt.json").read_text(encoding="utf-8"))), dm.dense)
    for model, expected in (("xdeepfm.json", p_xdfm), ("ensemble.json", blend(p_gbdt, p_xdfm, alpha))):
        out_csv = tmp_path / f"{model}.csv"
        args = ["predict", "--model", str(tmp_path / model), "--data", str(completed_run["data"]), "--out", str(out_csv)]
        assert cli.main(args) == 0
        written = _read_predictions(out_csv)
        assert written.size == 700 and np.array_equal(written, expected)


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
    assert "format_version 1" in err and "version 5" in err


def _format_2(name: str, doc: dict) -> dict:
    """A gbdt.json or xdeepfm.json document of this build as format version 2 wrote it."""
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
        f"error [predict]: {old}: unsupported format_version 2 (this build reads version 5)\n"
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
            f"error [predict]: {tmp_path / name}: unsupported format_version 3 (this build reads version 5)\n"
        )
        assert captured.out == ""


@pytest.mark.parametrize("name", ["gbdt.json", "xdeepfm.json", "ensemble.json"])
def test_predict_rejects_a_version_4_model_file(tmp_path, completed_run, capsys, name):
    for part in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
        (tmp_path / part).write_bytes((completed_run["out"] / part).read_bytes())
    doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
    doc["format_version"] = 4
    if name == "xdeepfm.json":  # format 4 wrote the network's parameters as a list of numbers
        doc["params"] = unpack_floats("'params'", doc["params"]).tolist()
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for model in sorted({name, "ensemble.json"}):  # read alone, and as a component of the ensemble
        assert cli.main(["predict", "--model", str(tmp_path / model), "--data", str(completed_run["data"])]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error [predict]: {tmp_path / name}: unsupported format_version 4 (this build reads version 5)\n"
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
    # one pass over the file per command, and one apply_transform per distinct transform per chunk
    data = tmp_path / "data.csv"
    write_stroke_csv(data, n_rows=2500, seed=3)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1024)  # chunks of 1,024 and 1,476 rows
    calls = {"read_csv_chunks": 0, "apply_transform": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    ensemble = str(completed_run["out"] / "ensemble.json")
    out_csv = tmp_path / "preds.csv"
    assert cli.main(["predict", "--model", ensemble, "--data", str(data), "--out", str(out_csv)]) == 0
    assert calls == {"read_csv_chunks": 1, "apply_transform": 2}
    assert cli.main(["evaluate", "--model", ensemble, "--data", str(data)]) == 0
    assert calls == {"read_csv_chunks": 2, "apply_transform": 4}
    # components fitted apart: two transforms over one schema still share one parse
    for name in ("gbdt.json", "xdeepfm.json", "ensemble.json"):
        (tmp_path / name).write_bytes((completed_run["out"] / name).read_bytes())
    doc = json.loads((tmp_path / "gbdt.json").read_text(encoding="utf-8"))
    doc["transform"]["mean"][0] += 1.0
    (tmp_path / "gbdt.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["predict", "--model", str(tmp_path / "ensemble.json"), "--data", str(data)]) == 0
    assert calls == {"read_csv_chunks": 3, "apply_transform": 8}


@pytest.fixture(scope="module")
def boundary_tables(tmp_path_factory):
    """Synthetic tables whose lengths fall on and around the edges of 2,048-row chunks and 1,024-row blocks."""
    root = tmp_path_factory.mktemp("boundaries")
    sizes = (1, 1023, 2047, 2048, 2049, 3071, 3072, 4097)
    return {n: write_stroke_csv(root / f"t{n}.csv", n_rows=n, seed=n) for n in sizes}


@pytest.mark.parametrize("model", ["ensemble.json", "gbdt.json", "xdeepfm.json"])
def test_chunked_predict_and_evaluate_equal_whole_table_scoring_byte_for_byte(
    completed_run, boundary_tables, tmp_path, monkeypatch, capsys, model
):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2048)
    names = ("gbdt.json", "xdeepfm.json", "ensemble.json")
    docs = {name: json.loads((completed_run["out"] / name).read_text(encoding="utf-8")) for name in names}
    ft = transform_from_dict(docs["gbdt.json"]["transform"])
    preds, roc = tmp_path / "preds.csv", tmp_path / "roc.csv"
    for n, data in boundary_tables.items():
        dm = apply_transform(ft, load_csv(data, ft.schema))  # the whole table at once
        p_gbdt = predict_gbdt(gbdt_from_dict(docs["gbdt.json"]), dm.dense)
        p_xdfm = forward(xdeepfm_from_dict(docs["xdeepfm.json"]), dm.cat_indices, dm.dense)
        probs = {"gbdt.json": p_gbdt, "xdeepfm.json": p_xdfm}.get(model)
        if probs is None:
            probs = blend(p_gbdt, p_xdfm, docs["ensemble.json"]["alpha"])
        args = ["--model", str(completed_run["out"] / model), "--data", str(data)]
        assert cli.main(["predict", *args, "--out", str(preds)]) == 0
        assert preds.read_bytes() == cli._predictions_csv(probs).encode("utf-8"), n
        if dm.labels.min() == dm.labels.max():
            continue  # AUC needs both classes
        report = evaluate("x", dm.labels, probs)
        assert cli.main(["evaluate", *args, "--name", "x", "--roc-csv", str(roc)]) == 0
        assert capsys.readouterr().out == f"{format_report_table([report])}\nn: {n}  positives: {report.positives}\n"
        assert roc.read_text(encoding="utf-8") == roc_points_csv(roc_curve(dm.labels, probs)), n


def _edit_row(path, data_row, edit):
    """Rewrite the CSV at path with ``edit(row, header)`` applied to one data row."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows[data_row], rows[0])
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_chunked_scoring_holds_one_chunk_and_fails_closed_on_a_late_bad_row(
    completed_run, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2048)
    seen = []
    apply = cli.apply_transform

    def counted(ft, ds):
        seen.append(ds.n_rows)
        return apply(ft, ds)

    monkeypatch.setattr(cli, "apply_transform", counted)
    data, out = tmp_path / "data.csv", tmp_path / "out.csv"
    args = [command, "--model", str(completed_run["out"] / "ensemble.json"), "--data", str(data)]
    args += ["--out", str(out)] if command == "predict" else ["--roc-csv", str(out)]
    write_stroke_csv(data, n_rows=2 * 2048 + 3071, seed=4)  # chunks of 2,048, 2,048 and 3,071 rows
    assert cli.main(args) == 0 and seen == [2048, 2048, 3071]
    out.unlink()
    capsys.readouterr()

    def bad_cell(row, header):
        row[header.index("bmi")] = "12..5"

    for edits, message in [
        ([(7000, bad_cell)], "row 7000: cannot parse '12..5' as a number in column 'bmi'"),
        ([(7000, lambda row, header: row.pop())], "row 7000: expected 11 cells, got 10"),
        # a bad cell in an earlier chunk is named first, though an earlier column holds one later on
        ([(7000, lambda row, header: row.__setitem__(header.index("age"), "x")), (100, bad_cell)],
         "row 100: cannot parse '12..5' as a number in column 'bmi'"),
    ]:
        write_stroke_csv(data, n_rows=2 * 2048 + 3071, seed=4)
        for data_row, edit in edits:
            _edit_row(data, data_row, edit)
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error [{command}]: {message}\n" and captured.out == ""
        assert not out.exists()
    assert max(seen) == 2048 + 1023


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


@pytest.mark.parametrize("top", ["0", "-1"])
def test_importance_top_below_1_exits_1_at_config(completed_run, capsys, top):
    assert cli.main(["importance", "--model", str(completed_run["out"] / "gbdt.json"), "--top", top]) == 1
    assert capsys.readouterr() == ("", f"error [config]: --top must be at least 1, got {top}\n")


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
        ({**doc["config"], "seed": -1}, {"gbdt.json": "n_trees, max_depth and seed", "xdeepfm.json": "seed"}[model]),
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

    def edit_params(edit):  # edit the list of d["params"] values, then pack them back, non-finite ones too
        def corrupt(d):
            values = unpack_floats("'params'", d["params"]).tolist()
            edit(d, values)
            d["params"] = base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")

        return corrupt

    def huge_cross_weights(d, values):  # finite, but (c . h) overflows to +inf and -inf in the first cross layer
        k, n_fields, n_dense = d["config"]["embedding_dim"], len(d["vocab_sizes"]), d["n_dense"]
        p = k * n_fields + n_dense
        c = k * sum(d["vocab_sizes"]) + p * p + p  # where the first cross layer's c starts
        values[c : c + p] = [sys.float_info.max] * p

    def swap_refs(d):
        d["gbdt_ref"], d["xdeepfm_ref"] = d["xdeepfm_ref"], d["gbdt_ref"]

    def wrong_kind(path, role, kind):
        return f"{tmp_path / path}: expected a model file of kind {role!r}, got kind {kind!r}"

    for name, corrupt, detail in [
        ("xdeepfm.json", edit_params(lambda d, v: v.__setitem__(-1, float("nan"))), "non-finite"),
        ("xdeepfm.json", edit_params(lambda d, v: v.pop()), "'params' has"),
        ("xdeepfm.json", lambda d: d["vocab_sizes"].__setitem__(0, d["vocab_sizes"][0] + 1), "'params' has"),
        ("xdeepfm.json", lambda d: d["vocab_sizes"].__setitem__(0, 0), "vocab_sizes"),
        ("xdeepfm.json", lambda d: d.__setitem__("n_dense", True), "n_dense"),
        ("xdeepfm.json", lambda d: d.__setitem__("params", [[1.0]]), "'params' must be base64 text"),
        ("xdeepfm.json", edit_params(huge_cross_weights), "NaN"),
        ("gbdt.json", lambda d: d.__setitem__("base_score", float("nan")), "base_score"),
        ("gbdt.json", lambda d: d.__setitem__("base_score", 1.5), "base_score"),
        ("gbdt.json", lambda d: d.__setitem__("feature_names", 3), "malformed gbdt model file"),
        ("gbdt.json", lambda d: d.__setitem__("feature_names", [0] * len(d["feature_names"])), "strings"),
        ("ensemble.json", lambda d: d.__setitem__("alpha", "0.5"), "malformed ensemble model file"),
        ("ensemble.json", lambda d: d.__setitem__("search_record", 5), "malformed ensemble model file"),
        # each ref is read by its role, whatever kind the file it names holds, and the error names that file
        ("ensemble.json", swap_refs, wrong_kind("xdeepfm.json", "gbdt", "xdeepfm")),
        ("ensemble.json", lambda d: d.__setitem__("xdeepfm_ref", "gbdt.json"), wrong_kind("gbdt.json", "xdeepfm", "gbdt")),
        ("ensemble.json", lambda d: d.__setitem__("gbdt_ref", "xdeepfm.json"), wrong_kind("xdeepfm.json", "gbdt", "xdeepfm")),
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
def test_non_finite_config_float_fails_at_config_before_training(tmp_path, mini_csv, capsys, setting):
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out)
    assert cli.main(["run", "--config", str(config), "--set", setting]) == 1
    prefix, _, rest = setting.partition(".")
    field, _, value = rest.partition("=")
    expected = f"error [config]: {prefix}: invalid config: {field}: expected a finite number, got {value!r}\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "option 'seed' must be non-negative, got -1"),
        (["--set", "xdfm.seed=-1"], "xdfm: seed must be non-negative"),
        (["--set", "gbdt.seed=-1"], "gbdt: n_trees, max_depth and seed must be non-negative"),
        (["--seed", "-1", "--set", "gbdt.seed=0", "--set", "xdfm.seed=0"], "option 'seed' must be non-negative, got -1"),
    ],
    ids=["seed", "xdfm.seed", "gbdt.seed", "seed-under-model-seeds"],
)
def test_negative_seed_fails_at_config_before_training(tmp_path, mini_csv, capsys, flags, message):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(_write_config(tmp_path, mini_csv, out)), *flags]) == 1
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not out.exists()


def test_undecodable_config_exits_1_at_config(tmp_path, mini_csv, capsys):
    out = tmp_path / "out"
    config = _write_config(tmp_path, mini_csv, out)
    lines = config.read_bytes().split(b"\n")
    lineno = lines.index(b"seed = 7") + 1
    lines[lineno - 1] = b"\xe9t\xe9 = 7"  # Latin-1, not UTF-8, from the line's first byte
    for prefix in (b"", b"\xef\xbb\xbf"):  # a byte-order mark does not shift the line named
        config.write_bytes(prefix + b"\n".join(lines))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error [config]: {config}:{lineno}: not UTF-8 text\n"
    assert not out.exists()


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


def test_stock_config_parses_through_the_one_rule(tmp_path):
    stock = Path(__file__).resolve().parents[1] / "configs" / "stroke.conf"
    cfg = cli.build_run_config(cli.parse_kv_file(stock))
    bom = tmp_path / "bom.conf"  # a copy saved with a UTF-8 byte-order mark reads the same
    bom.write_bytes(b"\xef\xbb\xbf" + stock.read_bytes())
    assert cli.build_run_config(cli.parse_kv_file(bom)) == cfg
    assert cfg.gbdt.base_score is None  # gbdt.base_score = auto
    assert cfg.xdfm.deep_widths == (64, 32)  # xdfm.deep_widths = 64,32
    assert cfg.blend == BlendConfig(grid_step=0.01)
    assert cfg.gbdt.seed == cfg.xdfm.seed == cfg.seed == 7  # the run seed, unless gbdt.seed/xdfm.seed is set


def _source_env(**settings) -> dict:
    """This environment for a Python child that imports this source tree, with stdout buffered, plus ``settings``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items() if name not in ("PYTHONUNBUFFERED", *settings)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **{name: value for name, value in settings.items() if value is not None}}


def _tabfusion(args, unbuffered: bool, **kwargs) -> subprocess.Popen:
    """`python -m tabfusion args` from this source tree, with stdout unbuffered or not."""
    env = _source_env(PYTHONUNBUFFERED="1" if unbuffered else None)
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
    # the same rows from a copy of the data saved with a UTF-8 byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + completed_run["data"].read_bytes())
    bom_args = args[:-1] + [str(bom), "--out", str(tmp_path / "bom-preds.csv")]
    assert cli.main(bom_args) == 0
    assert (tmp_path / "bom-preds.csv").read_bytes() == (tmp_path / "preds.csv").read_bytes()
    assert capsys.readouterr().err == ""
