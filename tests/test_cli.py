import csv
import json

import numpy as np
import pytest

from tabfusion import cli
from tabfusion.dataset import apply_transform, load_csv, transform_from_dict
from tabfusion.ensemble import blend
from tabfusion.gbdt import feature_importance, gbdt_from_dict, predict_gbdt
from tabfusion.synth import write_stroke_csv
from tabfusion.xdeepfm import forward, xdeepfm_from_dict

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


def test_run_is_byte_identical_across_reruns(tmp_path, mini_csv, completed_run):
    out2 = tmp_path / "out2"
    config2 = _write_config(tmp_path, mini_csv, out2)
    assert cli.main(["run", "--config", str(config2)]) == 0
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


def test_run_training_failure_exits_3(tmp_path, mini_csv, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic training failure")

    monkeypatch.setattr(cli, "train_gbdt", boom)
    config = _write_config(tmp_path, mini_csv, tmp_path / "out")
    assert cli.main(["run", "--config", str(config)]) == 3


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
    from tabfusion.gbdt import GBDTConfig, GBDTModel, Leaf, RegTree, Split, save_gbdt

    tree = RegTree(
        root=Split(feature=1, threshold=0.5, gain=2.0, left=Leaf(0.1), right=Leaf(-0.1)),
        n_leaves=2,
    )
    path = tmp_path / "single.json"
    save_gbdt(GBDTModel(GBDTConfig(), 0.5, [tree], ("a", "b", "c")), path)
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
