"""Smoke tests of the benchmark at toy sizes.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import run

iaca = run.load_package()
import workloads  # noqa: E402  (needs the package path set by load_package)

TOY = {
    "ablation_c5": dict(d=4, clips=8, n_train=3, n_val=2, epochs=2, variants=("CA",),
                        setups=1),
    "sweep_c6": dict(d=4, clips=8, n_train=3, n_val=2, held_out=3, epochs=2, setups=2),
    "fit_long": dict(d=4, clips=16, n_train=3, n_val=2, epochs=2, setups=2),
}


def toy(name):
    return workloads.WORKLOADS[name](**TOY[name])


@pytest.fixture(autouse=True)
def results_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TOY))
def test_every_workload_emits_every_metric(name, trace, tmp_path):
    report = run.run_workload(iaca, name, toy(name), 1, 0.0, trace, tmp_path)
    assert report["failed_checks"] == []
    assert report["units"] == (2 if trace else 1)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(report["metrics"]) == set(expected)
    assert all(math.isfinite(v) for v in report["metrics"].values())
    if not trace:
        timings = {k: v for k, v in report["metrics"].items() if k != "val_ccc_mean"}
        assert all(v > 0 for v in timings.values())


def test_benchmark_json_matches_emitted_names_units_and_directions():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_failed_output_check_counts_as_failed_operation(tmp_path, monkeypatch, capsys):
    real = iaca.experiments.missing_modality_sweep

    def broken(*args, **kwargs):
        rows = real(*args, **kwargs)
        rows[-1].valence = float("nan")
        return rows

    monkeypatch.setattr(iaca.experiments, "missing_modality_sweep", broken)
    report = run.run_workload(iaca, "sweep_c6", toy("sweep_c6"), 1, 0.0, False, tmp_path)
    assert "sweep CCCs finite and in [-1, 1]" in report["failed_checks"]

    assert run.emit(report, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


@pytest.mark.parametrize("name", ["sweep_c6", "fit_long"])
def test_diverging_fit_counts_as_failed_operation(name, tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise iaca.training.TrainingDivergence("non-finite loss nan at epoch 0")

    monkeypatch.setattr(iaca.training, "fit", diverge)
    report = run.run_workload(iaca, name, toy(name), 1, 0.0, False, tmp_path)
    assert any(f.startswith("no fit diverges") for f in report["failed_checks"])

    assert run.emit(report, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_all_counts_a_workload_without_result_line_and_goes_on(monkeypatch, capsys):
    def fake_run(cmd, **kwargs):
        name = cmd[cmd.index("--workload") + 1]
        line = "" if name == "sweep_c6" else json.dumps(
            {"correct": True, "attempted": 3, "failed": 0,
             "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}})
        return subprocess.CompletedProcess(cmd, 1 if not line else 0, line + "\n", "")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    args = run.argparse.Namespace(seed=1, seconds=1.0, trace=0)
    assert run.run_all(args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 7, 1)
    assert set(result["metrics"]) == {"ablation_c5.setup_s", "fit_long.setup_s"}


@pytest.mark.parametrize("ccc, failed", [
    (0.84, []), (0.82, ["val_ccc_mean at most 0.02 below the reference"])])
def test_reference_shows_changed_parameters_and_fails_a_ccc_drop(ccc, failed, tmp_path,
                                                                 monkeypatch):
    ref = tmp_path / "reference.json"
    ref.write_text(json.dumps({"fit_long": {"1": {"val_ccc_mean": 0.85, "fits": ["a"]}}}))
    monkeypatch.setattr(run, "REFERENCE", ref)
    checks = workloads.Checks()
    report = {"workload": "fit_long", "seed": 1, "val_ccc_mean": ccc}
    run.compare_reference(report, SimpleNamespace(fits=[SimpleNamespace(sha256="b")]), checks)
    assert report["reference"] == {"val_ccc_mean": 0.85, "params_same": False}
    assert checks.failed == failed


def test_attention_outside_a_fits_own_graph_counts_as_eval():
    from instruments import FIT_GATED, PREDICT, Tracer

    tracer = Tracer()

    def span(*names):
        idx = [tracer.open(n) for n in names]
        time.sleep(0.001)
        for i in reversed(idx):
            tracer.close(i)
        return tracer.ends[idx[-1]] - tracer.starts[idx[-1]]

    unit = tracer.open("bench.unit")
    train = span(FIT_GATED, "attention.fwd")
    evaluate = span(FIT_GATED, "training.evaluate", PREDICT, "attention.fwd")
    dump = span("experiments.dump", "attention.fwd")
    tracer.close(unit)
    row = tracer.summarize()["bench.unit"]["layers"]["attention.fwd"]
    assert row[2] == 3
    assert row[0] == train + evaluate + dump
    assert row[3] == evaluate + dump


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "error:" in proc.stderr
