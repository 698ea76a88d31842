"""Tests of the benchmark itself: tiny runs of every workload, the result
contract, the span recorder, and that corrupted outputs are counted.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hawkeskit as hk  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TASK_METRICS = {"fit_s", "cluster_s", "score_s", "sim_events_per_s"}


def _run(cwd, *args):
    """Run the copy of the benchmark in cwd, as from a checkout's root."""
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_meets_result_contract(workload, trace, tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(wanted)
    for name, m in result["metrics"].items():
        assert m["unit"] == wanted[name]
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1.0) < 0.05
    env = report["env"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "openblas",
                "blas_threads", "git_rev", "seed"):
        assert key in env
    assert report["sizes"]


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "em-large", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs(tmp_path):
    a = WORKLOADS["many-short"](5, "smoke", str(tmp_path))
    b = WORKLOADS["many-short"](5, "smoke", str(tmp_path))
    a.generate()
    b.generate()
    assert a.corpus == b.corpus


def test_predictions_name_known_metrics():
    doc = json.loads((BENCH / "predictions.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    end = {m["name"] for m in SPEC["end_to_end"]} | TASK_METRICS
    names = {w["name"] for w in SPEC["workloads"]}
    covered = set()
    for p in doc["pairings"]:
        assert set(p["metrics"]) <= layer, set(p["metrics"]) - layer
        assert set(p["moves"]) <= end
        assert set(p["exercised_by"]) | set(p["bypassed_by"]) <= names
        covered |= set(p["metrics"])
    assert covered == layer, layer - covered


# ---------------------------------------------------------------------------
# corrupted outputs are counted as failed operations


def _pass(workload, tmp_path):
    wl = WORKLOADS[workload](2, "smoke", str(tmp_path))
    wl.generate()
    L = Ledger()
    ops = wl.run_pass(L)
    wl.check(L, ops, np.random.default_rng(0))
    return L


def test_perturbed_distance_entry_is_a_failed_op(tmp_path, monkeypatch):
    real = hk.distance_matrix

    def corrupted(corpus, *args, **kwargs):
        dm = real(corpus, *args, **kwargs).copy()
        dm[0, 1] += 1e-6
        return dm

    monkeypatch.setattr(hk, "distance_matrix", corrupted)
    L = _pass("many-short", tmp_path)
    bad = [op for op in L.ops if not op.ok]
    assert [op.name for op in bad] == ["distance_matrix"]
    assert "symmetric" in bad[0].error


def test_reference_dp_catches_symmetric_perturbation(tmp_path):
    wl = WORKLOADS["many-short"](2, "smoke", str(tmp_path))
    wl.generate()
    dm = hk.distance_matrix(wl.corpus)
    checks.check_distance_matrix(dm, wl.corpus, [(0, 1)], "dm")
    dm[0, 1] = dm[1, 0] = dm[0, 1] + 1e-6
    with pytest.raises(checks.CheckFailed, match="plain DP"):
        checks.check_distance_matrix(dm, wl.corpus, [(0, 1)], "dm")


def test_increasing_objective_trace_counts_in_op_fail_frac(tmp_path, monkeypatch):
    real = hk.fit_mle

    def corrupted(*args, **kwargs):
        rep = real(*args, **kwargs)
        trace = list(rep.objective_trace)
        trace[-1] = trace[-2] + 1e-6 * abs(trace[-2])
        rep.objective_trace = tuple(trace)
        return rep

    monkeypatch.setattr(hk, "fit_mle", corrupted)
    monkeypatch.chdir(tmp_path)
    out = run.run_workload("em-large", 1, 0.1, False, "smoke")
    result, report = out["result"], out["report"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["op_fail_frac"] == result["failed"] / result["attempted"] > 0
    assert any("objective rose" in f for f in report["failures"])


def test_rescaling_reference_matches_package():
    model = hk.HawkesModel(mu=np.array([0.5, 0.3]), kernel=hk.ExponentialKernel(1.5),
                           A=np.array([[0.3, 0.1], [0.2, 0.2]]))
    seq = hk.simulate_branch(hk.SimConfig(model, 200.0, 1, 4))[0]
    res = hk.rescaling_test(model, seq)
    checks.check_rescaling(model, seq, res, "rescaling", reference=True)
    ll = checks.ref_exp_loglik(model, seq)
    assert abs(ll - hk.log_likelihood(model, seq)) <= 1e-9 * abs(ll)


# ---------------------------------------------------------------------------
# span recorder


def test_tracer_links_nested_calls_and_restores_functions():
    original = hk.rescaling_test
    original_comp = hk.evaluate.compensator
    model = hk.HawkesModel(mu=np.array([0.5]), kernel=hk.ExponentialKernel(1.0),
                           A=np.array([[0.4]]))
    seq = hk.simulate_branch(hk.SimConfig(model, 30.0, 1, 1))[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        hk.rescaling_test(model, seq)
    finally:
        tracer.uninstall()
    assert hk.rescaling_test is original and hk.evaluate.compensator is original_comp
    recorded, _ = tracer.take()
    by_id = {s[0]: s for s in recorded}
    top = [s for s in recorded if s[2] is None]
    assert [s[3] for s in top] == ["evaluate.rescaling_test"]
    comps = [s for s in recorded if s[3] == "core.compensator"]
    assert len(comps) == len(seq)
    assert all(by_id[s[2]][3] == "evaluate.rescaling_test" and s[1] == top[0][0] for s in comps)
    m = spans.pass_metrics(recorded, {}, top[0][5] - top[0][4])
    assert m["core.compensator.calls"] == len(seq)
    assert abs(m["trace.coverage"] - 1.0) < 1e-9
    total_self = sum(m[f"{layer}.self_s"] for layer in spans.LAYER_ORDER)
    assert abs(total_self - (top[0][5] - top[0][4])) < 1e-9


def test_simulator_method_table_is_wrapped():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hk.simulate._METHODS["ogata"] is not hk.simulate.simulate_ogata.__wrapped__
        assert hk.simulate._METHODS["ogata"] is hk.simulate.simulate_ogata
    finally:
        tracer.uninstall()
    assert not hasattr(hk.simulate._METHODS["ogata"], "__wrapped__")
