"""Tests of the benchmark itself, on small instances of its workloads.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {name: wl.small() for name, wl in workloads.WORKLOADS.items()}


def traced_counters(wl, seed, out_dir):
    inputs = wl.inputs(seed, str(out_dir))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.LAYER_TARGETS):
        tracer.run(tracing.ROOT_SPAN, run.one_pass, wl, inputs, 1)
    metrics = tracing.layer_metrics(tracer, 1.0, 0.0)
    return {name: metrics[name]["value"] for name in tracing.EXACT_COUNTERS}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counters_repeat_across_runs_and_seeds(name, tmp_path):
    wl = SMALL[name]
    first = traced_counters(wl, 1, tmp_path)
    assert traced_counters(wl, 1, tmp_path) == first
    assert traced_counters(wl, 2, tmp_path) == first
    for key, value in wl.counters_expected().items():
        assert first[key] == value, key


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_is_bit_identical_and_accounts_for_wall_time(name, tmp_path):
    wl = SMALL[name]
    inputs = wl.inputs(3, str(tmp_path))
    spans_path = tmp_path / "spans.json"
    checks, metrics = run.run_traced(wl, inputs, 1, spans_path, {"workload": name})
    assert [c for c in checks if not c[1]] == []
    assert ("traced_bit_identical", True, None) in checks
    assert [name for name, _, _ in tracing.LAYER_METRICS] == list(metrics)

    # self times of every layer plus the unattributed rest cover the pass
    covered = sum(m["value"] for key, m in metrics.items()
                  if key.endswith("_s") and key != "trace.wall_s")
    assert covered == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-3)
    spans = json.loads(spans_path.read_text())["spans"]
    assert spans[0][0] == tracing.ROOT_SPAN and spans[0][3] == -1
    assert all(start <= end for _, start, end, _ in spans)


def test_instrument_restores_the_program():
    from landau_hf import analysis, hartree_fock
    original = hartree_fock.hf_rhs
    assert analysis.hf_rhs is original
    with tracing.instrument(tracing.Tracer(), tracing.LAYER_TARGETS):
        assert hartree_fock.hf_rhs is not original
        assert analysis.hf_rhs is hartree_fock.hf_rhs
    assert hartree_fock.hf_rhs is original and analysis.hf_rhs is original


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = SMALL[name]
    inputs = wl.inputs(1, str(tmp_path))
    checks, metrics, detail = run.run_untraced(wl, inputs, 0.01, 1)
    assert [c for c in checks if not c[1]] == []
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    setups = detail["setup_times_and_calibrations"]
    runs = detail["run_times_and_calibrations"]
    assert len(runs) >= run.MIN_PASSES
    assert len(setups) == (len(runs) if wl.setup_in_run else run.SETUP_REPEATS)
    assert min(min(pair) for pair in setups + runs) > 0


def test_gate_rejects_a_wrong_hf_projector(tmp_path):
    wl = SMALL["hf_k30n10"]
    inputs = wl.inputs(1, str(tmp_path))
    state = wl.setup(inputs, 1)
    out = wl.collect(inputs, wl.run(inputs, state, 1))
    out["trajectory"].states[-1] = out["trajectory"].states[0]
    failed = [name for name, ok, _ in wl.check(inputs, state, out) if not ok]
    assert "final_projector" in failed


def test_gate_rejects_a_wrong_exact_phase(tmp_path):
    wl = SMALL["exact_k12n4"]
    inputs = wl.inputs(1, str(tmp_path))
    state = wl.setup(inputs, 1)
    out = wl.collect(inputs, wl.run(inputs, state, 1))
    psi, rdm = out["steps"][-1]
    out["steps"][-1] = (1j * psi, rdm)      # conserves norm, energy and RDM
    failed = [name for name, ok, _ in wl.check(inputs, state, out) if not ok]
    assert failed == ["final_state"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare_k9n3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
