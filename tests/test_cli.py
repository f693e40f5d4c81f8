import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from landau_hf import analysis, manybody
from landau_hf.analysis import ComparisonRecord, Problem
from landau_hf.cli import build_parser, dispatch, write_timeseries
from landau_hf.config import INTEGRATORS, Grid, load_config
from landau_hf.manybody import DeterminantBasis, FillingSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]

GOOD_CFG = """
[domain]
L1 = 6.283185307179586
L2 = 6.283185307179586
M = {M}

[basis]
n_max = {n_max}
grid1 = 32
tensor_grid1 = 48

[dynamics]
N = {N}
dt = 1e-3
t_final = {t_final}
sample_stride = 10

[potential]
kind = separable-cosine
strength = {strength}
"""


def write_cfg(tmp_path, name="run.cfg", M=3, n_max=2, N=2, strength=0.1,
              t_final=0.05):
    path = tmp_path / name
    path.write_text(GOOD_CFG.format(M=M, n_max=n_max, N=N, strength=strength,
                                    t_final=t_final))
    return str(path)


def test_validate_good_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert dispatch(["validate", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_validate_overfilled_config_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, M=2, n_max=1, N=7)  # capacity 4
    assert dispatch(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "'N'" in err


def test_usage_errors_exit_two():
    assert dispatch([]) == 2
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["compare"]) == 2  # --config required


def test_groundstate_reports_degeneracy(tmp_path, capsys):
    cfg = write_cfg(tmp_path, M=4, n_max=2, N=6)
    out = tmp_path / "out"
    assert dispatch(["groundstate", "--config", cfg, "--out-dir", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degeneracy"] == 6
    assert payload["r"] == 2
    assert len(payload["occupations"]) == 6
    again = json.loads((out / "groundstate.json").read_text())
    assert again == payload


def unlisted(*args, **kwargs):
    raise AssertionError("the ground-state occupation sets were listed")


def test_groundstate_over_the_cap_writes_failed_manifest(tmp_path, capsys, monkeypatch):
    # K = 60 (M = 30, n_max = 1), N = 10: C(30, 10) = 30,045,015 occupation sets
    monkeypatch.setattr(manybody, "itertools", types.SimpleNamespace(combinations=unlisted))
    text = (ROOT / "configs/k30n10.cfg").read_text()
    for key, value in (("M", 30), ("n_max", 1), ("grid1", 256), ("grid2", 256)):
        text = text.replace(next(line for line in text.splitlines()
                                 if line.startswith(f"{key} = ")), f"{key} = {value}")
    cfg = tmp_path / "k60.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert dispatch(["groundstate", "--config", str(cfg), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ground-state degeneracy C(30,10) = 30045015 "
                                   "exceeds cap")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert manifest["config"]["M"] == 30 and manifest["config"]["n_max"] == 1
    assert "exceeds cap" in manifest["validations"]["error"]["detail"]


@pytest.mark.parametrize("name", ["example", "gaussian", "k16n4", "k30n10"])
def test_initial_orbitals_list_no_occupation_set(monkeypatch, name):
    config = load_config(ROOT / f"configs/{name}.cfg")
    sets = manybody.noninteracting_ground_state(
        FillingSpec.from_counts(config.N, config.domain.M), np.ones(config.n_max + 1))[1]
    expect = np.zeros((config.single_particle_dim, config.N), dtype=np.complex128)
    expect[list(sets[0]), range(config.N)] = 1.0
    monkeypatch.setattr(analysis, "noninteracting_ground_state", unlisted)
    C = Problem(config).initial_orbitals
    assert C.dtype == expect.dtype and np.array_equal(C, expect)


def test_evolve_hf_lists_no_occupation_set(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "noninteracting_ground_state", unlisted)
    out = tmp_path / "out"
    assert dispatch(["evolve-hf", "--config", write_cfg(tmp_path, M=4, N=6),
                     "--out-dir", str(out), "--t-final", "0.002"]) == 0
    assert json.loads((out / "manifest.json").read_text())["ok"] is True


def test_compare_outputs_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(out),
                     "--threads", "1"]) == 0
    csv_path = out / "compare_timeseries.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("t,error_norm,apriori_bound,defect_bound,"
                        "energy_exact,energy_hf,rdm_trace_dist")
    assert len(lines) >= 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is True
    for name in manifest["outputs"]:
        full = out / name
        assert full.exists() and full.stat().st_size > 0
    assert "compare_timeseries.csv" in manifest["outputs"]


def test_manifest_counters_name_what_each_run_built(tmp_path, capsys, monkeypatch):
    def counters_of(command, cfg, rc=0):
        out = tmp_path / f"{pathlib.Path(cfg).stem}-{command}-{rc}"
        assert dispatch([command, "--config", cfg, "--out-dir", str(out),
                         "--threads", "1"]) == rc
        return json.loads((out / "manifest.json").read_text())["counters"]

    cfg = write_cfg(tmp_path, M=3, n_max=2, N=3)
    counters = {command: counters_of(command, cfg) for command in
                ("compare", "evolve-exact", "evolve-hf", "groundstate")}
    problem = Problem(load_config(cfg))
    samples = sum(1 for _ in problem.exact_samples())
    assert samples == 6 and problem.propagator.matvecs > samples
    # cosine, harmonic2 = 1, M = 3: transfers +-1 mod 3 in each particle, 4/9;
    # the kernel is even under x2 -> -x2, so F is real
    tensor = {"tensor_rank": 1, "tensor_rule_kept": 4 / 9, "tensor_dtype": "float64"}
    built = {"K": 9, "N": 3, "dim": 84, "nnz": problem.H.nnz, **tensor}
    assert counters["compare"] == counters["evolve-exact"] == {
        **built, "matvecs": problem.propagator.matvecs}
    assert 84 < built["nnz"] < 84 * (1 + 3 * 6 + 3 * 15)
    assert counters["evolve-hf"] == {"K": 9, "N": 3, **tensor}
    assert counters["groundstate"] == {"K": 9, "N": 3}
    # grid1 = 32 resolves the magnetic length at M = 2, not at M = 3
    assert counters_of("basis", write_cfg(tmp_path, "small.cfg", M=2, n_max=1, N=2)) == {
        "K": 4, "N": 2, "basis_grid": [32, 32]}

    # a run stopped by an error names what it built before the stop
    huge = write_cfg(tmp_path, "huge.cfg", M=3, n_max=2, N=3, strength=1e150)
    problem = Problem(load_config(huge))
    assert counters_of("evolve-exact", huge, rc=1) == {
        "K": 9, "N": 3, "dim": problem.det_basis.dim, "nnz": problem.H.nnz,
        "tensor_rank": problem.tensor.rank, "tensor_rule_kept": problem.tensor.rule_kept,
        "tensor_dtype": "float64", "matvecs": 0}
    closed = analysis.defect_norm
    monkeypatch.setattr(analysis, "defect_norm", lambda *args: closed(*args) + 1e-6)
    assert counters_of("compare", cfg, rc=1) == built
    # C(30, 10) ground-state occupation sets, over DET_SPACE_CAP
    wide = write_cfg(tmp_path, "wide.cfg", M=30, n_max=1, N=10)
    assert counters_of("groundstate", wide, rc=1) == {"K": 60, "N": 10}


def test_compare_runs_are_reproducible(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(out1),
                     "--threads", "1"]) == 0
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(out2),
                     "--threads", "3"]) == 0
    assert (out1 / "compare_timeseries.csv").read_bytes() == \
        (out2 / "compare_timeseries.csv").read_bytes()
    assert (out1 / "compare_summary.json").read_bytes() == \
        (out2 / "compare_summary.json").read_bytes()


def test_evolve_hf_csv_columns(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["evolve-hf", "--config", cfg, "--out-dir", str(out),
                     "--t-final", "0.02"]) == 0
    lines = (out / "hf_timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,re_a,im_a,energy,norm,orth_drift"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[4] == pytest.approx(1.0, abs=1e-12)


def test_evolve_exact_conserves(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["evolve-exact", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "exact_timeseries.csv").read_text().splitlines()[1:]
    rows = [[float(x) for x in ln.split(",")] for ln in lines]
    energies = [r[1] for r in rows]
    norms = [r[2] for r in rows]
    assert max(energies) - min(energies) < 1e-9
    assert max(abs(n - 1.0) for n in norms) < 1e-9


def test_evolve_exact_matches_compare_exact_column(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    for command in ("evolve-exact", "compare"):
        assert dispatch([command, "--config", cfg, "--out-dir", str(out),
                         "--threads", "1"]) == 0
    exact = [ln.split(",")[:2] for ln in
             (out / "exact_timeseries.csv").read_text().splitlines()[1:]]
    compare = [ln.split(",") for ln in
               (out / "compare_timeseries.csv").read_text().splitlines()[1:]]
    assert exact == [[row[0], row[4]] for row in compare]


def test_basis_subcommand_report(tmp_path):
    cfg = write_cfg(tmp_path, M=2, n_max=1, N=2)
    out = tmp_path / "out"
    assert dispatch(["basis", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "basis_report.json").read_text())
    assert report["gram_max_dev"] <= 1e-8
    assert len(report["bc_residuals"]) == 4
    orb = out / "orbital_n0_m0.csv"
    header = orb.read_text().splitlines()[0]
    assert header == "x1,x2,Re,Im"


def _records():
    return [ComparisonRecord(t=float(t), error_norm=0.0, apriori_bound=0.0,
                             defect_bound=0.0, energy_exact=1.0, energy_hf=1.0,
                             rdm_trace_dist=0.0) for t in (0.0, 0.1, 0.2)]


def test_write_timeseries_single_record(tmp_path):
    path = tmp_path / "one.csv"
    write_timeseries(_records()[:1], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2


def test_write_timeseries_rejects_unordered(tmp_path):
    recs = _records()
    recs[1], recs[2] = recs[2], recs[1]
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_timeseries(recs, str(path))
    assert not path.exists()


def test_write_timeseries_deterministic(tmp_path):
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    write_timeseries(_records(), str(p1))
    write_timeseries(_records(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_float_serialization_round_trips(tmp_path):
    value = 0.1 + 0.2  # not representable exactly; 17 digits must round-trip
    rec = ComparisonRecord(t=0.0, error_norm=value, apriori_bound=value,
                           defect_bound=value, energy_exact=value,
                           energy_hf=value, rdm_trace_dist=value)
    path = tmp_path / "rt.csv"
    write_timeseries([rec], str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert float(row[1]) == value


def test_evolve_hf_beyond_determinant_cap(tmp_path):
    from landau_hf.manybody import DET_SPACE_CAP
    assert math.comb(21, 10) > DET_SPACE_CAP
    cfg = write_cfg(tmp_path, M=7, n_max=2, N=10)
    out = tmp_path / "out"
    assert dispatch(["evolve-hf", "--config", cfg, "--out-dir", str(out),
                     "--t-final", "0.002", "--threads", "1"]) == 0
    lines = (out / "hf_timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,re_a,im_a,energy,norm,orth_drift"
    assert len(lines) == 3


def _evolve_hf_rejects(tmp_path, capsys, cfg, initial="nigs-ground"):
    out = tmp_path / "out"
    rc = dispatch(["evolve-hf", "--config", cfg, "--out-dir", str(out),
                   "--t-final", "0.002", "--initial", initial])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "hf_timeseries.csv").exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--dt", "0", "dt"), ("--dt", "-0.001", "dt"), ("--dt", "nan", "dt"),
    ("--dt", "inf", "dt"), ("--t-final", "-1", "t_final"),
    ("--t-final", "nan", "t_final"), ("--t-final", "inf", "t_final"),
])
def test_evolve_hf_flags_are_validated(tmp_path, capsys, flag, value, key):
    out = tmp_path / "out"
    assert dispatch(["evolve-hf", "--config", write_cfg(tmp_path),
                     "--out-dir", str(out), flag, value]) == 1
    assert f"error: invalid value for '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_hf_manifest_echoes_flags(tmp_path):
    out = tmp_path / "out"
    assert dispatch(["evolve-hf", "--config", write_cfg(tmp_path), "--out-dir",
                     str(out), "--dt", "0.01", "--t-final", "0.1",
                     "--scheme", "rk4+reorth"]) == 0
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert (echo["dt"], echo["t_final"], echo["integrator"]) == (0.01, 0.1, "rk4+reorth")
    lines = (out / "hf_timeseries.csv").read_text().splitlines()
    assert len(lines) == 3 and float(lines[-1].split(",")[0]) == pytest.approx(0.1)


def test_empty_initial_file_writes_failed_manifest(tmp_path, capsys):
    path = tmp_path / "orbs.npz"
    path.write_bytes(b"")
    _evolve_hf_rejects(tmp_path, capsys, write_cfg(tmp_path), initial=str(path))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ok"] is False
    assert "cannot read orbitals" in manifest["validations"]["error"]["detail"]


def _kernel_cfg(tmp_path, kernel):
    path = tmp_path / "kernel.cfg"
    path.write_text(GOOD_CFG.format(M=3, n_max=2, N=2, strength=0.1, t_final=0.05)
                    .replace("kind = separable-cosine", kernel))
    return str(path)


def _exits_one_without_traceback(tmp_path, capsys, command, cfg, message):
    extra = [] if command == "validate" else ["--out-dir", str(tmp_path / "out")]
    assert dispatch([command, "--config", cfg] + extra) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_compare_with_zero_sample_stride_exits_one(tmp_path, capsys):
    cfg = tmp_path / "stride.cfg"
    cfg.write_text(GOOD_CFG.format(M=3, n_max=2, N=2, strength=0.1, t_final=0.05)
                   .replace("sample_stride = 10", "sample_stride = 0"))
    _exits_one_without_traceback(tmp_path, capsys, "compare", str(cfg),
                                 "error: invalid value for 'sample_stride'")


@pytest.mark.parametrize("command", ["validate", "evolve-hf", "compare"])
@pytest.mark.parametrize("content", [None, b"", b"not numpy data"])
def test_unreadable_kernel_table_exits_one(tmp_path, capsys, command, content):
    table = tmp_path / "table.npy"
    if content is not None:
        table.write_bytes(content)
    cfg = _kernel_cfg(tmp_path, f"kind = tabulated\npath = {table}")
    _exits_one_without_traceback(tmp_path, capsys, command, cfg,
                                 "cannot read kernel table")


def test_npz_kernel_table_exits_one(tmp_path, capsys):
    table = tmp_path / "table.npz"
    np.savez(table, values=np.eye(2))
    cfg = _kernel_cfg(tmp_path, f"kind = tabulated\npath = {table}")
    _exits_one_without_traceback(tmp_path, capsys, "validate", cfg,
                                 f"kernel table {table} is an .npz archive")


def test_scheme_choices_are_the_config_integrators(tmp_path):
    parser = build_parser()
    for scheme in INTEGRATORS:
        args = parser.parse_args(["evolve-hf", "--config", "c.cfg", "--scheme", scheme])
        assert args.scheme == scheme
    assert dispatch(["evolve-hf", "--config", write_cfg(tmp_path),
                     "--scheme", "euler"]) == 2


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_infinite_sigma_exits_one(tmp_path, capsys, command):
    cfg = _kernel_cfg(tmp_path, "kind = periodic-gaussian\nsigma = inf")
    _exits_one_without_traceback(tmp_path, capsys, command, cfg,
                                 "invalid value for 'sigma'")


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_zero_charge_exits_one(tmp_path, capsys, command):
    cfg = tmp_path / "charge.cfg"
    cfg.write_text("[constants]\ncharge = 0\n" + GOOD_CFG.format(
        M=3, n_max=2, N=2, strength=0.1, t_final=0.05))
    _exits_one_without_traceback(tmp_path, capsys, command, str(cfg),
                                 "invalid value for 'charge'")


@pytest.mark.parametrize("command", ["validate", "basis", "groundstate", "evolve-exact",
                                     "evolve-hf", "compare"])
def test_step_count_that_overflows_exits_one(tmp_path, capsys, command):
    # configs/example.cfg with t_final / dt = 1e300 / 1e-10, which is inf
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text((ROOT / "configs/example.cfg").read_text()
                   .replace("dt = 1e-3", "dt = 1e-10").replace("t_final = 1.0", "t_final = 1e300"))
    prefix = "validation failed: " if command == "validate" else "error: "
    _exits_one_without_traceback(tmp_path, capsys, command, str(cfg), prefix +
                                 "invalid value for 't_final': t_final / dt must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "evolve-exact", "evolve-hf", "compare"])
def test_step_count_over_the_cap_exits_one(tmp_path, capsys, command):
    # configs/example.cfg with t_final = 1e300: 1e303 steps of dt = 1e-3, a
    # finite count over TIME_STEP_CAP; validate fails its time_steps check,
    # and each compute command stops before its first step with a manifest
    cfg = tmp_path / "long.cfg"
    cfg.write_text((ROOT / "configs/example.cfg").read_text()
                   .replace("t_final = 1.0", "t_final = 1e300"))
    extra = [] if command == "validate" else ["--out-dir", str(tmp_path / "out")]
    assert dispatch([command, "--config", str(cfg)] + extra) == 1
    out, err = capsys.readouterr()
    message = "time grid to t_final = 1e+300 at dt = 0.001 has 1e+303 steps, over the cap"
    assert "Traceback" not in err
    if command == "validate":
        check = json.loads(out)["checks"]["time_steps"]
        assert check["ok"] is False and check["detail"].startswith(message)
        return
    assert err.startswith("error: " + message)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert manifest["validations"]["error"]["detail"].startswith(message)


def _huge_gaussian_cfg(tmp_path):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(GOOD_CFG.format(M=3, n_max=2, N=2, strength=1e308, t_final=0.05)
                   .replace("separable-cosine", "periodic-gaussian"))
    return str(cfg)


def _nan_table_cfg(tmp_path):
    table = np.zeros((12 * 12, 12 * 12))          # tensor grid 12 x 12
    table[5, 5] = np.nan
    np.save(tmp_path / "nan.npy", table)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(GOOD_CFG.format(M=3, n_max=2, N=2, strength=0.1, t_final=0.05)
                   .replace("tensor_grid1 = 48", "tensor_grid1 = 12")
                   .replace("kind = separable-cosine",
                            f"kind = tabulated\npath = {tmp_path / 'nan.npy'}"))
    return str(cfg)


@pytest.mark.parametrize("command", ["compare", "evolve-exact", "evolve-hf"])
def test_non_finite_kernel_writes_failed_manifest(tmp_path, capsys, command):
    # the overflowing Fourier weights stop set-up before the tensor is formed
    _exits_one_without_traceback(tmp_path, capsys, command, _huge_gaussian_cfg(tmp_path),
                                 "Fourier weights are non-finite")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert "non-finite" in manifest["validations"]["error"]["detail"]


@pytest.mark.parametrize("make_cfg,message", [
    (_huge_gaussian_cfg, "Fourier weights are non-finite"),
    (_nan_table_cfg, "tabulated kernel has a non-finite value"),
], ids=["gaussian-1e308", "nan-table"])
def test_validate_rejects_non_finite_kernel(tmp_path, capsys, make_cfg, message):
    assert dispatch(["validate", "--config", make_cfg(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")
    payload = json.loads(out, parse_constant=reject)
    check = payload["checks"]["potential_symmetric"]
    assert payload["ok"] is False and check["ok"] is False
    assert message in check["detail"]


# every config key at a value other than its default
ALL_KEYS = {
    "constants": {"hbar": 1.5, "mass": 2.0, "charge": 0.5, "light_speed": 3.0},
    "domain": {"L1": 7.0, "L2": 5.0, "M": 2},
    "basis": {"n_max": 1, "grid1": 16, "grid2": 24, "tensor_grid1": 12,
              "tensor_grid2": 20, "lattice_cut": 50},
    "dynamics": {"N": 2, "dt": 0.002, "t_final": 0.01, "integrator": "rk4+reorth",
                 "sample_stride": 3},
    "potential": {"kind": "periodic-gaussian", "strength": 0.3, "harmonic1": 2,
                  "harmonic2": 3, "sigma": 0.7, "path": "unused.npy"},
}


def _echo(tmp_path, name, sections):
    path = tmp_path / f"{name}.cfg"
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()))
    out = tmp_path / name
    assert dispatch(["groundstate", "--config", str(path), "--out-dir", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())["config"]


def test_manifest_echoes_every_key_and_B(tmp_path):
    echo = _echo(tmp_path, "all", ALL_KEYS)
    B = echo.pop("B")
    assert echo == {k: v for keys in ALL_KEYS.values() for k, v in keys.items()}
    assert len(echo) == 24
    assert B == pytest.approx(2.0 * math.pi * 2 / 35.0 * 1.5 * 3.0 / 0.5, rel=1e-15)


def test_echoes_differ_in_sigma(tmp_path):
    other = dict(ALL_KEYS, potential=dict(ALL_KEYS["potential"], sigma=0.8))
    assert _echo(tmp_path, "a", ALL_KEYS) != _echo(tmp_path, "b", other)


def test_missing_config_exits_one(tmp_path, capsys):
    _evolve_hf_rejects(tmp_path, capsys, str(tmp_path / "absent.cfg"))


def test_missing_initial_file_exits_one(tmp_path, capsys):
    _evolve_hf_rejects(tmp_path, capsys, write_cfg(tmp_path),
                       initial=str(tmp_path / "absent.npz"))


def test_initial_orbitals_of_wrong_shape_exit_one(tmp_path, capsys):
    path = tmp_path / "orbs.npz"
    np.savez(path, orbitals=np.eye(9, 3))          # config has N = 2
    _evolve_hf_rejects(tmp_path, capsys, write_cfg(tmp_path, N=2),
                       initial=str(path))


def test_nonorthonormal_initial_orbitals_exit_one(tmp_path, capsys):
    path = tmp_path / "orbs.npz"
    np.savez(path, orbitals=np.ones((9, 2)))       # rank 1
    _evolve_hf_rejects(tmp_path, capsys, write_cfg(tmp_path, N=2),
                       initial=str(path))


def test_bound_violation_is_reported_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr("landau_hf.analysis.apriori_bound",
                        lambda N, v_norm, constants, t: 0.0)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(out),
                     "--threads", "1"]) == 1
    summary = json.loads((out / "compare_summary.json").read_text())
    assert summary["bound_violations"] > 0
    assert len((out / "compare_timeseries.csv").read_text().splitlines()) >= 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False
    assert manifest["validations"]["bound_violations"]["ok"] is False


def test_support_violation_writes_failed_manifest(tmp_path, monkeypatch, capsys):
    import landau_hf.analysis as analysis
    closed = analysis.defect_norm
    monkeypatch.setattr(analysis, "defect_norm", lambda *args: closed(*args) + 1e-6)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(out),
                     "--threads", "1"]) == 1
    assert "closed-form defect" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False
    check = manifest["validations"]["defect_support"]
    assert check["ok"] is False and "closed-form defect" in check["detail"]


@pytest.mark.parametrize("command", ["compare", "evolve-exact"])
def test_too_large_writes_failed_manifest(tmp_path, capsys, command):
    cfg = tmp_path / "k30.cfg"                        # C(30, 10) over the cap
    cfg.write_text(GOOD_CFG.format(M=10, n_max=2, N=10, strength=0.1, t_final=0.05)
                   .replace("grid1 = 32", "grid1 = 64").replace("= 48", "= 64"))
    out = tmp_path / "out"
    assert dispatch([command, "--config", str(cfg), "--out-dir", str(out),
                     "--threads", "1"]) == 1
    assert "exceeds cap" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert "exceeds cap" in manifest["validations"]["error"]["detail"]


@pytest.mark.parametrize("command", ["compare", "evolve-exact"])
def test_h_over_the_byte_budget_writes_failed_manifest(tmp_path, capsys, monkeypatch,
                                                       command):
    # K = 30, N = 27: C(30, 27) = 4060 determinants, but applying H needs
    # two g P x C(30, 25) arrays of two-hole amplitudes, 450 rows for the 435
    # pairs in g = 2 pair-momentum classes of P = 225, 2.07 GB with the
    # bound's |W| (2.06 GB while the budget left it out)
    def unlisted(*args):
        raise AssertionError("a hole table was built")
    monkeypatch.setattr(DeterminantBasis, "holes", unlisted)
    cfg = tmp_path / "k30.cfg"
    cfg.write_text(GOOD_CFG.format(M=10, n_max=2, N=27, strength=0.1, t_final=0.05)
                   .replace("grid1 = 32", "grid1 = 64").replace("= 48", "= 64"))
    out = tmp_path / "out"
    assert dispatch([command, "--config", str(cfg), "--out-dir", str(out),
                     "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: H on C(30,27) = 4060 determinants needs 2.07 GB")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert "over the budget" in manifest["validations"]["error"]["detail"]


@pytest.mark.parametrize("command", ["evolve-hf", "compare", "evolve-exact"])
def test_tensor_over_the_byte_budget_at_k120_exits_before_any_orbital(tmp_path, capsys,
                                                                     monkeypatch, command):
    # configs/k30n10.cfg at M = 60, n_max = 1 on 512^2 grids with the cosine
    # kernel: K = 120, 1.67 GB, nearly all of it the real blocks of v and F,
    # 16 K^4 / g at g = gcd(60, 2) = 2 (the Gaussian's g = 60 blocks fit the
    # budget); compare and evolve-exact check it before their determinant
    # space, too
    def unbuilt(*args, **kwargs):
        raise AssertionError("an orbital was built")
    monkeypatch.setattr(analysis, "build_orbital_set", unbuilt)
    text = (ROOT / "configs/k30n10.cfg").read_text()
    for key, value in [("M", 60), ("n_max", 1), ("grid1", 512), ("grid2", 512),
                       ("tensor_grid1", 512), ("tensor_grid2", 512),
                       ("kind", "separable-cosine")]:
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    cfg = tmp_path / "k120.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert dispatch([command, "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: two-body tensor at K = 120 with ")
    assert "needs 1.67 GB, over the budget" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []


@pytest.mark.parametrize("command", ["evolve-hf", "compare"])
def test_tensor_over_the_byte_budget_writes_failed_manifest(tmp_path, capsys, monkeypatch,
                                                            command):
    # K = 9, 89 kept modes on a 48^2 grid: 16 K^2 (R + 1) for B and its
    # closed-form fill, 16 K^2 (G1 + u) + 72 K^2 c with u = c = 11, 257,256
    # bytes (the blocks of v and F and a block's factors, 32 K^4 / g + 32 n
    # (n + r), are less), over a 100 kB cap
    def unbuilt(*args):
        raise AssertionError("a Fourier factor was built")
    monkeypatch.setattr(manybody, "TENSOR_BYTE_CAP", 10 ** 5)
    monkeypatch.setattr(manybody, "dft_columns", unbuilt)
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text(GOOD_CFG.format(M=3, n_max=2, N=2, strength=0.1, t_final=0.05)
                   .replace("separable-cosine", "periodic-gaussian"))
    out = tmp_path / "out"
    assert dispatch([command, "--config", str(cfg), "--out-dir", str(out),
                     "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: two-body tensor at K = 9 with 89 Fourier modes needs ")
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert "over the budget" in manifest["validations"]["error"]["detail"]


@pytest.mark.parametrize("message", ["Unable to allocate 3.91 GiB for an array", ""])
@pytest.mark.parametrize("command", ["compare", "evolve-hf"])
def test_allocation_failure_in_set_up_writes_failed_manifest(tmp_path, capsys, monkeypatch,
                                                             command, message):
    # a MemoryError (numpy's _ArrayMemoryError is one) while the tensor is
    # built: exit 1 with an error line and a manifest, no traceback
    def exhausted(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(analysis, "two_body_tensor", exhausted)
    out = tmp_path / "out"
    assert dispatch([command, "--config", write_cfg(tmp_path), "--out-dir", str(out),
                     "--threads", "1"]) == 1
    err = capsys.readouterr().err
    expected = f"out of memory: {message}" if message else "out of memory"
    assert err == f"error: {expected}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and manifest["outputs"] == []
    assert manifest["validations"]["error"] == {"ok": False, "detail": expected}
    assert manifest["counters"] == {"K": 9, "N": 2}


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["compare", "evolve-hf", "basis"])
def test_threads_below_one_exit_one(tmp_path, capsys, command, threads):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert dispatch([command, "--config", cfg, "--out-dir", str(out),
                     "--threads", threads]) == 1
    assert "error: invalid value for 'threads'" in capsys.readouterr().err
    assert not out.exists()


def test_gaussian_compare_is_thread_count_invariant(tmp_path):
    cfg = tmp_path / "gauss.cfg"
    cfg.write_text(GOOD_CFG.format(M=2, n_max=1, N=2, strength=0.2, t_final=0.02)
                   .replace("separable-cosine", "periodic-gaussian"))
    outs = [tmp_path / "t1", tmp_path / "t2"]
    for out, threads in zip(outs, ("1", "2")):
        assert dispatch(["compare", "--config", str(cfg), "--out-dir", str(out),
                         "--threads", threads]) == 0
    for name in ("compare_timeseries.csv", "compare_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    summary = json.loads((outs[0] / "compare_summary.json").read_text())
    assert 0.0 <= summary["tensor_symmetry_deviation"] <= 1e-8


COMPUTE_RUNS = {
    "basis": [], "groundstate": [], "evolve-exact": [],
    "evolve-hf": ["--snapshots", "--t-final", "0.02"], "compare": [],
}


@pytest.mark.parametrize("command", COMPUTE_RUNS)
def test_manifest_lists_exactly_the_files_written(tmp_path, command):
    cfg = write_cfg(tmp_path, M=2, n_max=1, N=2)
    out = tmp_path / "out"
    assert dispatch([command, "--config", cfg, "--out-dir", str(out), "--threads", "1"]
                    + COMPUTE_RUNS[command]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(written)
    assert len(manifest["outputs"]) == len(written) > 0


@pytest.mark.parametrize("command,name", [
    ("compare", "compare_timeseries.csv"), ("evolve-hf", "hf_orbitals.npz")])
def test_failed_write_is_not_listed(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)                 # a directory in the file's place
    assert dispatch([command, "--config", write_cfg(tmp_path), "--out-dir", str(out),
                     "--threads", "1"] + COMPUTE_RUNS[command]) == 1
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["ok"] is False and "cannot write" in manifest["validations"]["error"]["detail"]
    assert name not in manifest["outputs"]


@pytest.mark.parametrize("command,sub", [
    ("compare", ""), ("basis", ""), ("groundstate", ""), ("evolve-exact", "sub")])
def test_out_dir_that_cannot_be_created_exits_one(tmp_path, capsys, command, sub):
    # an existing file as the out dir, or as its parent: no directory, so no
    # manifest, and an `error:` line in place of a traceback
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / sub if sub else afile
    assert dispatch([command, "--config", write_cfg(tmp_path), "--out-dir", str(out),
                     "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create out dir {out}: ")
    assert "Traceback" not in err
    assert afile.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]


@pytest.mark.parametrize("key", ["harmonic1", "harmonic2"])
def test_a_harmonic_past_int64_runs_as_its_alias(tmp_path, capsys, key):
    # 10^20 and its alias mod 2 G = 96 on the 48-point tensor grid give the
    # same outputs
    outputs = []
    for h in (10 ** 20, 10 ** 20 % 96):
        cfg = write_cfg(tmp_path, name=f"{h}.cfg")
        with open(cfg, "a") as fh:
            fh.write(f"{key} = {h}\n")
        out = tmp_path / f"out{h}"
        assert dispatch(["validate", "--config", cfg]) == 0
        assert dispatch(["compare", "--config", cfg, "--out-dir", str(out), "--threads", "1"]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("compare_timeseries.csv", "compare_summary.json")])
    assert "Traceback" not in capsys.readouterr().err
    assert outputs[0] == outputs[1]


def test_groundstate_builds_no_orbital(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("groundstate built the orbital basis")
    for module in ("basis", "analysis"):       # cli builds orbitals only through Problem
        monkeypatch.setattr(f"landau_hf.{module}.build_orbital_set", refuse)
    out = tmp_path / "out"
    assert dispatch(["groundstate", "--config", write_cfg(tmp_path, M=4, N=6),
                     "--out-dir", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["degeneracy"] == 6


def test_tabulated_kernel_compare_matches_the_gaussian_kind(tmp_path):
    # the Gaussian's pair values on a 32 x 32 tensor grid as a table: the same
    # kernel through the dense pair densities, without the selection rule
    text = (ROOT / "configs/gaussian.cfg").read_text()
    text = text.replace("tensor_grid1 = 64", "tensor_grid1 = 32").replace(
        "tensor_grid2 = 64", "tensor_grid2 = 32")
    gauss = tmp_path / "gauss.cfg"
    gauss.write_text(text)
    config = load_config(gauss)
    table = tmp_path / "table.npy"
    np.save(table, config.potential.pair_values(config.tensor_grid))
    tab = tmp_path / "tab.cfg"
    tab.write_text(text.replace("kind = periodic-gaussian",
                                f"kind = tabulated\npath = {table}"))
    columns = {}
    for cfg in (gauss, tab):
        out = tmp_path / cfg.stem
        assert dispatch(["compare", "--config", str(cfg), "--out-dir", str(out),
                         "--threads", "1"]) == 0
        columns[cfg.stem] = np.genfromtxt(out / "compare_timeseries.csv", delimiter=",",
                                          names=True)
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert (counters["tensor_rank"] is None) == (cfg is tab)
    names = columns["gauss"].dtype.names
    assert names == columns["tab"].dtype.names and len(columns["gauss"]) == 11
    for name in names:
        assert np.max(np.abs(columns["gauss"][name] - columns["tab"][name])) <= 1e-12, name


def test_tabulated_kernel_odd_under_x2_reflection_keeps_a_complex_tensor(tmp_path):
    # 0.2 cos 2 pi ((x1 - y1) / L1 + (x2 - y2) / L2) is real and symmetric but
    # not even under x2 -> -x2, so v is complex: F stays complex128, and the
    # run meets its bounds
    text = (ROOT / "configs/gaussian.cfg").read_text()
    text = text.replace("tensor_grid1 = 64", "tensor_grid1 = 32").replace(
        "tensor_grid2 = 64", "tensor_grid2 = 32")
    domain = load_config(ROOT / "configs/gaussian.cfg").domain
    grid = Grid(L1=domain.L1, L2=domain.L2, G1=32, G2=32)
    x1, x2 = grid.mesh()
    phase = 2 * np.pi * (x1 / grid.L1 + x2 / grid.L2).ravel()
    table = tmp_path / "table.npy"
    np.save(table, 0.2 * np.cos(phase[:, None] - phase))
    cfg = tmp_path / "tilted.cfg"
    cfg.write_text(text.replace("kind = periodic-gaussian", f"kind = tabulated\npath = {table}"))
    tensor = Problem(load_config(cfg)).tensor
    assert tensor.anti.dtype == tensor.pair_blocks.values.dtype == np.complex128
    assert np.abs(tensor.blocks.imag).max() > 0.1 * np.abs(tensor.blocks).max()
    out = tmp_path / "out"
    assert dispatch(["compare", "--config", str(cfg), "--out-dir", str(out),
                     "--threads", "1"]) == 0
    assert json.loads((out / "compare_summary.json").read_text())["bound_violations"] == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    assert counters["tensor_dtype"] == "complex128" and counters["tensor_rank"] is None


def run_python(code, *args):
    """A fresh interpreter running code, with this checkout's src first on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_cli_import_loads_no_scipy():
    run = run_python("import sys, landau_hf.cli; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_compare_runs_on_numpy_alone(tmp_path):
    cfg = str(ROOT / "configs/gaussian.cfg")
    bare, full = tmp_path / "bare", tmp_path / "full"
    run = run_python("import sys; sys.modules['scipy'] = None; "
                     "from landau_hf.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))",
                     "compare", "--config", cfg, "--out-dir", str(bare))
    assert run.returncode == 0, run.stderr
    assert dispatch(["compare", "--config", cfg, "--out-dir", str(full)]) == 0
    for name in ("compare_timeseries.csv", "compare_summary.json"):
        assert (bare / name).read_bytes() == (full / name).read_bytes()
