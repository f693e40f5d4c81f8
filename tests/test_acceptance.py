"""Acceptance criteria for the whole artifact.

Each test prints one PASS/FAIL line (visible with pytest -s; a FAIL also
fails the test).  Tolerances are fixed here, not tuned elsewhere.
"""

import json
import math

import numpy as np
import pytest

import landau_hf as lhf
from landau_hf.analysis import Problem, run_comparison
from landau_hf.cli import dispatch
from landau_hf.hartree_fock import HFState
from landau_hf.manybody import InteractionTensor, ManyBodyState

import helpers
from conftest import make_config

TWO_PI = 2.0 * math.pi


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# --------------------------------------------------------------------------
# 1. basis fidelity at production resolution
# --------------------------------------------------------------------------

def test_criterion_1_basis_fidelity():
    cfg = make_config(M=4, n_max=4, N=2, grid=256, tensor_grid=64)
    oset = lhf.build_orbital_set(cfg)

    gram_dev = oset.gram_deviation()
    bc_worst = max(lhf.check_magnetic_bc(phi) for phi in oset.orbitals)

    def residuals(G):
        grid = lhf.Grid(L1=cfg.domain.L1, L2=cfg.domain.L2, G1=G, G2=G)
        out = []
        for n in range(cfg.n_max + 1):
            for m in range(cfg.domain.M):
                phi = lhf.finite_volume_orbital(n, m, grid, cfg.domain.M)
                Hphi = lhf.apply_landau_hamiltonian(phi, cfg.constants)
                diff = Hphi.values - lhf.landau_level(n, cfg.constants) * phi.values
                out.append(math.sqrt(abs(lhf.inner_product(diff, diff, grid))))
        return np.array(out)

    r_coarse = residuals(256)
    r_fine = residuals(512)
    ratio = r_coarse.max() / r_fine.max()

    ok = gram_dev <= 1e-8 and bc_worst <= 1e-10 and ratio >= 12.0
    _report(1, "basis fidelity", ok,
            f"gram={gram_dev:.2e} bc={bc_worst:.2e} conv_ratio={ratio:.1f}")


# --------------------------------------------------------------------------
# 2. ground-state closed form vs dense diagonalization
# --------------------------------------------------------------------------

def test_criterion_2_ground_state_closed_form():
    worst_energy = 0.0
    multiplicities_ok = True
    for M in range(1, 6):
        for N in range(1, 13):
            q, r = divmod(N, M)
            n_max = q  # always keep one level above the highest filled one
            K = (n_max + 1) * M
            basis = lhf.enumerate_determinants(K, N)
            domain = lhf.DomainConfig(L1=TWO_PI, L2=TWO_PI, M=M)
            constants = lhf.PhysicalConstants.for_domain(domain)
            levels = [lhf.landau_level(n, constants) for n in range(n_max + 1)]
            energies = np.repeat(levels, M)
            H = lhf.assemble_hamiltonian(basis, energies, None)
            spectrum = np.linalg.eigvalsh(H.toarray().real)
            filling = lhf.FillingSpec.from_counts(N, M)
            E0, sets = lhf.noninteracting_ground_state(filling, levels)
            worst_energy = max(worst_energy, abs(spectrum[0] - E0))
            mult = int(np.sum(np.abs(spectrum - spectrum[0]) < 1e-9))
            if mult != math.comb(M, r) or len(sets) != math.comb(M, r):
                multiplicities_ok = False

    worst_fit = 0.0
    for M in range(1, 6):
        levels = [0.5 * (2 * n + 1) for n in range(8)]
        Ns = np.array([k * M for k in range(1, 7)], dtype=float)
        E0s = np.array([lhf.noninteracting_ground_state(
            lhf.FillingSpec.from_counts(int(N), M), levels)[0] for N in Ns])
        coef = np.polyfit(Ns, E0s, 2)
        worst_fit = max(worst_fit,
                        float(np.abs(np.polyval(coef, Ns) - E0s).max() / E0s.max()))

    ok = worst_energy <= 1e-10 and multiplicities_ok and worst_fit < 1e-10
    _report(2, "ground-state closed form", ok,
            f"energy_dev={worst_energy:.2e} fit_resid={worst_fit:.2e}")


# --------------------------------------------------------------------------
# 3. oracle equivalence of the many-body assembly
# --------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst_h = 0.0
    for K in (4, 6, 8):
        v, sup = helpers.random_interaction_tensor(rng, K)
        tensor = InteractionTensor(values=v, sup_norm=sup)
        energies = rng.uniform(0.2, 2.0, K)
        basis = lhf.enumerate_determinants(K, 2)
        H = lhf.assemble_hamiltonian(basis, energies, tensor).toarray()
        oracle = helpers.projected_hamiltonian(basis, energies, v)
        worst_h = max(worst_h, float(np.max(np.abs(H - oracle))))

    worst_overlap = 0.0
    for N in (2, 3, 4):
        A = rng.normal(size=(6, N)) + 1j * rng.normal(size=(6, N))
        B = rng.normal(size=(6, N)) + 1j * rng.normal(size=(6, N))
        got = lhf.slater_overlap(A, B)
        expect = np.vdot(helpers.wedge_tensor(A), helpers.wedge_tensor(B))
        worst_overlap = max(worst_overlap, abs(got - expect))

    ok = worst_h <= 1e-9 and worst_overlap <= 1e-10
    _report(3, "oracle equivalence", ok,
            f"H_dev={worst_h:.2e} overlap_dev={worst_overlap:.2e}")


# --------------------------------------------------------------------------
# 4. conservation suite for the effective dynamics
# --------------------------------------------------------------------------

def test_criterion_4_conservation():
    cfg = make_config(M=3, n_max=2, N=3, strength=1.0, t_final=1.0, dt=1e-3,
                      sample_stride=10)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    rng = np.random.default_rng(2)
    C0 = np.linalg.qr(rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))[0]
    st0 = HFState(time=0.0, a=1.0 + 0j, orbitals=C0)
    traj = lhf.integrate_hf(st0, cfg.dt, cfg.t_final, "rk4", tensor,
                            oset.energies, cfg.constants,
                            sample_stride=cfg.sample_stride)
    phase_dev = float(np.max(np.abs(traj.norms - 1.0)))
    energy_drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
    gram_drift = float(np.max(traj.gram_devs))
    ok = phase_dev <= 1e-8 and energy_drift <= 1e-6 and gram_drift <= 1e-6
    _report(4, "conservation suite", ok,
            f"|a|-1={phase_dev:.2e} dE={energy_drift:.2e} gram={gram_drift:.2e}")


# --------------------------------------------------------------------------
# 5 and 6. trajectory error bounds and the a-posteriori hierarchy
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bound_runs():
    runs = {}
    for N in (2, 3):
        for strength in (0.0, 0.05, 0.2):
            cfg = make_config(M=3, n_max=2, N=N, strength=strength,
                              t_final=1.0, dt=1e-3, sample_stride=10)
            runs[(N, strength)] = run_comparison(Problem(cfg))
    return runs


def test_criterion_5_error_bound(bound_runs):
    violations = 0
    max_free_error = 0.0
    for (N, strength), result in bound_runs.items():
        if strength == 0.0:
            max_free_error = max(max_free_error,
                                 max(r.error_norm for r in result.records))
            continue
        for rec in result.records:
            if rec.error_norm > rec.apriori_bound + 1e-12:
                violations += 1
    ok = violations == 0 and max_free_error <= 1e-8
    _report(5, "error-bound verification", ok,
            f"violations={violations} free_error={max_free_error:.2e}")


def test_criterion_6_aposteriori_hierarchy(bound_runs):
    hierarchy_ok = True
    worst_gap = 0.0
    for (N, strength), result in bound_runs.items():
        for rec in result.records:
            if rec.error_norm > rec.defect_bound + 1e-7:
                hierarchy_ok = False
                worst_gap = max(worst_gap, rec.error_norm - rec.defect_bound)
            if rec.defect_bound > rec.apriori_bound + 1e-7:
                hierarchy_ok = False
                worst_gap = max(worst_gap, rec.defect_bound - rec.apriori_bound)
    # sector purity is enforced inside every defect evaluation (the runs
    # above would have raised SupportViolation); re-check once explicitly
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    rng = np.random.default_rng(4)
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    from landau_hf.analysis import defect_sector_norms, defect_vector
    d = defect_vector(st, H, basis, oset.energies, tensor, cfg.constants)
    sectors = defect_sector_norms(d, C, basis)
    purity_ok = sectors[0] <= 1e-8 and sectors[1] <= 1e-8
    ok = hierarchy_ok and purity_ok
    _report(6, "a-posteriori hierarchy", ok,
            f"worst_gap={worst_gap:.2e} sector01={max(sectors[0], sectors[1]):.2e}")


# --------------------------------------------------------------------------
# 7. reduced density matrix properties
# --------------------------------------------------------------------------

def test_criterion_7_rdm_properties():
    cfg = make_config(M=3, n_max=2, N=3, strength=0.2, t_final=0.3, dt=1e-3,
                      sample_stride=30)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    basis = lhf.enumerate_determinants(9, 3)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    C0 = np.zeros((9, 3), dtype=complex)
    for j in range(3):
        C0[j, j] = 1.0
    st0 = HFState(time=0.0, a=1.0 + 0j, orbitals=C0)
    psi0 = lhf.embed_slater(1.0, C0, basis)
    from landau_hf.manybody import ExactPropagator
    prop = ExactPropagator(H, cfg.constants.hbar)
    traj = lhf.integrate_hf(st0, cfg.dt, cfg.t_final, "rk4", tensor,
                            oset.energies, cfg.constants,
                            sample_stride=cfg.sample_stride)

    trace_dev = 0.0
    idem_dev = 0.0
    for t, state in zip(traj.times, traj.states):
        psi_t = ManyBodyState(basis=basis, coefficients=prop.advance(
            psi0.coefficients, float(t)))
        om_exact = lhf.rdm_exact(psi_t, basis)
        om_slater = lhf.rdm_slater(state)
        trace_dev = max(trace_dev,
                        abs(np.trace(om_exact).real - 3.0),
                        abs(np.trace(om_slater).real - 3.0))
        idem_dev = max(idem_dev, float(np.linalg.norm(
            om_slater @ om_slater - om_slater)))
    t0_dist = lhf.trace_norm_diff(lhf.rdm_exact(psi0, basis),
                                  lhf.rdm_slater(st0))
    ok = trace_dev <= 1e-9 and idem_dev <= 1e-9 and t0_dist <= 1e-8
    _report(7, "reduced density matrices", ok,
            f"trace={trace_dev:.2e} idem={idem_dev:.2e} t0={t0_dist:.2e}")


# --------------------------------------------------------------------------
# 8. mean-field/semiclassical scaling identity
# --------------------------------------------------------------------------

def test_criterion_8_scaling_identity():
    worst = 0.0
    for N in range(1, 65):
        cfg = make_config(M=8, n_max=7, N=N)
        scaling = lhf.rescale_mean_field(cfg)
        for (v, t) in ((0.05, 1.0), (0.2, 2.5), (1.0, 0.3)):
            expect = math.sqrt(N - 1) * v * t / cfg.constants.hbar
            worst = max(worst, abs(scaling.rescaled_bound(v, t) - expect))
    ok = worst <= 1e-12
    _report(8, "scaling identity", ok, f"max_dev={worst:.2e}")


# --------------------------------------------------------------------------
# 9. determinism across thread counts
# --------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    cfg_text = f"""
[domain]
L1 = {TWO_PI!r}
L2 = {TWO_PI!r}
M = 3

[basis]
n_max = 2
grid1 = 48
tensor_grid1 = 64

[dynamics]
N = 2
dt = 1e-3
t_final = 0.2
sample_stride = 20

[potential]
kind = periodic-gaussian
strength = 0.2
sigma = 1.2
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = dispatch(["compare", "--config", str(cfg_path), "--out-dir",
                    str(out1), "--threads", "1"])
    rc2 = dispatch(["compare", "--config", str(cfg_path), "--out-dir",
                    str(out2), "--threads", "2"])
    csv_same = (out1 / "compare_timeseries.csv").read_bytes() == \
        (out2 / "compare_timeseries.csv").read_bytes()
    json_same = (out1 / "compare_summary.json").read_bytes() == \
        (out2 / "compare_summary.json").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and csv_same and json_same
    _report(9, "determinism", ok,
            f"rc=({rc1},{rc2}) csv_identical={csv_same} json_identical={json_same}")
