import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau_hf as lhf
from landau_hf import analysis, hartree_fock, manybody
from landau_hf.analysis import (SECTOR_TOL, Problem, check_defect_support,
                                defect_sector_norms, defect_vector,
                                run_comparison)
from landau_hf.errors import NotHermitian, SupportViolation
from landau_hf.hartree_fock import HFState, sample_steps, time_grid
from landau_hf.manybody import InteractionTensor, ManyBodyState

import helpers
from conftest import make_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def system():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    return cfg, oset, tensor, basis, H


def unit_columns(K, occ):
    C = np.zeros((K, len(occ)), dtype=complex)
    for j, p in enumerate(occ):
        C[p, j] = 1.0
    return C


# --- error norm -----------------------------------------------------------------

def test_error_zero_for_embedded_state(system, rng):
    cfg, oset, tensor, basis, H = system
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    hf = HFState(time=0.0, a=np.exp(1j * 0.2), orbitals=C)
    exact = ManyBodyState(basis=basis,
                          coefficients=hf.a * lhf.embed_wedge(C, basis))
    assert lhf.error_norm(exact, hf, basis) == pytest.approx(0.0, abs=1e-13)


def test_error_orthogonal_states_is_sqrt2(system):
    cfg, oset, tensor, basis, H = system
    hf = HFState(time=0.0, a=1.0 + 0j, orbitals=unit_columns(9, (0, 1)))
    coeffs = np.zeros(basis.dim, dtype=complex)
    coeffs[basis.lookup((2, 3))] = 1.0
    exact = ManyBodyState(basis=basis, coefficients=coeffs)
    assert lhf.error_norm(exact, hf, basis) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_error_vanishes_without_interaction():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.0, t_final=0.5,
                      sample_stride=50)
    result = run_comparison(Problem(cfg))
    assert max(r.error_norm for r in result.records) <= 1e-8


# --- a-priori bound ---------------------------------------------------------------

def test_apriori_values():
    c = lhf.PhysicalConstants()
    assert lhf.apriori_bound(2, 0.1, c, 1.0) == pytest.approx(
        math.sqrt(2.0) * 0.1, rel=1e-12)
    assert lhf.apriori_bound(5, 0.3, c, 0.0) == 0.0
    assert lhf.apriori_bound(1, 0.7, c, 3.0) == 0.0


@given(N=st.integers(1, 30), v=st.floats(0.0, 5.0), t=st.floats(0.0, 10.0),
       hbar=st.floats(0.2, 3.0))
@settings(max_examples=50, deadline=None)
def test_apriori_scaling_structure(N, v, t, hbar):
    c = lhf.PhysicalConstants(hbar=hbar)
    val = lhf.apriori_bound(N, v, c, t)
    assert val == pytest.approx(math.sqrt(N * (N - 1)) * v * t / hbar, rel=1e-12)


# --- defect ------------------------------------------------------------------------

def test_defect_zero_without_interaction(system, rng):
    cfg, oset, _, _, _ = system
    zero = lhf.two_body_tensor(lhf.PotentialSpec(kind="zero"), oset,
                               cfg.tensor_grid)
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    assert lhf.defect_norm(st, zero, cfg.constants) < 1e-10


def test_defect_below_uniform_bound(system, rng):
    cfg, oset, tensor, basis, H = system
    for _ in range(4):
        C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
        st = HFState(time=0.0, a=np.exp(0.4j), orbitals=C)
        d = lhf.defect_norm(st, tensor, cfg.constants)
        assert d <= lhf.apriori_bound(2, tensor.sup_norm, cfg.constants, 1.0) + 1e-8


def test_defect_sector_purity(system, rng):
    cfg, oset, tensor, basis, H = system
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    d = defect_vector(st, H, basis, oset.energies, tensor, cfg.constants)
    sectors = defect_sector_norms(d, C, basis)
    assert sectors[0] < 1e-8
    assert sectors[1] < 1e-8
    # everything lives in the two-replacement sector
    assert sectors[2] == pytest.approx(np.linalg.norm(d), abs=1e-8)


def test_defect_support_violation_detected(system, rng):
    # an artificial zero-replacement component is seen by the sector transform
    cfg, oset, tensor, basis, H = system
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    d = defect_vector(st, H, basis, oset.energies, tensor, cfg.constants)
    d_bad = d + 1e-3 * lhf.embed_wedge(C, basis)
    sectors = defect_sector_norms(d_bad, C, basis)
    assert sectors[0] > 1e-4
    # the derivation's cancellations need orthonormal orbitals; a skewed set
    # must trip the sample check
    skewed = C.copy()
    skewed[:, 0] *= 1.5
    bad = HFState(time=0.0, a=1.0 + 0j, orbitals=skewed)
    with pytest.raises(SupportViolation):
        check_defect_support(bad, lhf.defect_norm(bad, tensor, cfg.constants),
                             H, basis, oset.energies, tensor, cfg.constants)


@pytest.mark.parametrize("kind", ["separable-cosine", "periodic-gaussian"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_closed_form_defect_matches_embedded(rng, kind, N):
    cfg = make_config(M=3, n_max=2, N=N, strength=0.5, kind=kind)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    basis = lhf.enumerate_determinants(9, N)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    constants = lhf.PhysicalConstants(hbar=0.7)
    for _ in range(2):
        C = np.linalg.qr(rng.normal(size=(9, N)) + 1j * rng.normal(size=(9, N)))[0]
        st = HFState(time=0.0, a=1.3 * np.exp(0.4j), orbitals=C)
        d = defect_vector(st, H, basis, oset.energies, tensor, constants)
        assert lhf.defect_norm(st, tensor, constants) == pytest.approx(
            np.linalg.norm(d), abs=1e-12)


@pytest.mark.parametrize("K,N", [(5, 2), (9, 3), (10, 5), (12, 4), (5, 4)])
def test_sample_check_matches_embedding_oracles(rng, K, N):
    # dGamma form of the defect vector and sector projectors of the complement
    # number operator against the column-by-column and compound-matrix
    # embeddings; K - N < 2 leaves the two-replacement sector empty
    basis = lhf.enumerate_determinants(K, N)
    v, sup = helpers.random_interaction_tensor(rng, K, P=K + 3)
    tensor = InteractionTensor(values=v, sup_norm=sup)
    energies = rng.uniform(0.2, 2.0, K)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    constants = lhf.PhysicalConstants(hbar=0.7)

    def assert_close(got, want, scale):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, scale)

    # unit norm in each of the min(N, K - N) + 1 nonempty sectors, so the
    # deviation is relative to every sector's norm
    C = np.linalg.qr(rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N)))[0]
    x = helpers.unit_sector_vector(rng, C, basis)
    want = helpers.compound_sector_norms(x, C, basis)
    assert_close(want, np.arange(N + 1) <= K - N, 1.0)
    assert_close(defect_sector_norms(x, C, basis), want, 1.0)
    skewed = C.copy()
    skewed[:, 0] *= 1.5
    skewed[:, -1] += 0.3 * C[:, 0]
    for orbitals in (C, skewed):
        st = HFState(time=0.0, a=1.3 * np.exp(0.4j), orbitals=orbitals)
        d = defect_vector(st, H, basis, energies, tensor, constants)
        scale = np.linalg.norm(d)
        assert_close(d, helpers.columnwise_defect_vector(
            st, H, basis, energies, tensor, constants), scale)
        assert_close(defect_sector_norms(d, orbitals, basis),
                     helpers.compound_sector_norms(d, orbitals, basis), scale)


def test_comparison_raises_on_sector_leak(monkeypatch):
    # a residual with a component along u itself lives in sector 0
    cfg = make_config(M=2, n_max=1, N=2, t_final=0.02, sample_stride=10)
    rhs = analysis.hf_rhs

    def leaky(state, *args):
        da, dphi = rhs(state, *args)
        return da + 1e-6 * state.a, dphi

    monkeypatch.setattr(analysis, "hf_rhs", leaky)
    with pytest.raises(SupportViolation, match="outside the two-replacement"):
        run_comparison(Problem(cfg))


def test_comparison_raises_on_closed_form_deviation(monkeypatch):
    cfg = make_config(M=2, n_max=1, N=2, t_final=0.02, sample_stride=10)
    closed = analysis.defect_norm
    monkeypatch.setattr(analysis, "defect_norm",
                        lambda *args: closed(*args) + 1e-6)
    with pytest.raises(SupportViolation, match="closed-form defect"):
        run_comparison(Problem(cfg))


def test_problem_plans_the_tensor_factors_once(monkeypatch):
    # Problem.tensor checks the budget before any orbital is built and hands
    # the factors it planned to two_body_tensor, which plans none again
    built, plan = [], manybody.tensor_factors

    def counted(*args):
        built.append("orbital_set" in vars(problem))
        return plan(*args)
    monkeypatch.setattr(analysis, "tensor_factors", counted)
    monkeypatch.setattr(manybody, "tensor_factors", counted)
    problem = Problem(make_config(kind="periodic-gaussian"))
    assert problem.tensor.rank > 0 and built == [False]


@pytest.mark.parametrize("name", ["example", "gaussian", "k16n4"])
def test_exact_samples_start_from_the_embedded_initial_determinant(name):
    # the initial determinant is the unit vector at orbitals 0..N-1, with the
    # bits of the embedded unit columns
    problem = Problem(lhf.load_config(ROOT / f"configs/{name}.cfg"))
    t, psi, _ = next(problem.exact_samples())
    expect = lhf.embed_slater(1.0, problem.initial_orbitals, problem.det_basis).coefficients
    assert t == 0.0 and psi.tobytes() == expect.tobytes()


@pytest.mark.parametrize("name", ["example", "gaussian", "k16n4"])
def test_compare_records_meet_the_exact_samples_bit_for_bit(name):
    # each record's t is its exact sample's t, and each exact sample's
    # energy is Re <psi|H psi> of its own state, as the record reads it
    problem = Problem(lhf.load_config(ROOT / f"configs/{name}.cfg"))
    records = run_comparison(problem).records
    samples = list(problem.exact_samples())
    assert len(samples) == len(records) > 2

    def bits(values):
        return np.array(values, dtype=np.float64).tobytes()

    assert bits([r.t for r in records]) == bits([t for t, _, _ in samples])
    assert bits([r.energy_exact for r in records]) == bits([e for *_, e in samples])
    assert bits([e for *_, e in samples]) == bits(
        [np.real(np.vdot(psi, problem.H @ psi)) for _, psi, _ in samples])


def _old_sample_rule(n_steps, sample_stride):
    """The per-step rule sample_steps replaced: every sample_stride-th step
    is sampled, and the last."""
    return [k for k in range(n_steps + 1) if k % sample_stride == 0 or k == n_steps]


def test_sample_steps_is_the_per_step_rule():
    # every pair with n <= 120 and s <= 150 (each order of n and s), every
    # n <= 2000 at strides 1, 7 and 3000, and 2000 seeded pairs across
    # n <= 2000, s <= 3000, against the old rule as the oracle
    pairs = [(n, s) for n in range(121) for s in range(1, 151)]
    pairs += [(n, s) for n in range(2001) for s in (1, 7, 3000)]
    rng = np.random.default_rng(7)
    pairs += zip(rng.integers(0, 2001, 2000).tolist(), rng.integers(1, 3001, 2000).tolist())
    for n, s in pairs:
        assert sample_steps(n, s) == _old_sample_rule(n, s), (n, s)


def test_sector_check_is_relative_to_the_defect_norm(monkeypatch):
    # at strength 1e12 the embedded and closed-form defects, ~1.6e11, differ
    # by rounding of that size, far above the absolute SECTOR_TOL; an
    # out-of-sector component of 1e-6 of the norm still raises
    config = dataclasses.replace(lhf.load_config(ROOT / "configs/example.cfg"), strength=1e12)
    problem = Problem(config)
    state, tensor, constants = problem.initial_state(), problem.tensor, config.constants
    args = (problem.H, problem.det_basis, problem.energies, tensor, constants)
    d = lhf.defect_norm(state, tensor, constants)
    leak, dev = check_defect_support(state, d, *args)
    assert d > 1e11 and max(leak, dev) <= SECTOR_TOL * d
    vec = defect_vector(state, *args)
    wedge = lhf.embed_wedge(state.orbitals, problem.det_basis)       # sector 0
    planted = vec + 1e-6 * np.linalg.norm(vec) * wedge / np.linalg.norm(wedge)
    monkeypatch.setattr(analysis, "defect_vector", lambda *_: planted)
    with pytest.raises(SupportViolation, match="outside the two-replacement"):
        check_defect_support(state, d, *args)


def test_comparison_evaluates_hf_energy_once_per_record(monkeypatch):
    cfg = make_config(M=2, n_max=1, N=2, t_final=0.02, sample_stride=10)
    calls, energy = [], analysis.hf_energy
    counted = lambda *args: calls.append(args) or energy(*args)
    monkeypatch.setattr(analysis, "hf_energy", counted)
    monkeypatch.setattr(hartree_fock, "hf_energy", counted)
    result = run_comparison(Problem(cfg))
    assert len(result.records) == 3 and len(calls) == 3
    assert result.summary["initial_energy"] == result.records[0].energy_hf


def test_comparison_embeds_each_sample_once(monkeypatch):
    # the sample's wedge is made once and handed to the sample check and to
    # error_norm, which give the bits of embedding it themselves
    cfg = make_config(M=3, n_max=1, N=2, kind="periodic-gaussian", t_final=0.02,
                      sample_stride=10)
    expected = run_comparison(Problem(cfg))
    calls, embed = [], analysis.embed_wedge
    monkeypatch.setattr(analysis, "embed_wedge",
                        lambda *args: calls.append(args) or embed(*args))
    result = run_comparison(Problem(cfg))
    assert len(result.records) == 3 and len(calls) == 3
    assert result.records == expected.records and result.summary == expected.summary


def test_given_wedge_gives_the_bits_of_embedding(system, rng):
    cfg, oset, tensor, basis, H = system
    C = np.linalg.qr(rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))[0]
    state = HFState(0.1, np.exp(0.4j), C)
    wedge = lhf.embed_wedge(C, basis)
    args = (H, basis, oset.energies, tensor, cfg.constants)
    assert np.array_equal(defect_vector(state, *args, wedge), defect_vector(state, *args))
    d = analysis.defect_norm(state, tensor, cfg.constants)
    assert check_defect_support(state, d, *args, wedge) == check_defect_support(state, d, *args)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    exact = ManyBodyState(basis, psi / np.linalg.norm(psi))
    assert analysis.error_norm(exact, state, basis, wedge) == analysis.error_norm(exact, state, basis)


def test_sector_coefficients_are_made_once_per_particle_number():
    # sum_m c[j, m] (k - N/2)^m = [j = k], kept read-only
    c = analysis._sector_coefficients(4)
    assert analysis._sector_coefficients(4) is c and not c.flags.writeable
    levels = np.arange(5) - 2.0
    assert np.abs(c @ np.vander(levels, increasing=True).T - np.eye(5)).max() <= 1e-12


def test_integrated_defect_dominates_error():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2, t_final=0.3,
                      sample_stride=25)
    result = run_comparison(Problem(cfg))
    for rec in result.records:
        assert rec.error_norm <= rec.defect_bound + 1e-7
        assert rec.defect_bound <= rec.apriori_bound + 1e-7
    summary = result.summary
    assert summary["max_sector_leak"] <= SECTOR_TOL
    assert summary["max_defect_closed_form_dev"] <= SECTOR_TOL
    assert summary["max_gram_deviation"] < 1e-8
    assert summary["max_phase_deviation"] < 1e-8


def test_small_time_error_slope():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2, t_final=0.05,
                      sample_stride=5)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    filling = lhf.FillingSpec.from_counts(2, 3)
    _, sets = lhf.noninteracting_ground_state(
        filling, [oset.energies[3 * n] for n in range(3)])
    C0 = unit_columns(9, sets[0])
    st0 = HFState(time=0.0, a=1.0 + 0j, orbitals=C0)
    slope = lhf.defect_norm(st0, tensor, cfg.constants)
    result = run_comparison(Problem(cfg))
    for rec in result.records:
        assert rec.error_norm <= 1.05 * slope * rec.t + 1e-12


def test_comparison_chains_samples_like_one_shot_propagation():
    # run_comparison advances the exact state from sample to sample; each
    # record must match propagating the initial state over the whole time
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2, t_final=0.1,
                      sample_stride=20)
    problem = Problem(cfg)
    result = run_comparison(problem)
    hf0 = problem.initial_state()
    traj = lhf.integrate_hf(hf0, cfg.dt, cfg.t_final, cfg.integrator,
                            problem.tensor, problem.energies, cfg.constants,
                            sample_stride=cfg.sample_stride)
    basis = problem.det_basis
    psi0 = lhf.embed_slater(1.0, hf0.orbitals, basis).coefficients
    assert len(result.records) == len(traj.times) == 6
    for rec, t, state in zip(result.records, traj.times, traj.states):
        psi_t = helpers.dense_propagate(problem.H, psi0, t, cfg.constants.hbar)
        err = lhf.error_norm(ManyBodyState(basis=basis, coefficients=psi_t),
                             state, basis)
        assert rec.error_norm > 0.0 or t == 0.0
        assert abs(rec.error_norm - err) < 1e-10


def test_defect_bound_is_trapezoid_over_every_step():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.2, t_final=0.05,
                      sample_stride=20)
    problem = Problem(cfg)
    result = run_comparison(problem)
    traj = lhf.integrate_hf(problem.initial_state(), cfg.dt, cfg.t_final,
                            cfg.integrator, problem.tensor, problem.energies,
                            cfg.constants, sample_stride=1)
    d = [lhf.defect_norm(s, problem.tensor, cfg.constants) for s in traj.states]
    integral = [0.0]
    for t0, t1, d0, d1 in zip(traj.times, traj.times[1:], d, d[1:]):
        integral.append(integral[-1] + 0.5 * (t1 - t0) * (d0 + d1))
    samples = sample_steps(time_grid(cfg.dt, cfg.t_final)[1], cfg.sample_stride)
    assert samples == [0, 20, 40, 50]
    assert [r.defect_bound for r in result.records] == [integral[s] for s in samples]


def test_error_never_exceeds_triangle_ceiling():
    cfg = make_config(M=2, n_max=1, N=2, strength=1.0, t_final=0.5,
                      sample_stride=50, tensor_grid=48)
    result = run_comparison(Problem(cfg))
    for rec in result.records:
        assert rec.error_norm <= 2.0 + 1e-12


# --- reduced density matrices ------------------------------------------------------

def test_rdm_single_determinant(system):
    _, _, _, basis, _ = system
    coeffs = np.zeros(basis.dim, dtype=complex)
    coeffs[basis.lookup((0, 1))] = 1.0
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=coeffs), basis)
    expect = np.diag([1.0, 1.0] + [0.0] * 7)
    assert np.max(np.abs(omega - expect)) < 1e-12


def test_rdm_trace_is_particle_number(system, rng):
    _, _, _, basis, _ = system
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    c /= np.linalg.norm(c)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    assert np.trace(omega).real == pytest.approx(2.0, abs=1e-9)
    assert np.max(np.abs(omega - omega.conj().T)) < 1e-12


@pytest.mark.parametrize("K,N", [(4, 1), (4, 2), (5, 3), (6, 3), (4, 4)])
def test_rdm_matches_partial_trace_oracle(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    c /= np.linalg.norm(c)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    psi_tensor = np.zeros(K ** N, dtype=complex)
    for i, occ in enumerate(basis.occupations):
        psi_tensor += c[i] * helpers.occupation_tensor(occ, K)
    oracle = helpers.partial_trace_rdm(psi_tensor, K, N)
    assert np.max(np.abs(omega - oracle)) < 1e-10


@pytest.mark.parametrize("K,N", [(4, 1), (5, 3), (9, 3), (12, 4), (4, 4)])
def test_rdm_equals_entrywise_accumulation(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    # Gaussian integers with integer |c|: every product and partial sum of
    # D D^H and of the oracle is exact, so any summation order agrees bitwise
    values = np.array([1, 2, 3, 1j, 2j, 3 + 4j, 3 - 4j, 5 + 12j, 5 - 12j])
    c = rng.choice([-1, 1], size=basis.dim) * rng.choice(values, size=basis.dim)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    assert np.array_equal(omega, helpers.add_at_rdm(c, basis))


def test_rdm_spectrum_between_zero_and_one(system, rng):
    _, _, _, basis, _ = system
    c = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    c /= np.linalg.norm(c)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    w = np.linalg.eigvalsh(omega)
    assert w.min() >= -1e-12
    assert w.max() <= 1.0 + 1e-12


def test_slater_rdm_is_projection(rng):
    C = np.linalg.qr(rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    omega = lhf.rdm_slater(st)
    assert np.linalg.norm(omega @ omega - omega) < 1e-9
    assert np.trace(omega).real == pytest.approx(3.0, abs=1e-10)


def test_slater_rdm_gauge_invariant(rng):
    C = np.linalg.qr(rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3)))[0]
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    st2 = lhf.gauge_transform(st, U)
    assert np.max(np.abs(lhf.rdm_slater(st) - lhf.rdm_slater(st2))) < 1e-10


def test_rdms_match_at_time_zero(system):
    _, _, _, basis, _ = system
    C = unit_columns(9, (0, 1))
    hf = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    exact = lhf.embed_slater(1.0, C, basis)
    dist = lhf.trace_norm_diff(lhf.rdm_exact(exact, basis), lhf.rdm_slater(hf))
    assert dist <= 1e-8


# --- trace norm -------------------------------------------------------------------

def test_trace_norm_identical():
    a = np.diag([1.0, 2.0, 3.0])
    assert lhf.trace_norm_diff(a, a) == 0.0


def test_trace_norm_hand_value():
    assert lhf.trace_norm_diff(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == \
        pytest.approx(2.0, abs=1e-14)


def test_trace_norm_matches_singular_values(rng):
    A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A = 0.5 * (A + A.conj().T)
    B = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    B = 0.5 * (B + B.conj().T)
    got = lhf.trace_norm_diff(A, B)
    expect = np.linalg.svd(A - B, compute_uv=False).sum()
    assert got == pytest.approx(expect, rel=1e-10)


def test_trace_norm_rejects_nonhermitian(rng):
    with pytest.raises(NotHermitian):
        lhf.trace_norm_diff(rng.normal(size=(4, 4)), np.eye(4))


# --- rescaling --------------------------------------------------------------------

def test_rescale_effective_constant():
    cfg = make_config(M=2, n_max=1, N=4)
    scaling = lhf.rescale_mean_field(cfg)
    assert scaling.hbar_eff == pytest.approx(0.5, rel=1e-14)


def test_rescale_single_particle_bound_vanishes():
    cfg = make_config(M=1, n_max=0, N=1)
    scaling = lhf.rescale_mean_field(cfg)
    assert scaling.rescaled_bound(0.5, 2.0) == 0.0


@given(N=st.integers(1, 64))
@settings(max_examples=64, deadline=None)
def test_rescaled_bound_identity(N):
    cfg = make_config(M=8, n_max=7, N=N)
    scaling = lhf.rescale_mean_field(cfg)
    v, t = 0.37, 1.7
    expect = math.sqrt(N - 1) * v * t / cfg.constants.hbar
    assert abs(scaling.rescaled_bound(v, t) - expect) <= 1e-12 * max(expect, 1.0)
