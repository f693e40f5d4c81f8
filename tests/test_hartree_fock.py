import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest

import landau_hf as lhf
from landau_hf import hartree_fock
from landau_hf.errors import (InvalidValue, LandauHFError, NonFiniteValue, NotUnitary,
                              StepUnstable, SymmetryViolation, TooLarge)
from landau_hf.hartree_fock import HFState, _loewdin, interaction_energy
from landau_hf.manybody import InteractionTensor

import helpers
from conftest import make_config


def random_state(rng, K, N):
    C = np.linalg.qr(rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N)))[0]
    return HFState(time=0.0, a=np.exp(0.3j), orbitals=C)


@pytest.fixture(scope="module")
def setup():
    cfg = make_config(M=3, n_max=2, N=2, strength=0.5)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    return cfg, oset, tensor


# --- mean field and exchange --------------------------------------------------

@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_fock_form_matches_per_orbital_oracle(rng, N):
    v, sup = helpers.random_interaction_tensor(rng, 7)
    C = random_state(rng, 7, N).orbitals
    eta = InteractionTensor(values=v, sup_norm=sup).mean_field(C)
    oracle = helpers.per_orbital_mean_field(C, v)
    assert np.max(np.abs(eta - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))


def _unsymmetric_tensor(rng, K):
    return rng.normal(size=(K,) * 4) + 1j * rng.normal(size=(K,) * 4)


@pytest.mark.parametrize("layout", [
    np.ascontiguousarray,
    np.asfortranarray,
    lambda v: np.ascontiguousarray(v.transpose(3, 1, 2, 0)).transpose(3, 1, 2, 0),
], ids=["c-order", "fortran-order", "transposed-view"])
@pytest.mark.parametrize("make", [
    lambda rng, K: helpers.random_interaction_tensor(rng, K)[0],
    _unsymmetric_tensor,
], ids=["symmetric", "no-symmetry"])
def test_fock_action_matches_index_sum_oracle(rng, layout, make):
    # the dense constructor accepts any memory order: it symmetrizes a v
    # symmetric to round-off exactly, and refuses a v with no symmetry
    K, N = 7, 3
    v = make(rng, K)
    given = layout(v)
    assert np.array_equal(given, v)
    if make is _unsymmetric_tensor:
        with pytest.raises(SymmetryViolation, match="tensor symmetry deviation"):
            InteractionTensor(values=given, sup_norm=1.0)
        return
    v, deviation = helpers.symmetrized(v)
    tensor = InteractionTensor(values=given, sup_norm=1.0)
    assert np.array_equal(tensor.values, v) and tensor.symmetry_deviation == deviation
    # one block, F = v - v[a,b,d,g] in the pair layout
    F = (v - v.transpose(0, 1, 3, 2)).transpose(0, 2, 1, 3).reshape(1, K * K, K * K)
    assert tensor.modulus == 1 and np.array_equal(tensor.anti, F)
    C = random_state(rng, K, N).orbitals
    oracle = helpers.fock_matrix(v, C @ C.conj().T) @ C
    assert np.max(np.abs(tensor.mean_field(C) - oracle)) < 1e-13
    g = np.einsum("pqrs,ri,sj->pqij", v, C, C)
    amplitudes = tensor.pair_amplitudes(C)
    assert amplitudes.shape == (K, K, N, N)
    assert np.max(np.abs(amplitudes - (g - g.swapaxes(2, 3)))) < 1e-13


def test_zero_potential_gives_zero_actions(setup, rng):
    cfg, oset, _ = setup
    zero = lhf.two_body_tensor(lhf.PotentialSpec(kind="zero"), oset, cfg.tensor_grid)
    C = random_state(rng, 9, 3).orbitals
    assert np.allclose(zero.mean_field(C), 0.0)


def test_single_particle_has_no_mean_field(setup, rng):
    _, _, tensor = setup
    C = random_state(rng, 9, 1).orbitals
    assert np.allclose(tensor.mean_field(C), 0.0)


def test_constant_kernel_gives_scaled_orbitals(setup, rng):
    # V = c: the direct term is c N, the exchange term c rho, so on
    # orthonormal orbitals eta = c (N - 1) C
    cfg, oset, _ = setup
    const = lhf.PotentialSpec(kind="separable-cosine", strength=0.4,
                              harmonic1=0, harmonic2=0)
    tensor = lhf.two_body_tensor(const, oset, cfg.tensor_grid)
    C = random_state(rng, 9, 3).orbitals
    eta = tensor.mean_field(C)
    assert np.max(np.abs(eta - 0.4 * 2 * C)) < 1e-8


def test_actions_match_grid_space_evaluation(setup):
    # transcribe the mean-field and exchange integrals on the grid, then
    # project back onto the basis and compare with the tensor contraction
    cfg, oset, tensor = setup
    grid = cfg.tensor_grid
    phi = oset.matrix()                           # (K, P) samples on the tensor grid
    w = grid.weight
    vals = cfg.potential.pair_values(grid)        # (P, P)

    C = np.zeros((9, 2), dtype=complex)           # orbitals 0 and 4
    C[0, 0] = 1.0
    C[4, 1] = 1.0
    f0 = phi[0]
    f1 = phi[4]

    # mean field on orbital 0 from the density of orbital 1
    K0 = (vals @ (np.abs(f1) ** 2)) * w
    K_phi = K0 * f0
    direct_grid = phi.conj() @ K_phi * w

    # exchange: transition density between the two orbitals
    X01 = (vals @ (f1.conj() * f0)) * w
    X_phi = X01 * f1
    exchange_grid = phi.conj() @ X_phi * w

    eta = tensor.mean_field(C)
    assert np.max(np.abs(eta[:, 0] - (direct_grid - exchange_grid))) < 1e-8


# --- right-hand side -----------------------------------------------------------

def test_rhs_reduces_to_diagonal_rotation_without_interaction(setup):
    cfg, oset, _ = setup
    zero = lhf.two_body_tensor(lhf.PotentialSpec(kind="zero"), oset, cfg.tensor_grid)
    C = np.zeros((9, 2), dtype=complex)
    C[0, 0] = 1.0
    C[3, 1] = 1.0
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    da, dphi = lhf.hf_rhs(st, oset.energies, zero, cfg.constants)
    assert da == 0.0
    for col, idx in ((0, 0), (1, 3)):
        expect = -1j * oset.energies[idx] * C[:, col]
        assert np.max(np.abs(dphi[:, col] - expect)) < 1e-14


def test_rhs_gram_derivative_vanishes(setup, rng):
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 3)
    _, dphi = lhf.hf_rhs(st, oset.energies, tensor, cfg.constants)
    C = st.orbitals
    gdot = C.conj().T @ dphi + dphi.conj().T @ C
    assert np.max(np.abs(gdot)) < 1e-10


def test_initial_energy_matches_many_body_expectation(setup):
    cfg, oset, tensor = setup
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    C = np.zeros((9, 2), dtype=complex)
    C[0, 0] = 1.0
    C[1, 1] = 1.0
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    e_hf = lhf.hf_energy(st, oset.energies, tensor)
    psi = lhf.embed_slater(1.0, C, basis).coefficients
    e_mb = np.real(np.vdot(psi, H @ psi))
    assert abs(e_hf - e_mb) < 1e-9


def test_energy_matches_embedding_for_random_states(setup, rng):
    cfg, oset, tensor = setup
    basis = lhf.enumerate_determinants(9, 3)
    H = lhf.assemble_hamiltonian(basis, oset.energies, tensor)
    for _ in range(3):
        st = random_state(rng, 9, 3)
        e_hf = lhf.hf_energy(st, oset.energies, tensor)
        psi = lhf.embed_slater(st.a, st.orbitals, basis).coefficients
        e_mb = np.real(np.vdot(psi, H @ psi))
        assert abs(e_hf - e_mb) < 1e-9


def test_ground_filling_energy_is_closed_form(setup):
    cfg, oset, _ = setup
    zero = lhf.two_body_tensor(lhf.PotentialSpec(kind="zero"), oset, cfg.tensor_grid)
    C = np.zeros((9, 2), dtype=complex)
    C[0, 0] = 1.0
    C[1, 1] = 1.0
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C)
    filling = lhf.FillingSpec.from_counts(2, 3)
    E0, _ = lhf.noninteracting_ground_state(
        filling, [oset.energies[3 * n] for n in range(3)])
    assert lhf.hf_energy(st, oset.energies, zero) == pytest.approx(E0, abs=1e-12)


# --- integration ----------------------------------------------------------------

def test_linear_case_is_exactly_solvable(setup):
    cfg, oset, _ = setup
    zero = lhf.two_body_tensor(lhf.PotentialSpec(kind="zero"), oset, cfg.tensor_grid)
    C0 = np.zeros((9, 2), dtype=complex)
    C0[0, 0] = 1.0
    C0[3, 1] = 1.0
    st = HFState(time=0.0, a=1.0 + 0j, orbitals=C0)
    traj = lhf.integrate_hf(st, 1e-3, 1.0, "rk4", zero, oset.energies,
                            cfg.constants)
    end = traj.states[-1]
    for col, idx in ((0, 0), (1, 3)):
        expect = np.exp(-1j * oset.energies[idx] * 1.0) * C0[:, col]
        assert np.max(np.abs(end.orbitals[:, col] - expect)) < 1e-8
    assert abs(end.a - 1.0) < 1e-10


def test_phase_modulus_stays_one(setup, rng):
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 2)
    traj = lhf.integrate_hf(st, 1e-3, 1.0, "rk4", tensor, oset.energies,
                            cfg.constants)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-8


def test_energy_evaluated_once_per_sample(setup, rng, monkeypatch):
    cfg, oset, tensor = setup
    calls, energy = [], hartree_fock.hf_energy
    monkeypatch.setattr(hartree_fock, "hf_energy",
                        lambda *args: calls.append(args) or energy(*args))
    traj = lhf.integrate_hf(random_state(rng, 9, 2), 1e-3, 0.05, "rk4", tensor,
                            oset.energies, cfg.constants, sample_stride=10)
    assert len(traj.times) == 6 and len(calls) == 6


def test_conservation_along_trajectory(setup, rng):
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 3)
    traj = lhf.integrate_hf(st, 1e-3, 1.0, "rk4", tensor, oset.energies,
                            cfg.constants)
    assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-6
    assert np.max(traj.gram_devs) < 1e-6


def test_step_halving_is_fourth_order(setup, rng):
    cfg, oset, tensor = setup
    basis = lhf.enumerate_determinants(9, 2)
    st = random_state(rng, 9, 2)

    def endpoint(dt):
        # a stride past the last step records only the start and the endpoint
        traj = lhf.integrate_hf(st, dt, 0.1, "rk4", tensor, oset.energies,
                                cfg.constants, sample_stride=10 ** 5)
        s = traj.states[-1]
        return s.a * lhf.embed_wedge(s.orbitals, basis)

    ref = endpoint(1e-5)
    e_coarse = np.linalg.norm(endpoint(4e-3) - ref)
    e_fine = np.linalg.norm(endpoint(2e-3) - ref)
    assert 12.0 <= e_coarse / e_fine <= 22.0


def test_reorthogonalized_scheme_tracks_plain(setup, rng):
    cfg, oset, tensor = setup
    basis = lhf.enumerate_determinants(9, 2)
    st = random_state(rng, 9, 2)
    plain = lhf.integrate_hf(st, 1e-3, 0.3, "rk4", tensor, oset.energies,
                             cfg.constants)
    reorth = lhf.integrate_hf(st, 1e-3, 0.3, "rk4+reorth", tensor,
                              oset.energies, cfg.constants)
    a = plain.states[-1]
    b = reorth.states[-1]
    ea = a.a * lhf.embed_wedge(a.orbitals, basis)
    eb = b.a * lhf.embed_wedge(b.orbitals, basis)
    assert np.max(np.abs(ea - eb)) < 1e-10
    assert b.gram_deviation() < 1e-13


def test_loewdin_preserves_embedding(rng):
    basis = lhf.enumerate_determinants(7, 3)
    C = np.linalg.qr(rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3)))[0]
    C = C + 1e-4 * (rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3)))
    a = np.exp(0.7j)
    a2, C2 = _loewdin(a, C)
    before = a * lhf.embed_wedge(C, basis)
    after = a2 * lhf.embed_wedge(C2, basis)
    assert np.max(np.abs(before - after)) < 1e-12
    assert np.max(np.abs(C2.conj().T @ C2 - np.eye(3))) < 1e-12


def test_unstable_step_raises(setup, rng):
    cfg, oset, _ = setup
    # an enormous artificial tensor with a huge step makes one RK4 update
    # destroy orthonormality (or overflow); either error is acceptable
    v = np.zeros((9, 9, 9, 9), dtype=complex)
    rng2 = np.random.default_rng(5)
    raw = rng2.normal(size=(9, 9, 9, 9)) * 50.0
    v = raw + raw.transpose(1, 0, 3, 2)
    v = v + v.transpose(2, 3, 0, 1).conj()
    tensor = InteractionTensor(values=v, sup_norm=100.0)
    st = random_state(rng, 9, 2)
    with pytest.raises(LandauHFError):
        lhf.integrate_hf(st, 10.0, 100.0, "rk4", tensor, oset.energies,
                         cfg.constants)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_step_raises_non_finite(setup, rng):
    # the direct-only v[a,b,g,d] = 1e200 delta_ag delta_bd, exactly symmetric
    # and below half the float range, gives J - X of order 1e200, so the
    # density of the first step's second stage overflows: NonFiniteValue,
    # with no RuntimeWarning before it
    cfg, oset, _ = setup
    eye = np.eye(9)
    tensor = InteractionTensor(values=1e200 * eye[:, None, :, None] * eye[None, :, None, :],
                               sup_norm=1e200)
    assert tensor.symmetry_deviation == 0.0
    steps = lhf.hf_steps(random_state(rng, 9, 2), 1e-3, 0.01, "rk4", tensor,
                         oset.energies, cfg.constants)
    with pytest.raises(NonFiniteValue, match="non-finite value at t = 0.001"):
        list(steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_to_a_nan_gram_deviation_raises_unstable(setup, rng, monkeypatch):
    # a right-hand side of 1e200 leaves finite orbitals of order 1e197 whose
    # Gram matrix sums +inf and -inf: a NaN drift is StepUnstable, not passed
    cfg, oset, tensor = setup
    signs = np.where(np.arange(9) < 5, 1.0, -1.0)
    huge = np.stack([np.full(9, 1e200), 1e200 * signs], axis=1) * (1 + 1j)
    monkeypatch.setattr(hartree_fock, "hf_rhs", lambda *args: (0j, huge))
    steps = lhf.hf_steps(random_state(rng, 9, 2), 1e-3, 0.01, "rk4", tensor,
                         oset.energies, cfg.constants)
    with pytest.raises(StepUnstable, match="drifted by nan"):
        list(steps)


def test_unknown_scheme_is_an_invalid_value(setup, rng):
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 2)
    with pytest.raises(InvalidValue, match="'scheme'"):
        next(lhf.hf_steps(st, 1e-3, 0.01, "euler", tensor, oset.energies, cfg.constants))
    with pytest.raises(InvalidValue, match="'scheme'"):
        lhf.integrate_hf(st, 1e-3, 0.01, "euler", tensor, oset.energies, cfg.constants)


@pytest.mark.parametrize("dt,t_final,scheme,key", [
    (1e-3, 0.01, "euler", "scheme"), (0.0, 0.01, "rk4", "dt"), (-1e-3, 0.01, "rk4", "dt"),
    (math.nan, 0.01, "rk4", "dt"), (math.inf, 0.01, "rk4", "dt"),
    (1e-3, -0.01, "rk4", "t_final"), (1e-3, math.nan, "rk4", "t_final"),
    (1e-3, math.inf, "rk4", "t_final"), (1e-10, 1e300, "rk4", "t_final")])
def test_hf_steps_checks_its_arguments_at_the_call(setup, rng, dt, t_final, scheme, key):
    # the generator is never advanced: the call itself raises
    cfg, oset, tensor = setup
    with pytest.raises(InvalidValue, match=f"'{key}'"):
        lhf.hf_steps(random_state(rng, 9, 2), dt, t_final, scheme, tensor,
                     oset.energies, cfg.constants)
    with pytest.raises(InvalidValue, match=f"'{key}'"):
        lhf.integrate_hf(random_state(rng, 9, 2), dt, t_final, scheme, tensor,
                         oset.energies, cfg.constants)


def test_time_grid_refuses_a_step_count_that_overflows():
    with pytest.raises(InvalidValue, match="'t_final': t_final / dt must be finite"):
        hartree_fock.time_grid(1e-10, 1e300)


def test_time_grid_refuses_a_step_count_over_the_cap(setup, rng):
    cap = lhf.hartree_fock.TIME_STEP_CAP
    assert hartree_fock.time_grid(1.0, float(cap)) == (1.0, cap)
    with pytest.raises(TooLarge, match=f"has 1e\\+06 steps, over the cap of {cap}"):
        hartree_fock.time_grid(1.0, cap + 1.0)
    cfg, oset, tensor = setup
    with pytest.raises(TooLarge, match="has 1e\\+303 steps"):
        lhf.hf_steps(random_state(rng, 9, 2), 1e-3, 1e300, "rk4", tensor, oset.energies,
                     cfg.constants)


def test_first_steps_of_a_long_grid_allocate_no_step_list(setup, rng):
    # 10^6 steps, TIME_STEP_CAP: a list of them alone would take many megabytes
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 2)
    tracemalloc.start()
    try:
        steps = list(islice(lhf.hf_steps(st, 1e-6, 1.0, "rk4", tensor, oset.energies,
                                         cfg.constants), 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [step for step, _ in steps] == [0, 1]
    assert peak < 1e6


@pytest.mark.parametrize("N", [1, 3, 9])
def test_gram_deviation_matches_the_whole_identity_subtracted(rng, N):
    C = np.linalg.qr(rng.normal(size=(9, N)) + 1j * rng.normal(size=(9, N)))[0]
    for orbitals in (C, C + 1e-7 * rng.normal(size=C.shape), 2.0 * C):
        got = HFState(0.0, 1.0, orbitals).gram_deviation()
        assert got == helpers.gram_deviation(orbitals)


@pytest.mark.parametrize("kind", ["separable-cosine", "periodic-gaussian"])
def test_rk4_steps_match_the_stage_formulas_bit_for_bit(rng, kind, monkeypatch):
    # step constants formed once per run give the bits of 0.5 dt and dt / 6
    # formed in every stage; hf_rhs is read from the module on every call
    cfg = make_config(M=3, n_max=2, N=3, kind=kind, strength=0.5, sigma=0.7)
    oset = lhf.build_orbital_set(cfg, grid=cfg.tensor_grid)
    tensor = lhf.two_body_tensor(cfg.potential, oset, cfg.tensor_grid)
    initial = random_state(rng, 9, 3)
    dt, n_steps = 1e-2 / 3, 5
    calls = []
    rhs = hartree_fock.hf_rhs
    monkeypatch.setattr(hartree_fock, "hf_rhs", lambda *args: calls.append(1) or rhs(*args))
    states = [s for _, s in hartree_fock._rk4_steps(initial, dt, n_steps, "rk4", tensor,
                                                      oset.energies, cfg.constants)]
    assert len(calls) == 4 * n_steps
    oracle = helpers.rk4_states(initial, dt, n_steps, tensor, oset.energies, cfg.constants)
    for state, (a, C) in zip(states[1:], oracle, strict=True):
        assert state.a == a and np.array_equal(state.orbitals, C)


# --- gauge transform -------------------------------------------------------------

def test_gauge_identity(setup, rng):
    st = random_state(rng, 9, 3)
    out = lhf.gauge_transform(st, np.eye(3))
    assert np.allclose(out.orbitals, st.orbitals)
    assert out.a == pytest.approx(st.a)


def test_gauge_preserves_embedding(setup, rng):
    basis = lhf.enumerate_determinants(9, 3)
    st = random_state(rng, 9, 3)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    out = lhf.gauge_transform(st, U)
    before = st.a * lhf.embed_wedge(st.orbitals, basis)
    after = out.a * lhf.embed_wedge(out.orbitals, basis)
    assert np.max(np.abs(before - after)) < 1e-9


def test_gauge_preserves_energy(setup, rng):
    cfg, oset, tensor = setup
    st = random_state(rng, 9, 3)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    out = lhf.gauge_transform(st, U)
    assert lhf.hf_energy(out, oset.energies, tensor) == pytest.approx(
        lhf.hf_energy(st, oset.energies, tensor), abs=1e-10)


def test_gauge_rejects_nonunitary(setup, rng):
    st = random_state(rng, 9, 3)
    with pytest.raises(NotUnitary):
        lhf.gauge_transform(st, rng.normal(size=(3, 3)))


def test_gauge_covariance_of_flow(setup, rng):
    # transforming then integrating agrees with integrating then transforming
    cfg, oset, tensor = setup
    basis = lhf.enumerate_determinants(9, 2)
    st = random_state(rng, 9, 2)
    U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    path_a = lhf.integrate_hf(lhf.gauge_transform(st, U), 1e-3, 0.2, "rk4",
                              tensor, oset.energies, cfg.constants).states[-1]
    path_b = lhf.gauge_transform(
        lhf.integrate_hf(st, 1e-3, 0.2, "rk4", tensor, oset.energies,
                         cfg.constants).states[-1], U)
    ea = path_a.a * lhf.embed_wedge(path_a.orbitals, basis)
    eb = path_b.a * lhf.embed_wedge(path_b.orbitals, basis)
    assert np.max(np.abs(ea - eb)) < 1e-6


def test_interaction_energy_gauge_invariant(setup, rng):
    _, oset, tensor = setup
    st = random_state(rng, 9, 3)
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    w1 = interaction_energy(st.orbitals, tensor)
    w2 = interaction_energy(st.orbitals @ U, tensor)
    assert w1 == pytest.approx(w2, abs=1e-10)
