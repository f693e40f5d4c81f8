import dataclasses
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import landau_hf as lhf
from landau_hf import manybody
from landau_hf.errors import (DimensionMismatch, GridMismatch, InvalidValue,
                              LengthMismatch, NonFiniteValue, NotOrthonormal,
                              SymmetryViolation, TooLarge, TruncationTooSmall)
from landau_hf.analysis import Problem
from landau_hf.manybody import (InteractionTensor, ManyBodyState,
                                symmetry_deviations)

import helpers
from conftest import make_config

ROOT = pathlib.Path(__file__).resolve().parents[1]


# --- determinant enumeration -------------------------------------------------

def test_enumeration_small_case():
    basis = lhf.enumerate_determinants(3, 2)
    assert [tuple(r) for r in basis.occupations] == [(0, 1), (0, 2), (1, 2)]


def test_enumeration_counts():
    assert lhf.enumerate_determinants(6, 3).dim == 20


@given(K=st.integers(2, 9), N=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_enumeration_lookup_roundtrip(K, N):
    if N > K:
        return
    basis = lhf.enumerate_determinants(K, N)
    assert basis.dim == math.comb(K, N)
    for i, occ in enumerate(basis.occupations):
        assert basis.lookup(occ) == i
    # independent recount: strictly increasing N-tuples over range(K)
    count = sum(1 for c in itertools.combinations(range(K), N))
    assert count == basis.dim


def test_enumeration_cap():
    assert math.comb(40, 20) > manybody.DET_SPACE_CAP
    with pytest.raises(TooLarge):
        lhf.enumerate_determinants(40, 20)


def test_lookup_roundtrip_where_binomials_overflow_int64():
    # C(69, 34) > 2^63 sits in the binomial table of K=70, N=67
    assert math.comb(69, 34) > np.iinfo(np.int64).max
    basis = lhf.enumerate_determinants(70, 67)
    assert basis.dim == 54740
    assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.dim))
    for i in [*range(0, basis.dim, 97), basis.dim - 1]:
        assert basis.lookup(basis.occupations[i]) == i


@pytest.mark.parametrize("occ", [(1, 0), (0, 4), (-1, 2), (1, 1), (0, 1, 2), (0.0, 1.0)])
def test_lookup_rejects_occupation_outside_basis(occ):
    basis = lhf.enumerate_determinants(4, 2)
    with pytest.raises(KeyError):
        basis.lookup(occ)


# --- replacement tables ---------------------------------------------------------

@pytest.mark.parametrize("K,N,n", [(4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 1),
                                   (5, 3, 2), (6, 3, 2), (6, 4, 2), (4, 4, 1)])
def test_replacements_targets_and_signs(K, N, n):
    basis = lhf.enumerate_determinants(K, N)
    entries = [e for block in basis.replacements(n) for e in zip(*block)]
    assert len(entries) == basis.dim * math.comb(N, n) * math.comb(K - N, n)
    for i, j, P, Q, sign in entries:
        occ_i = basis.occupations[i].tolist()
        occ_j = basis.occupations[j].tolist()
        assert occ_j == sorted(set(occ_i) - set(P.tolist()) | set(Q.tolist()))
        # replace the columns of P in place by Q: the wedge is sign * D_j
        moved = dict(zip(P.tolist(), Q.tolist()))
        cols = np.zeros((K, N), dtype=complex)
        cols[[moved.get(o, o) for o in occ_i], range(N)] = 1.0
        ref = helpers.occupation_tensor(occ_j, K)
        assert np.allclose(helpers.wedge_tensor(cols), sign * ref, atol=1e-14)


def test_singles_is_the_whole_single_replacement_table(monkeypatch, rng):
    basis = lhf.enumerate_determinants(12, 5)      # dim 792, four blocks
    whole = [np.concatenate(part) for part in zip(*basis.replacements(1))]
    i, j, p, q, sign = basis.singles
    for got, expect in zip((i, j, p, q, sign), whole[:2] + [whole[2][:, 0],
                                                            whole[3][:, 0], whole[4]]):
        assert np.array_equal(got, expect)
    # built once: one_body and rdm_exact read the kept table
    def fail(self, n):
        raise AssertionError("replacements rebuilt")
    monkeypatch.setattr(lhf.DeterminantBasis, "replacements", fail)
    c = random_complex(rng, basis.dim)
    basis.one_body(np.eye(12))
    lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    assert basis.singles[0] is i


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("K,N,block,blocks", [
    (4, 4, 256, None), (4, 1, 256, None), (9, 3, 256, None),
    (12, 5, 256, None),                     # dim 792: three blocks of 256, one of 24
    (63, 2, 16, 2), (64, 2, 16, 2), (65, 2, 16, 2), (65, 63, 16, 2),
    (70, 67, 16, 2)])                       # binomials past int64
def test_replacement_table_matches_sorting_oracle(monkeypatch, K, N, block, blocks, n):
    monkeypatch.setattr(manybody, "REPLACEMENT_BLOCK", block)
    basis = lhf.enumerate_determinants(K, N)
    got = list(itertools.islice(basis.replacements(n), blocks))
    expect = list(itertools.islice(helpers.sorted_replacements(basis, n), blocks))
    assert len(got) == len(expect) == (blocks or -(-basis.dim // block))
    for new, old in zip(got, expect):
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_replacement_rows_are_the_flat_table_unflattened():
    basis = lhf.enumerate_determinants(9, 4)
    i, j, P, Q, sign = next(basis.replacements(2))
    j2, P2, Q2, sign2 = basis.replacement_rows(2, 0, basis.dim)
    shape = j2.shape                             # (126, C(4,2), C(5,2))
    assert shape == (126, 6, 10)
    assert np.array_equal(j2.ravel(), j) and np.array_equal(sign2.ravel(), sign)
    assert np.array_equal(np.broadcast_to(P2[:, :, None], (*shape, 2)).reshape(-1, 2), P)
    assert np.array_equal(np.broadcast_to(Q2[:, None], (*shape, 2)).reshape(-1, 2), Q)


# --- one-body operators ------------------------------------------------------

def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("K,N", [(4, 1), (4, 2), (5, 3), (6, 3), (4, 4)])
def test_one_body_matches_tensor_space_oracle(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    op = basis.one_body(M)
    assert op.nnz == basis.dim * (1 + N * (K - N))
    S = np.stack([helpers.occupation_tensor(occ, K) for occ in basis.occupations])
    oracle = S.conj() @ helpers.one_body_tensor(M, N) @ S.T
    assert np.max(np.abs(op.toarray() - oracle)) < 1e-12


@pytest.mark.parametrize("K,N", [(4, 2), (6, 3), (7, 2)])
def test_one_body_adjoint(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    assert np.array_equal(basis.one_body(M).getH().toarray(),
                          basis.one_body(M.conj().T).toarray())


@pytest.mark.parametrize("K,N", [(4, 1), (5, 2), (6, 3), (8, 3), (4, 4)])
def test_one_body_expectation_is_rdm_contraction(rng, K, N):
    # both consumers of singles: <psi|dGamma(M)|psi> = sum M[q,p] omega[p,q]
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    c = random_complex(rng, basis.dim)
    c /= np.linalg.norm(c)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    assert np.vdot(c, basis.one_body(M) @ c) == pytest.approx(
        np.einsum("qp,pq->", M, omega), abs=1e-12)


def test_one_body_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        lhf.enumerate_determinants(4, 2).one_body(np.eye(3))


# --- Slater overlaps ----------------------------------------------------------

def test_overlap_of_orthonormal_set(rng):
    C = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    assert lhf.slater_overlap(C, C) == pytest.approx(1.0, abs=1e-12)


def test_overlap_swap_antisymmetry(rng):
    A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    B = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    swapped = B[:, [1, 0, 2]]
    assert lhf.slater_overlap(A, swapped) == pytest.approx(
        -lhf.slater_overlap(A, B), rel=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_overlap_matches_permutation_expansion(rng, N):
    K = 5
    A = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
    B = rng.normal(size=(K, N)) + 1j * rng.normal(size=(K, N))
    got = lhf.slater_overlap(A, B)
    expect = np.vdot(helpers.wedge_tensor(A), helpers.wedge_tensor(B))
    assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_overlap_length_mismatch(rng):
    with pytest.raises(LengthMismatch):
        lhf.slater_overlap(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))


# --- two-body tensor ----------------------------------------------------------

@pytest.fixture(scope="module")
def oset24(cfg_m3):
    """cfg_m3's basis built on a 24 x 24 tensor grid."""
    grid = lhf.Grid(L1=cfg_m3.domain.L1, L2=cfg_m3.domain.L2, G1=24, G2=24)
    return lhf.build_orbital_set(cfg_m3, grid=grid)


def test_tensor_zero_potential(cfg_m3, oset_m3):
    pot = lhf.PotentialSpec(kind="zero")
    tensor = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid)
    assert tensor.is_zero()


def test_tensor_constant_potential_factorizes(cfg_m3, oset_m3):
    # V == c makes v[a,b,g,d] = c * delta_ag * delta_bd by orthonormality
    pot = lhf.PotentialSpec(kind="separable-cosine", strength=0.37,
                            harmonic1=0, harmonic2=0)
    tensor = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid)
    K = oset_m3.size
    eye = np.eye(K)
    expect = 0.37 * np.einsum("ag,bd->abgd", eye, eye)
    assert np.max(np.abs(tensor.values - expect)) < 1e-8


def test_tensor_separable_factorization(cfg_m3, oset_m3):
    # V(x;y) = s g(x) g(y) must give v = s <a|g|g_idx> <b|g|d>
    pot = cfg_m3.potential  # separable-cosine, strength 0.2
    tensor = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid)
    grid = cfg_m3.tensor_grid
    phi = oset_m3.matrix()
    X1, X2 = grid.mesh()
    g = (np.cos(2 * np.pi * X1 / grid.L1) * np.cos(2 * np.pi * X2 / grid.L2)).ravel()
    A = (phi.conj() * g) @ phi.T * grid.weight
    expect = 0.2 * np.einsum("ag,bd->abgd", A, A)
    assert np.max(np.abs(tensor.values - expect)) < 1e-8


def test_tensor_symmetries(tensor_m3):
    v = tensor_m3.values
    assert np.max(np.abs(v - v.transpose(1, 0, 3, 2))) < 1e-12
    assert np.max(np.abs(v - v.transpose(2, 3, 0, 1).conj())) < 1e-12


def test_tensor_tabulated_matches_separable(oset24):
    # dense tabulated path must agree with the separable path on the same kernel
    grid = oset24.grid
    pot = lhf.PotentialSpec(kind="separable-cosine", strength=0.2)
    table = pot.pair_values(grid)
    pot_tab = lhf.PotentialSpec(kind="tabulated", table=table)
    t_sep = lhf.two_body_tensor(pot, oset24, grid)
    t_tab = lhf.two_body_tensor(pot_tab, oset24, grid)
    assert np.max(np.abs(t_sep.values - t_tab.values)) < 1e-10


@pytest.mark.parametrize("strength,sigma", [(0.3, 1.0), (-0.5, 1.0), (0.3, 0.15),
                                            (0.3, 4.0)])
def test_fft_tensor_matches_dense_pair_matrix(cfg_m3, strength, sigma):
    # odd, non-square grid: the -k index map differs from k on both axes
    grid = lhf.Grid(L1=cfg_m3.domain.L1, L2=cfg_m3.domain.L2, G1=15, G2=24)
    oset = lhf.build_orbital_set(cfg_m3, grid=grid)
    pot = lhf.PotentialSpec(kind="periodic-gaussian", strength=strength, sigma=sigma)
    pot_tab = lhf.PotentialSpec(kind="tabulated", table=pot.pair_values(grid))
    t_fft = lhf.two_body_tensor(pot, oset, grid)
    t_tab = lhf.two_body_tensor(pot_tab, oset, grid)
    assert np.max(np.abs(t_fft.values - t_tab.values)) < 1e-12


def rule_free(monkeypatch):
    """Make every kernel's selection rule allow every transfer: the tensor as
    computed without the rule."""
    rule = lhf.PotentialSpec.x2_transfers
    monkeypatch.setattr(lhf.PotentialSpec, "x2_transfers",
                        lambda self, grid, M: None if (r := rule(self, grid, M)) is None
                        else np.ones_like(r))


def translation_allowed(oset, pot, G2):
    """(K,)*4 mask of the entries the magnetic translations allow, from the
    orbitals' m labels alone: Sum m conserved mod M for the Gaussian kind,
    m_g - m_a and m_d - m_b each +-harmonic2 at its numpy.fft.fftfreq
    frequency for the cosine kind."""
    M = oset.flux_count
    a, b, g, d = np.ix_(*[np.array([orb.m for orb in oset.orbitals])] * 4)
    if pot.kind == "periodic-gaussian":
        return (a + b - g - d) % M == 0
    s = int(np.fft.fftfreq(G2, 1 / G2)[pot.harmonic2 % G2])
    return np.isin((g - a) % M, [s % M, -s % M]) & np.isin((d - b) % M, [s % M, -s % M])


# 32 x 32 tensor grid; M = 3 does not divide G2 = 32, M = 4 does
RULE_CASES = {
    "gaussian-M3": (3, 2, lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3, sigma=0.5)),
    "gaussian-M4": (4, 1, lhf.PotentialSpec(kind="periodic-gaussian", strength=-0.5, sigma=1.0)),
    "cosine-h1": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7)),
    "cosine-h-1": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=-1)),
    "cosine-h0": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=0)),
    "cosine-h3": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=3)),
    "cosine-M4-h2": (4, 1, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=2)),
    "cosine-h30": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=30)),
    "cosine-h33": (3, 2, lhf.PotentialSpec(kind="separable-cosine", strength=0.7, harmonic2=33)),
}


def rule_case(name):
    M, n_max, pot = RULE_CASES[name]
    grid = lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=32, G2=32)
    oset = lhf.build_orbital_set(make_config(M=M, n_max=n_max), grid=grid)
    return oset, pot, grid


@pytest.mark.parametrize("name", RULE_CASES)
def test_rule_tensor_matches_tabulated_oracle(name):
    oset, pot, grid = rule_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    oracle = lhf.two_body_tensor(lhf.PotentialSpec(kind="tabulated",
                                                   table=pot.pair_values(grid)), oset, grid)
    allowed = translation_allowed(oset, pot, grid.G2)
    scale = np.abs(oracle.values).max()
    assert np.all(tensor.values[~allowed] == 0.0)
    # two quadratures, each within 1e-15 max of a long-double one
    assert np.abs(tensor.values - oracle.values)[allowed].max() <= 2e-15 * scale
    # what the rule zeroes is aliasing round-off in the oracle
    assert np.abs(oracle.values[~allowed]).max() <= 1e-14 * scale
    assert tensor.rule_kept == allowed.mean() < 1.0
    assert oracle.rule_kept == 1.0 and oracle.rank is None
    assert np.count_nonzero(oracle.values[~allowed]) > 0


@pytest.mark.parametrize("name", RULE_CASES)
def test_rule_moves_no_allowed_entry(name, monkeypatch):
    oset, pot, grid = rule_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    rule_free(monkeypatch)
    free = lhf.two_body_tensor(pot, oset, grid)
    allowed = translation_allowed(oset, pot, grid.G2)
    scale = np.abs(free.values).max()
    assert np.abs(tensor.values - free.values)[allowed].max() <= 1e-15 * scale
    assert np.abs(free.values[~allowed]).max() <= 1e-14 * scale
    assert free.rule_kept == 1.0 and tensor.rank == free.rank


ALL_KINDS = pytest.mark.parametrize("pot", [
    lhf.PotentialSpec(kind="zero"),
    lhf.PotentialSpec(kind="separable-cosine", strength=0.7),
    lhf.PotentialSpec(kind="periodic-gaussian", strength=-0.4, sigma=0.8),
    lhf.PotentialSpec(kind="tabulated", table=np.diag(np.linspace(0.1, 0.5, 24 * 24))),
], ids=["zero", "separable-cosine", "periodic-gaussian", "tabulated"])


@ALL_KINDS
def test_tensor_symmetry_deviation_recorded(oset24, pot):
    grid = oset24.grid
    devs = [lhf.two_body_tensor(pot, oset24, grid, threads=t).symmetry_deviation
            for t in (1, 2)]
    assert math.isfinite(devs[0]) and 0.0 <= devs[0] <= 1e-8
    assert devs[0] == devs[1]


def _nan_table(P):
    table = np.zeros((P, P))
    table[3, 3] = np.nan
    return table


@pytest.mark.parametrize("pot,message", [
    (lhf.PotentialSpec(kind="periodic-gaussian", strength=1e308),
     "Fourier weights are non-finite"),
    (lhf.PotentialSpec(kind="tabulated", table=_nan_table(24 * 24)),
     "tabulated kernel has a non-finite value"),
    # finite and symmetric, but its tensor entries, ~1e308, would overflow
    # when the symmetrization adds them in pairs
    (lhf.PotentialSpec(kind="tabulated", table=np.full((24 * 24, 24 * 24), 1e308)),
     "two-body tensor has a non-finite entry"),
], ids=["gaussian-1e308", "nan-table", "1e308-table"])
def test_tensor_raises_on_non_finite_kernel(oset24, pot, message):
    grid = oset24.grid
    with pytest.raises(NonFiniteValue, match=message):
        lhf.two_body_tensor(pot, oset24, grid)


def test_tensor_rejects_a_basis_sampled_on_another_grid(cfg_m3, oset24):
    with pytest.raises(GridMismatch):
        lhf.two_body_tensor(cfg_m3.potential, oset24, cfg_m3.tensor_grid)


def test_gaussian_tensor_evaluates_the_kernel_once(oset24, monkeypatch):
    grid = oset24.grid
    calls = []
    modes = lhf.PotentialSpec.fourier_modes
    monkeypatch.setattr(lhf.PotentialSpec, "fourier_modes",
                        lambda self, g: calls.append(g) or modes(self, g))
    lhf.two_body_tensor(lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3),
                        oset24, grid)
    assert calls == [grid]


def test_exact_propagator_rejects_non_finite_generator():
    with pytest.raises(NonFiniteValue, match="exact generator"):
        manybody.ExactPropagator(sp.diags([1.0, np.inf], format="csr"))


def test_exact_propagator_rejects_an_infinite_norm():
    H = sp.csr_matrix(np.full((3, 3), 1e308) - np.diag(np.full(3, 1e308)))
    with pytest.raises(NonFiniteValue, match="infinite 1-norm"):
        manybody.ExactPropagator(H)


def test_tensor_raises_on_asymmetric_tabulated_kernel(rng, oset24, monkeypatch):
    grid = oset24.grid
    table = lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3).pair_values(grid)
    skew = rng.normal(size=table.shape)
    pot = lhf.PotentialSpec(kind="tabulated", table=table + 1e-3 * skew)
    with pytest.raises(SymmetryViolation, match="tabulated kernel asymmetric"):
        lhf.two_body_tensor(pot, oset24, grid)
    # a skew the kernel check lets through trips a tightened tensor check
    monkeypatch.setattr(manybody, "TENSOR_SYM_TOL", 1e-12)
    pot = lhf.PotentialSpec(kind="tabulated", table=table + 1e-9 * skew)
    with pytest.raises(SymmetryViolation, match="tensor symmetry"):
        lhf.two_body_tensor(pot, oset24, grid)


@ALL_KINDS
def test_tensor_is_one_pair_layout_buffer(oset24, pot):
    grid = oset24.grid
    t = lhf.two_body_tensor(pot, oset24, grid)
    K = t.K
    assert t.pair.shape == (K * K, K * K) and t.pair.flags.c_contiguous
    assert np.shares_memory(t.values, t.pair)
    assert np.array_equal(t.pair.reshape(K, K, K, K), t.values.transpose(0, 2, 1, 3))


@pytest.mark.parametrize("inject", ["exchange", "hermitian", "both"])
def test_slab_symmetry_deviations_match_full_array_formula(rng, inject):
    K = 6
    v, _ = helpers.random_interaction_tensor(rng, K)
    r = random_complex(rng, K, K, K, K)
    exch_of = lambda x: x.transpose(1, 0, 3, 2)
    herm_of = lambda x: x.transpose(2, 3, 0, 1).conj()
    if inject == "exchange":        # keeps hermiticity, breaks exchange symmetry
        v = v + 1e-6 * (r + herm_of(r))
    elif inject == "hermitian":     # keeps exchange symmetry, breaks hermiticity
        v = v + 1e-6 * (r + exch_of(r))
    else:
        v = v + 1e-6 * r
    pair = np.ascontiguousarray(v.transpose(0, 2, 1, 3)).reshape(K * K, K * K)
    exch, herm = symmetry_deviations(pair)
    assert exch == np.max(np.abs(v - exch_of(v))) == np.max(np.abs(pair - pair.T))
    assert herm == np.max(np.abs(v - herm_of(v)))
    assert (exch > 1e-8, herm > 1e-8) == {"exchange": (True, False),
                                          "hermitian": (False, True),
                                          "both": (True, True)}[inject]


def test_tensor_symmetrized_exactly_from_asymmetric_quadrature(rng, oset24):
    # a skew below TENSOR_SYM_TOL is removed: each entry and its images end up equal
    grid = oset24.grid
    table = lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3).pair_values(grid)
    pot = lhf.PotentialSpec(kind="tabulated", table=table + 1e-9 * rng.normal(size=table.shape))
    t = lhf.two_body_tensor(pot, oset24, grid)
    assert t.symmetry_deviation > 1e-13
    assert symmetry_deviations(t.pair) == (0.0, 0.0)
    exact = lhf.two_body_tensor(lhf.PotentialSpec(kind="tabulated", table=table), oset24, grid)
    assert np.max(np.abs(t.values - exact.values)) < 1e-8


def test_tensor_rejects_threads_below_one(cfg_m3, oset_m3):
    with pytest.raises(InvalidValue):
        lhf.two_body_tensor(cfg_m3.potential, oset_m3, cfg_m3.tensor_grid, threads=0)


def test_tensor_thread_count_invariance(cfg_m3, oset_m3):
    pot = lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3, sigma=1.0)
    t1 = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid, threads=1)
    t4 = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid, threads=4)
    assert np.array_equal(t1.values, t4.values)


# --- Hamiltonian assembly ------------------------------------------------------

def test_assemble_no_interaction_is_diagonal(oset_m3):
    basis = lhf.enumerate_determinants(9, 3)
    H = lhf.assemble_hamiltonian(basis, oset_m3.energies, None)
    dense = H.toarray()
    assert np.max(np.abs(dense - np.diag(np.diag(dense)))) == 0.0
    expect0 = oset_m3.energies[[0, 1, 2]].sum()
    assert dense[0, 0] == pytest.approx(expect0, rel=1e-14)


def test_assemble_hermitian(tensor_m3, oset_m3):
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset_m3.energies, tensor_m3)
    assert abs((H - H.getH()).toarray()).max() <= 1e-10


@pytest.mark.parametrize("K,N", [(4, 2), (6, 2), (5, 3), (4, 1), (4, 4)])
def test_assemble_matches_tensor_space_oracle(rng, K, N):
    v, _ = helpers.random_interaction_tensor(rng, K)
    energies = rng.uniform(0.2, 2.0, K)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(K, N)
    H = lhf.assemble_hamiltonian(basis, energies, tensor).toarray()
    oracle = helpers.projected_hamiltonian(basis, energies, v)
    assert np.max(np.abs(H - oracle)) < 1e-9


def assert_same_csr(H, oracle):
    """Bit for bit: index dtypes, indptr, indices (sorted), data with signed zeros."""
    assert H.indptr.dtype == oracle.indptr.dtype and H.indices.dtype == oracle.indices.dtype
    assert np.array_equal(H.indptr, oracle.indptr)
    assert np.array_equal(H.indices, oracle.indices) and H.has_sorted_indices
    assert H.data.dtype == oracle.data.dtype and H.data.tobytes() == oracle.data.tobytes()


def momentum_masked(v, modulus=3):
    """v kept where a + b = g + d mod modulus: exact zeros in H, symmetries kept."""
    a, b, g, d = np.ix_(*[np.arange(len(v))] * 4)
    return np.where((a + b - g - d) % modulus == 0, v, 0)


@pytest.mark.parametrize("K,N,masked", [(4, 2, False), (5, 3, False), (8, 3, False),
                                        (4, 1, False), (4, 4, False), (9, 4, True),
                                        (12, 4, True)])
def test_assemble_matches_coo_oracle_on_random_tensors(rng, K, N, masked):
    v, _ = helpers.random_interaction_tensor(rng, K, P=K + 3)
    tensor = InteractionTensor(values=momentum_masked(v) if masked else v, sup_norm=1.0)
    energies = rng.uniform(0.2, 2.0, K)
    basis = lhf.enumerate_determinants(K, N)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    assert_same_csr(H, helpers.coo_hamiltonian(basis, energies, tensor))
    if masked:
        assert 0 < H.nnz < basis.dim * (1 + N * (K - N)
                                        + math.comb(N, 2) * math.comb(K - N, 2))


# nnz: the selection rule's exact zeros leave 80,943 of 99,495, 1,812 of
# 5,376 and 115,260 of 809,900 entries
@pytest.mark.parametrize("path,changes,nnz", [
    ("configs/k16n4.cfg", {"M": 3, "n_max": 3}, 80943),   # exact_k12n4: cosine, K=12, N=4
    ("configs/gaussian.cfg", {"N": 3}, 1812),              # compare_k9n3: Gaussian, K=9, N=3
    ("configs/k16n4.cfg", {}, 115260)],                    # cosine, K=16, N=4, M=8
    ids=["configs/k16n4.cfg-changes0", "configs/gaussian.cfg-changes1",
         "configs/k16n4.cfg-changes2"])
def test_assemble_matches_coo_oracle_on_shipped_kernels(path, changes, nnz):
    problem = Problem(dataclasses.replace(lhf.load_config(ROOT / path), **changes))
    basis, tensor = problem.det_basis, problem.tensor
    assert_same_csr(problem.H, helpers.coo_hamiltonian(basis, problem.energies, tensor))
    assert problem.H.nnz == nnz


def test_assembly_peak_memory_is_bounded_by_the_csr(rng):
    v, _ = helpers.random_interaction_tensor(rng, 16, P=19)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(16, 4)
    tracemalloc.start()
    try:
        H = lhf.assemble_hamiltonian(basis, np.ones(16), tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = H.data.nbytes + H.indices.nbytes + H.indptr.nbytes
    assert H.nnz == 809900 and peak <= 1.5 * csr


def csr_bytes(K, N):
    """Closed-form CSR size of H: complex data and int32 indices per entry."""
    dim = math.comb(K, N)
    return dim * (1 + N * (K - N) + math.comb(N, 2) * math.comb(K - N, 2)) * 20 + (dim + 1) * 4


def test_byte_budget_admits_k20n5_and_rejects_k24n6():
    assert csr_bytes(20, 5) <= manybody.H_BYTE_CAP < csr_bytes(24, 6)
    assert math.comb(24, 6) <= manybody.DET_SPACE_CAP


def test_byte_budget_is_the_size_of_the_csr(rng, monkeypatch):
    v, _ = helpers.random_interaction_tensor(rng, 7)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(7, 3)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", csr_bytes(7, 3))
    H = lhf.assemble_hamiltonian(basis, np.ones(7), tensor)
    assert H.data.nbytes + H.indices.nbytes + H.indptr.nbytes == csr_bytes(7, 3)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", csr_bytes(7, 3) - 1)
    with pytest.raises(TooLarge, match="over the budget"):
        lhf.assemble_hamiltonian(basis, np.ones(7), tensor)


def test_h_over_the_byte_budget_raises_before_listing_replacements(monkeypatch):
    def unlisted(*args):
        raise AssertionError("a replacement block was built")
    monkeypatch.setattr(lhf.DeterminantBasis, "replacements", unlisted)
    monkeypatch.setattr(lhf.DeterminantBasis, "replacement_rows", unlisted)
    config = dataclasses.replace(lhf.load_config(ROOT / "configs/k16n4.cfg"), n_max=2, N=6)
    problem = Problem(config)
    assert problem.det_basis.dim == 134596              # under DET_SPACE_CAP
    with pytest.raises(TooLarge, match=r"needs 6\.47 GB as CSR \(323568784 entries\)"):
        problem.H


def test_assemble_dimension_mismatch(tensor_m3):
    basis = lhf.enumerate_determinants(4, 2)
    with pytest.raises(DimensionMismatch):
        lhf.assemble_hamiltonian(basis, np.ones(4), tensor_m3)


def test_interaction_norm_bound(cfg_m3, oset_m3):
    # two-body part alone obeys ||H_int|| <= C(N,2) sup|V|
    pot = lhf.PotentialSpec(kind="separable-cosine", strength=0.7)
    tensor = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid)
    for N in (2, 3):
        basis = lhf.enumerate_determinants(9, N)
        Hint = lhf.assemble_hamiltonian(basis, np.zeros(9), tensor)
        norm = np.abs(np.linalg.eigvalsh(Hint.toarray())).max()
        assert norm <= math.comb(N, 2) * 0.7 + 1e-9


# --- noninteracting ground states ----------------------------------------------

def test_ground_state_filled_lowest_level():
    filling = lhf.FillingSpec.from_counts(3, 3)
    energy, sets = lhf.noninteracting_ground_state(filling, [0.5, 1.5, 2.5])
    assert energy == pytest.approx(1.5, abs=0)
    assert sets == [(0, 1, 2)]
    assert filling.nu == 0 and filling.remainder == 0


def test_ground_state_partial_level_degeneracy():
    filling = lhf.FillingSpec.from_counts(6, 4)
    assert filling.remainder == 2
    assert filling.degeneracy == 6
    energy, sets = lhf.noninteracting_ground_state(filling, [0.5, 1.5, 2.5])
    assert len(sets) == 6
    assert energy == pytest.approx(4 * 0.5 + 2 * 1.5)


def test_ground_state_worked_value():
    # M=2, N=5: two filled levels plus one particle in the third
    filling = lhf.FillingSpec.from_counts(5, 2)
    energy, sets = lhf.noninteracting_ground_state(filling, [0.5, 1.5, 2.5])
    assert filling.nu == 1 and filling.remainder == 1
    assert energy == pytest.approx(2 * (0.5 + 1.5) + 2.5)
    assert len(sets) == 2


def test_ground_state_fewer_particles_than_states():
    filling = lhf.FillingSpec.from_counts(2, 5)
    energy, sets = lhf.noninteracting_ground_state(filling, [0.5])
    assert energy == pytest.approx(1.0)
    assert len(sets) == math.comb(5, 2)


def test_ground_state_truncation_too_small():
    filling = lhf.FillingSpec.from_counts(5, 2)  # needs three levels
    with pytest.raises(TruncationTooSmall):
        lhf.noninteracting_ground_state(filling, [0.5, 1.5])


@given(N=st.integers(1, 40), M=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_filling_reconstruction(N, M):
    filling = lhf.FillingSpec.from_counts(N, M)
    assert 0 <= filling.remainder <= M - 1
    assert filling.filled_levels * M + filling.remainder == N


def test_ground_energy_quadratic_in_particle_number():
    # with complete fillings the total energy is exactly quadratic in N
    for M in (2, 3, 5):
        levels = [0.5 * (2 * n + 1) for n in range(8)]
        Ns = [k * M for k in range(1, 7)]
        E0s = [lhf.noninteracting_ground_state(
            lhf.FillingSpec.from_counts(N, M), levels)[0] for N in Ns]
        coef = np.polyfit(Ns, E0s, 2)
        resid = np.abs(np.polyval(coef, Ns) - np.array(E0s)).max()
        assert resid / max(E0s) < 1e-10


# --- embedding -----------------------------------------------------------------

def test_embed_reference_determinant():
    basis = lhf.enumerate_determinants(5, 2)
    C = np.zeros((5, 2), dtype=complex)
    C[0, 0] = 1.0
    C[1, 1] = 1.0
    state = lhf.embed_slater(1.0, C, basis)
    expect = np.zeros(basis.dim)
    expect[basis.lookup((0, 1))] = 1.0
    assert np.allclose(state.coefficients, expect, atol=1e-14)


def test_embed_norm_equals_phase_modulus(rng):
    basis = lhf.enumerate_determinants(6, 3)
    C = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    state = lhf.embed_slater(0.3 - 0.4j, C, basis)
    assert state.norm() == pytest.approx(0.5, abs=1e-9)


def test_embed_unitary_mixing_changes_only_det_factor(rng):
    basis = lhf.enumerate_determinants(6, 3)
    C = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    before = lhf.embed_slater(1.0, C, basis).coefficients
    after = lhf.embed_slater(1.0, C @ U, basis).coefficients
    det = np.linalg.det(U)
    assert np.max(np.abs(after - det * before)) < 1e-12


def test_embed_rejects_nonorthonormal(rng):
    basis = lhf.enumerate_determinants(6, 3)
    C = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    with pytest.raises(NotOrthonormal):
        lhf.embed_slater(1.0, C, basis)


def test_embed_matches_tensor_space_wedge(rng):
    basis = lhf.enumerate_determinants(5, 3)
    C = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))[0]
    got = lhf.embed_slater(1.0, C, basis).coefficients
    wedge = helpers.wedge_tensor(C)
    S = np.stack([helpers.occupation_tensor(occ, 5) for occ in basis.occupations])
    assert np.max(np.abs(got - S.conj() @ wedge)) < 1e-12


# --- exact propagation ----------------------------------------------------------

def _random_hermitian(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return sp.csr_matrix(0.5 * (A + A.conj().T))


def test_evolve_time_zero_is_identity(rng):
    H = _random_hermitian(rng, 12)
    psi = rng.normal(size=12) + 1j * rng.normal(size=12)
    psi /= np.linalg.norm(psi)
    state = ManyBodyState(basis=None, coefficients=psi)
    out = lhf.evolve_exact(state, H, 0.0, lhf.PhysicalConstants())
    assert np.allclose(out.coefficients, psi, atol=1e-12)


def test_evolve_eigenvector_gets_phase(rng):
    H = _random_hermitian(rng, 10)
    w, V = np.linalg.eigh(H.toarray())
    state = ManyBodyState(basis=None, coefficients=V[:, 3])
    out = lhf.evolve_exact(state, H, 0.8, lhf.PhysicalConstants())
    expect = np.exp(-1j * w[3] * 0.8) * V[:, 3]
    assert np.max(np.abs(out.coefficients - expect)) < 1e-9


def test_evolve_matches_dense_oracle(rng):
    H = _random_hermitian(rng, 20)
    psi = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi /= np.linalg.norm(psi)
    state = ManyBodyState(basis=None, coefficients=psi)
    constants = lhf.PhysicalConstants(hbar=0.7)
    dense = helpers.dense_propagate(H, psi, 1.3, hbar=0.7)
    out = lhf.evolve_exact(state, H, 1.3, constants)
    assert np.max(np.abs(dense - out.coefficients)) < 1e-8
    assert abs(np.linalg.norm(out.coefficients) - 1.0) < 1e-9


def test_evolve_large_norm_matches_dense_oracle(rng):
    H = _random_hermitian(rng, 80) * 5.0
    psi = rng.normal(size=80) + 1j * rng.normal(size=80)
    psi /= np.linalg.norm(psi)
    state = ManyBodyState(basis=None, coefficients=psi)
    constants = lhf.PhysicalConstants()
    dense = helpers.dense_propagate(H, psi, 2.0)
    out = lhf.evolve_exact(state, H, 2.0, constants)
    assert np.max(np.abs(dense - out.coefficients)) < 1e-7


def test_evolve_independent_of_global_random_state(rng):
    # above t * ||H||_1 = 64 expm_multiply sizes its steps from a randomized
    # 1-norm estimate drawn from the global numpy generator; left to it,
    # seeds 0..7 give two different step counts for this H and t
    H = _random_hermitian(rng, 80) * 5.0
    psi = rng.normal(size=80) + 1j * rng.normal(size=80)
    psi /= np.linalg.norm(psi)
    t = 5.0
    Hd = H.toarray()
    shifted = Hd - np.trace(Hd) / 80 * np.eye(80)
    assert t * np.max(np.abs(shifted).sum(axis=0)) > 3 * 64
    state = ManyBodyState(basis=None, coefficients=psi)
    outs = set()
    for seed in range(8):
        np.random.seed(seed)
        outs.add(lhf.evolve_exact(state, H, t, lhf.PhysicalConstants())
                 .coefficients.tobytes())
        after = np.random.random()
        np.random.seed(seed)
        assert after == np.random.random()
    assert len(outs) == 1


def _hopping_ring(dim):
    # no stored diagonal: the propagator's shift applies to it all the same
    return sp.csr_matrix(sp.diags([np.ones(dim - 1), np.ones(dim - 1)], [-1, 1]))


def _unstored_diagonal_entry(rng):
    H = _random_hermitian(rng, 20).tolil()
    H[3, 3] = 0.0
    H = H.tocsr()
    assert 3 not in H.indices[H.indptr[3]:H.indptr[4]]
    return H


def _duplicate_entries(rng):
    # every entry stored twice, as two equal halves: ||H - mu||_1 is unchanged
    H = _random_hermitian(rng, 20)
    D = sp.csr_matrix((np.repeat(H.data / 2, 2), np.repeat(H.indices, 2),
                       2 * H.indptr), shape=H.shape)
    assert D.nnz == 2 * H.nnz
    return D


@pytest.mark.parametrize("make_H,t,hbar", [
    (lambda rng: _random_hermitian(rng, 20), 1e-3, 1.0),
    # t ||A||_1 ~ 800 > 64: expm_multiply sizes its steps from a norm estimate
    (lambda rng: _random_hermitian(rng, 80) * 5.0, 2.0, 1.0),
    (lambda rng: _random_hermitian(rng, 30), 1.3, 0.7),
    (lambda rng: _hopping_ring(25), 0.9, 1.0),
    (_unstored_diagonal_entry, 0.9, 0.7),
    (_duplicate_entries, 0.9, 0.7),
], ids=["small-t", "large-norm", "hbar-0.7", "no-diagonal", "unstored-diagonal",
        "duplicates"])
def test_advance_matches_public_expm_multiply(rng, make_H, t, hbar):
    from scipy.sparse.linalg import expm_multiply
    H = make_H(rng)
    psi = random_complex(rng, H.shape[0])
    psi /= np.linalg.norm(psi)
    prop = manybody.ExactPropagator(H, hbar)
    # the oracle's randomized 1-norm estimate draws from the global generator
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        expect = expm_multiply((-1j * t / hbar) * H, psi)
    finally:
        np.random.set_state(saved)
    assert np.max(np.abs(prop.advance(psi, t) - expect)) <= 1e-12


def test_propagator_keeps_a_complex_csr_as_given(rng):
    H = _random_hermitian(rng, 12)
    assert H.dtype == np.complex128
    assert np.shares_memory(manybody.ExactPropagator(H).H.data, H.data)


@pytest.mark.parametrize("make_H", [_unstored_diagonal_entry, _duplicate_entries],
                         ids=["unstored-diagonal", "duplicates"])
def test_propagator_norm_is_the_dense_shifted_norm(rng, make_H):
    H, hbar = make_H(rng), 0.7
    dense = H.toarray()
    shifted = (dense - np.trace(dense) / len(dense) * np.eye(len(dense))) / hbar
    norm = manybody.ExactPropagator(H, hbar).norm
    assert norm == pytest.approx(np.abs(shifted).sum(axis=0).max(), rel=1e-12)


def test_propagator_norm_bounds_cancelling_duplicates(rng):
    # stored duplicates a + x and -x count as |a + x| + |x| >= |a|
    H = _random_hermitian(rng, 20)
    x = random_complex(rng, H.nnz)
    D = sp.csr_matrix((np.column_stack([H.data + x, -x]).ravel(),
                       np.repeat(H.indices, 2), 2 * H.indptr), shape=H.shape)
    assert np.max(np.abs(D.toarray() - H.toarray())) < 1e-12
    exact = manybody.ExactPropagator(H).norm
    assert manybody.ExactPropagator(D).norm >= exact


def test_one_propagator_gives_the_bits_of_a_new_one_per_call(rng):
    H = _random_hermitian(rng, 40)
    psi = random_complex(rng, 40)
    prop = manybody.ExactPropagator(H, 0.8)
    for t in (0.1, 0.25, 0.1, -0.3, 0.1):
        fresh = manybody.ExactPropagator(H, 0.8).advance(psi, t)
        reused = prop.advance(psi, t)
        assert reused.tobytes() == fresh.tobytes()
        psi = reused


def test_propagator_counts_its_matvecs(rng):
    H = _random_hermitian(rng, 30)
    psi = random_complex(rng, 30)
    prop = manybody.ExactPropagator(H, 0.7)
    assert prop.matvecs == 0
    prop.advance(psi, 0.0)
    assert prop.matvecs == 0
    counts = []
    for t in (0.4, -1.1):
        before = prop.matvecs
        prop.advance(psi, t)
        m, s = manybody.taylor_parameters(abs(t) * prop.norm)
        counts.append(prop.matvecs - before)
        assert 0 < counts[-1] <= m * s
    fresh = manybody.ExactPropagator(H, 0.7)
    fresh.advance(psi, 0.4)
    assert fresh.matvecs == counts[0]


def test_taylor_parameters_exact_norm_branch():
    assert manybody.taylor_parameters(0.0) == (0, 1)
    # one step of m terms while the norm is below theta_m, the cheapest m
    assert manybody.taylor_parameters(0.5) == (14, 1)
    assert manybody.taylor_parameters(9.9) == (55, 1)
    # 50 terms in 12 steps, 600 matvecs, beat 55 terms in 11 steps, 605
    assert manybody.taylor_parameters(100.0) == (50, 12)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
def test_advance_rejects_non_finite_interval(rng, t):
    prop = manybody.ExactPropagator(_random_hermitian(rng, 6))
    with pytest.raises(InvalidValue, match="'t'"):
        prop.advance(random_complex(rng, 6), t)


def test_advance_backward_matches_dense_oracle(rng):
    H = _random_hermitian(rng, 30)
    psi = random_complex(rng, 30)
    psi /= np.linalg.norm(psi)
    prop = manybody.ExactPropagator(H, 0.7)
    back = prop.advance(psi, -1.1)
    assert np.max(np.abs(back - helpers.dense_propagate(H, psi, -1.1, 0.7))) < 1e-12
    assert np.max(np.abs(prop.advance(back, 1.1) - psi)) < 1e-12


def test_exact_evolution_conserves_energy_and_norm(tensor_m3, oset_m3):
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset_m3.energies, tensor_m3)
    C = np.zeros((9, 2), dtype=complex)
    C[0, 0] = C[3, 1] = 1.0
    state = lhf.embed_slater(1.0, C, basis)
    e0 = np.real(np.vdot(state.coefficients, H @ state.coefficients))
    constants = lhf.PhysicalConstants()
    for t in (0.3, 1.0, 2.5):
        out = lhf.evolve_exact(state, H, t, constants)
        e = np.real(np.vdot(out.coefficients, H @ out.coefficients))
        assert abs(e - e0) < 1e-9
        assert abs(out.norm() - 1.0) < 1e-9
