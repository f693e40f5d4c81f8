import collections
import dataclasses
import functools
import itertools
import math
import pathlib
import re
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
from landau_hf.manybody import InteractionTensor, ManyBodyState

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


# --- the hole tables ----------------------------------------------------------

def remainder_ranks(basis, n):
    """holes(n) by dict, (C(N,n), dim) each: the rank of the removed orbitals
    among all increasing n-tuples of range(K) and of the remainder among all
    (N-n)-tuples, the place sets in itertools.combinations order."""
    removed, rest = ({c: r for r, c in enumerate(itertools.combinations(range(basis.K), m))}
                     for m in (n, basis.N - n))
    sets = list(itertools.combinations(range(basis.N), n))
    return (np.array([[removed[tuple(occ[list(places)].tolist())]
                       for occ in basis.occupations] for places in sets]),
            np.array([[rest[tuple(np.delete(occ, places).tolist())]
                       for occ in basis.occupations] for places in sets]))


def split_holes(basis, n):
    """holes(n)'s at as (rank of the removed orbitals, rank of the remainder)."""
    return np.divmod(basis.holes(n)[0], math.comb(basis.K, basis.N - n))


@pytest.mark.parametrize("K,N", [(4, 1), (5, 1), (4, 4), (5, 5), (5, 2), (6, 3),
                                 (9, 3), (12, 4), (12, 5), (8, 7)])
def test_one_hole_ranks_are_the_remainders_ranks(K, N):
    basis = lhf.enumerate_determinants(K, N)
    at, sign = basis.holes(1)
    assert at.dtype == np.int64 and at.shape == (N, basis.dim)
    removed, rest = split_holes(basis, 1)
    assert np.array_equal(removed, basis.occupations.T)
    assert np.array_equal([removed, rest], remainder_ranks(basis, 1))
    assert np.array_equal(sign, [hole_sign((k,)) for k in range(N)])


def test_one_hole_where_binomials_overflow_int64():
    basis = lhf.enumerate_determinants(70, 67)          # C(69, 34) > 2^63 in the table
    removed, rest = split_holes(basis, 1)
    for i in [*range(0, basis.dim, 97), basis.dim - 1]:
        for k in (0, 33, 66):
            left = np.delete(basis.occupations[i], k).tolist()
            rank = math.comb(70, 66) - 1 - sum(math.comb(69 - c, 66 - l)
                                               for l, c in enumerate(left))
            assert rest[k, i] == rank and removed[k, i] == basis.occupations[i, k]


@pytest.mark.parametrize("K,N", [(2, 2), (4, 2), (4, 4), (5, 3), (6, 3), (9, 3),
                                 (12, 4), (12, 5), (5, 5), (8, 7), (9, 8)])
def test_two_hole_ranks_are_the_remainders_ranks(K, N):
    basis = lhf.enumerate_determinants(K, N)
    if N > K // 2 + 1:              # rank's binomials clipped at dim would be too small
        assert math.comb(K, N - 2) > basis.dim
    at, sign = basis.holes(2)
    assert at.dtype == np.int64 and at.shape == (math.comb(N, 2), basis.dim)
    assert np.array_equal(split_holes(basis, 2), remainder_ranks(basis, 2))
    assert np.array_equal(sign, [hole_sign(places)
                                 for places in itertools.combinations(range(N), 2)])


def rank_windows(K, m, width):
    """(start, sets) of the itertools enumeration of the increasing m-tuples of
    range(K) in windows of width: its first, a middle and its last window."""
    total = math.comb(K, m)
    combos = itertools.combinations(range(K), m)
    for w in range(-(-total // width)):
        window = itertools.islice(combos, width)
        if w in {0, total // width // 2, (total - 1) // width}:
            yield w * width, list(window)
        else:
            collections.deque(window, maxlen=0)


@pytest.mark.parametrize("K,N", [(2, 2), (3, 3), (4, 2), (5, 3), (6, 5), (8, 7), (9, 4),
                                 (12, 5), (70, 67)])    # C(69, 34) > 2^63 sits in the table
def test_rank_of_every_size_the_hole_tables_read(K, N):
    basis = lhf.enumerate_determinants(K, N)
    if K == 70:
        assert math.comb(69, 34) > np.iinfo(np.int64).max
    for m in sorted({1, 2, N - 2, N - 1, N} & set(range(N + 1))):
        for start, sets in rank_windows(K, m, 4000):
            ranks = basis.rank(np.array(sets, dtype=np.int64).reshape(len(sets), m))
            assert np.array_equal(ranks, np.arange(start, start + len(sets))), m


def test_hole_tables_are_built_once(monkeypatch):
    basis = lhf.enumerate_determinants(9, 4)
    tables = {n: basis.holes(n) for n in (1, 2)}

    def unranked(*args):
        raise AssertionError("a hole table was built again")
    monkeypatch.setattr(lhf.DeterminantBasis, "rank", unranked)
    for n, (at, sign) in tables.items():
        again = basis.holes(n)
        assert again[0] is at and again[1] is sign


def hole_sign(places) -> float:
    """<h| a_{p_n} ... a_{p_1} |i> for the orbitals at places k_1 < ... < k_n
    of row i: (-1)^(sum k - n (n-1)/2), (-1)^k for n = 1 and (-1)^(k+l-1),
    A_2's sign, for n = 2."""
    n = len(places)
    return -1.0 if (sum(places) - n * (n - 1) // 2) % 2 else 1.0


@pytest.mark.parametrize("K,N,n", [(4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 1),
                                   (5, 3, 2), (6, 3, 2), (6, 4, 2), (4, 4, 1)])
def test_replacements_targets_and_signs(K, N, n):
    # a replacement of n occupied by n empty orbitals meets its target at a
    # shared n-hole, with the product of the two hole signs: the pairs that
    # holes(n) matches are exactly the replacements
    basis = lhf.enumerate_determinants(K, N)
    sets = list(itertools.combinations(range(N), n))
    _, rest = split_holes(basis, n)
    signs = basis.holes(n)[1]
    assert np.array_equal(signs, [hole_sign(places) for places in sets])
    by_hole = {}
    for j, ranks in enumerate(rest.T):
        for s, h in enumerate(ranks):
            by_hole.setdefault(h, []).append((j, s))
    entries = []
    for i, ranks in enumerate(rest.T):
        occ_i = basis.occupations[i].tolist()
        for s, h in enumerate(ranks):
            for j, target in by_hole[h]:
                Q = basis.occupations[j][list(sets[target])].tolist()
                if not set(Q) & set(occ_i):
                    P = [occ_i[k] for k in sets[s]]
                    entries.append((i, j, P, Q, signs[s] * signs[target]))
    assert len(entries) == basis.dim * math.comb(N, n) * math.comb(K - N, n)
    for i, j, P, Q, sign in entries:
        occ_i = basis.occupations[i].tolist()
        occ_j = basis.occupations[j].tolist()
        assert occ_j == sorted(set(occ_i) - set(P) | set(Q))
        # replace the columns of P in place by Q: the wedge is sign * D_j
        moved = dict(zip(P, Q))
        cols = np.zeros((K, N), dtype=complex)
        cols[[moved.get(o, o) for o in occ_i], range(N)] = 1.0
        ref = helpers.occupation_tensor(occ_j, K)
        assert np.allclose(helpers.wedge_tensor(cols), sign * ref, atol=1e-14)


@pytest.mark.parametrize("K,N,block,blocks,n", [
    (K, N, block, blocks, n) for K, N, block, blocks in [
        (4, 4, 256, None), (4, 1, 256, None), (9, 3, 256, None),
        (12, 5, 256, None),                 # dim 792: three blocks of 256, one of 24
        (63, 2, 16, 2), (64, 2, 16, 2), (65, 2, 16, 2), (65, 63, 16, 2),
        (70, 67, 16, 2)]                    # binomials past int64
    for n in (1, 2) if (K, N, n) != (70, 67, 2)])   # holes(2) there: 121M entries
def test_replacement_table_matches_sorting_oracle(K, N, block, blocks, n):
    # every replacement the sorting oracle lists, source i, target j, P and Q,
    # shares an n-hole of the two rows, and its sign is the product of the
    # two hole signs
    basis = lhf.enumerate_determinants(K, N)
    expect = list(itertools.islice(helpers.sorted_replacements(basis, n, block), blocks))
    assert len(expect) == (blocks or -(-basis.dim // block))
    if n > N:                               # no n places to empty: nothing listed
        assert not any(a.size for entries in expect for a in entries)
        return
    removed, rest = split_holes(basis, n)
    sets = list(itertools.combinations(range(N), n))
    column = np.zeros((N,) * n, dtype=np.int64)
    for c, places in enumerate(sets):
        column[places] = c
    sign = basis.holes(n)[1]
    assert np.array_equal(sign, [hole_sign(places) for places in sets])
    row = {c: r for r, c in enumerate(itertools.combinations(range(K), n))}
    for i, j, P, Q, old in expect:
        # the place of an occupied orbital x in its row is the count below it
        at_i = column[tuple((basis.occupations[i][:, None] < P[:, :, None]).sum(axis=2).T)]
        at_j = column[tuple((basis.occupations[j][:, None] < Q[:, :, None]).sum(axis=2).T)]
        assert np.array_equal(rest[at_i, i], rest[at_j, j])
        assert np.array_equal(removed[at_i, i], [row[tuple(p)] for p in P.tolist()])
        assert np.array_equal(removed[at_j, j], [row[tuple(q)] for q in Q.tolist()])
        assert np.array_equal(sign[at_i] * sign[at_j], old)


# --- one-body operators ------------------------------------------------------

def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def one_body_matrix(basis, M):
    """dGamma(M) column by column, applied to each unit vector."""
    return np.column_stack([basis.one_body(M, e) for e in np.eye(basis.dim)])


@pytest.mark.parametrize("K,N", [(4, 1), (4, 2), (5, 3), (6, 3), (4, 4)])
def test_one_body_matches_tensor_space_oracle(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    S = np.stack([helpers.occupation_tensor(occ, K) for occ in basis.occupations])
    oracle = S.conj() @ helpers.one_body_tensor(M, N) @ S.T
    assert np.max(np.abs(one_body_matrix(basis, M) - oracle)) < 1e-12
    # dGamma(M) x and its adjoint dGamma(M^H) y on random vectors
    x, y = random_complex(rng, basis.dim), random_complex(rng, basis.dim)
    assert np.max(np.abs(basis.one_body(M, x) - oracle @ x)) < 1e-12
    assert np.max(np.abs(basis.one_body(M.conj().T, y) - oracle.conj().T @ y)) < 1e-12


@pytest.mark.parametrize("K,N", [(4, 2), (6, 3), (7, 2)])
def test_one_body_adjoint(rng, K, N):
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    assert np.array_equal(one_body_matrix(basis, M).conj().T,
                          one_body_matrix(basis, M.conj().T))


@pytest.mark.parametrize("K,N", [(4, 1), (5, 2), (6, 3), (8, 3), (4, 4)])
def test_one_body_expectation_is_rdm_contraction(rng, K, N):
    # both read the hole amplitudes: <psi|dGamma(M)|psi> = sum M[q,p] omega[p,q]
    basis = lhf.enumerate_determinants(K, N)
    M = random_complex(rng, K, K)
    c = random_complex(rng, basis.dim)
    c /= np.linalg.norm(c)
    omega = lhf.rdm_exact(ManyBodyState(basis=basis, coefficients=c), basis)
    assert np.vdot(c, basis.one_body(M, c)) == pytest.approx(
        np.einsum("qp,pq->", M, omega), abs=1e-12)


def test_one_body_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        lhf.enumerate_determinants(4, 2).one_body(np.eye(3), np.ones(6))
    with pytest.raises(DimensionMismatch):
        lhf.enumerate_determinants(4, 2).one_body(np.eye(4), np.ones(5))


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


def test_tensor_zero_potential(cfg_m3, oset_m3, monkeypatch):
    def unsampled(self):
        raise AssertionError("an orbital was sampled")
    monkeypatch.setattr(lhf.OrbitalSet, "matrix", unsampled)
    pot = lhf.PotentialSpec(kind="zero")
    tensor = lhf.two_body_tensor(pot, oset_m3, cfg_m3.tensor_grid)
    assert tensor.is_zero() and tensor.values.shape == (9,) * 4
    assert (tensor.rank, tensor.rule_kept, tensor.symmetry_deviation) == (0, 0.0, 0.0)


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


@pytest.mark.parametrize("G1,G2", [(24, 24), (16, 24), (15, 24)])
@pytest.mark.parametrize("sigma", [None, 0.3, 0.1], ids=["default", "0.3", "0.1"])
def test_gaussian_tensor_matches_full_fft_oracle(cfg_m3, G1, G2, sigma):
    # the partial DFT at the kept modes against a full fft2 per pair row; at
    # sigma = 0.1 every mode is kept, the Nyquist modes of the even axes too
    grid = lhf.Grid(L1=cfg_m3.domain.L1, L2=cfg_m3.domain.L2, G1=G1, G2=G2)
    oset = lhf.build_orbital_set(cfg_m3, grid=grid)
    pot = lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3,
                            **({} if sigma is None else {"sigma": sigma}))
    tensor = lhf.two_body_tensor(pot, oset, grid)
    oracle = helpers.fft2_gaussian_pair_matrix(pot, oset, grid)
    assert np.max(np.abs(tensor.pair - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    if sigma == 0.1:
        assert tensor.rank == G1 * G2


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


def k30_gaussian_case():
    config = lhf.load_config(ROOT / "configs/k30n10.cfg")
    return (lhf.build_orbital_set(config, grid=config.tensor_grid), config.potential,
            config.tensor_grid)


@pytest.mark.parametrize("name,free", [*[(name, False) for name in RULE_CASES],
                                       ("gaussian-M3", True), ("cosine-h1", True),
                                       ("k30-gaussian", False)])
def test_blocked_tensor_matches_dense_oracle(name, free, monkeypatch):
    # the momentum blocks against one dense A @ B^T with slab checks and
    # slab symmetrization; free: the rule allows every transfer, one block
    oset, pot, grid = k30_gaussian_case() if name == "k30-gaussian" else rule_case(name)
    if free:
        rule_free(monkeypatch)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    pair, deviation, kept = helpers.dense_two_body_tensor(pot, oset, grid)
    scale = np.abs(pair).max()
    assert np.abs(tensor.pair - pair).max() <= 1e-15 * scale
    assert np.array_equal(tensor.pair == 0, pair == 0)
    assert helpers.symmetry_deviations(tensor.pair) == (0.0, 0.0)
    assert tensor.rule_kept == kept and (kept == 1.0) == free
    assert abs(tensor.symmetry_deviation - deviation) <= 1e-15


SHIPPED = ["example", "gaussian", "k16n4", "k30n10"]


def factor_case(name):
    """(orbital set, kernel, grid, lattice cut) of a pair-factor case: a
    RULE_CASES entry, a shipped config's kernel on its tensor grid, cfg_m3's
    basis at lattice_cut = 3 with the Gaussian, or M = 3 on a 16 x 4
    aliasing grid (below the Nyquist guard: shell pairs one apart meet modes
    through dq = k2 + G2 j, j != 0) with the cosine or the Gaussian."""
    if name in RULE_CASES:
        return (*rule_case(name), 0)
    if name in SHIPPED:
        config = lhf.load_config(ROOT / f"configs/{name}.cfg")
        return (lhf.build_orbital_set(config, grid=config.tensor_grid), config.potential,
                config.tensor_grid, config.lattice_cut)
    gaussian = lhf.PotentialSpec(kind="periodic-gaussian", strength=0.3, sigma=0.5)
    if name == "cut3":
        config = make_config(lattice_cut=3)
        grid = config.tensor_grid
        return lhf.build_orbital_set(config, grid=grid), gaussian, grid, 3
    grid = lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=16, G2=4)
    shells, profiles, kept = lhf.lattice_profiles(range(3), range(3), grid, 3)
    oset = lhf.OrbitalSet(profiles=np.ascontiguousarray(profiles.reshape(9, -1, 16)),
                          shells=shells, kept=kept.reshape(9, -1), energies=np.zeros(9),
                          flux_count=3, grid=grid)
    pot = gaussian if name == "aliasing-gaussian" else lhf.PotentialSpec(
        kind="separable-cosine", strength=0.7)
    return oset, pot, grid, 0


@pytest.mark.parametrize("name", [*RULE_CASES, *SHIPPED, "cut3", "aliasing-cosine",
                                  "aliasing-gaussian"])
def test_pair_factors_match_the_grid_oracle(name):
    # B in closed form from profiles and harmonics against the grid fill of
    # the oracle samples: a partial DFT of every 2-D pair density, or the
    # cosine's sampled factor
    oset, pot, grid, cut = factor_case(name)
    modes, terms, _ = manybody.tensor_factors(pot, oset.size, oset.flux_count, grid)
    B = manybody.pair_factors(oset, modes, terms)
    oracle = helpers.grid_pair_factors(pot, helpers.grid_orbital_matrix(oset, cut), grid)
    oracle = oracle.reshape(B.shape)
    assert np.abs(B - oracle).max() <= 1e-14 * np.abs(oracle).max()


# K = 60: M = 30, n_max = 1 and every grid at 256^2, as CI's K = 60 evolve-hf step
K60_CHANGES = {"M": 30, "n_max": 1, "grid1": 256, "grid2": 256, "tensor_grid1": 256,
               "tensor_grid2": 256}


def rule_columns(oset, blocks, R) -> np.ndarray:
    """(K^2, R) mask of the (pair, factor column) entries the selection rule
    allows: the columns of the block whose row T marks m_d - m_b of (b d)."""
    M = oset.flux_count
    transfer = ((oset.labels - oset.labels[:, None]) % M).ravel()
    on_rule = np.zeros((len(transfer), R), dtype=bool)
    for T, columns in blocks:
        on_rule[np.ix_(T[transfer], columns)] = True
    return on_rule


@pytest.mark.parametrize("name", ["gaussian-M3", "gaussian-M4", "gaussian", "k30n10", "k60"])
def test_compact_pair_factors_are_the_dense_on_the_rule(name):
    # the transfer-compact B scattered back to (K^2, R) has the dense B's
    # bits on the rule, and the dense B is an exact zero off it
    if name == "k60":
        config = dataclasses.replace(lhf.load_config(ROOT / "configs/k30n10.cfg"),
                                     **K60_CHANGES)
        oset, pot, grid = (lhf.build_orbital_set(config, grid=config.tensor_grid),
                           config.potential, config.tensor_grid)
    else:
        oset, pot, grid, _ = factor_case(name)
    modes, terms, blocks = manybody.tensor_factors(pot, oset.size, oset.flux_count, grid)
    dense = manybody.pair_factors(oset, modes, terms)
    compact = manybody.pair_factors(oset, modes, terms, blocks)
    on_rule = rule_columns(oset, blocks, dense.shape[1])
    scattered = np.zeros_like(dense)
    for _, columns in blocks:
        rows = np.flatnonzero(on_rule[:, columns[0]])
        scattered[np.ix_(rows, columns)] = compact[rows, :len(columns)]
        assert not compact[rows, len(columns):].any()
    assert not compact[~on_rule.any(axis=1)].any()
    assert compact.shape[1] == max(len(columns) for _, columns in blocks) < dense.shape[1]
    assert np.array_equal(scattered[on_rule].view(np.uint64), dense[on_rule].view(np.uint64))
    assert not dense[~on_rule].any()


def test_aliasing_grid_raises_as_the_dense_factor_build():
    # on the 16 x 4 grid the dense B holds entries off the rule, which a
    # compact row would sum into another mode's column; they stay out, so
    # the symmetry check reads what the dense-B build reads
    oset, pot, grid, _ = factor_case("aliasing-gaussian")
    modes, terms, blocks = manybody.tensor_factors(pot, oset.size, oset.flux_count, grid)
    dense = manybody.pair_factors(oset, modes, terms)
    off_rule = np.abs(dense[~rule_columns(oset, blocks, dense.shape[1])])
    assert off_rule.max() > 0.1 * np.abs(dense).max()
    with pytest.raises(SymmetryViolation) as oracle:
        helpers.dense_two_body_tensor(pot, oset, grid)
    with pytest.raises(SymmetryViolation, match=re.escape(str(oracle.value))):
        lhf.two_body_tensor(pot, oset, grid)


def test_closed_form_tensors_sample_no_orbital(monkeypatch):
    # a sampler that raises: the Gaussian and cosine tensors form no grid
    # sample of an orbital, and the table's does
    def unsampled(*args):
        raise AssertionError("an orbital was sampled")
    monkeypatch.setattr(lhf.basis, "_lattice_samples", unsampled)
    for name in ("example", "k30n10"):             # cosine, Gaussian
        oset, pot, grid, _ = factor_case(name)
        assert lhf.two_body_tensor(pot, oset, grid).rank >= 1
    oset, pot, grid = rule_case("gaussian-M3")
    table = lhf.PotentialSpec(kind="tabulated", table=pot.pair_values(grid))
    with pytest.raises(AssertionError, match="an orbital was sampled"):
        lhf.two_body_tensor(table, oset, grid)


def expected_modulus(oset, pot, G2):
    """The momentum modulus g of a kernel: M for the Gaussian and zero kinds,
    gcd(M, 2 s) for the cosine at its numpy.fft.fftfreq frequency s, 1 for a
    table."""
    M = oset.flux_count
    if pot.kind == "separable-cosine":
        return math.gcd(M, 2 * int(np.fft.fftfreq(G2, 1 / G2)[pot.harmonic2 % G2]))
    return 1 if pot.kind == "tabulated" else M


def block_case(name):
    """rule_case, or gaussian-M3's orbitals with its pair values as a table or
    with the zero kernel."""
    if name in RULE_CASES:
        return rule_case(name)
    oset, pot, grid = rule_case("gaussian-M3")
    return oset, (lhf.PotentialSpec(kind="tabulated", table=pot.pair_values(grid))
                  if name == "tabulated" else lhf.PotentialSpec(kind="zero")), grid


def random_hf_state(rng, K, N):
    C = np.linalg.qr(random_complex(rng, K, N))[0]
    return lhf.HFState(time=0.0, a=np.exp(0.3j), orbitals=C)


def assert_hf_matches_dense_oracle(tensor, state, energies, constants):
    """The Fock action, HF energy and closed-form defect of the tensor within
    1e-13 max |v| of those of helpers.DenseTensor on its pair matrix."""
    oracle = helpers.DenseTensor(tensor.pair)
    scale, C = np.abs(oracle.pair).max(), state.orbitals
    assert np.abs(tensor.mean_field(C) - oracle.mean_field(C)).max() <= 1e-13 * scale
    energy = [lhf.hf_energy(state, energies, t) for t in (tensor, oracle)]
    assert abs(energy[0] - energy[1]) <= 1e-13 * max(scale, 1.0)
    defect = [lhf.defect_norm(state, t, constants) for t in (tensor, oracle)]
    assert abs(defect[0] - defect[1]) <= 1e-13 * scale


@pytest.mark.parametrize("name", [*RULE_CASES, "tabulated", "zero"])
def test_blocked_methods_match_dense_oracle(name, rng):
    # the blocks of F against the dense pair matrix read by the dense
    # contractions of helpers.DenseTensor, on seeded random orbitals
    oset, pot, grid = block_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    K = tensor.K
    assert tensor.modulus == expected_modulus(oset, pot, grid.G2)
    if pot.kind == "zero":
        pair = np.zeros((K * K, K * K))
    else:
        pair = helpers.dense_two_body_tensor(pot, oset, grid)[0]
    scale = np.abs(pair).max()
    tol = (2e-15 if pot.kind == "tabulated" else 1e-15) * scale
    assert np.abs(tensor.pair - pair).max() <= tol
    assert np.abs(tensor.values - pair.reshape((K,) * 4).transpose(0, 2, 1, 3)).max() <= tol
    oracle = helpers.DenseTensor(tensor.pair)
    state = random_hf_state(rng, K, 3)
    C = state.orbitals
    assert np.abs(tensor.pair_amplitudes(C) - oracle.pair_amplitudes(C)).max() <= 1e-13 * scale
    assert np.array_equal(helpers.antisymmetrized_pairs(tensor), oracle.antisymmetrized_pairs())
    assert_hf_matches_dense_oracle(tensor, state, oset.energies, make_config().constants)


@pytest.mark.parametrize("path", ["configs/example.cfg", "configs/gaussian.cfg",
                                  "configs/k16n4.cfg", "configs/k30n10.cfg"])
def test_shipped_blocked_hf_matches_dense_oracle(path, rng):
    # the Fock action, HF energy and closed-form defect of every shipped
    # config's tensor against the dense contractions of its pair matrix
    problem = Problem(lhf.load_config(ROOT / path))
    state = random_hf_state(rng, problem.tensor.K, problem.config.N)
    assert_hf_matches_dense_oracle(problem.tensor, state, problem.energies,
                                   problem.config.constants)


# K = 60: M = 30, n_max = 1 and every grid at 256^2, the K = 60 evolve-hf run of CI
WIDE_CHANGES = {"M": 30, "n_max": 1, "grid1": 256, "grid2": 256, "tensor_grid1": 256,
                "tensor_grid2": 256}
MIRROR_CASES = {"gaussian-g3": ("configs/gaussian.cfg", {}),
                "gaussian-g6": ("configs/k30n10.cfg", {}),
                "gaussian-g30": ("configs/k30n10.cfg", WIDE_CHANGES)}


def mirror_case(name) -> tuple[InteractionTensor, int]:
    """A fresh Gaussian tensor of MIRROR_CASES and its config's N."""
    path, changes = MIRROR_CASES[name]
    config = dataclasses.replace(lhf.load_config(ROOT / path), **changes)
    oset = lhf.build_orbital_set(config, grid=config.tensor_grid)
    return lhf.two_body_tensor(config.potential, oset, config.tensor_grid), config.N


@pytest.mark.parametrize("name,g", [("gaussian-g3", 3), ("gaussian-g6", 6), ("gaussian-g30", 30)])
def test_hermitian_mirror_matches_every_block(name, g, rng):
    # F of a Gaussian tensor is Hermitian bit for bit, so mean_field
    # contracts blocks 0..g/2 alone and mirrors the rest
    tensor, N = mirror_case(name)
    assert tensor.modulus == g
    for n in (N, 1 + N // 2):
        C = random_hf_state(rng, tensor.K, n).orbitals
        oracle = helpers.blockwise_mean_field(tensor, C)
        eta = tensor.mean_field(C)
        assert len(tensor._fock_plan[0]) == g // 2 + 1
        assert np.abs(eta - oracle).max() <= 1e-13 * np.abs(oracle).max()


def test_hermitian_mirror_conjugates_its_images_exactly(rng):
    # every entry of J - X in a block t > g/2 is the conjugate of its image
    # (g a) in block g - t, bit for bit; blocks 0 and g/2 hold their own
    # images and are contracted whole, so Hermitian to round-off there
    tensor, N = mirror_case("gaussian-g6")
    K, g = tensor.K, tensor.modulus
    C = random_hf_state(rng, K, N).orbitals
    tensor.mean_field(C)
    _, _, out, at = tensor._fock_plan
    fock = out.ravel().take(at)
    m = np.arange(K) % g
    mirrored = (m[:, None] - m) % g > g // 2          # m_a - m_g = t > g/2
    assert np.count_nonzero(mirrored) == K * K * (g - g // 2 - 1) // g
    assert np.array_equal(fock[mirrored], fock.conj().T[mirrored])
    assert np.abs(fock - fock.conj().T).max() <= 1e-15 * np.abs(fock).max()
    assert np.abs(fock - helpers.fock_matrix(tensor.values, C @ C.conj().T)).max() \
        <= 1e-13 * np.abs(fock).max()


@pytest.mark.parametrize("path", ["configs/example.cfg", "configs/k16n4.cfg"])
def test_two_blocks_or_fewer_contract_every_block(path, rng):
    # the cosine kernel at harmonic2 = 1 has g = gcd(M, 2) <= 2: nothing to mirror
    problem = Problem(lhf.load_config(ROOT / path))
    tensor = problem.tensor
    assert tensor.modulus <= 2
    C = random_hf_state(rng, tensor.K, problem.config.N).orbitals
    assert np.array_equal(tensor.mean_field(C), helpers.blockwise_mean_field(tensor, C))
    assert len(tensor._fock_plan[0]) == tensor.modulus


def test_dense_values_contract_every_block(rng):
    # a dense values array is one block, contracted whole
    v, sup = helpers.random_interaction_tensor(rng, 7)
    tensor = InteractionTensor(values=v, sup_norm=sup)
    C = random_hf_state(rng, 7, 3).orbitals
    assert np.array_equal(tensor.mean_field(C), helpers.blockwise_mean_field(tensor, C))
    assert tensor.modulus == 1 and len(tensor._fock_plan[0]) == 1


@pytest.mark.parametrize("name", [*RULE_CASES, *MIRROR_CASES, "tabulated", "zero"])
def test_built_tensor_is_exactly_symmetric(name):
    # what the mean field's mirror and the amplitudes' signed rows rely on:
    # v exchange-symmetric and Hermitian bit for bit, so F antisymmetric in
    # each pair and Hermitian, F[p, p] = 0, for every kind two_body_tensor
    # builds, and the padding rows and columns of its pair blocks zero
    if name in MIRROR_CASES:
        tensor = mirror_case(name)[0]
    else:
        oset, pot, grid = block_case(name)
        tensor = lhf.two_body_tensor(pot, oset, grid)
    helpers.assert_exactly_symmetric(tensor)
    blocks = tensor.pair_blocks
    padding = blocks.pairs == math.comb(tensor.K, 2)
    assert not blocks.values[padding].any()
    assert not blocks.values.swapaxes(1, 2)[padding].any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dense_values_are_symmetrized_once_or_refused(rng):
    # symmetric to round-off: exactly symmetric after, with the deviation of
    # the slab oracle; no symmetry: SymmetryViolation; an entry beyond half
    # the float range, which the symmetrization would overflow: NonFiniteValue
    v, sup = helpers.random_interaction_tensor(rng, 6)
    tensor = InteractionTensor(values=v, sup_norm=sup)
    expected, deviation = helpers.symmetrized(v)
    assert 0.0 < tensor.symmetry_deviation == deviation <= manybody.TENSOR_SYM_TOL
    helpers.assert_exactly_symmetric(tensor)
    assert np.array_equal(tensor.values, expected)
    with pytest.raises(SymmetryViolation, match="tensor symmetry deviation"):
        InteractionTensor(values=v + 1e-6 * random_complex(rng, 6, 6, 6, 6), sup_norm=sup)
    with pytest.raises(NonFiniteValue, match="beyond half the float range"):
        InteractionTensor(values=v / np.abs(v).max() * 1e308, sup_norm=1e308)


@pytest.mark.parametrize("name", [*RULE_CASES, "tabulated", "zero"])
def test_pair_blocks_hold_the_antisymmetrized_pairs_by_pair_momentum(name):
    # each class c holds the ascending pairs with p + q = c (mod g), padded
    # to the largest class, and F between them as the dense oracle has it;
    # a built tensor's amplitudes read these blocks, with no second copy
    oset, pot, grid = block_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    K, g = tensor.K, tensor.modulus
    pairs = list(itertools.combinations(range(K), 2))
    classes = collections.Counter((p + q) % g for p, q in pairs)
    blocks = tensor.pair_blocks
    P = max(classes.values())
    assert blocks.values.shape == (g, P, P) and blocks.pairs.shape == (g, P)
    W = helpers.DenseTensor(tensor.pair).antisymmetrized_pairs()
    for c in range(g):
        at = blocks.pairs[c, :classes[c]]
        assert [pairs[k] for k in at] == [(p, q) for p, q in pairs if (p + q) % g == c]
        assert np.all(blocks.pairs[c, classes[c]:] == len(pairs))
        assert np.array_equal(blocks.r[c, :classes[c]], [pairs[k][0] for k in at])
        assert np.array_equal(blocks.s[c, :classes[c]], [pairs[k][1] for k in at])
        assert np.array_equal(blocks.values[c, :classes[c], :classes[c]], W[np.ix_(at, at)])
    assert np.array_equal(blocks.pairs.ravel()[blocks.slot], np.arange(len(pairs)))
    assert blocks.values.nbytes == 16 * g * P * P
    # an ordered pair reads the row of its ascending pair, with the sign of q - p
    for p, q in itertools.product(range(K), repeat=2):
        if p != q:
            assert blocks.ordered[p * K + q] == blocks.slot[pairs.index((min(p, q), max(p, q)))]
        assert blocks.sign[p * K + q] == np.sign(q - p)


@pytest.mark.parametrize("name", ["gaussian-M3", "cosine-h1", "cosine-M4-h2", "tabulated",
                                  "zero"])
def test_defect_is_exactly_zero_at_one_orbital_and_at_a_full_set(name, rng):
    # N = 1: every 2x2 minor is 0; N = K on unit columns: the complement is
    # 0; random N = K orbitals: round-off, as the dense oracle's
    oset, pot, grid = block_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    oracle = helpers.DenseTensor(tensor.pair)
    K, constants = tensor.K, make_config().constants
    scale = max(np.abs(oracle.pair).max(), 1.0)
    for C in (random_hf_state(rng, K, 1).orbitals, np.eye(K, dtype=np.complex128)):
        state = lhf.HFState(time=0.0, a=np.exp(0.3j), orbitals=C)
        assert np.abs(tensor.pair_amplitudes(C) - oracle.pair_amplitudes(C)).max() <= 1e-13 * scale
        assert lhf.defect_norm(state, tensor, constants) == 0.0
    state = random_hf_state(rng, K, K)
    defect = [lhf.defect_norm(state, t, constants) for t in (tensor, oracle)]
    assert max(defect) <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["periodic-gaussian", "separable-cosine"])
def test_pair_blocks_of_a_single_pair(kind, rng):
    # K = 2: one pair, (0, 1); with the Gaussian it is in class 1 of g = 2
    # and class 0 is padding alone
    config = make_config(M=2, n_max=0, N=2, kind=kind)
    oset = lhf.build_orbital_set(config, grid=config.tensor_grid)
    tensor = lhf.two_body_tensor(config.potential, oset, config.tensor_grid)
    oracle = helpers.DenseTensor(tensor.pair)
    assert tensor.K == 2
    blocks = tensor.pair_blocks
    assert blocks.values.shape == (tensor.modulus, 1, 1)
    assert np.array_equal(helpers.antisymmetrized_pairs(tensor), oracle.antisymmetrized_pairs())
    scale = np.abs(oracle.pair).max()
    for N in (1, 2):
        C = random_hf_state(rng, 2, N).orbitals
        assert np.abs(tensor.pair_amplitudes(C) - oracle.pair_amplitudes(C)).max() <= 1e-13 * scale
    with pytest.raises(SymmetryViolation):                              # no symmetry
        InteractionTensor(values=random_complex(rng, 2, 2, 2, 2), sup_norm=1.0)
    tensor = InteractionTensor(values=helpers.random_interaction_tensor(rng, 2)[0],
                               sup_norm=1.0)
    v = tensor.values
    C = random_hf_state(rng, 2, 2).orbitals
    g = np.einsum("pqrs,ri,sj->pqij", v, C, C)
    assert np.abs(tensor.pair_amplitudes(C) - (g - g.swapaxes(2, 3))).max() < 1e-13


def test_pair_blocks_are_built_once_and_read_only(rng):
    oset, pot, grid = rule_case("gaussian-M3")
    tensor = lhf.two_body_tensor(pot, oset, grid)
    assert "pair_blocks" not in vars(tensor)
    C = random_hf_state(rng, tensor.K, 3).orbitals
    first = tensor.pair_amplitudes(C)
    blocks = tensor.pair_blocks
    copy = blocks.values.copy()
    assert not blocks.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        blocks.values[0, 0, 0] = 1.0
    W = helpers.antisymmetrized_pairs(tensor)
    W += 1.0
    assert np.array_equal(tensor.pair_amplitudes(C), first)
    assert tensor.pair_blocks is blocks and np.array_equal(blocks.values, copy)


def test_hamiltonian_diagonal_leaves_the_pair_blocks_untouched():
    # assemble_hamiltonian adds the one-body energies to the diagonal of its
    # copy of the blocks in place
    oset, pot, grid = rule_case("gaussian-M3")
    tensor = lhf.two_body_tensor(pot, oset, grid)
    W = helpers.antisymmetrized_pairs(tensor)
    values = tensor.pair_blocks.values.copy()
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(9, 3), oset.energies, tensor)
    assert H.W.shape == values.shape and not np.array_equal(H.W, values)
    assert not np.shares_memory(H.W, tensor.pair_blocks.values)
    assert np.array_equal(tensor.pair_blocks.values, values)
    assert np.array_equal(helpers.antisymmetrized_pairs(tensor), W)


def test_tensor_and_hf_flow_build_no_pair_block():
    problem = Problem(make_config(kind="periodic-gaussian", N=3, t_final=0.02))
    tensor, config = problem.tensor, problem.config
    assert "pair_blocks" not in vars(tensor)
    lhf.integrate_hf(problem.initial_state(), config.dt, config.t_final, config.integrator,
                     tensor, problem.energies, config.constants, config.sample_stride)
    assert "pair_blocks" not in vars(tensor)


def test_block_without_an_image_block_matches_dense_oracle(monkeypatch):
    # Fourier modes kept at k2 = 0 and 1 only: at M = 4 the block of T = 1
    # has no block of -T = 3, so its image is zero before the symmetrization
    # and half of it after, as in the dense product
    oset, pot, grid = rule_case("gaussian-M4")
    modes = lhf.PotentialSpec.fourier_modes

    def one_sided(self, g):
        (k1, k2), w = modes(self, g)
        keep = k2 <= 1
        return (k1[keep], k2[keep]), w[keep]
    monkeypatch.setattr(lhf.PotentialSpec, "fourier_modes", one_sided)
    monkeypatch.setattr(manybody, "TENSOR_SYM_TOL", 1.0)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    pair, deviation, kept = helpers.dense_two_body_tensor(pot, oset, grid)
    assert np.abs(tensor.pair - pair).max() <= 1e-15 * np.abs(pair).max()
    assert np.array_equal(tensor.pair == 0, pair == 0)
    assert helpers.symmetry_deviations(tensor.pair) == (0.0, 0.0)
    assert tensor.rule_kept == kept and abs(tensor.symmetry_deviation - deviation) <= 1e-15
    assert deviation > 1e-3


def test_blocked_table_tensor_matches_dense_oracle(oset24):
    # the table's real products against its complex product with the table
    grid = oset24.grid
    pot = lhf.PotentialSpec(kind="tabulated", table=lhf.PotentialSpec(
        kind="periodic-gaussian", strength=0.3).pair_values(grid))
    tensor = lhf.two_body_tensor(pot, oset24, grid)
    pair, deviation, kept = helpers.dense_two_body_tensor(pot, oset24, grid)
    assert np.abs(tensor.pair - pair).max() <= 2e-15 * np.abs(pair).max()
    assert helpers.symmetry_deviations(tensor.pair) == (0.0, 0.0)
    assert tensor.rule_kept == kept == 1.0 and tensor.rank is None
    assert abs(tensor.symmetry_deviation - deviation) <= 1e-15


@pytest.mark.parametrize("size", [1e-6, 1e-12])
def test_block_checks_see_a_perturbed_gaussian_quadrature(size, monkeypatch):
    # a shift of the x1 DFT columns breaks R_bb(k) = conj(R_bb(-k)) of the
    # diagonal pair densities, which the self-paired block T = 0 holds; at M = 4
    # the blocks are T = 0 and T = 2 (each its own image) and the pair T = 1, 3
    oset, pot, grid = rule_case("gaussian-M4")
    exact = lhf.two_body_tensor(pot, oset, grid)
    columns = manybody.dft_columns

    def perturbed(k, G):
        E, at, minus = columns(k, G)
        return (E + size * 1j if G == grid.G1 else E), at, minus
    monkeypatch.setattr(manybody, "dft_columns", perturbed)
    if size == 1e-6:
        with pytest.raises(SymmetryViolation, match="tensor symmetry deviation"):
            lhf.two_body_tensor(pot, oset, grid)
        return
    tensor = lhf.two_body_tensor(pot, oset, grid)
    assert tensor.symmetry_deviation > 1e-13
    assert helpers.symmetry_deviations(tensor.pair) == (0.0, 0.0)
    assert np.array_equal(tensor.pair == 0, exact.pair == 0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_propagator_rejects_non_finite_generator():
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(2, 1), [1.0, np.inf], None)
    with pytest.raises(NonFiniteValue, match="exact generator"):
        manybody.ExactPropagator(H)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_propagator_rejects_an_infinite_norm(rng):
    # every entry finite, the 1-norm beyond the float range
    v, _ = helpers.random_interaction_tensor(rng, 6)
    tensor = InteractionTensor(values=v / np.abs(v).max() * 4e307, sup_norm=1.0)
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(6, 3), np.zeros(6), tensor)
    assert np.all(np.isfinite(H.W)) and np.all(np.isfinite(H.diagonal))
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
    # v and F are each one (g, K L, K L) buffer of momentum blocks of the pair
    # layout; pair and values are dense copies that hold the blocks' entries
    grid = oset24.grid
    t = lhf.two_body_tensor(pot, oset24, grid)
    K, g = t.K, t.modulus
    assert t.blocks.shape == t.anti.shape == (g, K * K // g, K * K // g)
    assert t.blocks.flags.c_contiguous and t.anti.flags.c_contiguous
    pair = t.pair
    assert pair.shape == (K * K, K * K) and not np.shares_memory(pair, t.blocks)
    assert np.array_equal(pair.reshape(K, K, K, K), t.values.transpose(0, 2, 1, 3))
    assert np.array_equal(np.sort_complex(pair[pair != 0]),
                          np.sort_complex(t.blocks[t.blocks != 0]))


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
    exch, herm = helpers.symmetry_deviations(pair)
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
    assert helpers.symmetry_deviations(t.pair) == (0.0, 0.0)
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


@pytest.mark.parametrize("kind,sigma,K", [("zero", None, 30), ("separable-cosine", None, 30),
                                          ("periodic-gaussian", None, 30),
                                          ("periodic-gaussian", 0.3, 30),
                                          ("tabulated", None, 30),
                                          ("periodic-gaussian", None, 60)],
                         ids=["zero", "separable-cosine", "periodic-gaussian",
                              "periodic-gaussian-0.3", "tabulated", "periodic-gaussian-K60"])
def test_tensor_peak_memory_is_within_its_byte_prediction(kind, sigma, K, monkeypatch):
    # K = 30 (configs/k30n10.cfg) on a 48 x 48 tensor grid; the table is the
    # Gaussian's pair values, and at sigma = 0.3 the Gaussian keeps most of
    # the 2304 modes.  K = 60 is the config with K60_CHANGES, on 256 x 256.
    # The prediction is tensor_bytes, the one the cap checks.
    config = lhf.load_config(ROOT / "configs/k30n10.cfg")
    grid = lhf.Grid(L1=config.domain.L1, L2=config.domain.L2, G1=48, G2=48)
    if K == 60:
        config = dataclasses.replace(config, **K60_CHANGES)
        grid = config.tensor_grid
    oset = lhf.build_orbital_set(config, grid=grid)
    if kind == "periodic-gaussian":
        pot = config.potential if sigma is None else dataclasses.replace(config.potential,
                                                                         sigma=sigma)
    elif kind == "tabulated":
        pot = lhf.PotentialSpec(kind=kind, table=config.potential.pair_values(grid))
    else:
        pot = lhf.PotentialSpec(kind=kind, strength=0.7)
    tracemalloc.start()
    try:
        lhf.two_body_tensor(pot, oset, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oset.size == K
    M, P = oset.flux_count, grid.G1 * grid.G2
    factors = manybody.tensor_factors(pot, K, M, grid)
    R = sum(len(columns) for _, columns in factors[2])
    assert R == (len(pot.fourier_modes(grid)[1]) if kind == "periodic-gaussian"
                 else {"zero": 0, "separable-cosine": 1, "tabulated": P}[kind])
    predicted = manybody.tensor_bytes(K, M, grid, *factors)
    assert peak <= 1.1 * predicted
    monkeypatch.setattr(manybody, "TENSOR_BYTE_CAP", predicted)
    lhf.two_body_tensor(pot, oset, grid)
    monkeypatch.setattr(manybody, "TENSOR_BYTE_CAP", predicted - 1)
    with pytest.raises(TooLarge, match=f"with {R} .* over the budget"):
        lhf.two_body_tensor(pot, oset, grid)


# --- Hamiltonian assembly ------------------------------------------------------

def test_assemble_no_interaction_is_diagonal(oset_m3):
    basis = lhf.enumerate_determinants(9, 3)
    zero = InteractionTensor(values=np.zeros((9,) * 4), sup_norm=0.0)
    for tensor in (None, zero):
        H = lhf.assemble_hamiltonian(basis, oset_m3.energies, tensor)
        dense = H.toarray()
        assert np.max(np.abs(dense - np.diag(np.diag(dense)))) == 0.0
        expect0 = oset_m3.energies[[0, 1, 2]].sum()
        assert dense[0, 0] == pytest.approx(expect0, rel=1e-14)
        assert H.nnz == 0 and H.W is None


def test_assemble_hermitian(tensor_m3, oset_m3):
    basis = lhf.enumerate_determinants(9, 2)
    H = lhf.assemble_hamiltonian(basis, oset_m3.energies, tensor_m3).toarray()
    assert abs(H - H.conj().T).max() <= 1e-10


@pytest.mark.parametrize("name", ["no-symmetry", *RULE_CASES])
def test_antisymmetrized_pairs_match_a_loop(rng, name):
    # W's block of H over ascending pairs in np.triu_indices order; the
    # momentum-blocked tensors hold the rule's exact zeros; a v with no
    # symmetry is refused when the tensor is made
    if name == "no-symmetry":
        with pytest.raises(SymmetryViolation):
            InteractionTensor(values=random_complex(rng, 6, 6, 6, 6), sup_norm=1.0)
        return
    oset, pot, grid = rule_case(name)
    tensor = lhf.two_body_tensor(pot, oset, grid)
    v = tensor.values
    pairs = list(itertools.combinations(range(tensor.K), 2))
    loop = np.array([[v[p, q, r, s] - v[p, q, s, r] for r, s in pairs] for p, q in pairs])
    assert np.array_equal(helpers.antisymmetrized_pairs(tensor), loop)


@pytest.mark.parametrize("K,N", [(4, 2), (6, 2), (5, 3), (4, 1), (4, 4)])
def test_assemble_matches_tensor_space_oracle(rng, K, N):
    v, _ = helpers.random_interaction_tensor(rng, K)
    energies = rng.uniform(0.2, 2.0, K)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(K, N)
    H = lhf.assemble_hamiltonian(basis, energies, tensor).toarray()
    oracle = helpers.projected_hamiltonian(basis, energies, v)
    assert np.max(np.abs(H - oracle)) < 1e-9


def assert_same_action(rng, H, oracle):
    """H @ x for random x within 1e-13 max |H| sum |x| of the CSR oracle, and
    H's diagonal within 1e-13 max |H|: the two sum their terms in different
    orders."""
    scale = np.abs(oracle.data).max(initial=0)
    for x in random_complex(rng, 3, H.shape[1]):
        assert np.abs(H @ x - oracle @ x).max() <= 1e-13 * scale * np.abs(x).sum()
    assert np.abs(H.diagonal - oracle.diagonal()).max() <= 1e-13 * scale


def assert_same_operator(rng, H, oracle):
    """assert_same_action, and H.toarray() within 1e-13 max |H| of the
    oracle.  Returns the dense H."""
    assert_same_action(rng, H, oracle)
    dense = H.toarray()
    assert np.abs(dense - oracle.toarray()).max() <= 1e-13 * np.abs(oracle.data).max(initial=0)
    return dense


def momentum_masked(v, modulus=3):
    """v kept where a + b = g + d mod modulus: exact zeros in H, symmetries kept."""
    a, b, g, d = np.ix_(*[np.arange(len(v))] * 4)
    return np.where((a + b - g - d) % modulus == 0, v, 0)


@pytest.mark.parametrize("K,N,masked", [(4, 2, False), (5, 3, False), (8, 3, False),
                                        (4, 1, False), (4, 4, False), (9, 4, True),
                                        (12, 4, True), (8, 7, False), (9, 8, False)])
def test_assemble_matches_coo_oracle_on_random_tensors(rng, K, N, masked):
    v, _ = helpers.random_interaction_tensor(rng, K, P=K + 3)
    tensor = InteractionTensor(values=momentum_masked(v) if masked else v, sup_norm=1.0)
    energies = rng.uniform(0.2, 2.0, K)
    basis = lhf.enumerate_determinants(K, N)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    dense = assert_same_operator(rng, H, helpers.coo_hamiltonian(basis, energies, tensor))
    if masked:
        assert 0 < np.count_nonzero(dense) < basis.dim * (
            1 + N * (K - N) + math.comb(N, 2) * math.comb(K - N, 2))


def test_near_full_operator_matches_coo_oracle(rng):
    # K = 20, N = 18: 190 determinants, but each matvec multiplies W (190 x
    # 190) by 190 x C(20,16) = 4,845 two-hole amplitudes, so no dense H here
    v, _ = helpers.random_interaction_tensor(rng, 20, P=23)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    energies = rng.uniform(0.2, 2.0, 20)
    basis = lhf.enumerate_determinants(20, 18)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    assert_same_action(rng, H, helpers.coo_hamiltonian(basis, energies, tensor))


def shifted_norm(dense):
    """||H - tr H / dim||_1 of a dense H."""
    return np.abs(dense - np.trace(dense) / len(dense) * np.eye(len(dense))).sum(axis=0).max()


# nnz of H: the selection rule's exact zeros leave 80,943 of 99,495, 1,812 of
# 5,376 and 115,260 of 809,900 entries; w_nnz: the nonzero entries of W.  The
# Gaussian's 432 include W[(1 2), (2 7)] = v[1,2,2,7] - v[1,2,7,2] and its
# mirror, +-2.2e-20i (1.8e-20 of max |W|): round-off of the block products,
# where one dense product cancelled it exactly
@pytest.mark.parametrize("path,changes,nnz,w_nnz", [
    ("configs/k16n4.cfg", {"M": 3, "n_max": 3}, 80943, 3114),   # exact_k12n4: cosine, K=12, N=4
    ("configs/gaussian.cfg", {"N": 3}, 1812, 432),               # compare_k9n3: Gaussian, K=9, N=3
    ("configs/k16n4.cfg", {}, 115260, 1832)],                    # cosine, K=16, N=4, M=8
    ids=["configs/k16n4.cfg-changes0", "configs/gaussian.cfg-changes1",
         "configs/k16n4.cfg-changes2"])
def test_assemble_matches_coo_oracle_on_shipped_kernels(rng, path, changes, nnz, w_nnz):
    problem = Problem(dataclasses.replace(lhf.load_config(ROOT / path), **changes))
    basis, tensor, H = problem.det_basis, problem.tensor, problem.H
    dense = assert_same_operator(rng, H, helpers.coo_hamiltonian(basis, problem.energies,
                                                                 tensor))
    assert np.count_nonzero(dense) == nnz and H.nnz == w_nnz
    assert np.count_nonzero(dense - dense.conj().T) == 0          # exactly Hermitian
    # the 1-norm bound from W alone: within 1.25 times the exact norm
    exact = shifted_norm(dense)
    assert exact <= H.norm <= 1.25 * exact


@pytest.mark.parametrize("K,N,masked", [(4, 2, False), (6, 2, True), (8, 3, False),
                                        (9, 4, True), (8, 7, False)],
                         ids=["4-2", "6-2-masked", "8-3", "9-4-masked", "8-7"])
def test_operator_norm_bounds_the_dense_shifted_norm(rng, K, N, masked):
    # exact at N = 2, where each column of H is one column of W
    v, _ = helpers.random_interaction_tensor(rng, K)
    tensor = InteractionTensor(values=momentum_masked(v) if masked else v, sup_norm=1.0)
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(K, N), rng.uniform(-2, 2, K),
                                 tensor)
    exact = shifted_norm(H.toarray())
    assert H.norm >= exact * (1 - 1e-12)
    if N == 2:
        assert H.norm == pytest.approx(exact, rel=1e-12)


# --- H on pair-momentum blocks of W ---------------------------------------------

BLOCKED_CASES = ["example-g1", "k16n4-g2", "gaussian-g3", "gaussian-g8", "gaussian-g2"]


@functools.lru_cache(maxsize=None)
def blocked_case(name):
    """(basis, energies, tensor): a shipped config at N = 3 but k16n4.cfg
    (N = 4), of g = 1, 2, 3 and 8 (gaussian.cfg at M = 8, K = 24), and
    gaussian.cfg at M = 2, K = 6, whose g = 2 classes of 9 and 6 pairs
    leave 3 padding rows."""
    path, changes = {"example-g1": ("configs/example.cfg", {"N": 3}),
                     "k16n4-g2": ("configs/k16n4.cfg", {}),
                     "gaussian-g3": ("configs/gaussian.cfg", {"N": 3}),
                     "gaussian-g8": ("configs/gaussian.cfg", {"M": 8, "N": 3}),
                     "gaussian-g2": ("configs/gaussian.cfg", {"M": 2, "N": 3})}[name]
    problem = Problem(dataclasses.replace(lhf.load_config(ROOT / path), **changes))
    return problem.det_basis, problem.energies, problem.tensor


def blocked_dense(name):
    """H of blocked_case(name) and its dense matrix (up to 2024^2 entries,
    so not kept between tests)."""
    H = lhf.assemble_hamiltonian(*blocked_case(name))
    return H, H.toarray()


@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_blocked_matvec_matches_the_dense_w_path(name, rng):
    basis, energies, tensor = blocked_case(name)
    H, dense = blocked_dense(name)
    assert tensor.modulus == int(name[-1]) and len(H.W) == tensor.modulus
    padding = tensor.pair_blocks.pairs == math.comb(basis.K, 2)
    if name == "gaussian-g2":                  # padding rows of F: zero, and zero in W
        assert padding.sum() == 3 and not H.W[padding].any()
    oracle = helpers.dense_w_matvec(basis, energies, tensor)
    scale = np.abs(dense).max()
    for x in random_complex(rng, 3, basis.dim):
        x /= np.linalg.norm(x)
        y = H @ x
        assert np.abs(y - oracle(x)).max() <= 1e-15 * scale
        if tensor.modulus == 1:
            assert y.tobytes() == oracle(x).tobytes()


@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_blocked_hamiltonian_is_exactly_hermitian(name):
    dense = blocked_dense(name)[1]
    assert np.array_equal(dense, dense.conj().T)


@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_nnz_counts_the_dense_w_with_its_diagonal(name):
    basis, energies, tensor = blocked_case(name)
    W = helpers.antisymmetrized_pairs(tensor)
    a, b = np.triu_indices(basis.K, 1)
    W[np.diag_indices(len(a))] += (energies[a] + energies[b]) / (basis.N - 1)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    assert H.nnz == np.count_nonzero(W) > 0


@pytest.mark.parametrize("name", ["example-g1", "k16n4-g2", "gaussian-g8"])
def test_hamiltonian_table_is_the_slot_remap_of_the_two_hole_table(name):
    # H builds its two-hole table straight in the slots of W's blocks, the
    # one two-hole table alive after assembly; holes(2)'s plain ranks,
    # remapped, give the same entries (at g = 1 the slots are the ranks)
    shared, energies, tensor = blocked_case(name)
    basis = lhf.enumerate_determinants(shared.K, shared.N)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    assert 2 not in basis._holes
    at, sign = basis.holes(2)
    n_holes = math.comb(basis.K, basis.N - 2)
    slot = tensor.pair_blocks.slot
    assert np.array_equal(H.at, slot[at // n_holes] * n_holes + at % n_holes)
    assert np.array_equal(H.sign, sign)
    if tensor.modulus == 1:
        assert np.array_equal(H.at, at)


@pytest.mark.parametrize("K,N,n", [(4, 1, 1), (5, 3, 1), (9, 3, 2), (12, 4, 2), (8, 7, 2),
                                   (9, 8, 1)])
def test_put_and_gather_give_the_bits_of_whole_products(rng, K, N, n):
    basis = lhf.enumerate_determinants(K, N)
    at, sign = basis.holes(n)
    x = random_complex(rng, basis.dim)
    shape = (math.comb(K, n), math.comb(K, N - n))
    expect = np.zeros(shape, dtype=np.complex128)
    helpers.signed_put(expect, at, sign, x)
    assert basis.hole_amplitudes(x, n).tobytes() == expect.tobytes()
    Z = random_complex(rng, *shape)
    expect = helpers.signed_sum(Z, at, sign)
    assert manybody.gather_signed(Z.reshape(-1), at, sign).tobytes() == expect.tobytes()


def test_one_matvec_holds_no_place_set_temporary(rng):
    # the put and the gather hold a few vectors of dim, not the (C(N,2), dim)
    # products sign * x and Z.take(at) * sign
    v, _ = helpers.random_interaction_tensor(rng, 16, P=19)
    basis = lhf.enumerate_determinants(16, 4)
    H = lhf.assemble_hamiltonian(basis, np.ones(16), InteractionTensor(values=v, sup_norm=1.0))
    x = random_complex(rng, basis.dim)
    H @ x
    tracemalloc.start()
    try:
        H @ x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * math.comb(4, 2) * basis.dim


def test_assembly_peak_memory_is_bounded_by_the_budget(rng):
    v, _ = helpers.random_interaction_tensor(rng, 16, P=19)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(16, 4)
    tracemalloc.start()
    try:
        lhf.assemble_hamiltonian(basis, np.ones(16), tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * manybody.hamiltonian_bytes(16, 4)


def test_byte_budget_admits_k24n6_and_rejects_k30n27():
    nbytes = manybody.hamiltonian_bytes
    assert nbytes(24, 6) <= manybody.H_BYTE_CAP < nbytes(30, 27)
    assert math.comb(30, 27) < math.comb(24, 6) <= manybody.DET_SPACE_CAP


def test_byte_budget_is_the_size_of_the_operator(rng, monkeypatch):
    # g = 1: one (1, C(7,2), C(7,2)) block, and H's table is the only
    # two-hole table: the basis caches none
    v, _ = helpers.random_interaction_tensor(rng, 7)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(7, 3)
    nbytes = manybody.hamiltonian_bytes(7, 3)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes)
    H = lhf.assemble_hamiltonian(basis, np.ones(7), tensor)
    assert H.W.shape == (1, 21, 21) and H._D2.shape == H._Z.shape == (1, 21, 7)
    assert 2 not in basis._holes
    assert H._D2.nbytes + H._Z.nbytes + H.at.nbytes + H.W.nbytes == nbytes
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes - 1)
    with pytest.raises(TooLarge, match="over the budget"):
        lhf.assemble_hamiltonian(basis, np.ones(7), tensor)


def test_byte_budget_is_the_size_of_the_blocked_operator(monkeypatch):
    # g = 8: C(24,2) = 276 pairs in 8 classes of at most P = 36, so D_2 and Z
    # have 288 rows, W is (8, 36, 36), and H holds its slot table alone: the
    # basis caches no two-hole table
    _, energies, tensor = blocked_case("gaussian-g8")
    basis = lhf.enumerate_determinants(24, 3)          # blocked_case's is shared
    nbytes = manybody.hamiltonian_bytes(24, 3, 8)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes)
    H = lhf.assemble_hamiltonian(basis, energies, tensor)
    assert H.W.shape == (8, 36, 36) and H._D2.shape == H._Z.shape == (8, 36, 24)
    assert 2 not in basis._holes
    assert H._D2.nbytes + H._Z.nbytes + H.at.nbytes + H.W.nbytes == nbytes
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes - 1)
    with pytest.raises(TooLarge, match=r"\(288 x 24 two-hole amplitudes\), over the budget"):
        lhf.assemble_hamiltonian(basis, energies, tensor)


def test_two_hole_table_over_the_byte_budget_raises_before_it_is_built(rng, monkeypatch):
    # K = 8, N = 7: 8 determinants, but D_2 and Z hold C(8,2) C(8,5) = 1,568 entries each
    v, _ = helpers.random_interaction_tensor(rng, 8)
    tensor = InteractionTensor(values=v, sup_norm=1.0)
    basis = lhf.enumerate_determinants(8, 7)
    nbytes = manybody.hamiltonian_bytes(8, 7)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes)
    H = lhf.assemble_hamiltonian(basis, np.ones(8), tensor)
    assert np.count_nonzero(H.toarray()) == 8 * 8                    # dense 8 x 8

    def unlisted(*args):
        raise AssertionError("a hole table was built")
    monkeypatch.setattr(lhf.DeterminantBasis, "holes", unlisted)
    monkeypatch.setattr(manybody, "H_BYTE_CAP", nbytes - 1)
    with pytest.raises(TooLarge, match=r"\(28 x 56 two-hole amplitudes\), over the budget"):
        lhf.assemble_hamiltonian(basis, np.ones(8), tensor)


def test_h_over_the_byte_budget_raises_before_listing_replacements(monkeypatch):
    # near full filling most of D_2 is never written: K = 30, N = 27
    def unlisted(*args):
        raise AssertionError("a hole table was built")
    monkeypatch.setattr(lhf.DeterminantBasis, "holes", unlisted)
    config = dataclasses.replace(lhf.load_config(ROOT / "configs/k30n10.cfg"), N=27)
    problem = Problem(config)
    assert problem.det_basis.dim == 4060
    # g = 6 classes of P = 75 pairs hold the 435: 450 rows of D_2 and Z
    with pytest.raises(TooLarge, match=r"needs 2\.06 GB to apply \(450 x 142506 "):
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

def _random_hamiltonian(rng, K, N, scale=1.0, masked=False):
    """assemble_hamiltonian on a random tensor and random energies, both
    times scale."""
    v, _ = helpers.random_interaction_tensor(rng, K, P=K + 3, scale=scale)
    tensor = InteractionTensor(values=momentum_masked(v) if masked else v, sup_norm=scale)
    return lhf.assemble_hamiltonian(lhf.enumerate_determinants(K, N),
                                    rng.uniform(-scale, scale, K), tensor)


def test_evolve_time_zero_is_identity(rng):
    H = _random_hamiltonian(rng, 6, 3)
    psi = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi /= np.linalg.norm(psi)
    state = ManyBodyState(basis=None, coefficients=psi)
    out = lhf.evolve_exact(state, H, 0.0, lhf.PhysicalConstants())
    assert np.allclose(out.coefficients, psi, atol=1e-12)


def test_evolve_eigenvector_gets_phase(rng):
    H = _random_hamiltonian(rng, 5, 2)
    w, V = np.linalg.eigh(H.toarray())
    state = ManyBodyState(basis=None, coefficients=V[:, 3])
    out = lhf.evolve_exact(state, H, 0.8, lhf.PhysicalConstants())
    expect = np.exp(-1j * w[3] * 0.8) * V[:, 3]
    assert np.max(np.abs(out.coefficients - expect)) < 1e-9


def test_evolve_matches_dense_oracle(rng):
    H = _random_hamiltonian(rng, 6, 3)
    psi = rng.normal(size=20) + 1j * rng.normal(size=20)
    psi /= np.linalg.norm(psi)
    state = ManyBodyState(basis=None, coefficients=psi)
    constants = lhf.PhysicalConstants(hbar=0.7)
    dense = helpers.dense_propagate(H, psi, 1.3, hbar=0.7)
    out = lhf.evolve_exact(state, H, 1.3, constants)
    assert np.max(np.abs(dense - out.coefficients)) < 1e-8
    assert abs(np.linalg.norm(out.coefficients) - 1.0) < 1e-9


def test_evolve_large_norm_matches_dense_oracle(rng):
    H = _random_hamiltonian(rng, 9, 3, scale=5.0)
    psi = rng.normal(size=84) + 1j * rng.normal(size=84)
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
    H = _random_hamiltonian(rng, 9, 3, scale=5.0)
    psi = rng.normal(size=84) + 1j * rng.normal(size=84)
    psi /= np.linalg.norm(psi)
    t = 5.0
    assert t * shifted_norm(H.toarray()) > 3 * 64
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


def _zero_diagonal(rng):
    # N = 2 and no one-body energies: H_ii = v[pqpq] - v[pqqp], zeroed by
    # masking the tensor where (g, d) is (a, b) or (b, a), a mask its
    # symmetries keep; the propagator's shift applies all the same
    v, _ = helpers.random_interaction_tensor(rng, 6)
    a, b, g, d = np.ix_(*[np.arange(6)] * 4)
    v = np.where(((a == g) & (b == d)) | ((a == d) & (b == g)), 0, v)
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(6, 2), np.zeros(6),
                                 InteractionTensor(values=v, sup_norm=1.0))
    assert np.all(H.diagonal == 0) and H.mu == 0
    return H


ADVANCE_CASES = pytest.mark.parametrize("make_H,t,hbar", [
    (lambda rng: _random_hamiltonian(rng, 6, 3), 1e-3, 1.0),
    # t ||A||_1 > 64: expm_multiply sizes its steps from a norm estimate
    (lambda rng: _random_hamiltonian(rng, 9, 3, scale=5.0), 2.0, 1.0),
    (lambda rng: _random_hamiltonian(rng, 7, 3), 1.3, 0.7),
    (_zero_diagonal, 0.9, 1.0),
    (lambda rng: _random_hamiltonian(rng, 9, 1), 0.9, 0.7),
    (lambda rng: _random_hamiltonian(rng, 9, 8, masked=True), 0.9, 0.7),
], ids=["small-t", "large-norm", "hbar-0.7", "no-diagonal", "one-body", "near-full"])


@ADVANCE_CASES
def test_advance_matches_public_expm_multiply(rng, make_H, t, hbar):
    from scipy.sparse.linalg import expm_multiply
    H = make_H(rng)
    psi = random_complex(rng, H.shape[0])
    psi /= np.linalg.norm(psi)
    prop = manybody.ExactPropagator(H, hbar)
    # the oracle's randomized 1-norm estimate draws from the global
    # generator; given H as a CSR it takes the exact trace and norm
    dense = sp.csr_matrix(H.toarray())
    saved = np.random.get_state()
    np.random.seed(0)
    try:
        expect = expm_multiply((-1j * t / hbar) * dense, psi)
    finally:
        np.random.set_state(saved)
    assert np.max(np.abs(prop.advance(psi, t) - expect)) <= 1e-12


@ADVANCE_CASES
@pytest.mark.filterwarnings("error")
def test_scaled_hamiltonian_serves_expm_multiply(rng, make_H, t, hbar):
    # the benchmark's exact oracle: a scalar times H is the dense array, so
    # expm_multiply reads its trace and 1-norm exactly, draws no random
    # number and warns of nothing
    from scipy.sparse.linalg import expm_multiply
    H = make_H(rng)
    psi = random_complex(rng, H.shape[0])
    psi /= np.linalg.norm(psi)
    scaled = (-1j * t / hbar) * H
    assert type(scaled) is np.ndarray
    assert np.array_equal(scaled, (-1j * t / hbar) * H.toarray())
    expect = expm_multiply(scaled, psi)
    assert expm_multiply(scaled, psi).tobytes() == expect.tobytes()
    assert np.max(np.abs(manybody.ExactPropagator(H, hbar).advance(psi, t) - expect)) <= 1e-12


@ADVANCE_CASES
def test_advance_gives_the_bits_and_matvecs_of_the_exact_max_loop(rng, make_H, t, hbar):
    # max |F| is read only near the end of a Taylor sum, with the same stops
    H = make_H(rng)
    psi = random_complex(rng, H.shape[0])
    psi /= np.linalg.norm(psi)
    prop = manybody.ExactPropagator(H, hbar)
    expect, matvecs = helpers.taylor_advance(H, psi, t, hbar)
    assert prop.advance(psi, t).tobytes() == expect.tobytes()
    assert prop.matvecs == matvecs > 0


def test_hamiltonian_takes_a_vector_or_a_column_and_nothing_else(rng):
    H = _random_hamiltonian(rng, 6, 3)
    x = random_complex(rng, H.shape[0])
    y = H @ x
    assert y.shape == (H.shape[0],)
    assert np.array_equal(H @ x[:, None], y) and np.array_equal(H.matvec(x), y)
    assert np.array_equal(H.rmatvec(x), y)
    for shape in [(H.shape[0], 2), (H.shape[0] + 1,), (1, H.shape[0]), ()]:
        with pytest.raises(DimensionMismatch, match="operand of shape"):
            H @ np.ones(shape)


def test_propagator_holds_the_operator_it_was_given(rng):
    H = _random_hamiltonian(rng, 6, 3)
    prop = manybody.ExactPropagator(H, 0.7)
    assert prop.H is H and prop.mu == H.mu and prop.norm == H.norm / 0.7


def test_one_propagator_gives_the_bits_of_a_new_one_per_call(rng):
    H = _random_hamiltonian(rng, 8, 3)
    psi = random_complex(rng, 56)
    prop = manybody.ExactPropagator(H, 0.8)
    for t in (0.1, 0.25, 0.1, -0.3, 0.1):
        fresh = manybody.ExactPropagator(H, 0.8).advance(psi, t)
        reused = prop.advance(psi, t)
        assert reused.tobytes() == fresh.tobytes()
        psi = reused


def test_propagator_counts_its_matvecs(rng):
    H = _random_hamiltonian(rng, 7, 3)
    psi = random_complex(rng, 35)
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
    prop = manybody.ExactPropagator(_random_hamiltonian(rng, 4, 2))
    with pytest.raises(InvalidValue, match="'t'"):
        prop.advance(random_complex(rng, 6), t)


@pytest.mark.parametrize("top", [1.5e150, 1e308])
def test_advance_refuses_a_plan_over_the_matvec_cap(top):
    # a finite but huge spectrum plans ~1e147 Taylor steps for t = 0.01; at
    # 1e308, norm / theta_m overflows for the small m
    H = lhf.assemble_hamiltonian(lhf.enumerate_determinants(2, 1), [0.0, top], None)
    prop = manybody.ExactPropagator(H)
    m, s = manybody.taylor_parameters(0.01 * prop.norm)
    assert m * s > manybody.TAYLOR_MATVEC_CAP
    with pytest.raises(TooLarge, match=re.escape(f"plans {float(m) * s:.3g} matvecs")):
        prop.advance(np.ones(2, dtype=complex), 0.01)
    assert prop.matvecs == 0


def test_advance_backward_matches_dense_oracle(rng):
    H = _random_hamiltonian(rng, 7, 3)
    psi = random_complex(rng, 35)
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
