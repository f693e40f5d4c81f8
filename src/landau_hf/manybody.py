"""Antisymmetric N-particle space over the truncated basis.

Conventions: a determinant is a strictly increasing tuple of occupied
single-particle indices; the reference many-body basis vector for occupation
(p_1 < ... < p_N) is the wedge e_{p_1} ^ ... ^ e_{p_N}.  Two-body matrix
elements are stored in physicists' order,

    v[a, b, g, d] = <e_a (x) e_b | V_12 | e_g (x) e_d>,

so a and g belong to the first particle, b and d to the second.

two_body_tensor writes exact zeros where the magnetic translations of the
torus forbid an entry (Haldane, PRL 55, 2095 (1985)): the x2 momentum m mod
M of each orbital is exact, so with the cosine kernel m_g - m_a and m_d - m_b
must each be +-harmonic2 mod M, and with the translation-invariant Gaussian
kernel m_a + m_b = m_g + m_d mod M; harmonics are read at the grid's signed
frequency (PotentialSpec.x2_transfers).  The zeros are set in the one-body
factors before the contraction, so assemble_hamiltonian, which drops exact
zeros, stores and multiplies only what the rule allows: 1/M of the pairs
for the Gaussian, 4/M^2 for the cosine at harmonic2 = 1 (M > 2).

DeterminantBasis.replacement_rows tabulates, for a block of determinants at
once, the single or double orbital replacements with target rank and
fermionic sign, both read from bit strings of the occupations with no sort;
replacements flattens them block by block.  assemble_hamiltonian consumes
both and writes H as CSR directly, a bounded block of rows at a time, after
checking that its closed-form size fits H_BYTE_CAP; the single ones, kept as
.singles, also feed the one-body reduced density matrix and
DeterminantBasis.one_body.

Exact dynamics has one propagator, ExactPropagator: the action of
exp(-i H t / hbar) on a vector from the sparse H, used as given, by truncated
Taylor sums whose cost grows with t * ||H||_1 rather than with dim^3.  The
shift by the mean of H's spectrum is applied inside each matvec, so the
set-up is that mean and one 1-norm; an advance picks its Taylor degree and
step count from the interval, then does matvecs alone and draws no random number.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import OrbitalSet
from .config import Grid, PhysicalConstants
from .errors import (DimensionMismatch, GridMismatch, InvalidValue,
                     LengthMismatch, NonFiniteValue, NotOrthonormal,
                     SymmetryViolation, TooLarge, TruncationTooSmall)
from .potentials import PotentialSpec

DET_SPACE_CAP = 200_000
REPLACEMENT_BLOCK = 256          # source determinants per replacements() block
ASSEMBLY_BLOCK = 2 ** 15         # candidate entries of H per assemble_hamiltonian block
H_BYTE_CAP = 2 ** 30             # largest predicted CSR size of H, in bytes
TENSOR_SYM_TOL = 1e-8            # largest raw asymmetry of v, relative to max(max |v|, 1)
SLATER_GRAM_TOL = 1e-6           # largest |Gram - 1| entry embed_slater accepts
TAYLOR_TOL = 2.0 ** -53          # truncation tolerance of ExactPropagator's Taylor sums
# theta_m for TAYLOR_TOL (Al-Mohy & Higham 2011, Table 3.1; m <= 30 from
# Higham, Functions of Matrices, Table A.3): the largest |t| ||A||_1 / s at
# which m Taylor terms per step meet the tolerance
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9}


@dataclass(frozen=True)
class DeterminantBasis:
    K: int
    N: int
    occupations: np.ndarray          # (dim, N) int, rows sorted lexicographically

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def _binomials(self) -> np.ndarray:
        return np.array([[min(math.comb(a, b), self.dim) for b in range(self.N + 1)]
                         for a in range(self.K)], dtype=np.int64)

    def rank(self, occ) -> np.ndarray:
        """Row of each increasing occupation (..., N) in the lexicographic
        order, C(K,N) - 1 - sum_k C(K-1-c_k, N-k) (combinatorial numbers);
        no term exceeds dim - 1, so binomials clipped at dim fit in int64."""
        terms = self._binomials[self.K - 1 - np.asarray(occ), self.N - np.arange(self.N)]
        return self.dim - 1 - terms.sum(axis=-1)

    def lookup(self, occ) -> int:
        occ = np.asarray(occ)
        if (occ.shape != (self.N,) or occ.dtype.kind not in "iu"
                or np.any(np.diff(occ, prepend=-1, append=self.K) <= 0)):
            raise KeyError(f"{occ.tolist()} is not an occupation of {self.N} of {self.K}")
        return int(self.rank(occ))

    @cached_property
    def _bit_tables(self) -> tuple:
        """Occupations as little-endian bit strings, byte k holding orbitals
        8k..8k+7; per byte k: one[k, o] the bit of orbital o, below[k, o] the
        bits of the orbitals under o, and terms[k, 256 c + b] the sum of rank's
        terms C(K-1-o, N-c-m) over the set bits o of byte value b, m of them
        under o and c occupied below the byte (a term past N or K counts 0)."""
        K, N = self.K, self.N
        one, below = (np.packbits(x, axis=0, bitorder="little")
                      for x in (np.eye(K, dtype=bool), np.tri(K, k=-1, dtype=bool).T))
        t = np.arange(8)
        bits = (np.arange(256)[:, None] >> t) & 1                         # [b, t]
        place = np.arange(N + 1)[:, None, None] + np.cumsum(bits, axis=1) - bits
        orbital = 8 * np.arange(len(one))[:, None, None, None] + t        # [k, ., ., t]
        valid = (bits == 1) & (place < N) & (orbital < K)
        terms = self._binomials[np.maximum(K - 1 - orbital, 0), np.maximum(N - place, 0)]
        return one, below, np.where(valid, terms, 0).sum(axis=-1).reshape(len(one), -1)

    def replacement_rows(self, n: int, start: int, stop: int) -> tuple:
        """Every replacement of n occupied by n empty orbitals from the source
        rows start..stop-1, as (j, P, Q, sign): the orbitals P (B, r, n)
        removed and Q (B, a, n) added, both ascending, and per pair (B, r, a)
        the row j of the target and the sign (-1)^(sum pos(P) + sum newpos(Q)),
        places in the source and the target: the parity of sorting after
        replacing in place.

        Nothing is sorted.  Byte by byte (_bit_tables), the target's bit
        string is the source's with the bits of P and Q flipped, its rank
        sums rank's terms from a table, and sum newpos(Q) is, mod 2, the
        number of target bits under an odd number of the q in Q."""
        K, N = self.K, self.N
        removed, added = (np.array(list(itertools.combinations(range(m), n)),
                                   dtype=np.int64).reshape(-1, n) for m in (N, K - N))
        occ = self.occupations[start:stop]
        held = np.zeros((len(occ), K), dtype=bool)
        held[np.arange(len(occ))[:, None], occ] = True
        P, Q = occ[:, removed], np.nonzero(~held)[1].reshape(len(occ), K - N)[:, added]
        held = np.packbits(held, axis=1, bitorder="little")

        def flips(table, X):
            return functools.reduce(np.bitwise_xor, (table[X[..., m]] for m in range(n)))

        total = np.zeros(P.shape[:2] + Q.shape[1:2], dtype=np.int64)
        at = np.zeros(total.shape, dtype=np.intp)            # 256 * occupied below byte k
        parity = removed.sum(axis=1)[:, None] % 2
        for k, (one, below, terms) in enumerate(zip(*self._bit_tables)):
            byte = (held[:, k, None] ^ flips(one, P))[:, :, None] | flips(one, Q)[:, None]
            total += terms.take(at + byte)
            at += np.left_shift(np.bitwise_count(byte), 8, dtype=np.intp)
            parity = parity ^ np.bitwise_count(byte & flips(below, Q)[:, None])
        return self.dim - 1 - total, P, Q, np.where(parity & 1, -1.0, 1.0)

    def replacements(self, n: int):
        """replacement_rows over blocks of REPLACEMENT_BLOCK source rows, as
        flat arrays (i, j, P, Q, sign): row j is row i with the orbitals P
        (E, n) replaced by Q (E, n), in the order (i, P, Q)."""
        for start in range(0, self.dim, REPLACEMENT_BLOCK):
            stop = min(start + REPLACEMENT_BLOCK, self.dim)
            j, P, Q, sign = self.replacement_rows(n, start, stop)
            shape = (*j.shape, n)
            yield (np.repeat(np.arange(start, stop), j[0].size), j.ravel(),
                   np.broadcast_to(P[:, :, None], shape).reshape(-1, n),
                   np.broadcast_to(Q[:, None], shape).reshape(-1, n), sign.ravel())

    @cached_property
    def singles(self) -> tuple:
        """replacements(1) in one piece, (i, j, removed p, added q, sign)."""
        i, j, P, Q, sign = (np.concatenate(parts) for parts in zip(*self.replacements(1)))
        return i, j, P[:, 0], Q[:, 0], sign

    def one_body(self, M) -> sp.csr_matrix:
        """dGamma(M) = sum_pq M[q, p] a+_q a_p, M acting on each orbital in
        turn, as CSR: sum of M[p, p] over the occupied p on the diagonal and
        sign * M[q, p] at (j, i) per single replacement, dim (1 + N (K - N)) entries."""
        M = np.asarray(M)
        if M.shape != (self.K, self.K):
            raise DimensionMismatch(f"one-body matrix {M.shape} for K={self.K}")
        i, j, p, q, sign = self.singles
        diag = np.arange(self.dim)
        vals = np.concatenate([M[self.occupations, self.occupations].sum(axis=1),
                               sign * M[q, p]])
        return sp.csr_matrix((vals, (np.concatenate([diag, j]), np.concatenate([diag, i]))),
                             shape=(self.dim, self.dim))


def enumerate_determinants(K: int, N: int) -> DeterminantBasis:
    """All C(K, N) increasing occupation tuples in lexicographic order."""
    if not (1 <= N <= K):
        raise DimensionMismatch(f"need 1 <= N <= K, got N={N}, K={K}")
    dim = math.comb(K, N)
    if dim > DET_SPACE_CAP:
        raise TooLarge(f"determinant space C({K},{N}) = {dim} exceeds cap {DET_SPACE_CAP}")
    occupations = np.array(list(itertools.combinations(range(K), N)), dtype=np.int64)
    return DeterminantBasis(K=K, N=N, occupations=occupations)


@dataclass
class ManyBodyState:
    basis: DeterminantBasis
    coefficients: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


def slater_overlap(orbs_a: np.ndarray, orbs_b: np.ndarray) -> complex:
    """det of the orbital overlap matrix; columns are orbitals."""
    A = np.asarray(orbs_a)
    B = np.asarray(orbs_b)
    if A.shape != B.shape:
        raise LengthMismatch(f"orbital sets have shapes {A.shape} vs {B.shape}")
    return complex(np.linalg.det(A.conj().T @ B))


@dataclass(frozen=True)
class InteractionTensor:
    """v[a, b, g, d] = <ab|V|gd> as a view of one (K^2, K^2) buffer in pair
    layout, pair[(a g), (b d)]; other memory orders are copied in once, here,
    where the zero flag is computed.  symmetry_deviation: the larger raw
    exchange/hermiticity deviation, relative to max(max |v|, 1).  rank: the
    terms the quadrature contracted (kept Fourier modes or separable terms),
    None for a dense table; rule_kept: the fraction of entries the selection
    rule leaves free, 1.0 without a rule."""

    values: np.ndarray
    sup_norm: float
    symmetry_deviation: float = 0.0
    rank: int | None = None
    rule_kept: float = 1.0
    pair: np.ndarray = field(init=False, repr=False, compare=False)
    _zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = np.shape(self.values)[0]
        pair = np.ascontiguousarray(np.transpose(self.values, (0, 2, 1, 3)))
        pair = pair.reshape(K * K, K * K)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "values", pair.reshape((K,) * 4).transpose(0, 2, 1, 3))
        object.__setattr__(self, "_zero", not np.any(pair))

    @property
    def K(self) -> int:
        return self.values.shape[0]

    def is_zero(self) -> bool:
        return self._zero


def symmetry_deviations(pair: np.ndarray) -> tuple[float, float]:
    """max |v[a,b,g,d] - v[b,a,d,g]| (exchange, the transpose of the pair
    matrix) and max |v[a,b,g,d] - conj(v[g,d,a,b])| (hermiticity) of a
    pair-layout tensor, one slab of fixed a at a time, each pair once."""
    S = pair.reshape((math.isqrt(pair.shape[0]),) * 4)        # [a, g, b, d]
    exch = max(np.abs(S[a, :, a:] - S[a:, :, a].transpose(2, 0, 1)).max()
               for a in range(len(S)))
    herm = max(np.abs(S[a, a:] - S[a:, a].transpose(0, 2, 1).conj()).max()
               for a in range(len(S)))
    return float(exch), float(herm)


def two_body_tensor(potential: PotentialSpec, orbitals: OrbitalSet, grid: Grid,
                    threads: int = 1) -> InteractionTensor:
    """Quadrature of conj(phi_a(x)) conj(phi_b(y)) V(x;y) phi_g(x) phi_d(y)
    on grid, every kernel kind writing the pair layout (ag), (bd); the
    orbitals must be sampled on grid (GridMismatch otherwise).

    Translation-invariant kernels (PotentialSpec.fourier_modes) take one 2-D
    FFT R_ag of the pair densities conj(phi_a) phi_g w, g >= a, one a at a
    time on min(threads, cpu count) FFT workers; R_ga(k) = conj(R_ag(-k))
    completes B[(bd), k] = R_bd(k), its conjugate with (a, g) swapped is
    A[(ag), k] = R_ag(-k), and v = sum_k w_k A[:, k] B[:, k]^T is one
    (K^2, R) @ (R, K^2) product; the output does not depend on threads.
    Rank-expanded kernels contract one term at a time; tabulated kernels are
    checked and go through the dense pair matrix.

    The selection rule of the magnetic translations (Haldane 1985;
    PotentialSpec.x2_transfers) is applied to the factors before the
    contraction: a forbidden <b|g_r|d> in a term's K x K matrices, or
    R_bd(k) in B, is set to 0, so every entry the rule forbids, aliasing
    round-off on the grid, is a sum of exact zeros; no entry is tested
    against a tolerance.  The raw tensor is checked finite and against its
    exchange/hermiticity symmetries, then symmetrized."""
    if threads < 1:
        raise InvalidValue("threads", "must be >= 1")
    if orbitals.grid != grid:
        raise GridMismatch(f"orbitals sampled on {orbitals.grid}, tensor grid {grid}")
    K, M = orbitals.size, orbitals.flux_count
    phi = orbitals.matrix()                  # (K, P)
    w = grid.weight
    labels = np.array([orb.m for orb in orbitals.orbitals])
    transfer = (labels - labels[:, None]) % M          # [b, d]: m_d - m_b mod M
    rule = potential.x2_transfers(grid, M)

    modes = potential.fourier_modes(grid)
    if modes is not None:
        import scipy.fft        # ~5 MB resident; imported only where it is used
        (k1, k2), weights = modes
        minus = (-k1 % grid.G1, -k2 % grid.G2)
        B = np.empty((K, K, len(weights)), dtype=np.complex128)   # R_bd(k)
        workers = min(threads, os.cpu_count() or 1)
        for a in range(K):
            dens = (phi[a].conj() * phi[a:] * w).reshape(K - a, *grid.shape)
            R = scipy.fft.fft2(dens, workers=workers)
            B[a:, a] = R[:, minus[0], minus[1]].conj()
            B[a, a:] = R[:, k1, k2]
        rule = rule[k2]                                  # one row per kept mode
        np.copyto(B, 0, where=(~rule).T[transfer])
        A = np.multiply(B.transpose(1, 0, 2).conj(), weights, out=np.empty_like(B))
        v = A.reshape(K * K, -1) @ B.reshape(K * K, -1).T
    elif (terms := potential.separable_terms(grid)) is not None:
        v = np.zeros((K * K, K * K), dtype=np.complex128)
        for (c, f, g), allowed in zip(terms, rule):
            A = (phi.conj() * f.ravel()) @ phi.T * w      # <a| f |g>
            B = (phi.conj() * g.ravel()) @ phi.T * w      # <b| g |d>
            A[~allowed[transfer.T]] = 0
            B[~allowed[transfer]] = 0
            v += c * np.einsum("ag,bd->agbd", A, B).reshape(K * K, K * K)
    else:
        potential.check_symmetry(grid)
        D = (phi.conj()[:, None, :] * phi[None, :, :] * w).reshape(K * K, -1)
        v = D @ potential.pair_values(grid) @ D.T

    # the symmetry checks and the symmetrization add entries in pairs, so an
    # entry must stay below half the float range; NaN fails too
    scale = max(float(np.max(np.abs(v))), 1.0)
    if not math.isfinite(2.0 * scale):
        raise NonFiniteValue("two-body tensor has a non-finite entry, or one "
                             "beyond half the float range")
    exch, herm = symmetry_deviations(v)
    if not (exch <= TENSOR_SYM_TOL * scale and herm <= TENSOR_SYM_TOL * scale):
        raise SymmetryViolation(
            f"tensor symmetry deviation: exchange {exch:.3e}, hermitian {herm:.3e}")
    # v = (v + v[b,a,d,g]) / 2, then (v + conj(v[g,d,a,b])) / 2, in place one
    # slab of fixed a at a time; an entry and its image get the same bits
    S = v.reshape(K, K, K, K)                                  # [a, g, b, d]
    for a in range(K):
        m = 0.5 * (S[a, :, a:] + S[a:, :, a].transpose(2, 0, 1))
        S[a, :, a:], S[a:, :, a] = m, m.transpose(1, 2, 0)
    for a in range(K):
        m = 0.5 * (S[a, a:] + S[a:, a].transpose(0, 2, 1).conj())
        S[a, a:], S[a:, a] = m, m.transpose(0, 2, 1).conj()
    return InteractionTensor(values=S.transpose(0, 2, 1, 3), sup_norm=potential.sup_norm(),
                             symmetry_deviation=max(exch, herm) / scale,
                             rank=None if rule is None else len(rule),
                             rule_kept=1.0 if rule is None else rule_kept(rule, transfer))


def rule_kept(rule: np.ndarray, transfer: np.ndarray) -> float:
    """Fraction of the tensor entries the selection rule leaves free, from
    transfer[x, y] = m_y - m_x mod M: (ag, bd) is free when one row of rule
    marks both m_a - m_g (the first factor allows minus the row's transfers)
    and m_d - m_b.  Orbital pairs are counted per transfer, so no K^4 array
    is formed."""
    pairs = np.bincount(transfer.ravel(), minlength=rule.shape[1])
    joint = (rule.T.astype(np.int64) @ rule) > 0          # [m_a - m_g, m_d - m_b]
    return float(pairs @ joint @ pairs) / transfer.size ** 2


def assemble_hamiltonian(basis: DeterminantBasis, energies: np.ndarray,
                         tensor: InteractionTensor | None) -> sp.csr_matrix:
    """One-body diagonal plus, with <pq||rs> = v[p,q,r,s] - v[p,q,s,r], the
    sum of <pr||pr> over occupied pairs, sign * sum_{r occ} <pr||qr> per
    single replacement p -> q (the r = p term vanishes by exchange symmetry)
    and sign * <p1p2||q1q2> per double one.  An entry below the diagonal is
    the conjugate of its partner above, summed as that partner's row sums it
    (a single one over the occupations of the upper row).

    H is written as CSR directly, about ASSEMBLY_BLOCK candidate entries at a
    time, into arrays sized up front: each row has its diagonal, N (K - N)
    single and C(N,2) C(K-N,2) double replacements, sorted by column; an
    exact zero is dropped and a -0.0 part stored as 0.0.  An H whose CSR at
    that count would exceed H_BYTE_CAP bytes raises TooLarge before any
    replacement is listed.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape[0] != basis.K:
        raise DimensionMismatch(
            f"{energies.shape[0]} one-body energies for K={basis.K}")
    occ, K = basis.occupations, basis.K
    dim, N = occ.shape
    diag = energies[occ].sum(axis=1).astype(np.complex128)

    if tensor is None or tensor.is_zero():
        return sp.diags(diag, format="csr")

    v = tensor.values
    if v.shape[0] != K:
        raise DimensionMismatch(f"tensor rank {v.shape[0]} for K={K}")
    n_single = N * (K - N)
    width = 1 + n_single + math.comb(N, 2) * math.comb(K - N, 2)
    nbytes = dim * width * (16 + 4) + (dim + 1) * 4        # complex data, int32 indices
    if nbytes > H_BYTE_CAP:
        raise TooLarge(f"H on C({K},{N}) = {dim} determinants needs {nbytes / 1e9:.2f} GB "
                       f"as CSR ({dim * width} entries), over the budget of "
                       f"{H_BYTE_CAP / 1e9:.2f} GB")
    w = v - v.transpose(0, 1, 3, 2)
    for k, l in itertools.combinations(range(N), 2):
        diag += w[occ[:, k], occ[:, l], occ[:, k], occ[:, l]]
    # flat tables for np.take: <pr||qr> at (r K + p) K + q, and <p1p2||q1q2>
    # at pair(p1, p2) C(K,2) + pair(q1, q2) over ascending pairs, its conjugate
    # transpose first (for the lower triangle), then itself at C(K,2)^2 on
    single_elem = w.transpose(1, 3, 0, 2)[np.arange(K), np.arange(K)].ravel()
    a, b = np.triu_indices(K, 1)
    double_elem = w[a[:, None], b[:, None], a, b]
    double_elem = np.concatenate([double_elem.T.conj().ravel(), double_elem.ravel()])
    pair = np.zeros((K, K), dtype=np.intp)
    pair[a, b] = np.arange(len(a))
    occ_r = occ.T * K * K                   # r K^2 per occupied r, column by column

    data = np.empty(dim * width, dtype=np.complex128)
    indices = np.empty(dim * width, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    shift = width.bit_length()              # sort key: column << shift | place in row
    rows = max(1, ASSEMBLY_BLOCK // width)
    for start in range(0, dim, rows):
        stop = min(start + rows, dim)
        i = np.arange(start, stop)[:, None, None]
        key = np.empty((len(i), width), dtype=np.int64)
        vals = np.empty((len(i), width), dtype=np.complex128)
        key[:, 0], vals[:, 0] = i.ravel(), diag[start:stop]

        # singles: above the diagonal summed over row i's occupations, below
        # over row j's with p and q swapped, then conjugated
        j, P, Q, sign = basis.replacement_rows(1, start, stop)
        up, q = j > i, Q.transpose(0, 2, 1)
        pq, src = np.where(up, P * K + q, q * K + P), np.where(up, i, j)
        elem = sign * sum(single_elem.take(r.take(src) + pq) for r in occ_r)
        key[:, 1:1 + n_single] = j.reshape(len(i), -1)
        vals[:, 1:1 + n_single] = np.where(up, elem, elem.conj()).reshape(len(i), -1)

        j, P, Q, sign = basis.replacement_rows(2, start, stop)
        at = pair[P[..., 0], P[..., 1]][:, :, None] * len(a) + pair[Q[..., 0], Q[..., 1]][:, None]
        at += (j > i) * len(a) ** 2
        key[:, 1 + n_single:] = j.reshape(len(i), -1)
        vals[:, 1 + n_single:] = (sign * double_elem.take(at)).reshape(len(i), -1)

        # each row sorted by column; exact zeros dropped, -0.0 parts made 0.0
        key <<= shift
        key |= np.arange(width)
        key.sort(axis=1)
        vals = vals.take((key & ((1 << shift) - 1)) + np.arange(0, key.size, width)[:, None])
        vals += 0
        keep = vals != 0
        lo = indptr[start]
        indptr[start + 1:stop + 1] = lo + np.cumsum(keep.sum(axis=1))
        kept = np.flatnonzero(keep)     # a gather: a mask copy branches per entry
        data[lo:indptr[stop]] = vals.take(kept)
        indices[lo:indptr[stop]] = (key >> shift).take(kept)
    if indptr[-1] < len(data):                 # shrunk in place: no view of either exists
        data.resize(indptr[-1], refcheck=False)
        indices.resize(indptr[-1], refcheck=False)
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


@dataclass(frozen=True)
class FillingSpec:
    """N = (filled_levels) * M + remainder, remainder in 0..M-1.

    filled_levels counts completely filled levels; for N < M it is zero and
    the partially filled level is the lowest one.
    """

    N: int
    M: int
    filled_levels: int
    remainder: int

    @classmethod
    def from_counts(cls, N: int, M: int) -> "FillingSpec":
        if N < 1 or M < 1:
            raise DimensionMismatch("need N >= 1 and M >= 1")
        q, r = divmod(N, M)
        return cls(N=N, M=M, filled_levels=q, remainder=r)

    def __post_init__(self):
        if self.filled_levels * self.M + self.remainder != self.N:
            raise DimensionMismatch("inconsistent filling decomposition")

    @property
    def nu(self) -> int:
        """Index of the highest completely filled level (-1 if none)."""
        return self.filled_levels - 1

    @property
    def degeneracy(self) -> int:
        return math.comb(self.M, self.remainder)


def noninteracting_ground_state(filling: FillingSpec, level_energies) -> tuple[float, list]:
    """Minimal total one-body energy and every occupation set attaining it.

    Fill the lowest levels completely (M states each) and distribute the
    remainder over the next level in all C(M, r) ways.
    """
    level_energies = np.asarray(level_energies, dtype=float)
    q, r, M = filling.filled_levels, filling.remainder, filling.M
    levels_needed = q + (1 if r > 0 else 0)
    if levels_needed > level_energies.shape[0]:
        raise TruncationTooSmall(
            f"need level {levels_needed - 1} but only "
            f"{level_energies.shape[0]} levels supplied")
    energy = float(M * level_energies[:q].sum())
    if r > 0:
        energy += r * float(level_energies[q])
    core = [n * M + m for n in range(q) for m in range(M)]
    if r == 0:
        return energy, [tuple(core)]
    sets = [tuple(core + [q * M + m for m in combo])
            for combo in itertools.combinations(range(M), r)]
    return energy, sets


def embed_wedge(columns: np.ndarray, basis: DeterminantBasis) -> np.ndarray:
    """Coefficients of column_1 ^ ... ^ column_N on the reference determinants.

    The coefficient on occupation D is det of the N x N submatrix of rows D;
    the map is multilinear and needs no orthonormality.
    """
    C = np.asarray(columns)
    if C.shape != (basis.K, basis.N):
        raise DimensionMismatch(f"expected ({basis.K}, {basis.N}), got {C.shape}")
    sub = C[basis.occupations, :]            # (dim, N, N)
    return np.linalg.det(sub)


def embed_slater(phase: complex, orbitals: np.ndarray,
                 basis: DeterminantBasis) -> ManyBodyState:
    """Many-body coefficients of phase * (orthonormal orbital wedge)."""
    C = np.asarray(orbitals)
    gram = C.conj().T @ C
    dev = float(np.max(np.abs(gram - np.eye(C.shape[1]))))
    if dev > SLATER_GRAM_TOL:
        raise NotOrthonormal(f"orbital Gram deviates by {dev:.3e}")
    return ManyBodyState(basis=basis, coefficients=phase * embed_wedge(C, basis))


def taylor_parameters(norm: float) -> tuple[int, int]:
    """(m*, s) of the fewest matvecs m s over TAYLOR_THETA, s = ceil(norm /
    theta_m) for norm = |t| ||A||_1, the smaller m on a tie; (0, 1) at 0."""
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])


class ExactPropagator:
    """exp(-i H t / hbar) acting on vectors, by the truncated Taylor scheme of
    Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 2011, Alg. 3.2) on the
    sparse H as given (a CSR H is not copied); no dense H, no
    eigendecomposition and no random number.

    The generator A = -i (H - mu) / hbar, mu = tr H / dim, is never formed:
    each matvec is -i (H B - mu B) / hbar and each Taylor step ends with the
    factor exp(-i t mu / (hbar s)).  ||A||_1 is one bincount over the columns
    with |h_jj| replaced by |h_jj - mu| (an upper bound if the CSR holds
    duplicates).  An advance over t takes (m*, s) from |t| ||A||_1
    (taylor_parameters: the exact-norm branch, valid since ||A^p||_1^(1/p)
    <= ||A||_1), then at most s m* matvecs, each Taylor sum stopped once its
    terms fall below TAYLOR_TOL of it.  A non-finite entry of H or an
    infinite ||A||_1 raises NonFiniteValue, a non-finite t ||A||_1
    InvalidValue.  matvecs counts the products with H over every advance."""

    def __init__(self, H, hbar: float = 1.0):
        H = sp.csr_matrix(H)
        if not np.all(np.isfinite(H.data)):
            raise NonFiniteValue("exact generator -i H / hbar has a non-finite entry")
        diag = H.diagonal()
        self.H, self.hbar, self.mu = H, hbar, diag.sum() / H.shape[0]
        self.matvecs = 0
        columns = np.bincount(H.indices, weights=np.abs(H.data), minlength=H.shape[1])
        columns += np.abs(diag - self.mu) - np.abs(diag)
        self.norm = float(columns.max()) / abs(hbar)
        if not math.isfinite(self.norm):
            raise NonFiniteValue("exact generator -i H / hbar has an infinite 1-norm")

    def advance(self, psi0: np.ndarray, t: float) -> np.ndarray:
        norm = abs(t) * self.norm
        if not (math.isfinite(t) and math.isfinite(norm)):
            raise InvalidValue("t", f"interval {t!r} times ||A||_1 = "
                               f"{self.norm:.6g} is not finite")
        m, s = taylor_parameters(norm)
        h = -1j * t / (self.hbar * s)        # one Taylor step of -i (H - mu) t / hbar
        F = B = psi0
        eta = np.exp(h * self.mu)
        for _ in range(s):
            c1 = np.abs(B).max()
            for j in range(m):
                B = (h / (j + 1)) * (self.H @ B - self.mu * B)
                self.matvecs += 1
                c2 = np.abs(B).max()
                F = F + B
                if c1 + c2 <= TAYLOR_TOL * np.abs(F).max():
                    break
                c1 = c2
            F = eta * F
            B = F
        return F


def evolve_exact(state: ManyBodyState, H, t: float,
                 constants: PhysicalConstants) -> ManyBodyState:
    """exp(-i H t / hbar) applied to the state."""
    psi = state.coefficients
    if psi.shape[0] != H.shape[0]:
        raise DimensionMismatch(
            f"state dim {psi.shape[0]} vs operator dim {H.shape[0]}")
    out = ExactPropagator(H, constants.hbar).advance(psi, t)
    return ManyBodyState(basis=state.basis, coefficients=out)
