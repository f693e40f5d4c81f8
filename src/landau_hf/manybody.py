"""Antisymmetric N-particle space over the truncated basis.

Conventions: a determinant is a strictly increasing tuple of occupied
single-particle indices; the reference many-body basis vector for occupation
(p_1 < ... < p_N) is the wedge e_{p_1} ^ ... ^ e_{p_N}.  Two-body matrix
elements are stored in physicists' order,

    v[a, b, g, d] = <e_a (x) e_b | V_12 | e_g (x) e_d>,

so a and g belong to the first particle, b and d to the second.

two_body_tensor builds every kernel kind as the product v = A @ B^T in the
pair layout: B[(bd), r] holds the second particle's factors (Fourier modes,
separable terms or grid points) and A is its exchange conjugate times the
kernel's weights.  The magnetic translations of the torus forbid most
entries (Haldane, PRL 55, 2095 (1985)): the x2 momentum m mod M of each
orbital is exact, so with the cosine kernel m_g - m_a and m_d - m_b must
each be +-harmonic2 mod M, and with the translation-invariant Gaussian
kernel m_a + m_b = m_g + m_d mod M; harmonics are read at the grid's signed
frequency (PotentialSpec.x2_transfers).  The product is formed one momentum
block at a time, every forbidden entry an exact zero never computed, so W
and the product that assembles H hold only what the rule allows: 1/M of
the pairs for the Gaussian, 4/M^2 for the cosine at harmonic2 = 1 (M > 2).
The rule shapes B too: a Gaussian mode's column is nonzero only on the K^2
/ M pairs of its transfer, so B is kept transfer-compact, row (bd) holding
only the modes of its own block, (K^2, w) for the widest block's w columns
(18 of 89 at K = 30) in place of (K^2, R).

The tensor is stored as those blocks and nothing else (InteractionTensor).
The transfers of one factor column are one residue mod g = gcd(M, every t -
t' of its row of x2_transfers) (momentum_modulus: M for the Gaussian and
zero kinds, gcd(M, 2 harmonic2) for the cosine, 1 for a table), so v is
block diagonal in x2 momentum mod g: block t holds the entries with m_a -
m_g = t = m_d - m_b (mod g), a (K L, K L) matrix, L = K / g, and the g
blocks, K^4 / g entries, are one (g, K L, K L) array.  Beside it the
antisymmetrized F[a,b,g,d] = v[a,b,g,d] - v[a,b,d,g], in the same blocks, is
built once and is what every contraction reads: the mean field J - X is
one batched product of F with a gather of the density.  v is made exactly
exchange-symmetric and Hermitian where it is built, block by block in
two_body_tensor or as one block in InteractionTensor, and nothing checks it
again.  Hermiticity maps block t onto block -t, so only blocks 0..g/2 are
contracted and J - X on the others is their conjugate: (g - g//2 - 1) / g
of the product is skipped, 47% at g = 30.  F also conserves
pair momentum, m_p + m_q = m_r + m_s (mod g), so over the ascending pairs
it is block diagonal in g classes (InteractionTensor.pair_blocks, about 16
C(K,2)^2 / g bytes, built on first read): the amplitudes <pq||ij> of the
closed-form defect are one batched product of those blocks with the 2x2
minors of the orbitals, and H's W is a copy of them.

The determinant space has one primitive, the hole table
DeterminantBasis.holes(n), n = 1, 2: for every determinant and set of n
places, the position, from rank, of the removed orbitals and the (N-n)-
particle determinant left (determinant CI through (N-1)- and (N-2)-particle
intermediates: Knowles & Handy, CPL 111, 315 (1984); Olsen et al., JCP 89,
2185 (1988)), and the sign of the n annihilations.  Every operation is a put
D = A_n x (hole_amplitudes), one product and, but for the RDM, one gather
A_n^T: DeterminantBasis.one_body, dGamma(M) x, is M @ D_1 gathered; the
one-body reduced density matrix is D_1 D_1^H; and assemble_hamiltonian
returns H = A_2 (W x 1) A_2^T as an operator, applied and never stored
(Hamiltonian), W the antisymmetrized tensor's pair-momentum blocks with the
one-body energies on their diagonal, so D_2 = A_2^T x and Z = W D_2 are
(g, P, C(K,N-2)) and each matvec is one batched product: 1/g of the dense
W's work.  H's table is built straight in the rows of W's blocks,
holes(2, slot), and is at every g the one two-hole table alive; holes(1)
is the one-hole table one_body and the RDM share.  The put and every
gather walk a hole table one place set at a time (put_signed,
gather_signed), so each holds a vector or two beside D or Z, never a
(C(N,n), dim) product.

Exact dynamics has one propagator, ExactPropagator: exp(-i H t / hbar) on a
vector through that operator, by truncated Taylor sums whose cost grows with
t * ||H||_1 rather than with dim^3.  The operator carries the mean of H's
spectrum (the shift applied in each matvec) and a 1-norm bound, so the
propagator has no set-up and an advance draws no random number.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import OrbitalSet
from .config import Grid, PhysicalConstants
from .errors import (DimensionMismatch, GridMismatch, InvalidValue,
                     LengthMismatch, NonFiniteValue, NotOrthonormal,
                     SymmetryViolation, TooLarge, TruncationTooSmall)
from .potentials import PotentialSpec

DET_SPACE_CAP = 200_000
H_BYTE_CAP = 2 ** 30             # largest predicted size of the arrays that apply H, in bytes
TENSOR_BYTE_CAP = 2 ** 30        # largest predicted size of two_body_tensor's arrays, in bytes
TENSOR_SYM_TOL = 1e-8            # largest raw asymmetry of v, relative to max(max |v|, 1)
SLATER_GRAM_TOL = 1e-6           # largest |Gram - 1| entry embed_slater accepts
TAYLOR_TOL = 2.0 ** -53          # truncation tolerance of ExactPropagator's Taylor sums
TAYLOR_MATVEC_CAP = 10_000       # most matvecs m* s one advance may plan (10 on the shipped configs)
TIME_STEP_CAP = 1_000_000        # most steps of a run's time grid (1,000 on the shipped configs)
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
    _holes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def _binomials(self) -> np.ndarray:
        """[b, c] = C(K-1-c, b), b <= N, clipped (rank)."""
        cap = max(self.dim, math.comb(self.K, max(self.N - 2, 0)))
        return np.array([[min(math.comb(self.K - 1 - c, b), cap) for c in range(self.K)]
                         for b in range(self.N + 1)], dtype=np.int64)

    def rank(self, occ) -> np.ndarray:
        """Rank of each increasing set (..., m), m <= N, among the C(K, m) sets
        of m orbitals in lexicographic order: C(K,m) - 1 - sum_k C(K-1-c_k,
        m-k).  A term is at most C(K-1, m), so binomials clipped at max(dim,
        C(K,N-2)) fit in int64 and change none for the sizes the hole tables
        read: N, N - 1 (C(K-1,N-1) = N dim / K), N - 2, and 1, 2 (C(K-1,m) <=
        C(K,N) if m <= N <= K - m, else <= C(K,N-2) = C(K,K-N+2))."""
        occ = np.asarray(occ)
        m = occ.shape[-1]
        terms = np.zeros(occ.shape[:-1], dtype=np.int64)
        for k in range(m):
            terms += self._binomials[m - k].take(occ[..., k])
        return math.comb(self.K, m) - 1 - terms

    def lookup(self, occ) -> int:
        occ = np.asarray(occ)
        if (occ.shape != (self.N,) or occ.dtype.kind not in "iu"
                or np.any(np.diff(occ, prepend=-1, append=self.K) <= 0)):
            raise KeyError(f"{occ.tolist()} is not an occupation of {self.N} of {self.K}")
        return int(self.rank(occ))

    def holes(self, n: int, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The n-hole table (at, sign): for the place sets s = k_1 < ... <
        k_n in the order of itertools.combinations, at[s, i] = rows[rank(
        removed)] C(K,N-n) + rank(remainder), the position, in hole
        amplitudes of C(K,N-n) columns, of row i without the orbitals at s,
        and sign[s] = (-1)^(sum s - n(n-1)/2) = <h| a_{p_n} ... a_{p_1} |i>.
        Without rows the row is rank(removed) itself, the (C(K,n), C(K,N-n))
        amplitudes of hole_amplitudes, and that table is built once per
        basis, shared by every caller and never written (not flagged
        read-only: take and put copy a read-only index on every call); a
        table with rows (H's, the slots of W's pair-momentum blocks) is built
        on each call and not kept.  at is filled one place set at a time."""
        if rows is None and n in self._holes:
            return self._holes[n]
        sets = np.array(list(itertools.combinations(range(self.N), n)),
                        dtype=np.int64).reshape(-1, n)
        occ = self.occupations.T.copy()                  # rank reads contiguous places
        at = np.empty((len(sets), self.dim), dtype=np.int64)
        n_rest = math.comb(self.K, self.N - n)
        for s, places in enumerate(sets):
            removed = self.rank(occ[places].T)
            at[s] = (removed if rows is None else rows.take(removed)) * n_rest
            at[s] += self.rank(np.delete(occ, places, axis=0).T)
        sign = np.where((sets.sum(axis=1) - n * (n - 1) // 2) % 2, -1.0, 1.0)
        if rows is None:
            self._holes[n] = at, sign
        return at, sign

    def hole_amplitudes(self, x, n: int = 1) -> np.ndarray:
        """D = A_n x, (C(K,n), C(K,N-n)): D[P, h] = <h| a_{p_n} ... a_{p_1}
        |x>, sign[s] x[i] put at at[s, i] (holes(n)) one place set at a
        time (put_signed)."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {x.shape} for dim={self.dim}")
        out = np.zeros((math.comb(self.K, n), math.comb(self.K, self.N - n)), dtype=np.complex128)
        put_signed(out.reshape(-1), *self.holes(n), x)
        return out

    def one_body(self, M, x) -> np.ndarray:
        """dGamma(M) x, dGamma(M) = sum_pq M[q, p] a+_q a_p (M acting on each
        orbital in turn), with no matrix of dGamma: the put D =
        hole_amplitudes(x), one product M @ D, and the gather A_1^T of the
        product on holes(1) (gather_signed)."""
        M = np.asarray(M)
        if M.shape != (self.K, self.K):
            raise DimensionMismatch(f"one-body matrix {M.shape} for K={self.K}")
        return gather_signed((M @ self.hole_amplitudes(x)).reshape(-1), *self.holes(1))


def put_signed(flat: np.ndarray, at: np.ndarray, sign: np.ndarray, x: np.ndarray) -> None:
    """flat[at[s]] = sign[s] x for each row s of a hole table, one fancy
    assignment per row, with -x formed once: the values of np.put(flat, at,
    sign[:, None] * x), bit for bit but for the sign of a zero part, and no
    (C(N,n), dim) temporary."""
    negated = None
    for row, positive in zip(at, sign > 0):
        if positive:
            flat[row] = x
        else:
            if negated is None:
                negated = -x
            flat[row] = negated


def gather_signed(flat: np.ndarray, at: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_s sign[s] flat.take(at[s]) for a hole table whose first sign is
    +1: the first row taken, then each later row added or subtracted in
    order, as the axis-0 sum of (flat.take(at) * sign[:, None]) adds its
    rows (a - b == a + (-b)), through one reused row buffer."""
    y = flat.take(at[0])
    row = np.empty_like(y)
    for index, positive in zip(at[1:], sign[1:] > 0):
        flat.take(index, out=row, mode="clip")      # in range: clip only skips the buffer
        if positive:
            y += row
        else:
            y -= row
    return y


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


class PairBlocks(NamedTuple):
    """F[(pq), (rs)] over the ascending pairs in blocks of pair momentum c =
    m_p + m_q (mod g) (InteractionTensor.pair_blocks)."""

    values: np.ndarray    # (g, P, P), read-only: F between the pairs of class c
    r: np.ndarray         # (g, P): the pairs (r, s) of each class, (0, 0) in padding
    s: np.ndarray
    pairs: np.ndarray     # (g, P): their places in np.triu_indices order, C(K,2) in padding
    slot: np.ndarray      # (C(K,2),): each pair's place in pairs.ravel()
    ordered: np.ndarray   # (K^2,): per ordered pair (p, q), the slot of (min, max)
    sign: np.ndarray      # (K^2,): the sign of q - p, F[q, p] = -F[p, q]


def pair_classes(p, q, g: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, slot) of the pairs (p, q) in classes of pair momentum c = (p
    + q) mod g: row c of table (g, P) holds, in order, the indices of the
    pairs of class c, padded with len(p), P the largest class (at least 1);
    slot[k] is pair k's place in table.ravel()."""
    c = (p + q) % g
    order = np.argsort(c, kind="stable")
    counts = np.bincount(c, minlength=g)
    P = max(int(counts.max(initial=0)), 1)
    slot = np.empty(len(c), dtype=np.int64)
    slot[order] = c[order] * P + np.arange(len(c)) - (np.cumsum(counts) - counts)[c[order]]
    table = np.full(g * P, len(c))
    table[slot] = np.arange(len(c))
    return table.reshape(g, P), slot


class InteractionTensor:
    """v[a, b, g, d] = <ab|V|gd> stored as its momentum blocks (module
    docstring), for the modulus g.  Orbital k = n M + m is in class k mod g
    (g divides M), the (k // g)-th of the L = K / g orbitals of its class.
    Block t holds the entries with m_a - m_g = t = m_d - m_b (mod g): row a L
    + i for the pair (a g), g the i-th orbital of class m_a - t, and column
    b L + j for (b d), d the j-th of class m_b + t.  Every entry outside the
    blocks is an exact zero.  The (g, K L, K L) stack of v (blocks) is kept
    beside that of the antisymmetrized F[a, b, g, d] = v[a, b, g, d] - v[a,
    b, d, g] (anti), built once here, which is all that fermions see and all
    that the methods read.  Given a dense values array (any memory order
    and numeric dtype, stored as complex128), the tensor is one block, g =
    1.  rank: the terms the quadrature
    contracted (kept Fourier modes or separable terms), None for a dense
    table; rule_kept: the fraction of entries the selection rule leaves
    free, 1.0 without a rule.  values and pair (v in the pair layout pair[(a
    g), (b d)]) are dense copies, made on each access.

    v is exactly symmetric, v[a,b,g,d] == v[b,a,d,g] == conj(v[g,d,a,b])
    bit for bit, so F[q,p,r,s] == -F[p,q,r,s], F[p,p] == 0 and F[a,b,g,d]
    == conj(F[g,d,a,b]).  The symmetry is made once, where v is built: the
    dense values array is checked and symmetrized here by the routine that
    two_body_tensor runs on each pair of its blocks (_symmetrize; a
    non-finite entry or one beyond half the float range raises
    NonFiniteValue, an asymmetry above TENSOR_SYM_TOL SymmetryViolation),
    and symmetry_deviation is the larger raw exchange/hermiticity deviation
    it measured, relative to max(max |v|, 1).

    The tensor is the only reader of its storage: every contraction of v the
    package makes is one of its methods, mean_field for the HF flow and
    pair_amplitudes for the closed-form defect, or reads pair_blocks, as H
    does.  Each has one path, which uses the symmetry: mean_field contracts
    blocks 0..g/2 alone and conjugates them into the rest (_fock_plan), and
    pair_amplitudes reads one signed row per unordered pair.
    pair_amplitudes and H read F through pair_blocks, F over the ascending
    pairs in blocks of pair momentum, about 16 C(K,2)^2 / g bytes gathered
    from anti on their first read and kept read-only beside it; mean_field,
    and so the HF flow, never builds them."""

    def __init__(self, values, sup_norm: float, rank: int | None = None,
                 rule_kept: float = 1.0):
        K = np.shape(values)[0]
        swap = np.arange(K * K).reshape(K, K).T.ravel()          # (bd) -> (db)
        # one block: cols every pair, rows = swap[cols], so V = v[rows, cols]
        V = np.transpose(np.asarray(values, dtype=np.complex128), (0, 2, 1, 3))
        V = V.reshape(K * K, K * K)[swap]
        deviation = _symmetrize([(V, V[np.ix_(swap, swap)])])
        self._store(V[swap].reshape(1, K * K, K * K), K, sup_norm, deviation, rank, rule_kept)

    @classmethod
    def _from_blocks(cls, blocks: np.ndarray, K: int, sup_norm: float,
                     symmetry_deviation: float, rank: int | None,
                     rule_kept: float) -> "InteractionTensor":
        """The tensor of the (g, K L, K L) blocks of v, kept as given:
        two_body_tensor's, symmetrized already (_symmetrize)."""
        tensor = cls.__new__(cls)
        tensor._store(blocks, K, sup_norm, symmetry_deviation, rank, rule_kept)
        return tensor

    def _store(self, blocks, K, sup_norm, symmetry_deviation, rank, rule_kept):
        g = len(blocks)
        L = K // g
        self.blocks, self.K, self.modulus = blocks, K, g
        self.sup_norm, self.symmetry_deviation = sup_norm, symmetry_deviation
        self.rank, self.rule_kept = rank, rule_kept
        # F = v - v[a,b,d,g]: the image of (a, i, b, j) in block t is (a, j, b,
        # i) in block (c - t) mod g, c = m_a - m_b, so per pair of classes of a
        # and b the images of blocks 0, 1, ... are blocks c, c - 1, ... (mod g):
        # two strided copies, no temporary
        v = blocks.reshape(g, L, g, L, L, g, L)    # [t, a // g, a % g, i, b // g, b % g, j]
        self.anti = np.empty_like(blocks)
        anti = self.anti.reshape(v.shape)
        for a0, b0 in itertools.product(range(g), repeat=2):
            c = (a0 - b0) % g
            image, out = v[:, :, a0, :, :, b0].swapaxes(2, 4), anti[:, :, a0, :, :, b0]
            np.copyto(out[:c + 1], image[c::-1])
            np.copyto(out[c + 1:], image[:c:-1])
        np.subtract(blocks, self.anti, out=self.anti)   # contiguous: no ufunc buffers
        self._zero = not np.any(self.anti)
        # flat pair index (a g) of each row and (b d) of each column of block t
        t, a, i = np.ix_(np.arange(g), np.arange(K), np.arange(L))
        self._rows = (a * K + i * g + (a - t) % g).reshape(g, K * L)
        self._cols = (a * K + i * g + (a + t) % g).reshape(g, K * L)
        self._density_at = self._cols % K * K + self._cols // K     # rho[d, b]
        self._fock_at = np.argsort(self._rows, axis=None)           # block rows -> (a g)

    @property
    def pair(self) -> np.ndarray:
        """v in the pair layout, pair[(a g), (b d)], a dense (K^2, K^2) copy."""
        K = self.K
        pair = np.zeros((K * K, K * K), dtype=self.blocks.dtype)
        pair[self._rows[:, :, None], self._cols[:, None, :]] = self.blocks
        return pair

    @property
    def values(self) -> np.ndarray:
        """v[a, b, g, d], a dense copy (a view of pair)."""
        return self.pair.reshape((self.K,) * 4).transpose(0, 2, 1, 3)

    def is_zero(self) -> bool:
        """Whether F, all that fermions see of v, is zero."""
        return self._zero

    @cached_property
    def _fock_plan(self):
        """(F, density_at, out, at) of mean_field.  F is Hermitian, so J - X
        is, and its blocks t > g / 2 are the conjugates of blocks g - t: row
        (a g) of block t is row (g a) of block -t, at image[t], and column
        (b d) is column (d b), at image[-t].  So only the prefix F =
        anti[:h], h = g // 2 + 1, is contracted, into out[:h], out[h:] takes
        the conjugates of blocks 1..g - h, and at (K, K) gathers J - X from
        out.  At g <= 2, h = g: every block is contracted, none mirrored."""
        K, g = self.K, self.modulus
        L, h = K // g, g // 2 + 1
        t, (a, i) = np.arange(g)[:, None], np.divmod(np.arange(K * L), L)
        image = (i * g + (a - t) % g) * L + a // g
        at = t * K * L + np.arange(K * L)                       # place in out
        at[h:] = (h + g - 1 - t[h:]) * K * L + image[h:]
        return (self.anti[:h], self._density_at[:h],
                np.empty((g, K * L, 1), dtype=np.complex128),
                at.ravel().take(self._fock_at).reshape(K, K))

    def mean_field(self, C: np.ndarray) -> np.ndarray:
        """eta = (J[rho] - X[rho]) C, rho = C C^H, for (K, N) orbitals C:
        (J - X)[a, g] = sum_bd F[a, b, g, d] rho[d, b] is one product of
        each of blocks 0..g/2 of F with its gather of rho, the other blocks
        of the Hermitian J - X their conjugates (_fock_plan), scattered back
        to (a, g)."""
        if self._zero or C.shape[1] == 1:
            return np.zeros_like(C)
        F, density_at, out, at = self._fock_plan
        h = len(F)
        rho = (C @ C.conj().T).ravel()
        np.matmul(F, rho.take(density_at)[:, :, None], out=out[:h])
        np.conjugate(out[1:len(out) - h + 1], out=out[h:])
        return out.ravel().take(at) @ C

    @cached_property
    def pair_blocks(self) -> PairBlocks:
        """F over the ascending pairs in pair-momentum blocks (PairBlocks),
        gathered from anti on the first read and kept read-only: F keeps m_p
        + m_q = m_r + m_s (mod g), so the pairs split into g classes, each
        padded to the largest with the pair (0, 0), whose row and column of
        F (F[0, 0] = 0, F[p, q, 0, 0] = 0) and 2x2 minor are exact zeros.
        F[p, q, r, s] is read from the block of t = m_p - m_r, and is zero
        where m_s - m_q is not t (mod g).  About 16 C(K,2)^2 / g bytes,
        against 16 C(K,2)^2 for the dense <pq||rs> over every pair.  As F[q,
        p] = -F[p, q] and F[p, p] = 0, the row of an ordered pair (p, q) is
        that of (min, max), at ordered[(p q)] with the sign of q - p, 0 at p
        = q."""
        K, g = self.K, self.modulus
        L = K // g
        a, b = np.triu_indices(K, 1)
        pairs, slot = pair_classes(a, b, g)
        r, s = np.append(a, 0)[pairs], np.append(b, 0)[pairs]
        p, q, x, y = r[:, :, None], s[:, :, None], r[:, None], s[:, None]   # F[p, q, x, y]
        t = (p - x) % g
        at = ((t * K + p) * L + x // g) * K * L + q * L + y // g
        values = np.where((y - q - t) % g == 0, self.anti.ravel().take(at), 0)
        values.flags.writeable = False
        ascending = np.zeros((K, K), dtype=np.int64)
        ascending[a, b] = ascending[b, a] = np.arange(len(a))
        sign = np.sign(np.arange(K) - np.arange(K)[:, None]).ravel().astype(float)
        return PairBlocks(values, r, s, pairs, slot, slot[ascending.ravel()], sign)

    def pair_amplitudes(self, C: np.ndarray) -> np.ndarray:
        """<pq||ij> = sum_rs F[p, q, r, s] C[r, i] C[s, j], (K, K, N, N), p,
        q over the basis and i, j over the columns of C: F is antisymmetric
        in (rs), so per pair-momentum block one product of F (pair_blocks)
        with the 2x2 minors C[r, i] C[s, j] - C[s, i] C[r, j] of its
        ascending column pairs, then one signed gather of the ascending rows
        fills every (p, q)."""
        K, N = C.shape
        blocks = self.pair_blocks
        x = C[blocks.r][:, :, :, None] * C[blocks.s][:, :, None, :]    # C[r, i] C[s, j]
        minors = (x - x.swapaxes(2, 3)).reshape(len(x), -1, N * N)
        out = (blocks.values @ minors).reshape(-1, N * N).take(blocks.ordered, axis=0)
        out *= blocks.sign[:, None]
        return out.reshape(K, K, N, N)


def two_body_tensor(potential: PotentialSpec, orbitals: OrbitalSet, grid: Grid,
                    threads: int = 1, factors=None) -> InteractionTensor:
    """Quadrature of conj(phi_a(x)) conj(phi_b(y)) V(x;y) phi_g(x) phi_d(y)
    on grid in the pair layout (ag), (bd), for every kernel kind the product
    v = A @ B^T of two (K^2, R) factors, one momentum block at a time; the
    orbital set must be on grid (GridMismatch otherwise).  Each kind is
    V(x;y) = sum_r c_r conj(g_r(x)) g_r(y) on the grid, B[(bd), r] =
    <b|g_r|d>, and A[(ag), r] = c_r conj(B[(ga), r]) is B's exchange
    conjugate times the weights:
      - translation-invariant kernels (PotentialSpec.fourier_modes): the
        coefficients R_bd(k) of the pair densities conj(phi_b) phi_d w at the
        kept modes, read in closed form from the orbitals' x1 profiles and x2
        harmonics (OrbitalSet.pair_coefficients, with the x1 columns E1 of
        dft_columns); c_k = w_k;
      - rank-expanded kernels (separable_terms): <b|g_r|d> per term, its x1
        factor and x2 modes read the same way;
      - tabulated kernels, checked first: the pair densities at the P grid
        points of the sampled orbitals (OrbitalSet.matrix), their own
        exchange conjugates, so A = B @ T (real products).
    The Gaussian and cosine kinds form no grid sample of an orbital.  B is
    transfer-compact (pair_factors with the blocks): a block's r factor
    columns are the first r entries of its pairs' rows, in the block's
    order, with no gather over factor columns; the cosine's one term and a
    table's grid points are one block, whose compact B is the dense one.
    Before any factor is allocated, the predicted bytes are checked against
    TENSOR_BYTE_CAP (tensor_factors), unless factors, the (modes, terms,
    blocks) tensor_factors returned for this kernel, K, M and grid, are
    given, their bytes checked already.  With no term (the zero kind, or no
    Fourier mode kept) the zero tensor is returned before any factor is
    formed, with rank 0 and nothing kept by the rule.  threads must be >= 1
    and changes no work.

    The selection rule of the magnetic translations (Haldane 1985;
    PotentialSpec.x2_transfers) makes B[(bd), r] = 0 unless m_d - m_b is in
    the row T of column r, and A[(ag), r] = 0 unless m_a - m_g is, so the
    columns that share T make one block of v (tensor_factors) and every entry
    outside the blocks is an exact zero, never computed.  Exchange and
    hermiticity map the block of T onto that of -T: each is checked finite
    and against its image and symmetrized with it (_symmetrize), then
    written once into its block of x2 momentum mod g (momentum_modulus),
    the tensor's storage, from which InteractionTensor builds F."""
    if threads < 1:
        raise InvalidValue("threads", "must be >= 1")
    if orbitals.grid != grid:
        raise GridMismatch(f"orbitals built on {orbitals.grid}, tensor grid {grid}")
    K, M = orbitals.size, orbitals.flux_count
    modes, terms, blocks = tensor_factors(potential, K, M, grid) if factors is None else factors
    R = sum(len(columns) for _, columns in blocks)
    modulus = momentum_modulus(M, blocks)
    L = K // modulus                                   # orbitals per momentum class
    table = None
    if R == 0:
        zero = np.zeros((modulus, K * L, K * L), dtype=np.complex128)
        return InteractionTensor._from_blocks(zero, K, potential.sup_norm(),
                                              symmetry_deviation=0.0, rank=0, rule_kept=0.0)
    if modes or terms:
        B = pair_factors(orbitals, modes, terms, blocks)
        c = modes[1] if modes else np.array([c_r for c_r, *_ in terms])
    else:
        potential.check_symmetry(grid)
        phi = orbitals.matrix()                        # (K, P)
        B = np.empty((K * K, R), dtype=np.complex128)
        np.multiply(phi.conj()[:, None], phi, out=B.reshape(K, K, R))
        B *= grid.weight
        del phi
        table = potential.pair_values(grid)
    labels = orbitals.labels
    transfer = (labels - labels[:, None]) % M          # [b, d]: m_d - m_b mod M
    swap = np.arange(K * K).reshape(K, K).T.ravel()    # (bd) -> (db)
    neg = -np.arange(M) % M                            # T -> -T
    Bt = B.T
    image = {T.tobytes(): columns for T, columns in blocks}

    def block(columns, cols):        # v[swap[cols], cols] over the factor columns given
        if table is None:
            Y = Bt[:len(columns), cols]
            Z = Y.conj()
            Z *= c[columns, None]
        else:                        # conj(table^T Y): real products on Y's float view,
            Y = Bt.take(cols, axis=1)          # which take makes C-contiguous
            Z = (table.T @ Y.view(np.float64)).view(np.complex128)
            np.conjugate(Z, out=Z)
        return Z.T @ Y

    def images():                    # (v[rows, cols], v[cols, rows]) per pair of blocks T, -T
        done = set()
        for T, columns in blocks:
            if T.tobytes() in done:
                continue
            done.add(T[neg].tobytes())
            t = int(T.argmax()) % modulus              # the block of store that holds T's
            cols = np.flatnonzero(T[transfer])         # (bd) with m_d - m_b in T
            rows = swap[cols]                          # (ag) with m_a - m_g in T
            V = block(columns, cols)
            if own := np.array_equal(T, T[neg]):       # v[cols, rows]: V reordered
                at = np.searchsorted(cols, rows)
                Q = V[np.ix_(at, at)]
            else:                                      # or the block of -T
                Q = block(image.get(T[neg].tobytes(), []), rows)
            yield V, Q                                 # symmetrized when drawn again
            # (x y) -> x L + y // modulus, its place in its block of store
            rows, cols = (rows // K * L + rows % K // modulus, cols // K * L + cols % K // modulus)
            store[t][np.ix_(rows, cols)] = V
            if not own:
                store[-t % modulus][np.ix_(cols, rows)] = np.conjugate(V, out=Q)

    store = np.zeros((modulus, K * L, K * L), dtype=np.complex128)
    deviation = _symmetrize(images())
    del B, Bt
    return InteractionTensor._from_blocks(
        store, K, potential.sup_norm(), deviation, rank=None if table is not None else R,
        rule_kept=sum(np.count_nonzero(T[transfer]) ** 2 for T, _ in blocks) / K ** 4)


def _symmetrize(images) -> float:
    """Check and symmetrize the two-body tensor v in place, one (V, Q) =
    (v[rows, cols], v[cols, rows]) of images at a time, rows = swap[cols]
    ((bd) -> (db)), each before the next is drawn: exchange maps V to Q.T,
    hermiticity to conj(Q).  The raw deviations are measured about 2^14
    entries at a time.  The symmetrization adds entries in pairs, so a
    non-finite entry, or one beyond half the float range, raises
    NonFiniteValue (with no RuntimeWarning), and, once every pair is drawn,
    an exchange or hermiticity deviation above TENSOR_SYM_TOL max(max |v|,
    1) raises SymmetryViolation.  Then V = (V + Q.T) / 2, then (V + conj(
    V.T)) / 2, Q the scratch for conj(V.T): an entry and its images get the
    same bits.  Returns the larger deviation relative to max(max |v|, 1)."""
    scale, exch, herm = 1.0, 0.0, 0.0
    for V, Q in images:
        step = max(1, 2 ** 14 // len(V))
        with np.errstate(over="ignore", invalid="ignore"):     # NonFiniteValue below
            for s in range(0, len(V), step):
                e = s + step
                scale = float(np.max([scale, np.abs(V[s:e]).max(), np.abs(Q[s:e]).max()]))
                exch = max(exch, float(np.abs(V[s:e] - Q.T[s:e]).max()))
                herm = max(herm, float(np.abs(V[s:e] - Q[s:e].conj()).max()))
        if not math.isfinite(2.0 * scale):                     # NaN fails too
            raise NonFiniteValue("two-body tensor has a non-finite entry, or one "
                                 "beyond half the float range")
        V += Q.T
        V *= 0.5
        np.conjugate(V.T, out=Q)
        V += Q
        V *= 0.5
        del V, Q                      # not held while the next pair is formed
    if not (exch <= TENSOR_SYM_TOL * scale and herm <= TENSOR_SYM_TOL * scale):
        raise SymmetryViolation(
            f"tensor symmetry deviation: exchange {exch:.3e}, hermitian {herm:.3e}")
    return max(exch, herm) / scale


def pair_factors(orbitals: OrbitalSet, modes, terms, blocks=None) -> np.ndarray:
    """B[(bd), r] = <b|g_r|d>, (K^2, R), for the kept Fourier modes or else
    the factored separable terms of tensor_factors, in closed form from the
    orbitals' profiles and harmonics (OrbitalSet.pair_coefficients): the
    mode k, exp(-2 pi i k.y / G), as the x1 column of dft_columns and the x2
    mode k2; a term as its x1 factor and its weighted x2 modes.

    Given the blocks of tensor_factors, the modes' B is transfer-compact,
    (K^2, w) for the widest block's w columns: row (bd) holds only the
    modes of the block whose row T allows m_d - m_b, in the order of its
    columns, with the bits of the dense B, and no entry the rule forbids.
    The separable terms are one block, whose compact B is the dense one."""
    if modes:
        (k1, k2), _ = modes
        E1, at1, _ = dft_columns(k1, orbitals.grid.G1)
        if blocks is None:
            return orbitals.pair_coefficients(E1, at1, k2)
        slot = np.empty(len(k2), dtype=np.int64)
        allowed = np.empty((len(k2), orbitals.flux_count), dtype=bool)
        for T, columns in blocks:
            slot[columns], allowed[columns] = np.arange(len(columns)), T
        return orbitals.pair_coefficients(E1, at1, k2, slot, allowed)
    return np.column_stack([orbitals.pair_coefficients(f[:, None], np.zeros_like(k), k) @ a
                            for _, f, k, a in terms])


def tensor_bytes(K: int, M: int, grid: Grid, modes, terms, blocks) -> int:
    """two_body_tensor's bytes for K orbitals, M flux quanta and the factors
    of tensor_factors on grid: 16 K^2 (w + 1) for the transfer-compact B,
    w the widest block's columns (pair_factors), and a padding column, and
    the larger of B's temporaries while it is filled and, once they are
    freed, 32 K^4 / g for the blocks of v and F (momentum_modulus g) with 64
    K^2 for their index arrays and 32 n (n + r) for the factor slices,
    product and image of the largest block, n = |T| K^2 / M pairs by r
    columns.  B's temporaries: for a table, 32 K P for the orbital samples
    at the P grid points and their conjugate; in closed form
    (OrbitalSet.pair_coefficients), per shell offset, 16 G1 K^2 for the
    products of x1 profiles and their kept columns, 16 K^2 u for their sums
    at the u x1 columns of dft_columns (one for a separable term) and 72 K^2
    c for the gathers, phases and indices of the c modes of one x2 residue."""
    sizes = [(int(T.sum()) * K * K // M, len(columns)) for T, columns in blocks]
    R, width = sum(r for _, r in sizes), max((r for _, r in sizes), default=0)
    if modes is None and terms is None:
        fill = 32 * K * grid.G1 * grid.G2
    elif R == 0:
        fill = 0
    else:
        if modes:
            (k1, k2), _ = modes
            u, c = len(np.unique(np.concatenate([k1, -k1 % grid.G1]))), np.bincount(k2).max()
        else:
            u, c = 1, max(np.bincount(k).max() for *_, k, _ in terms)
        fill = 16 * K * K * (grid.G1 + u) + 72 * K * K * int(c)
    stored = 32 * K ** 4 // momentum_modulus(M, blocks) + 64 * K * K
    return 16 * K * K * (width + 1) + max(
        fill, stored + max((32 * n * (n + r) for n, r in sizes), default=0))


def momentum_modulus(M: int, blocks) -> int:
    """g = gcd(M, every t - t' within one row T of the blocks of
    tensor_factors): the transfers of a row are one residue mod g, so x2
    momentum is conserved mod g.  M for the Gaussian and zero kinds, gcd(M,
    2 harmonic2) for the cosine kind, 1 for a table (every transfer)."""
    return math.gcd(M, *(int(t) for T, _ in blocks for t in np.flatnonzero(T) - T.argmax()))


def tensor_factors(potential: PotentialSpec, K: int, M: int, grid: Grid):
    """(modes, terms, blocks): fourier_modes or else separable_terms on grid
    (None, None for a table) and one (T, columns) per distinct x2_transfers
    row T of the factor columns, rows that are disjoint for every kind (all
    transfers for a table), once the bytes for K orbitals and M flux quanta
    (tensor_bytes) are checked against TENSOR_BYTE_CAP."""
    modes = potential.fourier_modes(grid)
    terms = None if modes else potential.separable_terms(grid)
    P = grid.G1 * grid.G2
    R, what = ((len(modes[1]), "Fourier modes") if modes else
               (P, "grid points") if terms is None else (len(terms), "separable terms"))
    rule = potential.x2_transfers(grid, M)
    rule = np.ones((R, M), dtype=bool) if rule is None else rule[modes[0][1]] if modes else rule
    keys, group = np.unique(rule, axis=0, return_inverse=True)
    blocks = [(T, np.flatnonzero(group == i)) for i, T in enumerate(keys)]
    nbytes = tensor_bytes(K, M, grid, modes, terms, blocks)
    if nbytes > TENSOR_BYTE_CAP:
        raise TooLarge(f"two-body tensor at K = {K} with {R} {what} needs {nbytes / 1e9:.2f} "
                       f"GB, over the budget of {TENSOR_BYTE_CAP / 1e9:.2f} GB")
    return modes, terms, blocks


def dft_columns(k: np.ndarray, G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of the length-G DFT matrix, E[x, u] = exp(-2 pi i x u / G),
    at the distinct u among k and -k mod G, with the column of each k and of
    each -k; x u is reduced mod G first, so each entry is a root of unity
    whatever the size of x u."""
    u, column = np.unique(np.concatenate([k, -k % G]), return_inverse=True)
    E = np.exp(-2j * np.pi * (np.outer(np.arange(G), u) % G) / G)
    return E, column[:len(k)], column[len(k):]


class Hamiltonian:
    """H applied and never stored: diagonal * x without W, else A_2 (W x 1)
    A_2^T x (assemble_hamiltonian) with W in pair-momentum blocks, (g, P, P):
    the put of sign * x into D_2 (put_signed), Z = W @ D_2, one batched
    product, and the gather, the sum of sign * Z.take(at) over the place
    pairs in order (gather_signed), so an entry of H and its mirror add the
    same terms in the same order (H is exactly Hermitian).  D_2 and Z are
    (g, P, C(K,N-2)), allocated once; their rows are the slots class P +
    place of the pairs (slot, PairBlocks' map from each ascending pair, the
    identity at g = 1), and at, sign is the two-hole table built straight in
    them, basis.holes(2, slot), the one table H holds.  Padding rows of D_2
    are never written and stay zero, padding rows of Z are never gathered,
    and padding rows of W are zero.  With W, H's diagonal is read off W's,
    and norm bounds ||H - mu||_1, mu = tr H / dim, by |H_jj - mu| plus
    sum_{p != q} |W[p, q]| per pair q of row j (the hole of q refilled by p
    != q is another determinant or none).  nnz counts W's nonzero entries.

    A plain numpy operator: H @ x, H.matvec(x) and H.rmatvec(x) take x of
    shape (dim,) or (dim, 1) and return H x of shape (dim,); any other
    shape raises DimensionMismatch.  scalar * H is the dense array."""

    # a non-finite or overflowing diagonal or bound is reported by
    # ExactPropagator as NonFiniteValue, with no RuntimeWarning before it
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, basis: DeterminantBasis, diagonal: np.ndarray | None = None,
                 W: np.ndarray | None = None, slot: np.ndarray | None = None):
        self.shape, self.dtype = (basis.dim,) * 2, np.dtype(np.complex128)
        self.basis, self.W, off, self.nnz = basis, W, 0.0, 0
        if W is not None:               # diagonal and bound first: their temporaries go before D_2
            n_holes = math.comb(basis.K, basis.N - 2)
            self.at, self.sign = basis.holes(2, slot)
            slots = self.at // n_holes
            W_diagonal = W.diagonal(axis1=1, axis2=2).ravel()
            diagonal = W_diagonal[slots.T].sum(axis=1)
            off = (np.abs(W).sum(axis=1).ravel() - np.abs(W_diagonal))[slots].sum(axis=0)
            del slots
            self.nnz = int(np.count_nonzero(W))
            self._D2 = np.zeros(W.shape[:2] + (n_holes,), dtype=np.complex128)
            self._Z = np.empty_like(self._D2)
        self.diagonal, self.mu = diagonal, diagonal.mean()
        self.norm = float(np.max(off + np.abs(diagonal - self.mu)))

    def __matmul__(self, x):
        if np.shape(x) not in ((self.shape[1],), (self.shape[1], 1)):
            raise DimensionMismatch(f"operand of shape {np.shape(x)} for H of dim {self.shape[1]}")
        x = np.ravel(x)
        if self.W is None:
            return self.diagonal * x
        self._put(x)
        self._product()
        return self._gather()

    matvec = rmatvec = __matmul__       # H is Hermitian

    def _put(self, x):
        """D_2 = A_2 x in the slots of W's blocks."""
        put_signed(self._D2.reshape(-1), self.at, self.sign, x)

    def _product(self):
        """Z = W @ D_2, one product per pair-momentum block."""
        np.matmul(self.W, self._D2, out=self._Z)

    def _gather(self) -> np.ndarray:
        """A_2^T Z."""
        return gather_signed(self._Z.reshape(-1), self.at, self.sign)

    def __rmul__(self, scalar) -> np.ndarray:
        """scalar * H, dense (toarray): an array whose trace and norms any
        caller reads exactly."""
        return scalar * self.toarray()

    def toarray(self) -> np.ndarray:
        """Dense H, one matvec per column."""
        return np.column_stack([self.matvec(e) for e in np.eye(self.shape[0])])


def assemble_hamiltonian(basis: DeterminantBasis, energies: np.ndarray,
                         tensor: InteractionTensor | None) -> Hamiltonian:
    """H = sum_p e_p n_p + sum_{p<q, r<s} <pq||rs> a+_p a+_q a_s a_r, with
    <pq||rs> = v[p,q,r,s] - v[p,q,s,r], as the operator A_2 (W x 1) A_2^T
    through the (N-2)-particle determinants (Knowles & Handy 1984):
      - W[c, (pq), (rs)] = <pq||rs> between the ascending pairs of pair
        momentum c = m_p + m_q (mod g), a copy of InteractionTensor.
        pair_blocks' values, whose padding rows are zero, with (e_p + e_q) /
        (N - 1) on the diagonal of each pair, which H's diagonal sums per
        row (at g = 1, the dense W over every pair);
      - A_2[i, slot(pq) C(K,N-2) + h] = <h| a_q a_p |i>, the two-hole table
        basis.holes(2, slot) built in the slots of W's blocks, at every g.
    N = 1 or no interaction gives the one-body diagonal alone.  The bytes of
    D_2, Z, the table and W (hamiltonian_bytes) over H_BYTE_CAP raise
    TooLarge before the table or the pair blocks are built."""
    energies = np.asarray(energies, dtype=float)
    if energies.shape[0] != basis.K:
        raise DimensionMismatch(
            f"{energies.shape[0]} one-body energies for K={basis.K}")
    K, N, dim = basis.K, basis.N, basis.dim
    if tensor is not None and tensor.K != K:
        raise DimensionMismatch(f"tensor rank {tensor.K} for K={K}")
    if N == 1 or tensor is None or tensor.is_zero():
        return Hamiltonian(basis, energies[basis.occupations].sum(axis=1).astype(np.complex128))

    nbytes = hamiltonian_bytes(K, N, tensor.modulus)
    if nbytes > H_BYTE_CAP:
        rows = pair_classes(*np.triu_indices(K, 1), tensor.modulus)[0].size
        raise TooLarge(f"H on C({K},{N}) = {dim} determinants needs {nbytes / 1e9:.2f} GB "
                       f"to apply ({rows} x {math.comb(K, N - 2)} two-hole "
                       f"amplitudes), over the budget of {H_BYTE_CAP / 1e9:.2f} GB")
    blocks = tensor.pair_blocks
    W = blocks.values.copy()
    padding = blocks.pairs == math.comb(K, 2)
    place = np.arange(W.shape[1])
    W[:, place, place] += np.where(padding, 0.0, (energies[blocks.r] + energies[blocks.s])
                                   / (N - 1))
    return Hamiltonian(basis, W=W, slot=blocks.slot)


def hamiltonian_bytes(K: int, N: int, modulus: int = 1) -> int:
    """Bytes of the two-body Hamiltonian's arrays: D_2 and Z, (g P,
    C(K,N-2)) each, its W blocks, (g, P, P), P the largest class of
    pair_classes, and its one two-hole table, (C(N,2), C(K,N)) int64."""
    g, P = pair_classes(*np.triu_indices(K, 1), modulus)[0].shape
    return (32 * g * P * math.comb(K, N - 2) + 8 * math.comb(N, 2) * math.comb(K, N)
            + 16 * g * P * P)


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
    remainder over the next level in all C(M, r) ways, in lexicographic order,
    so the first set is orbitals 0..N-1.  More than DET_SPACE_CAP sets raise
    TooLarge before any is listed.
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
    if filling.degeneracy > DET_SPACE_CAP:
        raise TooLarge(f"ground-state degeneracy C({M},{r}) = {filling.degeneracy} "
                       f"exceeds cap {DET_SPACE_CAP}")
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
    theta_m) for norm = |t| ||A||_1, the smaller m on a tie; (0, 1) at 0.
    An m whose norm / theta_m overflows is skipped: for a finite norm the
    largest theta keeps it finite, with fewer matvecs."""
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA.items()
                if math.isfinite(norm / theta)), key=lambda ms: ms[0] * ms[1])


class ExactPropagator:
    """exp(-i H t / hbar) acting on vectors, by the truncated Taylor scheme of
    Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 2011, Alg. 3.2) on the
    operator of assemble_hamiltonian as given; no dense H, no
    eigendecomposition and no random number.  The generator A = -i (H - mu)
    / hbar is never formed: each matvec is -i (H B - mu B) / hbar, each
    Taylor step ends with exp(-i t mu / (hbar s)), and mu and the bound on
    ||H - mu||_1 are read from H.  An advance over t takes (m*, s) from |t|
    ||A||_1 (taylor_parameters; a bound will do, as ||A^p||_1^(1/p) <=
    ||A||_1), then at most s m* matvecs, each Taylor sum stopped once its
    terms fall below TAYLOR_TOL of it.  max |F| of the sum is read only
    once the last two terms fall below 2 TAYLOR_TOL of a running bound on
    it (max |F| at the step's start plus each term's max), so each sum
    stops where the exact max after every term would stop it.  A
    non-finite entry of H or an infinite ||A||_1 raises NonFiniteValue, a
    non-finite t ||A||_1 InvalidValue, and a plan of more than
    TAYLOR_MATVEC_CAP matvecs TooLarge, before the first.
    matvecs counts the products with H over every advance."""

    def __init__(self, H: Hamiltonian, hbar: float = 1.0):
        self.H, self.hbar, self.mu, self.norm = H, hbar, H.mu, H.norm / abs(hbar)
        self.matvecs = 0
        if not math.isfinite(self.norm):
            raise NonFiniteValue("exact generator -i H / hbar has a non-finite entry "
                                 "or an infinite 1-norm")

    def advance(self, psi0: np.ndarray, t: float) -> np.ndarray:
        norm = abs(t) * self.norm
        if not (math.isfinite(t) and math.isfinite(norm)):
            raise InvalidValue("t", f"interval {t!r} times ||A||_1 = "
                               f"{self.norm:.6g} is not finite")
        m, s = taylor_parameters(norm)
        if m * s > TAYLOR_MATVEC_CAP:
            raise TooLarge(f"exact propagation over t = {t!r} plans {float(m) * s:.3g} "
                           f"matvecs ({s:.3g} Taylor steps of {m} terms at |t| ||A||_1 "
                           f"= {norm:.3g}), over the cap of {TAYLOR_MATVEC_CAP}")
        h = -1j * t / (self.hbar * s)        # one Taylor step of -i (H - mu) t / hbar
        F = B = psi0
        eta = np.exp(h * self.mu)
        for _ in range(s):
            c1 = bound = np.abs(B).max()        # B is F: bound starts at max |F|
            for j in range(m):
                B = (h / (j + 1)) * (self.H @ B - self.mu * B)
                self.matvecs += 1
                c2 = np.abs(B).max()
                F = F + B
                bound += c2                     # max |F| < 2 bound, whatever the rounding
                if c1 + c2 <= 2 * TAYLOR_TOL * bound:
                    bound = np.abs(F).max()
                    if c1 + c2 <= TAYLOR_TOL * bound:
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
