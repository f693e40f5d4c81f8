"""Independent oracles used by the test suite.

The many-body oracles work in the full K^N tensor product space via explicit
permutation sums and Kronecker products, deliberately avoiding the
determinant-based code paths under test; the mean-field oracles contract
v[a, b, g, d] by index sums rather than on its pair layout, one of them over
the other orbitals one at a time instead of the full density.  The defect
oracles embed determinants column by column: the residual as a sum of wedges
with one orbital replaced, and its sector norms by projecting onto every one
of the C(K, N) wedges of a unitary completing the orbitals.  The magnetic
translation oracle applies the x1-seam phase in one closed formula instead of
through the seam shift of the kinetic operator.  The periodized Gaussian
oracles sum its lattice images pair by pair, or per axis in Poisson-dual form.
The reduced density matrix oracle accumulates it entry by entry with np.add.at.
The replacement-table oracle sorts every target occupation and ranks it; the
Hamiltonian oracle consumes it as COO lists and mirrors the upper triangle
with scipy's transpose and sum.  The Gaussian-tensor oracle takes a full 2-D
FFT of every pair density and reads the kept modes off it.  The orbital
oracle samples the lattice sum on the grid shell by shell, one Hermite
recurrence per shell; the pair-factor oracle fills B from those samples by a
partial DFT of every 2-D pair density, or by the sampled separable terms.
The dense-tensor oracle forms the whole pair matrix as one product A @ B^T
over every factor column of the tensor's own dense B, with the selection
rule's zeros set in B, and checks and symmetrizes it one slab of fixed a
at a time, with no momentum block and no transfer-compact B; the same slab
symmetrization serves a dense v given to InteractionTensor, and the
exact-symmetry oracle reads v and F entry by entry from the documented
block layout.  The complex-path oracle builds the tensor with the complex
symmetrization it had before v was made real, every block kept complex,
for the contractions' complex path.  DenseTensor reads
a dense pair matrix for the tensor's methods, with no block and no
antisymmetrized copy: J and X one pass each, the pair amplitudes by
sequential contractions of v.  The blockwise mean field contracts every
momentum block of F, with no Hermitian mirror; the Gram deviation and RK4
oracles form the identity and the step constants afresh each time.  The
dense-W Hamiltonian scatters the pair blocks into W over every pair and
applies it with the put and the sum of whole (C(N,2), dim) products, and the
Taylor oracle reads the exact max |F| after every term.
"""

import itertools
import math

import numpy as np
import scipy.fft
import scipy.sparse as sp

from landau_hf import manybody
from landau_hf.basis import TAIL_TOL, grid_reduced_field, hermite_function
from landau_hf.errors import SymmetryViolation, TruncationTooSmall
from landau_hf.hartree_fock import HFState, hf_rhs
from landau_hf.manybody import dft_columns, pair_factors


def perm_sign(perm) -> float:
    s = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
            if perm[i] > perm[j])
    return -1.0 if s % 2 else 1.0


def wedge_tensor(columns: np.ndarray) -> np.ndarray:
    """(1/sqrt(N!)) sum_sigma sign(sigma) c_{sigma(1)} x ... x c_{sigma(N)}."""
    K, N = columns.shape
    out = np.zeros(K ** N, dtype=complex)
    for perm in itertools.permutations(range(N)):
        vec = columns[:, perm[0]]
        for k in perm[1:]:
            vec = np.kron(vec, columns[:, k])
        out += perm_sign(perm) * vec
    return out / math.sqrt(math.factorial(N))


def occupation_tensor(occ, K: int) -> np.ndarray:
    cols = np.zeros((K, len(occ)), dtype=complex)
    for j, p in enumerate(occ):
        cols[p, j] = 1.0
    return wedge_tensor(cols)


def one_body_tensor(h: np.ndarray, N: int) -> np.ndarray:
    """sum_i 1 x ... x h x ... x 1 (h on particle i) on the K^N tensor space."""
    K = h.shape[0]
    out = np.zeros((K ** N, K ** N), dtype=complex)
    for i in range(N):
        op = np.ones((1, 1))
        for k in range(N):
            op = np.kron(op, h if k == i else np.eye(K))
        out += op
    return out


def dense_hamiltonian(K: int, N: int, energies, v: np.ndarray) -> np.ndarray:
    """One-body sum plus all pair interactions, on the K^N tensor space."""
    dim = K ** N
    H = one_body_tensor(np.diag(np.asarray(energies, dtype=float)), N)
    for i, j in itertools.combinations(range(N), 2):
        T = np.eye(dim, dtype=complex).reshape([K] * N + [dim])
        T2 = np.moveaxis(T, (i, j), (0, 1))
        out = np.einsum("abgd,gd...->ab...", v, T2)
        H += np.moveaxis(out, (0, 1), (i, j)).reshape(dim, dim)
    return H


def projected_hamiltonian(det_basis, energies, v: np.ndarray) -> np.ndarray:
    """Tensor-space Hamiltonian projected onto the reference determinants."""
    K, N = det_basis.K, det_basis.N
    Hd = dense_hamiltonian(K, N, energies, v)
    S = np.stack([occupation_tensor(occ, K) for occ in det_basis.occupations])
    return S.conj() @ Hd @ S.T


def partial_trace_rdm(psi_tensor: np.ndarray, K: int, N: int) -> np.ndarray:
    """N * trace over particles 2..N of |psi><psi|."""
    psi = psi_tensor.reshape(K, K ** (N - 1))
    return N * psi @ psi.conj().T


def dense_propagate(H, psi: np.ndarray, t: float, hbar: float = 1.0) -> np.ndarray:
    """exp(-i H t / hbar) psi through a dense eigendecomposition of H."""
    Hd = H.toarray() if hasattr(H, "toarray") else np.asarray(H)
    w, V = np.linalg.eigh(Hd)
    return V @ (np.exp(-1j * w * t / hbar) * (V.conj().T @ psi))


def add_at_rdm(coefficients: np.ndarray, basis) -> np.ndarray:
    """One-body reduced density matrix accumulated entry by entry with
    np.add.at: |c_i|^2 on the diagonal of every occupied p, then
    sign * conj(c_j) c_i at (p, q) per single replacement p -> q."""
    c, occ = coefficients, basis.occupations
    omega = np.zeros((basis.K, basis.K), dtype=np.complex128)
    np.add.at(omega, (occ, occ), (np.abs(c) ** 2)[:, None])
    for i, j, P, Q, sign in sorted_replacements(basis, 1):
        np.add.at(omega, (P[:, 0], Q[:, 0]), sign * np.conj(c[j]) * c[i])
    return omega


def sorted_replacements(basis, n: int, block: int = 256):
    """Every replacement of n occupied by n empty orbitals as flat arrays
    (i, j, P, Q, sign) in the order (i, P, Q), one block of source rows at a
    time, by sorting: every target occupation is written out, sorted and
    ranked, and the sign is the parity of the places of P in the source plus
    those of Q in the sorted target."""
    K, N = basis.K, basis.N
    removed, added = (np.array(list(itertools.combinations(range(m), n)),
                               dtype=np.int64).reshape(-1, n) for m in (N, K - N))
    shape = (len(removed), len(added))
    for start in range(0, basis.dim, block):
        occ = basis.occupations[start:start + block]
        B = occ.shape[0]
        virt = np.nonzero(np.all(occ[:, :, None] != np.arange(K), axis=1))[1]
        virt = virt.reshape(B, K - N)
        P = np.broadcast_to(occ[:, removed][:, :, None], (B, *shape, n))
        Q = np.broadcast_to(virt[:, added][:, None], (B, *shape, n))
        target = np.broadcast_to(occ[:, None, None], (B, *shape, N)).copy()
        np.put_along_axis(target, removed[None, :, None], Q, axis=-1)
        target.sort(axis=-1)
        parity = (removed.sum(axis=1)[:, None]
                  + (target[..., None, :] < Q[..., None]).sum(axis=(-2, -1)))
        yield (np.repeat(np.arange(start, start + B), shape[0] * shape[1]),
               basis.rank(target).ravel(), P.reshape(-1, n), Q.reshape(-1, n),
               np.where(parity % 2, -1.0, 1.0).ravel())


def coo_hamiltonian(basis, energies, tensor) -> sp.csr_matrix:
    """assemble_hamiltonian through COO lists of the upper triangle from
    sorted_replacements, mirrored as upper + triu(upper, 1)^H: a single
    replacement p -> q sums <pr||qr> over the spectators r != p."""
    energies = np.asarray(energies, dtype=float)
    occ = basis.occupations
    dim, N = occ.shape
    diag = energies[occ].sum(axis=1).astype(np.complex128)
    v = tensor.values
    w = v - v.transpose(0, 1, 3, 2)
    for k, l in itertools.combinations(range(N), 2):
        diag += w[occ[:, k], occ[:, l], occ[:, k], occ[:, l]]
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    for n in (1, 2):
        for i, j, P, Q, sign in sorted_replacements(basis, n):
            up = j > i
            i, P, Q = i[up], P[up], Q[up]
            elem = (sum(np.where(r != P[:, 0], w[P[:, 0], r, Q[:, 0], r], 0)
                        for r in occ[i].T) if n == 1
                    else w[P[:, 0], P[:, 1], Q[:, 0], Q[:, 1]])
            rows.append(i); cols.append(j[up]); vals.append(sign[up] * elem)
    upper = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(dim, dim), dtype=np.complex128).tocsr()
    lower = sp.triu(upper, k=1).conj().T
    return (upper + lower).tocsr()


def fft2_gaussian_pair_matrix(potential, orbitals, grid) -> np.ndarray:
    """Raw pair matrix v[(ag), (bd)] of a translation-invariant kernel from a
    full 2-D FFT R_ag of the pair densities conj(phi_a) phi_g w, g >= a, one
    a at a time, read at the kept modes k and -k, with the selection rule's
    zeros set in B[(bd), k] = R_bd(k); not symmetrized."""
    K, M = orbitals.size, orbitals.flux_count
    phi = orbitals.matrix()
    (k1, k2), weights = potential.fourier_modes(grid)
    minus = (-k1 % grid.G1, -k2 % grid.G2)
    B = np.empty((K, K, len(weights)), dtype=np.complex128)
    for a in range(K):
        dens = (phi[a].conj() * phi[a:] * grid.weight).reshape(K - a, *grid.shape)
        R = scipy.fft.fft2(dens)
        B[a:, a] = R[:, minus[0], minus[1]].conj()
        B[a, a:] = R[:, k1, k2]
    labels = np.array([orb.m for orb in orbitals.orbitals])
    transfer = (labels - labels[:, None]) % M
    rule = potential.x2_transfers(grid, M)[k2]
    B[(~rule).T[transfer]] = 0
    A = B.transpose(1, 0, 2).conj() * weights
    return A.reshape(K * K, -1) @ B.reshape(K * K, -1).T


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


def rule_kept(rule: np.ndarray, transfer: np.ndarray) -> float:
    """Fraction of the tensor entries the selection rule leaves free, from
    transfer[x, y] = m_y - m_x mod M: (ag, bd) is free when one row of rule
    marks both m_a - m_g (the first factor allows minus the row's transfers)
    and m_d - m_b.  Orbital pairs are counted per transfer, so no K^4 array
    is formed."""
    pairs = np.bincount(transfer.ravel(), minlength=rule.shape[1])
    joint = (rule.T.astype(np.int64) @ rule) > 0          # [m_a - m_g, m_d - m_b]
    return float(pairs @ joint @ pairs) / transfer.size ** 2


def grid_orbital(n: int, m: int, grid, flux_count: int, lattice_cut: int = 0) -> np.ndarray:
    """(G1, G2) samples of the box orbital (n, m): the lattice sum over x1
    translations assembled on the grid shell by shell, |l1| = 0, 1, ..., l1
    before -l1, each shell's profile from its own hermite_function call,
    while one of a ring's shells lies inside the classical turning range or
    its sampled maximum exceeds TAIL_TOL times the accumulated peak."""
    M = flux_count
    b = grid_reduced_field(grid, M)
    sqrt_b = math.sqrt(b)
    turn = math.sqrt(2 * n + 1.0) / sqrt_b + grid.L1
    bound = lattice_cut or 10_000
    values = np.zeros((grid.G1, grid.G2), dtype=np.complex128)
    peak = 0.0
    l1 = 0
    while True:
        hit = False
        for shell in ((0,) if l1 == 0 else (l1, -l1)):
            profile = hermite_function(n, sqrt_b * (grid.x1 + (shell - m / M) * grid.L1))
            mx = float(np.max(np.abs(profile)))
            center = abs(shell - m / M) * grid.L1
            if mx > TAIL_TOL * max(peak, 1e-300) or center <= turn:
                if l1 > bound:
                    raise TruncationTooSmall(
                        f"lattice sum for orbital (n={n}, m={m}) needs shell "
                        f"l1={shell} beyond the cut {bound}")
                harmonic = np.exp(2j * np.pi * (m - M * shell) * grid.x2 / grid.L2)
                values += np.outer(profile, harmonic)
                peak = max(peak, mx)
                hit = True
        if not hit:
            break
        l1 += 1
    values *= b ** 0.25 / math.sqrt(grid.L2)
    return values


def grid_orbital_matrix(oset, lattice_cut: int = 0) -> np.ndarray:
    """(K, P) grid_orbital samples of every orbital of oset, on its grid."""
    M = oset.flux_count
    return np.stack([grid_orbital(k // M, k % M, oset.grid, M, lattice_cut).ravel()
                     for k in range(oset.size)])


def grid_gram(phi: np.ndarray, grid) -> np.ndarray:
    """<b|d> of (K, P) samples by the rectangle rule."""
    return (phi.conj() @ phi.T) * grid.weight


def grid_pair_factors(potential, phi: np.ndarray, grid) -> np.ndarray:
    """B[b, d, r] = <b|g_r|d> of the (K, P) orbital samples phi on grid for
    the kept Fourier modes (a partial DFT of each pair density, one product
    with the x2 columns E2 of dft_columns, one with the x1 columns E1), the
    cosine kind's sampled factor, or the grid points of a table (the pair
    densities)."""
    K = len(phi)
    modes = potential.fourier_modes(grid)
    terms = None if modes else potential.separable_terms(grid)
    R = len(modes[1]) if modes else grid.G1 * grid.G2 if terms is None else len(terms)
    B = np.empty((K, K, R), dtype=np.complex128)
    if modes:
        (k1, k2), _ = modes
        E1, at1, minus1 = dft_columns(k1, grid.G1)
        E2, at2, minus2 = dft_columns(k2, grid.G2)
        cw = phi.conj() * grid.weight
        for b in range(K):
            half = ((cw[b] * phi[b:]).reshape(-1, grid.G2) @ E2).reshape(K - b, grid.G1, -1)
            coef = E1.T @ half
            B[b:, b] = coef[:, minus1, minus2].conj()
            B[b, b:] = coef[:, at1, at2]
    elif terms:                                   # the cosine kind's one term
        B[:, :, 0] = (phi.conj() * potential._cosine_factor(grid).ravel()) @ phi.T * grid.weight
    else:
        np.multiply(phi.conj()[:, None], phi, out=B)
        B *= grid.weight
    return B


def dense_two_body_tensor(potential, orbitals, grid):
    """(pair, symmetry_deviation, rule_kept) of the two-body tensor as one
    dense product v = A @ B^T of (K^2, R) factors over every pair and factor
    column: B[(bd), r] = <b|g_r|d> (manybody.pair_factors, whose own oracle
    is grid_pair_factors; for a table, the pair densities of the samples),
    every entry the selection rule forbids set to 0 in B, A[(ag), r] = c_r
    conj(B[(ga), r]) (B @ T for a table); then the raw exchange and
    hermiticity deviations (symmetry_deviations) relative to max(max |v|, 1),
    which raise two_body_tensor's SymmetryViolation beyond its
    TENSOR_SYM_TOL,
    and v = (v + v[b,a,d,g]) / 2, then (v + conj(v[g,d,a,b])) / 2, in place
    one slab of fixed a at a time.  Needs at least one factor column."""
    K, M = orbitals.size, orbitals.flux_count
    labels = np.arange(K) % M
    transfer = (labels - labels[:, None]) % M
    rule = potential.x2_transfers(grid, M)
    modes = potential.fourier_modes(grid)
    terms = None if modes else potential.separable_terms(grid)
    if terms is None and not modes:
        B, c = grid_pair_factors(potential, orbitals.matrix(), grid), None
    else:
        B = pair_factors(orbitals, modes, terms).reshape(K, K, -1).copy()
        c = modes[1] if modes else np.array([c_r for c_r, *_ in terms])
    R = B.shape[2]
    if modes:
        rule = rule[modes[0][1]]
    if c is None:
        A = B.reshape(K * K, R) @ potential.pair_values(grid)
    if rule is not None:
        np.copyto(B, 0, where=(~rule).T[transfer])
        A = np.conjugate(B.transpose(1, 0, 2)) * c
    v = A.reshape(K * K, R) @ B.reshape(K * K, R).T
    deviation = symmetrize_pair(v)
    kept = 1.0 if rule is None else rule_kept(rule, transfer)
    return v, deviation, kept


def symmetrize_pair(pair: np.ndarray) -> float:
    """Symmetrize a (K^2, K^2) pair-layout tensor in place and return its
    raw exchange and hermiticity deviation (symmetry_deviations) relative
    to max(max |v|, 1), raising SymmetryViolation beyond TENSOR_SYM_TOL:
    v = (v + v[b,a,d,g]) / 2, then (v + conj(v[g,d,a,b])) / 2, one slab of
    fixed a at a time."""
    K = math.isqrt(pair.shape[0])
    S = pair.reshape(K, K, K, K)                               # [a, g, b, d]
    scale = max(float(np.abs(pair).max()), 1.0)
    exch, herm = symmetry_deviations(pair)
    tol = manybody.TENSOR_SYM_TOL * scale
    if not (exch <= tol and herm <= tol):
        raise SymmetryViolation(
            f"tensor symmetry deviation: exchange {exch:.3e}, hermitian {herm:.3e}")
    for a in range(K):
        m = 0.5 * (S[a, :, a:] + S[a:, :, a].transpose(2, 0, 1))
        S[a, :, a:], S[a:, :, a] = m, m.transpose(1, 2, 0)
    for a in range(K):
        m = 0.5 * (S[a, a:] + S[a:, a].transpose(0, 2, 1).conj())
        S[a, a:], S[a:, a] = m, m.transpose(0, 2, 1).conj()
    return max(exch, herm) / scale


def symmetrized(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(v symmetrized, its deviation) of a dense v[a, b, g, d]
    (symmetrize_pair on a copy of its pair layout)."""
    K = len(v)
    pair = np.ascontiguousarray(np.transpose(v, (0, 2, 1, 3))).reshape(K * K, K * K)
    deviation = symmetrize_pair(pair)
    return pair.reshape(K, K, K, K).transpose(0, 2, 1, 3), deviation


def tensor_entries(stack: np.ndarray, K: int, p, q, r, s) -> np.ndarray:
    """x[p, q, r, s] of a (g, K L, K L) stack of momentum blocks in
    InteractionTensor's layout (its blocks, v, or anti, F) at broadcast
    orbital arrays: row p L + r // g and column q L + s // g of block t = (p
    - r) mod g, zero where (s - q) mod g is not t."""
    g = len(stack)
    L = K // g
    t = (p - r) % g
    return np.where((s - q - t) % g == 0, stack[t, p * L + r // g, q * L + s // g], 0)


def assert_exactly_symmetric(tensor) -> None:
    """v[b,a,d,g] == v[a,b,g,d] == conj(v[g,d,a,b]) bit for bit, and so
    F[q,p,r,s] == -F[p,q,r,s], F[g,d,a,b] == conj(F[a,b,g,d]) and F[p,p] ==
    0, read from the blocks (tensor_entries) one slab of fixed p at a time."""
    K = tensor.K
    q, r, s = np.ix_(*[np.arange(K)] * 3)
    v = lambda *index: tensor_entries(tensor.blocks, K, *index)
    F = lambda *index: tensor_entries(tensor.anti, K, *index)
    for p in range(K):
        slab = v(p, q, r, s)
        assert np.array_equal(v(q, p, s, r), slab)
        assert np.array_equal(v(r, s, p, q), slab.conj())
        slab = F(p, q, r, s)
        assert np.array_equal(F(q, p, r, s), -slab)
        assert np.array_equal(F(r, s, p, q), slab.conj())
        assert not F(p, p, r, s).any()


class DenseTensor:
    """InteractionTensor's methods on the dense pair matrix pair[(ag), (bd)]
    of v[a, b, g, d], for hf_energy, hf_rhs and defect_norm as well."""

    def __init__(self, pair: np.ndarray):
        self.pair, self.K = pair, math.isqrt(len(pair))

    def mean_field(self, C: np.ndarray) -> np.ndarray:
        """(J[rho] - X[rho]) C, rho = C C^H, J and X one product each."""
        if C.shape[1] == 1:
            return np.zeros_like(C)
        rho = C @ C.conj().T
        J = (self.pair @ rho.T.ravel()).reshape(rho.shape)
        X = rho.ravel() @ self.pair.reshape(len(rho), -1, len(rho))
        return (J - X) @ C

    def pair_amplitudes(self, C: np.ndarray) -> np.ndarray:
        """<pq|V|ij> - <pq|V|ji>, (K, K, N, N), by sequential contractions."""
        K, N = C.shape
        vC = (self.pair.reshape(-1, K) @ C).reshape(K, K, K, N).transpose(0, 2, 1, 3)
        g = np.tensordot(vC, C, axes=(2, 0)).swapaxes(2, 3)          # <pq|V|ij>
        return g - g.swapaxes(2, 3)

    def antisymmetrized_pairs(self) -> np.ndarray:
        """v[p,q,r,s] - v[p,q,s,r] over the pairs of np.triu_indices(K, 1)."""
        a, b = np.triu_indices(self.K, 1)
        v = self.pair.reshape((self.K,) * 4).transpose(0, 2, 1, 3)
        return v[a[:, None], b[:, None], a, b] - v[a[:, None], b[:, None], b, a]


def random_interaction_tensor(rng, K: int, P: int = 9, scale: float = 1.0):
    """Symmetric, Hermitian 4-index tensor from a random symmetric kernel."""
    Vmat = rng.normal(size=(P, P)) * scale
    Vmat = 0.5 * (Vmat + Vmat.T)
    phi = rng.normal(size=(K, P)) + 1j * rng.normal(size=(K, P))
    w = 1.0 / P
    G = (phi.conj() @ phi.T) * w
    L = np.linalg.cholesky(G)
    phi = np.linalg.solve(L, phi)
    D = (phi.conj()[:, None, :] * phi[None, :, :] * w).reshape(K * K, P)
    v = (D @ Vmat @ D.T).reshape(K, K, K, K).transpose(0, 2, 1, 3)
    return v, float(np.abs(Vmat).max())


def fock_matrix(v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """J[rho] - X[rho] by index sums over v[a, b, g, d]:
    J[a, g] = sum_bd v[a,b,g,d] rho[d,b], X[a, d] = sum_bg v[a,b,g,d] rho[g,b]."""
    J = np.einsum("abgd,db->ag", v, rho)
    X = np.einsum("abgd,gb->ad", v, rho)
    return J - X


def per_orbital_mean_field(orbitals: np.ndarray, v: np.ndarray) -> np.ndarray:
    """eta[:, l] = (J - X)[rho_l] phi_l, with rho_l the density of every
    orbital but l: direct and exchange terms one orbital at a time."""
    eta = np.zeros_like(orbitals)
    for ell in range(orbitals.shape[1]):
        others = np.delete(orbitals, ell, axis=1)
        eta[:, ell] = fock_matrix(v, others @ others.conj().T) @ orbitals[:, ell]
    return eta


def blockwise_mean_field(tensor, C: np.ndarray) -> np.ndarray:
    """(J - X) C with every momentum block of the tensor's F contracted, no
    symmetry of v used: one batched product of F with its gather of rho (a
    real F with the gather's float view), scattered back to (a, g), the
    numpy calls of InteractionTensor.mean_field at g <= 2, where it mirrors
    no block."""
    if tensor.is_zero() or C.shape[1] == 1:
        return np.zeros_like(C)
    rho = (C @ C.conj().T).ravel()
    fock = real_product(tensor.anti, rho.take(tensor._density_at)[:, :, None]).ravel()
    return fock.take(tensor._fock_at).reshape(tensor.K, tensor.K) @ C


def real_product(F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """F @ X for a complex X, a float64 F multiplied with X's float view
    (real and imaginary parts as adjacent columns), so no complex copy of F
    is made."""
    if F.dtype != np.float64:
        return F @ X
    return (F @ np.ascontiguousarray(X).view(np.float64)).view(np.complex128)


class ComplexSymmetrizer:
    """The complex symmetrization of the two-body tensor, manybody's
    _Symmetrizer with every pair kept complex, as it was before v was made
    real: the exchange and hermiticity deviations of each (V, Q) pair about
    2^14 entries at a time, then V = (V + Q.T) / 2 and (V + conj(V.T)) / 2 on
    the complex blocks; deviation() raises SymmetryViolation beyond
    TENSOR_SYM_TOL and returns the larger deviation relative to max(max |v|,
    1)."""

    def __init__(self):
        self.scale, self.exch, self.herm = 1.0, 0.0, 0.0

    def __call__(self, V, Q):
        step = max(1, 2 ** 14 // len(V))
        for s in range(0, len(V), step):
            e = s + step
            self.scale = float(np.max([self.scale, np.abs(V[s:e]).max(), np.abs(Q[s:e]).max()]))
            self.exch = max(self.exch, float(np.abs(V[s:e] - Q.T[s:e]).max()))
            self.herm = max(self.herm, float(np.abs(V[s:e] - Q[s:e].conj()).max()))
        V += Q.T
        V *= 0.5
        np.conjugate(V.T, out=Q)
        V += Q
        V *= 0.5
        return V, Q

    def deviation(self) -> float:
        tol = manybody.TENSOR_SYM_TOL * self.scale
        if not (self.exch <= tol and self.herm <= tol):
            raise SymmetryViolation(f"tensor symmetry deviation: exchange {self.exch:.3e}, "
                                    f"hermitian {self.herm:.3e}")
        return max(self.exch, self.herm) / self.scale


def complex_path(build):
    """build() with manybody's symmetrization replaced by ComplexSymmetrizer:
    the tensor as it was built before v was made real, its blocks, F and
    pair blocks complex128, for every contraction's complex path."""
    real = manybody._Symmetrizer
    manybody._Symmetrizer = ComplexSymmetrizer
    try:
        return build()
    finally:
        manybody._Symmetrizer = real


def gram_deviation(C: np.ndarray) -> float:
    """max |C^H C - 1| with the identity formed and subtracted whole."""
    return float(np.max(np.abs(C.conj().T @ C - np.eye(C.shape[1]))))


def rk4_states(initial, dt_eff: float, n_steps: int, tensor, energies, constants) -> list:
    """(a, C) after each of n_steps classical RK4 steps of hf_rhs, the step
    constants 0.5 dt and dt / 6 formed inside every stage."""
    def rhs(a_val, C_val):
        return hf_rhs(HFState(initial.time, a_val, C_val), energies, tensor, constants)

    a, C = complex(initial.a), initial.orbitals.astype(np.complex128)
    out = []
    for _ in range(n_steps):
        k1a, k1C = rhs(a, C)
        k2a, k2C = rhs(a + 0.5 * dt_eff * k1a, C + 0.5 * dt_eff * k1C)
        k3a, k3C = rhs(a + 0.5 * dt_eff * k2a, C + 0.5 * dt_eff * k2C)
        k4a, k4C = rhs(a + dt_eff * k3a, C + dt_eff * k3C)
        a = a + dt_eff / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        C = C + dt_eff / 6.0 * (k1C + 2 * k2C + 2 * k3C + k4C)
        out.append((a, C))
    return out


def _wedge(columns: np.ndarray, basis) -> np.ndarray:
    """Coefficients of the wedge of the columns: det of the rows of each
    occupation."""
    return np.linalg.det(columns[basis.occupations, :])


def columnwise_defect_vector(state, H, basis, energies, tensor, constants):
    """du/dt - H u / (i hbar) with du/dt = da w + a sum_l (w with column l
    replaced by dphi_l), one embedding per column."""
    da, dphi = hf_rhs(state, energies, tensor, constants)
    C = state.orbitals
    udot = da * _wedge(C, basis)
    for ell in range(state.N):
        cols = C.copy()
        cols[:, ell] = dphi[:, ell]
        udot = udot + state.a * _wedge(cols, basis)
    u = state.a * _wedge(C, basis)
    return udot - (H @ u) / (1j * constants.hbar)


def compound_sector_norms(defect: np.ndarray, orbitals: np.ndarray,
                          basis) -> np.ndarray:
    """Sector norms 0..N by the compound matrix of a unitary Q whose first
    N columns span the orbitals: the amplitude on each wedge of N columns
    of Q, summed in squares by the number of columns beyond the first N."""
    Q = np.linalg.qr(orbitals, mode="complete")[0]
    N = basis.N
    norms_sq = np.zeros(N + 1)
    for combo in itertools.combinations(range(basis.K), N):
        amp = np.vdot(_wedge(Q[:, list(combo)], basis), defect)
        norms_sq[sum(1 for c in combo if c >= N)] += abs(amp) ** 2
    return np.sqrt(norms_sq)


def unit_sector_vector(rng, orbitals: np.ndarray, basis) -> np.ndarray:
    """A vector with norm 1 in every nonempty sector 0..N: random amplitudes
    on the wedges of N columns of the unitary compound_sector_norms uses,
    summed per sector and each sector's sum scaled to unit norm."""
    Q = np.linalg.qr(orbitals, mode="complete")[0]
    N = basis.N
    parts = np.zeros((N + 1, basis.dim), dtype=np.complex128)
    for combo in itertools.combinations(range(basis.K), N):
        amp = rng.normal() + 1j * rng.normal()
        parts[sum(1 for c in combo if c >= N)] += amp * _wedge(Q[:, list(combo)], basis)
    norms = np.linalg.norm(parts, axis=1)
    return (parts[norms > 0] / norms[norms > 0, None]).sum(axis=0)


def midpoint_quad_1d(f, lo: float, hi: float, n: int) -> float:
    x = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return float(np.sum(f(x)) * (hi - lo) / n)


def seam_phase_translate(values: np.ndarray, a, grid, flux_count: int) -> np.ndarray:
    """Magnetic translation by the grid displacement a with the x2 roll taken
    first and the seam phase exp(i 2 pi M w (x2 + a2) / L2) of the w x1-seam
    crossings applied to every row, times the gauge phase exp(-i b a1 x2)."""
    s1, s2 = round(a[0] / grid.h1), round(a[1] / grid.h2)
    idx = np.arange(grid.G1) + s1
    wraps = idx // grid.G1
    shifted = np.roll(values, -s2, axis=1)[idx % grid.G1, :]
    phase_bc = np.exp(2j * np.pi * flux_count * np.outer(wraps, grid.x2 + a[1]) / grid.L2)
    b = 2.0 * math.pi * flux_count / (grid.L1 * grid.L2)
    phase_tr = np.exp(-1j * b * a[0] * grid.x2)[None, :]
    return phase_tr * phase_bc * shifted


def double_image_gaussian_table(sigma: float, grid) -> np.ndarray:
    """Periodized Gaussian at grid offsets, normalized to 1 at zero offset,
    summed over every pair of lattice images (a, b) as one outer product
    each."""
    d1 = np.arange(grid.G1) * grid.h1
    d2 = np.arange(grid.G2) * grid.h2
    n1 = int(math.ceil(9.0 * sigma / grid.L1)) + 1
    n2 = int(math.ceil(9.0 * sigma / grid.L2)) + 1
    tab = np.zeros((grid.G1, grid.G2))
    s2 = 2.0 * sigma ** 2
    for a in range(-n1, n1 + 1):
        e1 = np.exp(-((d1 + a * grid.L1) ** 2) / s2)
        for b in range(-n2, n2 + 1):
            e2 = np.exp(-((d2 + b * grid.L2) ** 2) / s2)
            tab += np.outer(e1, e2)
    return tab / tab[0, 0]


def poisson_gaussian_table(sigma: float, grid, modes: int = 50) -> np.ndarray:
    """The same table from the Poisson-summed image series per axis,
    sum_a exp(-(d + a L)^2 / (2 sigma^2)) proportional to
    1 + 2 sum_k exp(-2 (pi sigma k / L)^2) cos(2 pi k d / L), which converges
    in a few modes once sigma is comparable to L."""
    def axis(G, L):
        d = np.arange(G) * (L / G)
        k = np.arange(1, modes + 1)[:, None]
        return 1.0 + 2.0 * np.sum(np.exp(-2.0 * (math.pi * sigma * k / L) ** 2)
                                  * np.cos(2.0 * math.pi * k * d / L), axis=0)
    tab = np.outer(axis(grid.G1, grid.L1), axis(grid.G2, grid.L2))
    return tab / tab[0, 0]


def antisymmetrized_pairs(tensor) -> np.ndarray:
    """<pq||rs> = F[p,q,r,s] over ascending pairs, (C(K,2), C(K,2)), the
    pairs p < q in the order of np.triu_indices(K, 1): the dense scatter of
    the tensor's pair blocks, in their dtype, zero between pairs of
    different pair momentum."""
    blocks = tensor.pair_blocks
    c, at = np.divmod(blocks.slot, blocks.values.shape[1])      # each pair's class and place
    return np.where(c[:, None] == c, blocks.values[c[:, None], at[:, None], at], 0)


def pair_padding(blocks) -> np.ndarray:
    """(g, P) mask of the padding places of pair blocks, the places no slot names."""
    padding = np.ones(blocks.r.shape, dtype=bool)
    padding.flat[blocks.slot] = False
    return padding


def signed_put(out: np.ndarray, at: np.ndarray, sign: np.ndarray, x: np.ndarray) -> None:
    """sign[s] x put at at[s] for every place set at once: one np.put of the
    (C(N,n), dim) product sign[:, None] * x."""
    np.put(out, at, sign[:, None] * x)


def signed_sum(Z: np.ndarray, at: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """sum_s sign[s] Z.take(at[s]): the axis-0 sum of the (C(N,n), dim)
    product Z.take(at) * sign[:, None]."""
    return (Z.take(at) * sign[:, None]).sum(axis=0)


def dense_w_matvec(basis, energies, tensor):
    """x -> H x through the dense W over every ascending pair, (C(K,2),
    C(K,2)), with D_2 and Z over every pair: signed_put on basis.holes(2),
    Z = W @ D_2 (real_product) and signed_sum, into which the one-body diagonal, the sum of
    e_p over each row's orbitals, times x is added."""
    K, N = basis.K, basis.N
    W = antisymmetrized_pairs(tensor)
    one_body = np.asarray(energies)[basis.occupations].sum(axis=1).astype(np.complex128)
    at, sign = basis.holes(2)
    D2 = np.zeros((len(W), math.comb(K, N - 2)), dtype=np.complex128)

    def matvec(x):
        signed_put(D2, at, sign, x)
        y = signed_sum(real_product(W, D2), at, sign)
        y += one_body * x
        return y
    return matvec


def taylor_advance(H, psi0: np.ndarray, t: float, hbar: float = 1.0):
    """(exp(-i H t / hbar) psi0, matvecs) by ExactPropagator's truncated
    Taylor steps with the exact max |F| read after every term."""
    m, s = manybody.taylor_parameters(abs(t) * H.norm / abs(hbar))
    h = -1j * t / (hbar * s)
    F = B = psi0
    eta = np.exp(h * H.mu)
    matvecs = 0
    for _ in range(s):
        c1 = np.abs(B).max()
        for j in range(m):
            B = (h / (j + 1)) * (H @ B - H.mu * B)
            matvecs += 1
            c2 = np.abs(B).max()
            F = F + B
            if c1 + c2 <= manybody.TAYLOR_TOL * np.abs(F).max():
                break
            c1 = c2
        F = eta * F
        B = F
    return F, matvecs
