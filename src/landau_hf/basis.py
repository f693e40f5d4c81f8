"""Finite-volume eigenbasis of a charged particle in a uniform magnetic field.

Gauge convention: vector potential A = B * (0, x1) throughout, with the dual
potential A_dual = B * (x2, 0) hard-coded inside the magnetic translations.
In this gauge the kinetic operator acting on a wavefunction f reads

    H f = (hbar^2 / 2m) * (-d11 f - d22 f + 2i b x1 d2 f + b^2 x1^2 f),

with b = qB/(hbar c), and the boundary conditions on the box are

    f(-L1/2, x2) = exp(-i 2 pi M x2 / L2) f(L1/2, x2),
    f(x1, -L2/2) = f(x1, L2/2).

The orthonormal eigenbasis phi_{n,m} (n = level index, m = 0..M-1) is built by
summing translated copies of the normalized infinite-volume eigenstates over
the x1 lattice until the Gaussian tail is negligible; level n has energy
E_n = (hbar^2 / 2m) b (2n + 1), independent of m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .config import Grid, PhysicalConstants, SimulationConfig, inner_product
from .errors import (DegreeOutOfRange, GridTooCoarse, OffGridDisplacement,
                     OrthonormalityFailure, TruncationTooSmall)

MAX_HERMITE_DEGREE = 512
TAIL_TOL = 1e-14           # lattice shells below this fraction of the peak are dropped
EDGE_STENCIL = 12          # midpoint samples per one-sided edge extrapolation
GRAM_TOL = 1e-8            # largest |Gram - 1| entry of an orbital basis


def _hermite_recurrence(n: int, z: np.ndarray):
    """h_0(z), h_1(z), ..., h_n(z) in turn (hermite_function)."""
    hm1 = np.zeros_like(z)
    h = np.pi ** (-0.25) * np.exp(-0.5 * z * z)
    yield h
    for k in range(n):
        h, hm1 = (math.sqrt(2.0 / (k + 1)) * z * h
                  - math.sqrt(k / (k + 1)) * hm1), h
        yield h


def hermite_function(n: int, z):
    """Orthonormal Hermite function h_n(z) for scalar or array z.

    Stable three-term recurrence, normalized so that integral h_n h_m dz =
    delta_{nm}; factorials and powers of two are never formed explicitly:

    h_0(z) = pi^(-1/4) exp(-z^2 / 2)
    h_{k+1}(z) = sqrt(2/(k+1)) z h_k(z) - sqrt(k/(k+1)) h_{k-1}(z)
    """
    if not (0 <= n <= MAX_HERMITE_DEGREE):
        raise DegreeOutOfRange(f"degree {n} outside [0, {MAX_HERMITE_DEGREE}]")
    for h in _hermite_recurrence(n, np.asarray(z, dtype=float)):
        pass
    return h


def landau_level(n: int, constants: PhysicalConstants) -> float:
    """E_n = (hbar^2 / 2m) b (2n+1), equivalently hbar*omega_c*(n + 1/2)."""
    if n < 0:
        raise DegreeOutOfRange("level index must be >= 0")
    b = constants.reduced_field
    return constants.hbar ** 2 / (2.0 * constants.mass) * b * (2 * n + 1)


def infinite_volume_profile(n: int, k2: float, x1, reduced_field: float):
    """x1 profile of the plane-wave eigenstate: b^(1/4) h_n(sqrt(b)(x1 - k2/b))."""
    b = reduced_field
    return b ** 0.25 * hermite_function(n, math.sqrt(b) * (np.asarray(x1) - k2 / b))


def infinite_volume_orbital(n: int, k2: float, x1, x2, reduced_field: float):
    """Plane wave in x2 times a displaced oscillator profile in x1."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return np.exp(1j * k2 * x2) * infinite_volume_profile(n, k2, x1, reduced_field)


@dataclass(frozen=True)
class OrbitalField:
    """Complex field sampled on a grid of a box threaded by flux_count flux
    quanta, optionally tagged with (n, m) labels."""

    grid: Grid
    values: np.ndarray
    flux_count: int
    n: int | None = None
    m: int | None = None

    def norm(self) -> float:
        return math.sqrt(abs(inner_product(self.values, self.values, self.grid)))


def grid_reduced_field(grid: Grid, flux_count: int) -> float:
    """b consistent with the quantization identity on this box."""
    return 2.0 * math.pi * flux_count / (grid.L1 * grid.L2)


def orbital_prefactor(grid: Grid, flux_count: int) -> float:
    """b^(1/4) / sqrt(L2), the factor of every term of the lattice sum."""
    return grid_reduced_field(grid, flux_count) ** 0.25 / math.sqrt(grid.L2)


def lattice_profiles(levels, labels, grid: Grid, flux_count: int,
                     lattice_cut: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lattice sum of every orbital (n, m), n in levels (increasing), m
    in labels, in separable form: (shells, profiles, kept).

    Orbital (n, m) is b^(1/4) / sqrt(L2) times the sum over its kept shells l
    of the x1 profile h_n(sqrt(b) (x1 + (l - m/M) L1)) times the x2 harmonic
    exp(2 pi i (m - M l) x2 / L2).  Shells are taken ring by ring, |l| = 0,
    1, ..., l before -l; a shell is kept while it lies inside the classical
    turning range or its sampled maximum exceeds TAIL_TOL times the largest
    one before it, and the sum stops at the first ring that keeps none.  A
    positive lattice_cut bounds |l|: needing a shell beyond it raises
    TruncationTooSmall, and below it the sum is the same as with the default
    lattice_cut = 0, whose bound is 10 000 shells.

    Every profile of every candidate shell comes from one Hermite recurrence
    on grid.x1.  shells are the consecutive l from the lowest to the highest
    any orbital keeps, profiles[i, j, s] the profile of (levels[i],
    labels[j]) at shells[s], zero where kept[i, j, s] is False."""
    M = flux_count
    levels, labels = np.asarray(levels), np.asarray(labels)
    for n in (levels[0], levels[-1]):
        if not 0 <= n <= MAX_HERMITE_DEGREE:
            raise DegreeOutOfRange(f"degree {n} outside [0, {MAX_HERMITE_DEGREE}]")
    sqrt_b = math.sqrt(grid_reduced_field(grid, M))
    turn = np.sqrt(2 * levels + 1.0) / sqrt_b + grid.L1   # beyond this, shells decay
    bound = lattice_cut or 10_000
    # a kept shell's center lies within 2 L1 plus the widest turning range
    # plus 9 magnetic lengths of tail, and one ring past them keeps none;
    # more rings are taken while an orbital keeps a shell in every ring
    rings = min(int((math.sqrt(2 * levels[-1] + 1.0) + 9.0) / sqrt_b / grid.L1) + 4, bound + 2)
    wanted = set(levels.tolist())
    while True:
        order = np.array([0, *(s for r in range(1, rings) for s in (r, -r))])
        offset = (order[:, None] - labels / M) * grid.L1             # [shell, m]
        z = sqrt_b * (grid.x1 + offset[..., None])
        h = np.stack([hk for k, hk in enumerate(_hermite_recurrence(int(levels[-1]), z))
                      if k in wanted])                               # [n, shell, m, x1]
        mx = np.abs(h).max(axis=-1)
        before = np.maximum.accumulate(mx, axis=1)[:, :-1]          # the largest before each
        before = np.concatenate([np.zeros_like(mx[:, :1]), before], axis=1)
        keep = ((mx > TAIL_TOL * np.maximum(before, 1e-300))
                | (np.abs(offset) <= turn[:, None, None]))
        hit = np.concatenate([np.zeros_like(keep[:, :1]), keep], axis=1)
        empty = ~hit.reshape(len(levels), rings, 2, len(labels)).any(axis=2)    # [n, ring, m]
        if empty.any(axis=1).all() or rings == bound + 2:
            break
        rings = min(2 * rings, bound + 2)
    stop = np.where(empty.any(axis=1), empty.argmax(axis=1), rings)   # first ring keeping none
    kept = keep & (np.abs(order)[:, None] < stop[:, None, :])
    over = kept & (np.abs(order) > bound)[:, None]
    if over.any():
        i, j = np.argwhere(over.any(axis=1))[0]
        raise TruncationTooSmall(
            f"lattice sum for orbital (n={levels[i]}, m={labels[j]}) needs shell "
            f"l1={order[over[i, :, j].argmax()]} beyond the cut {bound}")
    used = order[kept.any(axis=(0, 2))]
    shells = np.arange(used.min(), used.max() + 1)
    at = 2 * np.abs(shells) - (shells > 0)                           # place of each in order
    profiles = np.where(kept[..., None], h, 0.0)[:, at].transpose(0, 2, 1, 3)
    return shells, profiles, kept[:, at].transpose(0, 2, 1)


def _lattice_samples(profiles: np.ndarray, shells: np.ndarray, kept: np.ndarray,
                     m: int, grid: Grid, flux_count: int) -> np.ndarray:
    """One orbital's lattice sum sampled on grid from its separable form
    (lattice_profiles): its kept shells added ring by ring, l before -l,
    each as an outer product of profile and harmonic, then scaled."""
    M = flux_count
    values = np.zeros((grid.G1, grid.G2), dtype=np.complex128)
    for s in sorted(np.flatnonzero(kept), key=lambda s: (abs(shells[s]), shells[s] < 0)):
        harmonic = np.exp(2j * np.pi * (m - M * int(shells[s])) * grid.x2 / grid.L2)
        values += np.outer(profiles[s], harmonic)
    values *= orbital_prefactor(grid, M)
    return values


def finite_volume_orbital(n: int, m: int, grid: Grid, flux_count: int,
                          lattice_cut: int = 0) -> OrbitalField:
    """Eigenstate of the boxed kinetic operator with labels (n, m): the
    lattice sum over x1 translations of the infinite-volume states
    (lattice_profiles) sampled on grid."""
    M = flux_count
    if not (0 <= m < M):
        raise DegreeOutOfRange(f"degeneracy index m={m} outside 0..{M - 1}")
    shells, profiles, kept = lattice_profiles([n], [m], grid, M, lattice_cut)
    values = _lattice_samples(profiles[0, 0], shells, kept[0, 0], m, grid, M)
    return OrbitalField(grid=grid, values=values, n=n, m=m, flux_count=M)


def _shift_x1(values: np.ndarray, s: int, grid: Grid, flux_count: int) -> np.ndarray:
    """values at (x1 + s*h1, x2) read through the twisted-periodic extension:
    samples pulled across the x1 seam pick up exp(i 2 pi M x2 / L2) per
    crossing."""
    idx = np.arange(grid.G1) + s
    out = values[idx % grid.G1, :].copy()
    wraps = idx // grid.G1
    rows = wraps != 0
    if np.any(rows):
        phase = np.exp(2j * np.pi * flux_count
                       * np.outer(wraps[rows], grid.x2) / grid.L2)
        out[rows, :] *= phase
    return out


def magnetic_translate(field: OrbitalField, a) -> OrbitalField:
    """Translate by a = (a1, a2) and multiply by exp(-i b a1 x2).

    Displacements must be integer multiples of the grid spacing so the shift
    is exact.  The x1 shift reads the grid data through its boundary-
    condition-consistent extension (_shift_x1); the x2 seam is plainly
    periodic.
    """
    grid = field.grid
    a1, a2 = float(a[0]), float(a[1])
    s1f, s2f = a1 / grid.h1, a2 / grid.h2
    s1, s2 = round(s1f), round(s2f)
    if abs(s1f - s1) > 1e-9 or abs(s2f - s2) > 1e-9:
        raise OffGridDisplacement(
            f"displacement {a} is not an integer multiple of ({grid.h1}, {grid.h2})")
    b = grid_reduced_field(grid, field.flux_count)
    shifted = np.roll(_shift_x1(field.values, s1, grid, field.flux_count), -s2, axis=1)
    return replace(field, values=np.exp(-1j * b * a1 * grid.x2)[None, :] * shifted)


def apply_landau_hamiltonian(field: OrbitalField,
                             constants: PhysicalConstants) -> OrbitalField:
    """Kinetic operator via 4th-order centered differences.

    Stencil points crossing the box edge are evaluated through the magnetic-
    periodic extension, so the residual against E_n * phi measures only the
    O(h^4) finite-difference truncation for a true eigenstate.
    """
    grid = field.grid
    M = field.flux_count
    b = constants.reduced_field
    ell_B = 1.0 / math.sqrt(b)
    if grid.h1 > ell_B / 8.0 or grid.h2 > ell_B / 8.0:
        raise GridTooCoarse(
            f"need >= 8 points per magnetic length {ell_B:.3g}; "
            f"spacings are ({grid.h1:.3g}, {grid.h2:.3g})")

    f = field.values
    fp1 = _shift_x1(f, 1, grid, M)
    fm1 = _shift_x1(f, -1, grid, M)
    fp2 = _shift_x1(f, 2, grid, M)
    fm2 = _shift_x1(f, -2, grid, M)
    d11 = (-fp2 + 16.0 * fp1 - 30.0 * f + 16.0 * fm1 - fm2) / (12.0 * grid.h1 ** 2)

    gp1 = np.roll(f, -1, axis=1)
    gm1 = np.roll(f, 1, axis=1)
    gp2 = np.roll(f, -2, axis=1)
    gm2 = np.roll(f, 2, axis=1)
    d22 = (-gp2 + 16.0 * gp1 - 30.0 * f + 16.0 * gm1 - gm2) / (12.0 * grid.h2 ** 2)
    d2 = (-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * grid.h2)

    x1 = grid.x1[:, None]
    out = (-d11 - d22 + 2j * b * x1 * d2 + (b * x1) ** 2 * f)
    out *= constants.hbar ** 2 / (2.0 * constants.mass)
    return replace(field, values=out)


@lru_cache(maxsize=None)
def _edge_weights(p: int) -> np.ndarray:
    """Lagrange weights extrapolating midpoint samples to the nearest box edge.

    Nodes sit at distances (j + 1/2) * h from the edge, j = 0..p-1; the
    returned weights evaluate the degree-(p-1) interpolant at distance 0.
    """
    d = np.arange(p) + 0.5
    w = np.empty(p)
    for j in range(p):
        others = np.delete(d, j)
        w[j] = np.prod(others / (others - d[j]))
    return w


def boundary_residuals(field: OrbitalField) -> tuple[float, float]:
    """Boundary-condition mismatch at the two seams.

    The grid holds midpoint samples only, so the field is extrapolated to
    each box edge one-sidedly (degree EDGE_STENCIL-1 polynomial) from both sides
    and the two edge values are compared, with the x1 comparison twisted by
    exp(-i 2 pi M x2 / L2).  Smooth compliant fields give residuals at the
    extrapolation-error level; incompatible fields give O(1).
    """
    grid = field.grid
    f = field.values
    p1 = min(EDGE_STENCIL, grid.G1)
    p2 = min(EDGE_STENCIL, grid.G2)
    w1 = _edge_weights(p1)
    w2 = _edge_weights(p2)

    left = np.tensordot(w1, f[:p1, :], axes=(0, 0))          # value at x1=-L1/2
    right = np.tensordot(w1, f[grid.G1 - 1 - np.arange(p1), :], axes=(0, 0))
    twist = np.exp(-2j * np.pi * field.flux_count * grid.x2 / grid.L2)
    res1 = float(np.max(np.abs(left - twist * right)))

    bottom = np.tensordot(w2, f[:, :p2], axes=(0, 1))        # value at x2=-L2/2
    top = np.tensordot(w2, f[:, grid.G2 - 1 - np.arange(p2)], axes=(0, 1))
    res2 = float(np.max(np.abs(bottom - top)))
    return res1, res2


def check_magnetic_bc(field: OrbitalField) -> float:
    """Max boundary-condition residual over both seams (see boundary_residuals)."""
    r1, r2 = boundary_residuals(field)
    return max(r1, r2)


@dataclass(frozen=True)
class OrbitalSet:
    """Orthonormal truncated basis, ordered (n, m) lexicographically, kept in
    separable form (lattice_profiles): orbital k = n M + m is
    orbital_prefactor times the sum over the shells l = shells[s] it keeps
    (kept[k, s]) of profiles[k, s](x1) exp(2 pi i harmonics[k, s] x2 / L2).
    Its grid samples are formed only when asked for (sample, orbitals,
    matrix); the quadratures of pair densities are read in closed form
    (pair_coefficients, gram)."""

    profiles: np.ndarray            # (K, S, G1) x1 profiles, zero where not kept
    shells: np.ndarray              # (S,) consecutive lattice shells l
    kept: np.ndarray                # (K, S)
    energies: np.ndarray
    flux_count: int
    grid: Grid

    @property
    def size(self) -> int:
        return len(self.profiles)

    def index(self, n: int, m: int) -> int:
        return n * self.flux_count + m

    @property
    def labels(self) -> np.ndarray:
        """m = k mod M of each orbital k."""
        return np.arange(self.size) % self.flux_count

    @property
    def harmonics(self) -> np.ndarray:
        """(K, S) x2 harmonics q = m - M l of each orbital's shells."""
        return self.labels[:, None] - self.flux_count * self.shells

    @cached_property
    def gram(self) -> np.ndarray:
        """<b|d> on the grid, pair_coefficients at k = 0."""
        zero = np.zeros(1, dtype=np.int64)
        return self.pair_coefficients(np.ones((self.grid.G1, 1)), zero, zero).reshape(
            self.size, self.size)

    def sample(self, k: int) -> np.ndarray:
        """(G1, G2) grid samples of orbital k."""
        M = self.flux_count
        return _lattice_samples(self.profiles[k], self.shells, self.kept[k], k % M, self.grid, M)

    @cached_property
    def orbitals(self) -> tuple[OrbitalField, ...]:
        """Every orbital sampled on the grid, formed on first access."""
        M = self.flux_count
        return tuple(OrbitalField(grid=self.grid, values=self.sample(k), flux_count=M,
                                  n=k // M, m=k % M) for k in range(self.size))

    def matrix(self) -> np.ndarray:
        """(K, P) array of orbital samples, rows ordered like the basis,
        sampled row by row and not kept."""
        out = np.empty((self.size, self.grid.G1 * self.grid.G2), dtype=np.complex128)
        for k, row in enumerate(out):
            row[:] = self.sample(k).ravel()
        return out

    def pair_coefficients(self, x1_weights: np.ndarray, at1: np.ndarray, k2: np.ndarray,
                          slot: np.ndarray | None = None,
                          allowed: np.ndarray | None = None) -> np.ndarray:
        """(K^2, J) quadratures C[(b d), j] = w sum over the nodes (i1, i2)
        of conj(phi_b) phi_d x1_weights[i1, at1[j]] exp(-2 pi i k2[j] i2 /
        G2), for (G1, u) weights and x2 modes k2 in 0..G2-1, in closed form
        with no grid sample.

        conj(phi_b) phi_d is orbital_prefactor^2 times the sum over shell
        pairs of f_b,s f_d,s' exp(2 pi i dq x2 / L2), dq = m_d - m_b - M
        delta for the shell offset delta = l' - l, and a term sums over the x2 nodes
        to G2 Grid.x2_phase(dq) at dq = k2 (mod G2), to 0 elsewhere; the
        aliased dq, k2 + G2 j with j != 0, are the grid's too.  So per shell
        offset, for the pairs whose dq meets a mode: one batched product over
        x1 of the profiles (sum_s f_b,s f_d,s+delta at each x1) and one
        product with the x1 weights; then a sum into the modes of residue
        dq.

        Given slot and allowed, (J,) columns and (J, M) booleans, the output
        is transfer-compact, (K^2, max(slot) + 1): mode j is summed into
        column slot[j], and only on the pairs (b d) with allowed[j, (m_d -
        m_b) mod M]; the other entries of a row stay zero.  Every written
        entry has the bits of the dense one, and modes that share a column
        must be allowed on disjoint transfers."""
        K, S, G1 = self.profiles.shape
        grid, M, n = self.grid, self.flux_count, len(k2)
        counts = np.bincount(k2, minlength=grid.G2)
        order = np.argsort(k2, kind="stable")
        modes = np.full((grid.G2, counts.max()), n)           # the modes of each residue, and n
        modes[k2[order], np.arange(n) - (np.cumsum(counts) - counts)[k2[order]]] = order
        at1 = np.append(at1, 0)
        c = (self.labels - self.labels[:, None]).ravel()        # m_d - m_b of (b d)
        width = n if slot is None else int(slot.max()) + 1
        column = np.append(np.arange(n) if slot is None else slot, width)   # of modes 0..n
        if allowed is not None:
            allowed = np.vstack([allowed, np.zeros((1, M), dtype=bool)])
        W = np.ascontiguousarray(x1_weights, dtype=np.complex128).view(np.float64)
        out = np.zeros((K * K, width + 1), dtype=np.complex128)  # column width takes the padding
        flat = out.reshape(-1)
        for delta in range(1 - S, S):
            dq = c - M * delta
            pairs = np.flatnonzero(counts[dq % grid.G2])
            if len(pairs) == 0:
                continue
            lo, hi = max(0, -delta), min(S, S - delta)
            left, right = self.profiles[:, lo:hi], self.profiles[:, lo + delta:hi + delta]
            prod = left.transpose(2, 0, 1) @ right.transpose(2, 1, 0)         # [x1, b, d]
            x1_sums = (prod.reshape(G1, K * K)[:, pairs].T @ W).view(np.complex128)
            cols = modes[dq[pairs] % grid.G2]
            terms = np.take_along_axis(x1_sums, at1[cols], axis=1)
            terms *= grid.x2_phase(dq[pairs])[:, None]
            if allowed is not None:                              # the rest go to padding
                cols = np.where(allowed[cols, c[pairs, None] % M], cols, n)
            flat[pairs[:, None] * (width + 1) + column[cols]] += terms
        out = out[:, :width]
        out *= grid.weight * grid.G2 * orbital_prefactor(grid, M) ** 2
        return out

    def gram_deviation(self) -> float:
        return float(np.max(np.abs(self.gram - np.eye(self.size))))


def _nyquist_guard(n_max: int, flux_count: int, grid: Grid, cut_hint: int):
    """Reject grids whose harmonics alias at non-negligible amplitude."""
    b = grid_reduced_field(grid, flux_count)
    # x2 harmonics reach |m - M*l1| for the shells that carry weight
    shells = max(cut_hint, 2) + 1
    kmax2 = flux_count * shells
    if kmax2 >= grid.G2 // 2:
        raise GridTooCoarse(
            f"G2={grid.G2} cannot carry x2 harmonic {kmax2} (Nyquist {grid.G2 // 2})")
    # x1 bandwidth of the widest profile, plus Gaussian roll-off margin
    k1_needed = math.sqrt(b) * (math.sqrt(2.0 * n_max + 1.0) + 8.0)
    if math.pi * grid.G1 / grid.L1 < k1_needed:
        raise GridTooCoarse(
            f"G1={grid.G1} under-resolves the level-{n_max} profile")


def build_orbital_set(config: SimulationConfig, grid: Grid | None = None) -> OrbitalSet:
    """All (n_max+1)*M orbitals on the given grid (default: config.grid), in
    separable form, its closed-form Gram matrix checked against GRAM_TOL."""
    grid = grid or config.grid
    n_max, M, cut = config.n_max, config.domain.M, config.lattice_cut
    _nyquist_guard(n_max, M, grid, cut)
    shells, profiles, kept = lattice_profiles(range(n_max + 1), range(M), grid, M, cut)
    K, S = (n_max + 1) * M, len(shells)
    energies = np.array([landau_level(n, config.constants)
                         for n in range(n_max + 1) for _ in range(M)])
    oset = OrbitalSet(profiles=np.ascontiguousarray(profiles.reshape(K, S, grid.G1)),
                      shells=shells, kept=kept.reshape(K, S), energies=energies,
                      flux_count=M, grid=grid)
    dev = np.abs(oset.gram - np.eye(K))
    worst = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[worst] > GRAM_TOL:
        raise OrthonormalityFailure(
            f"Gram deviation {dev[worst]:.3e} > {GRAM_TOL:.1e} between "
            f"orbitals {worst[0]} and {worst[1]}")
    return oset


def basis_report(oset: OrbitalSet, constants: PhysicalConstants) -> dict:
    """Gram deviation of the sampled basis and, per orbital tag n{n}_m{m},
    its seam residuals (boundary_residuals) and eigenresidual ||H phi - E_n
    phi||."""
    mat = oset.matrix()
    gram = (mat.conj() @ mat.T) * oset.grid.weight
    del mat
    report = {"gram_max_dev": float(np.max(np.abs(gram - np.eye(oset.size)))),
              "bc_residuals": {}, "eigenresiduals": {}}
    for orb, level in zip(oset.orbitals, oset.energies):
        tag = f"n{orb.n}_m{orb.m}"
        r1, r2 = boundary_residuals(orb)
        report["bc_residuals"][tag] = {"x1": r1, "x2": r2}
        residual = apply_landau_hamiltonian(orb, constants).values - level * orb.values
        report["eigenresiduals"][tag] = math.sqrt(abs(inner_product(residual, residual,
                                                                    oset.grid)))
    return report
