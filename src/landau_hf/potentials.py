"""Bounded, doubly periodic two-body kernels V(x; y) = V(y; x).

Every kind is a bounded real kernel on the box, periodic in each argument,
so the pair-interaction operator it generates is bounded with norm controlled
by sup|V|.  Kinds:

  zero               V = 0
  separable-cosine   V(x;y) = strength * g(x) * g(y),
                     g(x) = cos(2 pi k1 x1 / L1) * cos(2 pi k2 x2 / L2)
  periodic-gaussian  V(x;y) = strength * P(x - y) / P(0), with P the lattice
                     periodization of exp(-|d|^2 / (2 sigma^2))
  tabulated          values on grid x grid, supplied as an array (escape hatch)

For quadrature each kind exposes the form that is exact on the grid and
cheapest to contract: the zero and cosine kinds their rank expansion
V(x;y) = sum_r c_r f_r(x) g_r(y) (separable_terms), the translation-invariant
Gaussian kind the real discrete Fourier weights of its difference table
(fourier_modes), and the tabulated kind its dense pair matrix (pair_values).

Selection rule (x2_transfers).  The box orbital phi_{n,m} has x2 harmonics
m - M l1 only, so its x2 momentum m mod M is exact: the magnetic
translations of the torus commute with the kinetic operator (Haldane, PRL 55,
2095 (1985)).  A one-body factor whose grid x2 harmonics are -t gives
<a|f|g> = 0 unless m_g - m_a = t (mod M) for one of its t.  The cosine factor
allows t = +-harmonic2, the Gaussian's Fourier mode k, exp(-2 pi i k.y / G)
in the second particle, t = k2; the zero kind has no factor and the
tabulated kind no rule.  A harmonic is taken at the grid's signed frequency,
in -G2/2 .. G2/2 - 1 like numpy.fft.fftfreq (so harmonic2 = G2 - 2 is -2):
the sampled factor has that frequency, and where M does not divide G2 the
unsigned index gives another residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, IoFailure, NonFiniteValue, SymmetryViolation

KINDS = ("zero", "separable-cosine", "periodic-gaussian", "tabulated")

# discrete Fourier modes below this relative weight are dropped from the
# expansion of translation-invariant kernels
_MODE_FLOOR = 1e-16
KERNEL_SYM_TOL = 1e-8      # largest tabulated asymmetry, relative to max(max |V|, 1)


def _gaussian_axis_terms(sigma: float, L: float) -> tuple[float, float]:
    """Half-lengths (images, modes) of the two series for the periodized
    Gaussian along an axis of length L, each with terms -n..n and cut where
    its dropped terms fall below exp(-40.5) of its leading one: the image sum
    sum_a exp(-(d + a L)^2 / (2 sigma^2)), n = ceil(9 sigma / L) + 1, and its
    Poisson dual 1 + 2 sum_k exp(-2 (pi sigma k / L)^2) cos(2 pi k d / L),
    proportional to it, n = ceil(4.5 L / (pi sigma)).  The first is inf only
    for a huge sigma, the second only for a tiny one."""
    return np.ceil(9.0 * sigma / L) + 1.0, np.ceil(4.5 * L / (math.pi * sigma))


def signed_frequency(k, G: int):
    """Grid frequency of the integer harmonic k on G points, in -G//2 .. (G-1)//2
    (numpy.fft.fftfreq(G, 1 / G) at k mod G)."""
    return (np.asarray(k) + G // 2) % G - G // 2


@dataclass(frozen=True)
class PotentialSpec:
    kind: str = "zero"
    strength: float = 0.0
    harmonic1: int = 1
    harmonic2: int = 1
    sigma: float = 1.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidValue("kind", f"must be one of {KINDS}")
        if not math.isfinite(self.strength):
            raise InvalidValue("strength", "must be finite")
        if not (0 < self.sigma < math.inf):      # every kind: the manifest echoes it
            raise InvalidValue("sigma", "must be finite and > 0")
        if self.kind == "tabulated":
            if self.table is None:
                raise InvalidValue("path", "tabulated kind needs a value table")
            t = np.asarray(self.table)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise InvalidValue("path", "table must be a square (P, P) array")

    @classmethod
    def from_params(cls, kind, strength, harmonic1, harmonic2, sigma,
                    path) -> "PotentialSpec":
        """The kernel a config's [potential] keys name; loads the table of
        the tabulated kind from path."""
        table = None
        if kind == "tabulated":
            if path is None:
                raise InvalidValue("path", "tabulated kind needs path=<.npy file>")
            # OSError: unreadable; EOFError: empty; ValueError: not numpy data
            try:
                table = np.load(path)
            except (OSError, EOFError, ValueError) as exc:
                raise IoFailure(f"cannot read kernel table {path}: {exc}") from exc
            if not isinstance(table, np.ndarray):       # an .npz archive
                table.close()
                raise IoFailure(f"kernel table {path} is an .npz archive, "
                                "not one .npy array")
        return cls(kind=kind, strength=strength, harmonic1=harmonic1,
                   harmonic2=harmonic2, sigma=sigma, table=table)

    # -- norms -----------------------------------------------------------

    def sup_norm(self) -> float:
        """sup |V|; exact for the analytic kinds, table max otherwise."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("separable-cosine", "periodic-gaussian"):
            return abs(self.strength)
        return float(np.max(np.abs(self.table)))

    # -- evaluation --------------------------------------------------------

    def _cosine_factor(self, grid) -> np.ndarray:
        X1, X2 = grid.mesh()
        return (np.cos(2.0 * np.pi * self.harmonic1 * X1 / grid.L1)
                * np.cos(2.0 * np.pi * self.harmonic2 * X2 / grid.L2))

    def _difference_table(self, grid) -> np.ndarray:
        """Periodized Gaussian at grid offsets, normalized to 1 at zero offset.

        The Gaussian factorizes by axis, so its lattice images do too: the
        table is the outer product of one series per axis, the shorter one
        of _gaussian_axis_terms, the image sum on a tie.
        """
        s2 = 2.0 * self.sigma ** 2

        def axis(G: int, L: float) -> np.ndarray:
            d = np.arange(G) * (L / G)
            images, modes = _gaussian_axis_terms(self.sigma, L)
            if images <= modes:
                n = int(images)
                return sum(np.exp(-((d + a * L) ** 2) / s2) for a in range(-n, n + 1))
            k = np.arange(1, int(modes) + 1)[:, None]
            return 1.0 + 2.0 * np.sum(np.exp(-2.0 * (math.pi * self.sigma * k / L) ** 2)
                                      * np.cos(2.0 * math.pi * k * d / L), axis=0)

        tab = np.outer(axis(grid.G1, grid.L1), axis(grid.G2, grid.L2))
        return tab / tab[0, 0]

    def separable_terms(self, grid):
        """Rank expansion V(x;y) = sum_r c_r f_r(x) g_r(y) of the zero and
        cosine kinds, exact on the grid; None for the other kinds."""
        if self.kind == "zero":
            return []
        if self.kind == "separable-cosine":
            g = self._cosine_factor(grid).astype(np.complex128)
            return [(self.strength, g, g)]
        return None

    def fourier_modes(self, grid):
        """Kept discrete Fourier modes of the Gaussian kind, None for the others.

        On grid indices V(x;y) = sum_k w_k exp(2 pi i k.(x - y) / G) with
        w = fft2(difference table) / P, real because the table is real and
        even.  Modes with |w_k| <= _MODE_FLOOR * max(|strength|, 1) are
        dropped.  Returns the index arrays (k1, k2), row-major, and w_k;
        raises NonFiniteValue if a weight overflows.
        """
        if self.kind != "periodic-gaussian":
            return None
        tab = self._difference_table(grid) * self.strength
        with np.errstate(over="ignore", invalid="ignore"):
            weights = (np.fft.fft2(tab) / (grid.G1 * grid.G2)).real
        if bad := int(np.count_nonzero(~np.isfinite(weights))):
            raise NonFiniteValue(f"{bad} of {weights.size} kernel Fourier weights are non-finite")
        kept = np.nonzero(np.abs(weights) > _MODE_FLOOR * max(abs(self.strength), 1.0))
        return kept, weights[kept]

    def x2_transfers(self, grid, M: int) -> np.ndarray | None:
        """The magnetic-translation selection rule (module docstring) of the
        one-body factors on grid with M flux quanta, as a boolean (rows, M)
        array: row r marks the transfers t mod M that the second particle's
        factor allows, <b|g_r|d> = 0 unless m_d - m_b = t for a marked t; the
        first particle's factor f_r allows -t.  Rows are the terms of
        separable_terms, none for the zero kind, and for the Gaussian kind the
        x2 mode indices 0..G2-1 (row k2 of fourier_modes' k2).  None for the
        tabulated kind, which has no rule."""
        residues = np.arange(M)
        if self.kind == "zero":
            return np.zeros((0, M), dtype=bool)
        if self.kind == "separable-cosine":
            s = signed_frequency(self.harmonic2, grid.G2)
            return ((residues == s % M) | (residues == -s % M))[None, :]
        if self.kind == "periodic-gaussian":
            return residues == signed_frequency(np.arange(grid.G2), grid.G2)[:, None] % M
        return None

    def pair_values(self, grid) -> np.ndarray:
        """Dense (P, P) matrix of V at all grid point pairs (row: x, col: y)."""
        P = grid.G1 * grid.G2
        if self.kind == "zero":
            return np.zeros((P, P))
        if self.kind == "separable-cosine":
            g = self._cosine_factor(grid).ravel()
            return self.strength * np.outer(g, g)
        if self.kind == "periodic-gaussian":
            tab = self._difference_table(grid) * self.strength
            i1 = np.arange(grid.G1)
            i2 = np.arange(grid.G2)
            D1 = (i1[:, None] - i1[None, :]) % grid.G1     # (G1, G1)
            D2 = (i2[:, None] - i2[None, :]) % grid.G2     # (G2, G2)
            vals = tab[D1[:, None, :, None], D2[None, :, None, :]]
            return vals.reshape(P, P)
        table = np.asarray(self.table, dtype=float)
        if table.shape != (P, P):
            raise InvalidValue(
                "path", f"table shape {table.shape} does not match grid ({P}, {P})")
        return table

    def check_symmetry(self, grid) -> float:
        """Max |V(x;y) - V(y;x)| over grid pairs, 0 for the analytic kinds;
        raises SymmetryViolation beyond KERNEL_SYM_TOL and NonFiniteValue for
        a non-finite table value or Gaussian Fourier weight."""
        if self.kind == "periodic-gaussian":
            self.fourier_modes(grid)
        if self.kind != "tabulated":
            return 0.0
        vals = self.pair_values(grid)
        scale = max(float(np.max(np.abs(vals))), 1.0)
        if not math.isfinite(scale):            # NaN too: max(nan, 1.0) is nan
            raise NonFiniteValue("tabulated kernel has a non-finite value")
        dev = float(np.max(np.abs(vals - vals.T)))
        if not dev <= KERNEL_SYM_TOL * scale:
            raise SymmetryViolation(
                f"tabulated kernel asymmetric: max deviation {dev:.3e}")
        return dev
