"""Physical constants, domain geometry, quadrature grid, and configuration parsing.

Default unit system: hbar = mass = charge = light_speed = 1.  The magnetic
field strength B is never read from a file; it is always derived from the
integer flux count M and the box sides so that the quantization identity

    (charge * B / (hbar * light_speed)) * L1 * L2 = 2 pi M

holds exactly, which makes the magnetic-periodic boundary conditions mutually
consistent by construction.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from typing import get_args, get_type_hints

import numpy as np

from .errors import GridMismatch, InvalidValue, IoFailure, MalformedConfig
from .potentials import PotentialSpec


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit-system constants plus the (derived) magnetic field strength."""

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    light_speed: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "charge", "light_speed", "B"):
            if not (getattr(self, name) > 0.0 and math.isfinite(getattr(self, name))):
                raise InvalidValue(name, "must be strictly positive and finite")

    @property
    def reduced_field(self) -> float:
        """charge*B/(hbar*light_speed); the inverse square magnetic length."""
        return self.charge * self.B / (self.hbar * self.light_speed)

    @property
    def cyclotron_frequency(self) -> float:
        return self.hbar * self.reduced_field / self.mass

    @classmethod
    def for_domain(cls, domain: "DomainConfig", **units) -> "PhysicalConstants":
        """Derive B from the flux count so quantization holds exactly; the
        units are checked before B divides by the charge."""
        c = cls(**units)
        b = 2.0 * math.pi * domain.M / (domain.L1 * domain.L2)
        return replace(c, B=b * c.hbar * c.light_speed / c.charge)


@dataclass(frozen=True)
class DomainConfig:
    """Rectangular box [-L1/2, L1/2] x [-L2/2, L2/2] threaded by M flux quanta."""

    L1: float
    L2: float
    M: int

    def __post_init__(self):
        if not (self.L1 > 0.0 and math.isfinite(self.L1)):
            raise InvalidValue("L1", "must be strictly positive")
        if not (self.L2 > 0.0 and math.isfinite(self.L2)):
            raise InvalidValue("L2", "must be strictly positive")
        if int(self.M) != self.M or self.M < 1:
            raise InvalidValue("M", "must be an integer >= 1")


def quantization_ulps(domain: DomainConfig, constants: PhysicalConstants) -> float:
    """|b*L1*L2 - 2*pi*M| measured in units of the spacing of 2*pi*M."""
    lhs = constants.reduced_field * domain.L1 * domain.L2
    rhs = 2.0 * math.pi * domain.M
    return float(abs(lhs - rhs) / np.spacing(rhs))


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on the box; all quadrature is the rectangle rule.

    Node i sits at the cell center -L/2 + (i + 1/2) * L/G, so the total weight
    G1*G2*(L1*L2/(G1*G2)) equals the box area exactly.
    """

    L1: float
    L2: float
    G1: int
    G2: int
    x1: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.G1 < 1 or self.G2 < 1:
            raise InvalidValue("grid", "point counts must be >= 1")
        h1 = self.L1 / self.G1
        h2 = self.L2 / self.G2
        object.__setattr__(self, "x1", -0.5 * self.L1 + (np.arange(self.G1) + 0.5) * h1)
        object.__setattr__(self, "x2", -0.5 * self.L2 + (np.arange(self.G2) + 0.5) * h2)

    @property
    def h1(self) -> float:
        return self.L1 / self.G1

    @property
    def h2(self) -> float:
        return self.L2 / self.G2

    @property
    def weight(self) -> float:
        """Quadrature weight per node."""
        return (self.L1 * self.L2) / (self.G1 * self.G2)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.G1, self.G2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def x2_phase(self, q) -> np.ndarray:
        """exp(2 pi i q x2_0 / L2) at the first x2 node x2_0 for integer
        harmonics q: a harmonic sums over the x2 nodes to G2 times this where
        q = 0 (mod G2), and to 0 elsewhere.  q x2_0 / L2 = q (1 - G2) / (2 G2)
        is reduced mod 1 in integers first: q mod 2 G2 before any numpy
        arithmetic (in Python's integers for a Python int q), then the product
        mod 2 G2."""
        q = np.asarray(q % (2 * self.G2))
        return np.exp(1j * np.pi * (q * (1 - self.G2) % (2 * self.G2)) / self.G2)


def _field_data(f):
    values = getattr(f, "values", f)
    grid = getattr(f, "grid", None)
    return np.asarray(values), grid


def inner_product(f, g, grid: Grid | None = None) -> complex:
    """Discrete L2 pairing sum(conj(f) * g) * weight; conjugate-linear in f."""
    fv, fgrid = _field_data(f)
    gv, ggrid = _field_data(g)
    if fv.shape != gv.shape:
        raise GridMismatch(f"field shapes differ: {fv.shape} vs {gv.shape}")
    use = grid or fgrid or ggrid
    if use is None:
        raise GridMismatch("no grid supplied and fields carry none")
    for other in (fgrid, ggrid):
        if other is not None and other.shape != use.shape:
            raise GridMismatch("fields sampled on different grids")
    if fv.shape != use.shape:
        raise GridMismatch(f"field shape {fv.shape} does not match grid {use.shape}")
    return complex(np.vdot(fv, gv) * use.weight)


INTEGRATORS = ("rk4", "rk4+reorth")


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Everything one run needs: one field per config-file key, then the
    objects derived from them.

    A field's type and default are its key's; a field without a default is
    a required key.  __post_init__ fills the derived defaults (grid2 and
    tensor_grid2 follow grid1 and tensor_grid1, sigma is min(L1, L2) / 4),
    builds domain, constants, grid, tensor_grid and potential, and checks
    every value, so dataclasses.replace re-validates an override.
    """

    # [constants]
    hbar: float = PhysicalConstants.hbar
    mass: float = PhysicalConstants.mass
    charge: float = PhysicalConstants.charge
    light_speed: float = PhysicalConstants.light_speed
    # [domain]
    L1: float
    L2: float
    M: int
    # [basis]
    n_max: int
    grid1: int = 256              # basis evaluation / reporting grid
    grid2: int | None = None
    tensor_grid1: int = 64        # grid used for two-body quadrature
    tensor_grid2: int | None = None
    lattice_cut: int = 0          # bound on |l1| of the shell sum; 0: 10 000
    # [dynamics]
    N: int
    dt: float = 1e-3
    t_final: float = 1.0
    integrator: str = "rk4"
    sample_stride: int = 10
    # [potential]
    kind: str = PotentialSpec.kind
    strength: float = PotentialSpec.strength
    harmonic1: int = PotentialSpec.harmonic1
    harmonic2: int = PotentialSpec.harmonic2
    sigma: float | None = None
    path: str | None = None

    domain: DomainConfig = field(init=False)
    constants: PhysicalConstants = field(init=False)
    grid: Grid = field(init=False)
    tensor_grid: Grid = field(init=False)
    potential: PotentialSpec = field(init=False)

    def __post_init__(self):
        def derive(name, value):
            object.__setattr__(self, name, value)

        derive("domain", DomainConfig(L1=self.L1, L2=self.L2, M=self.M))
        derive("constants", PhysicalConstants.for_domain(
            self.domain, hbar=self.hbar, mass=self.mass, charge=self.charge,
            light_speed=self.light_speed))
        if self.grid2 is None:
            derive("grid2", self.grid1)
        if self.tensor_grid2 is None:
            derive("tensor_grid2", self.tensor_grid1)
        if self.sigma is None:
            derive("sigma", min(self.L1, self.L2) / 4.0)
        for key in ("grid1", "grid2", "tensor_grid1", "tensor_grid2"):
            if getattr(self, key) < 1:
                raise InvalidValue(key, "must be >= 1")
        derive("grid", Grid(L1=self.L1, L2=self.L2, G1=self.grid1, G2=self.grid2))
        derive("tensor_grid", Grid(L1=self.L1, L2=self.L2, G1=self.tensor_grid1,
                                   G2=self.tensor_grid2))
        derive("potential", PotentialSpec.from_params(
            self.kind, self.strength, self.harmonic1, self.harmonic2,
            self.sigma, self.path))

        if self.n_max < 0:
            raise InvalidValue("n_max", "must be >= 0")
        if self.N < 1:
            raise InvalidValue("N", "must be >= 1")
        if self.N > self.single_particle_dim:
            raise InvalidValue(
                "N", f"N={self.N} exceeds truncated space "
                     f"(n_max+1)*M={self.single_particle_dim}")
        if not (0.0 < self.dt < math.inf):          # NaN fails too
            raise InvalidValue("dt", "must be finite and > 0")
        if not (0.0 <= self.t_final < math.inf):
            raise InvalidValue("t_final", "must be finite and >= 0")
        if not math.isfinite(self.t_final / self.dt):
            raise InvalidValue("t_final", "t_final / dt must be finite")
        if self.integrator not in INTEGRATORS:
            raise InvalidValue("integrator", f"must be one of {INTEGRATORS}")
        if self.sample_stride < 1:
            raise InvalidValue("sample_stride", "must be >= 1")
        if self.lattice_cut < 0:
            raise InvalidValue("lattice_cut", "must be >= 0")

    @property
    def single_particle_dim(self) -> int:
        return (self.n_max + 1) * self.domain.M


# the section of each SimulationConfig key; types and defaults are the fields'
_SECTIONS = {
    "constants": ("hbar", "mass", "charge", "light_speed"),
    "domain": ("L1", "L2", "M"),
    "basis": ("n_max", "grid1", "grid2", "tensor_grid1", "tensor_grid2", "lattice_cut"),
    "dynamics": ("N", "dt", "t_final", "integrator", "sample_stride"),
    "potential": ("kind", "strength", "harmonic1", "harmonic2", "sigma", "path"),
}


@cache
def _field_types() -> dict:
    """The type each SimulationConfig field's text is read as, an optional
    field's its non-None type; resolved once per process, as
    get_type_hints compiles every annotation on each call."""
    return {name: next((t for t in get_args(hint) if t is not type(None)), hint)
            for name, hint in get_type_hints(SimulationConfig).items()}


def parse_config(text: str) -> SimulationConfig:
    """Parse a key=value config document into a validated SimulationConfig.

    Sections: [constants], [domain], [basis], [dynamics], [potential], each
    holding the SimulationConfig fields _SECTIONS lists for it.  Unknown
    sections, unknown keys and keys in the wrong section are errors; each
    value is read with its field's type, numbers as decimals.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise MalformedConfig(str(exc)) from exc

    types = _field_types()
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise InvalidValue(section, "unknown section")
        # configparser lowercases keys by default; keep case-sensitive match
        canon = {k.lower(): k for k in _SECTIONS[section]}
        for key, raw in parser.items(section):
            if key.lower() not in canon:
                raise InvalidValue(key, f"unknown key in section [{section}]")
            name = canon[key.lower()]
            try:
                values[name] = types[name](raw.strip())
            except ValueError:
                raise InvalidValue(name, f"cannot parse '{raw}' in section [{section}]")

    for section, keys in _SECTIONS.items():
        for f in fields(SimulationConfig):
            if f.name in keys and f.default is MISSING and f.name not in values:
                raise InvalidValue(f.name, f"required key missing from [{section}]")
    return SimulationConfig(**values)


def load_config(path) -> SimulationConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
