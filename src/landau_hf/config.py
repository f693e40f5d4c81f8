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
from dataclasses import dataclass, field

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
    def for_domain(cls, domain: "DomainConfig", hbar: float = 1.0, mass: float = 1.0,
                   charge: float = 1.0, light_speed: float = 1.0) -> "PhysicalConstants":
        """Derive B from the flux count so quantization holds exactly."""
        b = 2.0 * math.pi * domain.M / (domain.L1 * domain.L2)
        B = b * hbar * light_speed / charge
        return cls(hbar=hbar, mass=mass, charge=charge, light_speed=light_speed, B=B)


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

    @property
    def area(self) -> float:
        return self.L1 * self.L2


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

    @classmethod
    def for_domain(cls, domain: DomainConfig, G1: int, G2: int) -> "Grid":
        return cls(L1=domain.L1, L2=domain.L2, G1=G1, G2=G2)


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


_SECTION_KEYS = {
    "constants": {"hbar", "mass", "charge", "light_speed"},
    "domain": {"L1", "L2", "M"},
    "basis": {"n_max", "grid1", "grid2", "tensor_grid1", "tensor_grid2", "lattice_cut"},
    "dynamics": {"N", "dt", "t_final", "integrator", "sample_stride"},
    "potential": {"kind", "strength", "harmonic1", "harmonic2", "sigma", "path"},
}

_REQUIRED = {("domain", "L1"), ("domain", "L2"), ("domain", "M"),
             ("basis", "n_max"), ("dynamics", "N")}

INTEGRATORS = ("rk4", "rk4+reorth")


@dataclass(frozen=True)
class SimulationConfig:
    """Validated bundle of everything one run needs."""

    constants: PhysicalConstants
    domain: DomainConfig
    grid: Grid                    # basis evaluation / reporting grid
    tensor_grid: Grid             # grid used for two-body quadrature
    n_max: int
    N: int
    potential: PotentialSpec
    dt: float = 1e-3
    t_final: float = 1.0
    integrator: str = "rk4"
    sample_stride: int = 10
    lattice_cut: int = 0          # bound on |l1| of the shell sum; 0: 10 000

    def __post_init__(self):
        if self.N < 1:
            raise InvalidValue("N", "must be >= 1")
        if self.N > self.single_particle_dim:
            raise InvalidValue(
                "N", f"N={self.N} exceeds truncated space "
                     f"(n_max+1)*M={self.single_particle_dim}")
        if self.n_max < 0:
            raise InvalidValue("n_max", "must be >= 0")
        if not (0.0 < self.dt < math.inf):          # NaN fails too
            raise InvalidValue("dt", "must be finite and > 0")
        if not (0.0 <= self.t_final < math.inf):
            raise InvalidValue("t_final", "must be finite and >= 0")
        if self.integrator not in INTEGRATORS:
            raise InvalidValue("integrator", f"must be one of {INTEGRATORS}")
        if self.sample_stride < 1:
            raise InvalidValue("sample_stride", "must be >= 1")
        if self.lattice_cut < 0:
            raise InvalidValue("lattice_cut", "must be >= 0")

    @property
    def single_particle_dim(self) -> int:
        return (self.n_max + 1) * self.domain.M


def _get_typed(section: str, key: str, raw: str, kind):
    try:
        if kind is int:
            value = int(raw)
        elif kind is float:
            value = float(raw)
        else:
            value = raw.strip()
    except ValueError:
        raise InvalidValue(key, f"cannot parse '{raw}' in section [{section}]")
    return value


def parse_config(text: str) -> SimulationConfig:
    """Parse a key=value config document into a validated SimulationConfig.

    Sections: [constants], [domain], [basis], [dynamics], [potential].
    Unknown sections or keys are errors; numbers are decimal floats.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise MalformedConfig(str(exc)) from exc

    values: dict[tuple[str, str], str] = {}
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise InvalidValue(section, "unknown section")
        for key, raw in parser.items(section):
            # configparser lowercases keys by default; keep case-sensitive match
            canon = {k.lower(): k for k in _SECTION_KEYS[section]}
            if key.lower() not in canon:
                raise InvalidValue(key, f"unknown key in section [{section}]")
            values[(section, canon[key.lower()])] = raw

    for section, key in _REQUIRED:
        if (section, key) not in values:
            raise InvalidValue(key, f"required key missing from [{section}]")

    def get(section, key, kind, default=None):
        if (section, key) in values:
            return _get_typed(section, key, values[(section, key)], kind)
        return default

    domain = DomainConfig(
        L1=get("domain", "L1", float),
        L2=get("domain", "L2", float),
        M=get("domain", "M", int),
    )
    constants = PhysicalConstants.for_domain(
        domain,
        hbar=get("constants", "hbar", float, 1.0),
        mass=get("constants", "mass", float, 1.0),
        charge=get("constants", "charge", float, 1.0),
        light_speed=get("constants", "light_speed", float, 1.0),
    )
    G1 = get("basis", "grid1", int, 256)
    G2 = get("basis", "grid2", int, G1)
    T1 = get("basis", "tensor_grid1", int, 64)
    T2 = get("basis", "tensor_grid2", int, T1)
    grid = Grid.for_domain(domain, G1, G2)
    tensor_grid = Grid.for_domain(domain, T1, T2)

    kind = get("potential", "kind", str, "zero")
    potential = PotentialSpec.from_params(
        kind=kind,
        strength=get("potential", "strength", float, 0.0),
        harmonic1=get("potential", "harmonic1", int, 1),
        harmonic2=get("potential", "harmonic2", int, 1),
        sigma=get("potential", "sigma", float, min(domain.L1, domain.L2) / 4.0),
        path=get("potential", "path", str, None),
    )

    return SimulationConfig(
        constants=constants,
        domain=domain,
        grid=grid,
        tensor_grid=tensor_grid,
        n_max=get("basis", "n_max", int),
        N=get("dynamics", "N", int),
        potential=potential,
        dt=get("dynamics", "dt", float, 1e-3),
        t_final=get("dynamics", "t_final", float, 1.0),
        integrator=get("dynamics", "integrator", str, "rk4"),
        sample_stride=get("dynamics", "sample_stride", int, 10),
        lattice_cut=get("basis", "lattice_cut", int, 0),
    )


def load_config(path) -> SimulationConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
