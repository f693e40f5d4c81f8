import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

import landau_hf as lhf
from landau_hf.config import quantization_ulps
from landau_hf.errors import GridMismatch, InvalidValue, MalformedConfig

from conftest import make_config

TWO_PI = 2.0 * math.pi


def test_derived_field_matches_flux_quantization():
    # M=1 on a 2pi x 2pi box gives b = 1/(2pi)
    cfg = make_config(M=1, n_max=0, N=1)
    assert cfg.constants.reduced_field == pytest.approx(1.0 / TWO_PI, rel=1e-15)
    assert cfg.constants.B == pytest.approx(1.0 / TWO_PI, rel=1e-15)


def test_derived_field_unit_case():
    # M=2 with L1=L2=sqrt(4 pi) gives b = B = 1
    L = math.sqrt(4.0 * math.pi)
    cfg = make_config(M=2, n_max=0, N=1, L=L, grid=32, tensor_grid=32)
    assert cfg.constants.reduced_field == pytest.approx(1.0, rel=1e-15)
    assert cfg.constants.B == pytest.approx(1.0, rel=1e-15)


@given(M=st.integers(1, 12), scale=st.floats(0.5, 4.0))
@settings(max_examples=40, deadline=None)
def test_quantization_identity_within_ulps(M, scale):
    domain = lhf.DomainConfig(L1=TWO_PI * scale, L2=TWO_PI / scale, M=M)
    constants = lhf.PhysicalConstants.for_domain(domain, hbar=1.3, charge=0.7)
    assert quantization_ulps(domain, constants) <= 4.0


def test_cyclotron_frequency_consistent():
    domain = lhf.DomainConfig(L1=TWO_PI, L2=TWO_PI, M=3)
    c = lhf.PhysicalConstants.for_domain(domain, mass=2.0)
    assert c.cyclotron_frequency == pytest.approx(c.hbar * c.reduced_field / c.mass)


MINIMAL = {"domain": {"L1": "6.28", "L2": "6.28", "M": "1"},
           "basis": {"n_max": "0"}, "dynamics": {"N": "1"}}


def _minimal():
    return {name: dict(keys) for name, keys in MINIMAL.items()}


def _text(sections):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


def test_missing_required_key_names_it():
    for section, keys in MINIMAL.items():
        for key in keys:
            sections = _minimal()
            del sections[section][key]
            with pytest.raises(InvalidValue) as err:
                lhf.parse_config(_text(sections))
            assert err.value.key == key
            assert f"required key missing from [{section}]" in str(err.value)


def test_unknown_key_rejected():
    # an unknown name, and a known key under another key's section
    for section, key in (("domain", "wibble"), ("basis", "dt")):
        sections = _minimal()
        sections[section][key] = "3"
        with pytest.raises(InvalidValue) as err:
            lhf.parse_config(_text(sections))
        assert err.value.key == key
        assert f"unknown key in section [{section}]" in str(err.value)


@pytest.mark.parametrize("section,key,value", [
    ("dynamics", "N", "0"), ("basis", "n_max", "-1"),
    ("dynamics", "integrator", "euler"), ("dynamics", "sample_stride", "0"),
    ("basis", "lattice_cut", "-1"), ("domain", "L1", "0"), ("domain", "M", "0"),
    ("basis", "grid1", "0"), ("wibble", "wibble", "1"), ("dynamics", "dt", "abc"),
], ids=lambda v: str(v))
def test_bad_value_names_its_key(section, key, value):
    sections = _minimal()
    sections.setdefault(section, {})[key] = value
    with pytest.raises(InvalidValue) as err:
        lhf.parse_config(_text(sections))
    assert err.value.key == key


def test_step_count_that_overflows_names_t_final():
    # 1e300 / 1e-10 is inf: round() of it would raise OverflowError
    sections = _minimal()
    sections["dynamics"].update(dt="1e-10", t_final="1e300")
    with pytest.raises(InvalidValue) as err:
        lhf.parse_config(_text(sections))
    assert err.value.key == "t_final" and "t_final / dt must be finite" in str(err.value)


def test_omitted_keys_take_derived_defaults():
    text = _text(dict(MINIMAL, domain={"L1": "8.0", "L2": "6.0", "M": "1"},
                      basis={"n_max": "0", "grid1": "40", "tensor_grid1": "24"},
                      potential={"kind": "periodic-gaussian"}))
    cfg = lhf.parse_config(text)
    assert (cfg.grid2, cfg.tensor_grid2, cfg.sigma) == (40, 24, 1.5)
    assert cfg.grid.shape == (40, 40) and cfg.tensor_grid.shape == (24, 24)
    assert cfg.potential.sigma == 1.5


def test_syntax_error_is_malformed():
    with pytest.raises(MalformedConfig):
        lhf.parse_config("this is not a config\n[oops")


def test_particle_count_capacity_enforced():
    with pytest.raises(InvalidValue) as err:
        make_config(M=2, n_max=1, N=5)  # capacity (1+1)*2 = 4
    assert err.value.key == "N"


@pytest.mark.parametrize("key,value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", math.nan), ("dt", math.inf),
    ("t_final", -0.1), ("t_final", math.nan), ("t_final", math.inf),
])
def test_time_grid_values_must_be_finite(key, value):
    with pytest.raises(InvalidValue) as err:
        make_config(**{key: value})
    assert err.value.key == key


def test_grid_midpoints_and_weights():
    grid = lhf.Grid(L1=2.0, L2=4.0, G1=4, G2=8)
    assert grid.x1[0] == pytest.approx(-1.0 + 0.25)
    assert grid.x1[-1] == pytest.approx(1.0 - 0.25)
    assert grid.weight * grid.G1 * grid.G2 == pytest.approx(8.0, abs=0)


def test_inner_product_normalized_constant():
    grid = lhf.Grid(L1=TWO_PI, L2=TWO_PI, G1=16, G2=16)
    f = np.full(grid.shape, 1.0 / math.sqrt(grid.L1 * grid.L2), dtype=complex)
    assert lhf.inner_product(f, f, grid) == pytest.approx(1.0, abs=1e-14)


def test_inner_product_conjugate_symmetry(rng):
    grid = lhf.Grid(L1=1.0, L2=1.0, G1=8, G2=8)
    f = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    g = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    assert lhf.inner_product(f, g, grid) == pytest.approx(
        np.conj(lhf.inner_product(g, f, grid)))


@given(seed=st.integers(0, 2**31), a_re=st.floats(-2, 2), a_im=st.floats(-2, 2))
@settings(max_examples=25, deadline=None)
def test_inner_product_sesquilinear(seed, a_re, a_im):
    rng = np.random.default_rng(seed)
    grid = lhf.Grid(L1=1.0, L2=1.0, G1=4, G2=4)
    f, g, h = (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
               for _ in range(3))
    a = complex(a_re, a_im)
    lhs = lhf.inner_product(f, g + a * h, grid)
    rhs = lhf.inner_product(f, g, grid) + a * lhf.inner_product(f, h, grid)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    lhs = lhf.inner_product(a * f, g, grid)
    assert lhs == pytest.approx(np.conj(a) * lhf.inner_product(f, g, grid), abs=1e-10)


def test_inner_product_grid_mismatch():
    g1 = lhf.Grid(L1=1.0, L2=1.0, G1=4, G2=4)
    f = np.ones(g1.shape, dtype=complex)
    g = np.ones((8, 8), dtype=complex)
    with pytest.raises(GridMismatch):
        lhf.inner_product(f, g, g1)


def test_midpoint_quadrature_spectral_convergence():
    # integral of exp(cos(2 pi x1 / L1)) over the box is L1 * L2 * I0(1)
    exact = TWO_PI * TWO_PI * i0(1.0)
    errors = []
    for G in (2, 4, 8):
        grid = lhf.Grid(L1=TWO_PI, L2=TWO_PI, G1=G, G2=G)
        X1, _ = grid.mesh()
        val = np.sum(np.exp(np.cos(X1))) * grid.weight
        errors.append(abs(val - exact))
    assert errors[1] < errors[0] / 4.0
    assert errors[2] < errors[1] / 4.0


def test_defaults_for_constants_section():
    cfg = make_config()
    c = cfg.constants
    assert (c.hbar, c.mass, c.charge, c.light_speed) == (1.0, 1.0, 1.0, 1.0)
