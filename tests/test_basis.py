import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import landau_hf as lhf
from landau_hf.basis import (MAX_HERMITE_DEGREE, boundary_residuals,
                             grid_reduced_field, infinite_volume_profile)
from landau_hf.errors import (DegreeOutOfRange, GridTooCoarse,
                              OffGridDisplacement, TruncationTooSmall)
import helpers
from helpers import midpoint_quad_1d, seam_phase_translate

from conftest import make_config

TWO_PI = 2.0 * math.pi
ROOT = pathlib.Path(__file__).resolve().parents[1]


# --- Hermite functions -------------------------------------------------------

def test_hermite_ground_value():
    # closed form: h_0(z) = pi^(-1/4) exp(-z^2/2)
    assert lhf.hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert lhf.hermite_function(0, 0.0) == pytest.approx(0.7511255444649425, rel=1e-12)


def test_hermite_odd_vanishes_at_origin():
    assert lhf.hermite_function(1, 0.0) == 0.0
    assert lhf.hermite_function(3, 0.0) == pytest.approx(0.0, abs=1e-15)


@given(n=st.integers(0, 12), z=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_hermite_parity(n, z):
    left = lhf.hermite_function(n, -z)
    right = (-1.0) ** n * lhf.hermite_function(n, z)
    assert left == pytest.approx(right, abs=1e-13)


def test_hermite_matches_closed_forms():
    # polynomials H_0..H_3 entered by hand, weighted and normalized
    z = np.linspace(-5.0, 5.0, 401)
    weight = np.exp(-0.5 * z * z)
    closed = {
        0: weight * 1.0 / math.sqrt(math.sqrt(math.pi)),
        1: weight * 2.0 * z / math.sqrt(math.sqrt(math.pi) * 2),
        2: weight * (4.0 * z ** 2 - 2.0) / math.sqrt(math.sqrt(math.pi) * 8),
        3: weight * (8.0 * z ** 3 - 12.0 * z) / math.sqrt(math.sqrt(math.pi) * 48),
    }
    for n, expect in closed.items():
        got = lhf.hermite_function(n, z)
        assert np.max(np.abs(got - expect)) < 1e-12


def test_hermite_quadrature_normalization():
    # independent 1D quadrature on [-12, 12]
    val = midpoint_quad_1d(lambda z: lhf.hermite_function(3, z) ** 2, -12, 12, 6000)
    assert val == pytest.approx(1.0, abs=1e-10)
    cross = midpoint_quad_1d(
        lambda z: lhf.hermite_function(3, z) * lhf.hermite_function(1, z), -12, 12, 6000)
    assert cross == pytest.approx(0.0, abs=1e-10)


def test_hermite_degree_out_of_range():
    assert np.isfinite(lhf.hermite_function(MAX_HERMITE_DEGREE, 0.5))
    for n in (-1, MAX_HERMITE_DEGREE + 1):
        with pytest.raises(DegreeOutOfRange):
            lhf.hermite_function(n, 0.0)


# --- level energies ----------------------------------------------------------

def test_level_energies_unit_field():
    domain = lhf.DomainConfig(L1=math.sqrt(4 * math.pi), L2=math.sqrt(4 * math.pi), M=2)
    constants = lhf.PhysicalConstants.for_domain(domain)  # b = 1
    assert lhf.landau_level(0, constants) == pytest.approx(0.5, rel=1e-14)
    assert lhf.landau_level(3, constants) == pytest.approx(3.5, rel=1e-14)


@given(hbar=st.floats(0.1, 3.0), mass=st.floats(0.1, 3.0),
       charge=st.floats(0.1, 3.0), n=st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_level_energy_forms_agree(hbar, mass, charge, n):
    domain = lhf.DomainConfig(L1=5.0, L2=3.0, M=4)
    c = lhf.PhysicalConstants.for_domain(domain, hbar=hbar, mass=mass, charge=charge)
    via_cyclotron = c.hbar * c.cyclotron_frequency * (n + 0.5)
    assert lhf.landau_level(n, c) == pytest.approx(via_cyclotron, rel=1e-12)


# --- infinite-volume states --------------------------------------------------

def test_infinite_volume_modulus_independent_of_x2():
    x2 = np.linspace(-3, 3, 7)
    vals = lhf.infinite_volume_orbital(2, 0.8, 0.4, x2, reduced_field=1.3)
    assert np.ptp(np.abs(vals)) < 1e-14


def test_infinite_volume_value_at_origin():
    assert lhf.infinite_volume_orbital(0, 0.0, 0.0, 0.0, 1.0) == pytest.approx(
        math.pi ** -0.25, rel=1e-14)


def test_profile_shift_identity():
    # shifting the conserved momentum by b*L1 equals shifting x1 by -L1
    L1, L2, M = TWO_PI, TWO_PI, 3
    b = 2 * math.pi * M / (L1 * L2)
    x1 = np.linspace(-L1 / 2, L1 / 2, 33)
    for n in (0, 2):
        for m in (0, 1, 2):
            k2 = 2 * math.pi * m / L2
            lhs = infinite_volume_profile(n, k2 + 2 * math.pi * M / L2, x1, b)
            rhs = infinite_volume_profile(n, k2, x1 - L1, b)
            assert np.max(np.abs(lhs - rhs)) < 1e-13


# --- finite-volume orbitals --------------------------------------------------

def test_orbital_normalized(oset_m3, cfg_m3):
    phi = oset_m3.orbitals[0]
    assert phi.norm() == pytest.approx(1.0, abs=1e-8)


def test_orbital_cross_level_orthogonal(cfg_m3):
    grid = cfg_m3.grid
    a = lhf.finite_volume_orbital(0, 0, grid, 3)
    b = lhf.finite_volume_orbital(1, 0, grid, 3)
    ip = lhf.inner_product(a, b)
    assert abs(ip) < 1e-8


def test_lattice_cut_stability(cfg_m3):
    # a cut is a bound on the automatic shell sum, never a different sum
    grid = cfg_m3.grid
    for n, m in ((0, 1), (2, 0), (1, 2)):
        auto = lhf.finite_volume_orbital(n, m, grid, 3)
        kept = 0
        for cut in range(1, 9):
            try:
                cut_sum = lhf.finite_volume_orbital(n, m, grid, 3, lattice_cut=cut)
            except TruncationTooSmall:
                assert kept == 0, "a larger cut raised after a smaller one passed"
                continue
            assert np.array_equal(cut_sum.values, auto.values)
            kept += 1
        assert kept >= 3


def test_lattice_cut_too_small(cfg_m3):
    with pytest.raises(TruncationTooSmall, match="beyond the cut 1"):
        lhf.finite_volume_orbital(2, 0, cfg_m3.grid, 3, lattice_cut=1)


def test_bad_degeneracy_index(cfg_m3):
    with pytest.raises(DegreeOutOfRange):
        lhf.finite_volume_orbital(0, 3, cfg_m3.grid, 3)


@pytest.mark.parametrize("n", [-1, MAX_HERMITE_DEGREE + 1])
def test_bad_level_index(cfg_m3, n):
    with pytest.raises(DegreeOutOfRange, match=f"degree {n} outside"):
        lhf.finite_volume_orbital(n, 0, cfg_m3.grid, 3)


# --- magnetic translations ---------------------------------------------------

def test_translate_zero_is_identity(oset_m3):
    phi = oset_m3.orbitals[2]
    out = lhf.magnetic_translate(phi, (0.0, 0.0))
    assert np.array_equal(out.values, phi.values)


def test_translate_by_box_period_fixes_orbitals(oset_m3, cfg_m3):
    L1, L2 = cfg_m3.domain.L1, cfg_m3.domain.L2
    for phi in oset_m3.orbitals[:4]:
        for disp in ((L1, 0.0), (0.0, L2), (-L1, L2)):
            out = lhf.magnetic_translate(phi, disp)
            assert np.max(np.abs(out.values - phi.values)) < 1e-8


def test_translate_partial_shift_unitary(oset_m3, cfg_m3):
    grid = cfg_m3.grid
    phi = oset_m3.orbitals[1]
    out = lhf.magnetic_translate(phi, (grid.h1 * 5, grid.h2 * 3))
    assert out.norm() == pytest.approx(phi.norm(), abs=1e-12)


def test_translate_matches_seam_phase_formula(oset_m3, cfg_m3, rng):
    grid = cfg_m3.grid
    fields = [oset_m3.orbitals[4],
              lhf.OrbitalField(grid=grid, flux_count=3,
                               values=rng.normal(size=grid.shape)
                               + 1j * rng.normal(size=grid.shape))]
    for phi in fields:
        for s1, s2 in ((0, 0), (5, 3), (-7, 11), (grid.G1 + 9, -grid.G2 - 2),
                       (-2 * grid.G1 - 1, 1)):
            a = (s1 * grid.h1, s2 * grid.h2)
            out = lhf.magnetic_translate(phi, a)
            expect = seam_phase_translate(phi.values, a, grid, 3)
            assert np.max(np.abs(out.values - expect)) <= 1e-13
            assert (out.n, out.m, out.flux_count) == (phi.n, phi.m, 3)


def test_translate_off_grid_rejected(oset_m3, cfg_m3):
    with pytest.raises(OffGridDisplacement):
        lhf.magnetic_translate(oset_m3.orbitals[0], (cfg_m3.grid.h1 * 0.5, 0.0))


def test_translation_aliases_momentum_label(cfg_m3):
    # translating a plane-wave eigenstate by l1*L1 (with its gauge phase)
    # lands on the state whose momentum label is shifted by -M*l1
    grid = cfg_m3.grid
    M = 3
    b = grid_reduced_field(grid, M)
    X1, X2 = grid.mesh()
    for n, m, l1 in ((0, 0, 1), (1, 2, 1), (0, 1, -1), (2, 0, 2)):
        k2 = 2 * math.pi * m / grid.L2
        translated = (np.exp(-2j * math.pi * M * l1 * X2 / grid.L2)
                      * lhf.infinite_volume_orbital(n, k2, X1 + l1 * grid.L1, X2, b))
        aliased_k2 = 2 * math.pi * (m - M * l1) / grid.L2
        target = lhf.infinite_volume_orbital(n, aliased_k2, X1, X2, b)
        assert np.max(np.abs(translated - target)) < 1e-10


# --- kinetic operator --------------------------------------------------------

def test_eigenresidual_fourth_order(cfg_m3):
    M, n, m = 3, 1, 0
    res = {}
    for G in (64, 128):
        grid = lhf.Grid(L1=cfg_m3.domain.L1, L2=cfg_m3.domain.L2, G1=G, G2=G)
        phi = lhf.finite_volume_orbital(n, m, grid, M)
        out = lhf.apply_landau_hamiltonian(phi, cfg_m3.constants)
        E = lhf.landau_level(n, cfg_m3.constants)
        diff = out.values - E * phi.values
        res[G] = math.sqrt(abs(lhf.inner_product(diff, diff, grid)))
    assert res[64] / res[128] >= 12.0


def test_energy_expectation(cfg_m3, oset_m3):
    phi = oset_m3.orbitals[oset_m3.index(1, 0)]
    out = lhf.apply_landau_hamiltonian(phi, cfg_m3.constants)
    val = lhf.inner_product(phi, out).real
    assert val == pytest.approx(lhf.landau_level(1, cfg_m3.constants), abs=1e-4)


def test_constant_field_feels_scalar_potential(cfg_m3):
    # away from the seam every derivative of a constant vanishes, leaving
    # the (b x1)^2 confinement term
    grid = cfg_m3.grid
    c = lhf.OrbitalField(grid=grid, values=np.full(grid.shape, 2.0 + 0j),
                         flux_count=3)
    out = lhf.apply_landau_hamiltonian(c, cfg_m3.constants)
    b = cfg_m3.constants.reduced_field
    expect = 0.5 * (b * grid.x1[:, None]) ** 2 * 2.0
    interior = slice(2, grid.G1 - 2)
    assert np.max(np.abs(out.values[interior, :] - expect[interior, :])) < 1e-10


def test_grid_too_coarse_rejected(cfg_m3):
    grid = lhf.Grid(L1=cfg_m3.domain.L1, L2=cfg_m3.domain.L2, G1=16, G2=16)
    phi = lhf.OrbitalField(grid=grid, values=np.ones(grid.shape, complex),
                           flux_count=30)
    domain = lhf.DomainConfig(L1=grid.L1, L2=grid.L2, M=30)
    constants = lhf.PhysicalConstants.for_domain(domain)
    with pytest.raises(GridTooCoarse):
        lhf.apply_landau_hamiltonian(phi, constants)


# --- boundary-condition checks ----------------------------------------------

def test_orbitals_satisfy_boundary_conditions():
    cfg = make_config(M=3, n_max=2, N=2, grid=192)
    oset = lhf.build_orbital_set(cfg)
    for phi in oset.orbitals:
        assert lhf.check_magnetic_bc(phi) < 1e-10


def test_plane_wave_periodic_in_x2(cfg_m3):
    grid = cfg_m3.grid
    _, X2 = grid.mesh()
    f = lhf.OrbitalField(grid=grid, values=np.exp(2j * math.pi * X2 / grid.L2),
                         flux_count=3)
    _, r2 = boundary_residuals(f)
    assert r2 < 1e-12


def test_noise_field_violates_boundary_conditions(cfg_m3, rng):
    grid = cfg_m3.grid
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    f = lhf.OrbitalField(grid=grid, values=noise, flux_count=3)
    assert lhf.check_magnetic_bc(f) > 0.1


# --- orbital set -------------------------------------------------------------

def test_build_orbital_set_counts_and_gram(oset_m3):
    assert oset_m3.size == 9
    assert oset_m3.gram_deviation() <= 1e-8


def test_orbital_set_energies_repeat_per_level(oset_m3, cfg_m3):
    E = [lhf.landau_level(n, cfg_m3.constants) for n in range(3)]
    expect = np.repeat(E, 3)
    assert np.allclose(oset_m3.energies, expect, rtol=1e-14)


def test_single_orbital_set():
    cfg = make_config(M=1, n_max=0, N=1, grid=48, tensor_grid=48)
    oset = lhf.build_orbital_set(cfg)
    assert oset.size == 1
    assert oset.orbitals[0].norm() == pytest.approx(1.0, abs=1e-8)


def test_degeneracy_shift_closed_under_relabelling(cfg_m3):
    # the m -> (m - M*l1) mod M relabelling regenerates the same orbital set
    grid = cfg_m3.grid
    M = 3
    orig = {m: lhf.finite_volume_orbital(0, m, grid, M) for m in range(M)}
    for l1 in (1, 2):
        for m in range(M):
            shifted = (m - M * l1) % M
            again = lhf.finite_volume_orbital(0, shifted, grid, M)
            assert np.max(np.abs(again.values - orig[shifted].values)) == 0.0
            overlap = lhf.inner_product(orig[m], again)
            expected = 1.0 if shifted == m else 0.0
            assert abs(abs(overlap) - expected) < 1e-8


# --- separable form against the grid oracle ------------------------------------

def separable_set(case):
    """(orbital set, lattice cut) of a case: a shipped config on its grid or
    its tensor grid, cfg_m3's basis with lattice_cut = 3, or an aliasing
    set, M = 3 on a 16 x 4 grid (below the Nyquist guard, so shell pairs one
    apart meet modes through dq = k2 + G2 j, j != 0), built from
    lattice_profiles with no Gram check."""
    if case == "cut3":
        return lhf.build_orbital_set(make_config(lattice_cut=3)), 3
    if case == "aliasing":
        grid = lhf.Grid(L1=TWO_PI, L2=TWO_PI, G1=16, G2=4)
        shells, profiles, kept = lhf.lattice_profiles(range(3), range(3), grid, 3)
        return lhf.OrbitalSet(profiles=np.ascontiguousarray(profiles.reshape(9, -1, 16)),
                              shells=shells, kept=kept.reshape(9, -1),
                              energies=np.zeros(9), flux_count=3, grid=grid), 0
    name, which = case.split("-")
    config = lhf.load_config(ROOT / f"configs/{name}.cfg")
    return lhf.build_orbital_set(config, grid=getattr(config, which)), config.lattice_cut


SEPARABLE_CASES = [f"{name}-{which}" for name in ("example", "k16n4", "k30n10")
                   for which in ("grid", "tensor_grid")] + ["cut3", "aliasing"]


@pytest.mark.parametrize("case", SEPARABLE_CASES)
def test_samples_are_the_grid_oracle_bit_for_bit(case):
    # the on-demand samples of the separable form against the lattice sum
    # assembled on the grid shell by shell, one Hermite call per shell
    oset, cut = separable_set(case)
    expect = helpers.grid_orbital_matrix(oset, cut)
    assert oset.matrix().tobytes() == expect.tobytes()
    M = oset.flux_count
    for k, (orb, row) in enumerate(zip(oset.orbitals, expect)):
        assert (orb.n, orb.m, orb.flux_count) == (k // M, k % M, M)
        assert orb.values.tobytes() == row.reshape(oset.grid.shape).tobytes()
    assert np.array_equal(oset.labels, np.arange(oset.size) % M)
    assert np.array_equal(oset.harmonics, oset.labels[:, None] - M * oset.shells)


@pytest.mark.parametrize("case", SEPARABLE_CASES)
def test_closed_form_gram_matches_the_grid_oracle(case):
    oset, cut = separable_set(case)
    gram = helpers.grid_gram(helpers.grid_orbital_matrix(oset, cut), oset.grid)
    assert np.abs(oset.gram - gram).max() <= 1e-14 * np.abs(gram).max()
    if case == "aliasing":          # the grid's aliasing, not orthonormality
        assert np.abs(gram - np.eye(oset.size)).max() > 1e-3


@pytest.mark.parametrize("n,m,cut", [(0, 1, 0), (2, 0, 0), (1, 2, 0), (2, 0, 1), (2, 0, 2),
                                     (1, 2, 1), (0, 0, 5), (4, 2, 0)])
def test_finite_volume_orbital_is_the_grid_oracle(cfg_m3, n, m, cut):
    # bit for bit, or the same TruncationTooSmall
    grid = cfg_m3.grid
    try:
        expect = helpers.grid_orbital(n, m, grid, 3, cut)
    except TruncationTooSmall as exc:
        with pytest.raises(TruncationTooSmall, match=f"^{re.escape(str(exc))}$"):
            lhf.finite_volume_orbital(n, m, grid, 3, lattice_cut=cut)
        return
    got = lhf.finite_volume_orbital(n, m, grid, 3, lattice_cut=cut)
    assert got.values.tobytes() == expect.tobytes()


def test_orbital_set_cut_raises_for_the_first_orbital_that_needs_more():
    # build_orbital_set names the first orbital, in (n, m) order, whose sum
    # needs a shell beyond the cut, and that orbital's first such shell
    config = make_config(lattice_cut=1)
    messages = []
    for n in range(3):
        for m in range(3):
            try:
                helpers.grid_orbital(n, m, config.grid, 3, 1)
            except TruncationTooSmall as exc:
                messages.append(str(exc))
    assert messages
    with pytest.raises(TruncationTooSmall, match=f"^{re.escape(messages[0])}$"):
        lhf.build_orbital_set(config)
