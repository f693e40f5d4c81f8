import math

import numpy as np
import pytest

import landau_hf as lhf
from landau_hf.errors import InvalidValue, NonFiniteValue, SymmetryViolation
from landau_hf.potentials import PotentialSpec, _gaussian_axis_terms, signed_frequency
from helpers import double_image_gaussian_table, poisson_gaussian_table


@pytest.fixture
def grid():
    return lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=12, G2=12)


def test_zero_kind(grid):
    pot = PotentialSpec(kind="zero")
    assert pot.sup_norm() == 0.0
    assert pot.separable_terms(grid) == []
    assert np.all(pot.pair_values(grid) == 0.0)


def test_cosine_pair_values_symmetric(grid):
    pot = PotentialSpec(kind="separable-cosine", strength=0.7)
    vals = pot.pair_values(grid)
    assert np.max(np.abs(vals - vals.T)) == 0.0
    assert np.max(np.abs(vals)) <= 0.7 + 1e-14
    assert pot.sup_norm() == 0.7


def test_cosine_zero_harmonics_is_constant(grid):
    pot = PotentialSpec(kind="separable-cosine", strength=0.3,
                        harmonic1=0, harmonic2=0)
    vals = pot.pair_values(grid)
    assert np.max(np.abs(vals - 0.3)) < 1e-15


@pytest.mark.parametrize("shape", [(12, 12), (15, 24)], ids=["12x12", "15x24"])
def test_gaussian_fourier_modes_reconstruct(shape):
    grid = lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=shape[0], G2=shape[1])
    pot = PotentialSpec(kind="periodic-gaussian", strength=0.4, sigma=1.1)
    vals = pot.pair_values(grid)
    (k1, k2), weights = pot.fourier_modes(grid)
    i1, i2 = np.meshgrid(np.arange(grid.G1), np.arange(grid.G2), indexing="ij")
    phase = (np.outer(i1.ravel(), k1) / grid.G1 + np.outer(i2.ravel(), k2) / grid.G2)
    modes = np.exp(2j * np.pi * phase)                     # (P, R)
    rebuilt = (modes * weights) @ modes.conj().T
    assert np.max(np.abs(rebuilt.imag)) < 1e-12
    assert np.max(np.abs(rebuilt.real - vals)) < 1e-12


def test_only_gaussian_has_fourier_modes(grid):
    for kind in ("zero", "separable-cosine"):
        assert PotentialSpec(kind=kind).fourier_modes(grid) is None
    assert PotentialSpec(kind="periodic-gaussian").separable_terms(grid) is None


@pytest.mark.parametrize("G", [15, 16, 32, 64])
def test_signed_frequency_is_numpy_fftfreq(G):
    k = np.arange(-2 * G, 2 * G)
    assert np.array_equal(signed_frequency(k, G), np.fft.fftfreq(G, 1 / G)[k % G])


def _marked(row):
    return set(np.flatnonzero(row).tolist())


# (M, G2, harmonic2, transfers): M = 3 does not divide G2, so a harmonic
# beyond G2 / 2 must be folded to its signed frequency before taking it mod M
@pytest.mark.parametrize("M,G2,h2,transfers", [
    (3, 64, 1, {1, 2}), (3, 64, -1, {1, 2}), (3, 64, 0, {0}), (3, 64, 3, {0}),
    (4, 64, 2, {2}), (3, 64, 40, {0}), (3, 32, 30, {1, 2}), (3, 32, 33, {1, 2}),
    (8, 64, 1, {1, 7})])
def test_cosine_transfers_are_plus_minus_the_signed_harmonic(M, G2, h2, transfers):
    grid = lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=8, G2=G2)
    rule = PotentialSpec(kind="separable-cosine", harmonic2=h2).x2_transfers(grid, M)
    assert rule.shape == (1, M) and _marked(rule[0]) == transfers


@pytest.mark.parametrize("M,G2", [(3, 64), (3, 15), (4, 32)])
def test_gaussian_transfer_of_mode_k2_is_its_signed_frequency(M, G2):
    grid = lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=8, G2=G2)
    rule = PotentialSpec(kind="periodic-gaussian", strength=0.2).x2_transfers(grid, M)
    assert rule.shape == (G2, M)
    for k2 in range(G2):
        signed = k2 if k2 < G2 - G2 // 2 else k2 - G2
        assert _marked(rule[k2]) == {signed % M}
    if (M, G2) == (3, 64):
        assert _marked(rule[63]) == {2} and _marked(rule[40]) == {0}


def test_zero_kind_has_no_factor_and_tabulated_no_rule(grid):
    assert PotentialSpec(kind="zero").x2_transfers(grid, 3).shape == (0, 3)
    table = PotentialSpec(kind="separable-cosine", strength=0.2).pair_values(grid)
    assert PotentialSpec(kind="tabulated", table=table).x2_transfers(grid, 3) is None


def test_gaussian_peak_and_symmetry(grid):
    pot = PotentialSpec(kind="periodic-gaussian", strength=0.4, sigma=0.9)
    vals = pot.pair_values(grid)
    assert np.max(np.abs(vals - vals.T)) < 1e-14
    # sup attained on the diagonal with the normalized kernel
    assert np.max(vals) == pytest.approx(0.4, abs=1e-12)
    assert pot.sup_norm() == 0.4


def test_tabulated_requires_symmetry(grid, rng):
    P = grid.G1 * grid.G2
    bad = rng.normal(size=(P, P))
    pot = PotentialSpec(kind="tabulated", table=bad)
    with pytest.raises(SymmetryViolation):
        pot.check_symmetry(grid)
    good = 0.5 * (bad + bad.T)
    pot = PotentialSpec(kind="tabulated", table=good)
    assert pot.check_symmetry(grid) == 0.0
    assert pot.sup_norm() == np.max(np.abs(good))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_table_fails_the_symmetry_check(grid, bad):
    P = grid.G1 * grid.G2
    table = np.zeros((P, P))
    table[2, 2] = bad
    with pytest.raises(NonFiniteValue):
        PotentialSpec(kind="tabulated", table=table).check_symmetry(grid)


def test_overflowing_gaussian_weights_raise(grid):
    pot = PotentialSpec(kind="periodic-gaussian", strength=1e308)
    with pytest.raises(NonFiniteValue, match="Fourier weights are non-finite"):
        pot.fourier_modes(grid)
    with pytest.raises(NonFiniteValue):
        pot.check_symmetry(grid)
    assert PotentialSpec(kind="periodic-gaussian", strength=1e300).check_symmetry(grid) == 0.0


def test_tabulated_needs_table():
    with pytest.raises(InvalidValue):
        PotentialSpec(kind="tabulated")


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
def test_gaussian_sigma_must_be_finite_and_positive(sigma):
    # every kind checks sigma, so the manifest's echo of it is strict JSON
    for kind in ("periodic-gaussian", "zero", "separable-cosine"):
        with pytest.raises(InvalidValue) as info:
            PotentialSpec(kind=kind, strength=0.4, sigma=sigma)
        assert info.value.key == "sigma"


def test_unknown_kind_rejected():
    with pytest.raises(InvalidValue):
        PotentialSpec(kind="coulomb")


GAUSSIAN_GRIDS = [lhf.Grid(L1=2.0 * np.pi, L2=2.0 * np.pi, G1=64, G2=64),
                  lhf.Grid(L1=5.0, L2=3.0, G1=20, G2=12)]


@pytest.mark.parametrize("grid", GAUSSIAN_GRIDS, ids=["box64", "rect20x12"])
@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.2, math.pi / 2])
def test_gaussian_table_matches_image_pair_sum(grid, sigma):
    pot = PotentialSpec(kind="periodic-gaussian", strength=1.0, sigma=sigma)
    table = pot._difference_table(grid)
    oracle = double_image_gaussian_table(sigma, grid)
    assert np.max(np.abs(table - oracle)) <= 1e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("grid", GAUSSIAN_GRIDS, ids=["box64", "rect20x12"])
@pytest.mark.parametrize("sigma", [3.0, 20.0, 100.0])
def test_wide_gaussian_table_matches_poisson_sum(grid, sigma):
    # the pair sum would take (2n+1)^2 outer products, n ~ 9 sigma / L
    pot = PotentialSpec(kind="periodic-gaussian", strength=1.0, sigma=sigma)
    table = pot._difference_table(grid)
    assert np.max(np.abs(table - poisson_gaussian_table(sigma, grid))) <= 1e-14


@pytest.mark.parametrize("grid", GAUSSIAN_GRIDS, ids=["box64", "rect20x12"])
@pytest.mark.parametrize("sigma", [1e2, 1e4, 1e7])
def test_very_wide_gaussian_table_sums_one_dual_mode(grid, sigma):
    # the image sum would take 2 ceil(9 sigma / L) + 3 terms per axis
    for L in (grid.L1, grid.L2):
        images, modes = _gaussian_axis_terms(sigma, L)
        assert modes == 1 < images
    pot = PotentialSpec(kind="periodic-gaussian", strength=1.0, sigma=sigma)
    table = pot._difference_table(grid)
    assert np.max(np.abs(table - poisson_gaussian_table(sigma, grid))) <= 1e-13


@pytest.mark.parametrize("sigma,images,modes", [
    (math.pi / 2, 4, 6), (1.0, 3, 9), (1.9, 4, 5), (2.5, 5, 4)],
    ids=["default", "gaussian-cfg", "below-crossover", "above-crossover"])
def test_gaussian_series_term_counts(sigma, images, modes):
    # on a 2 pi axis: images a = -n..n, n = ceil(9 sigma / L) + 1, against
    # dual modes k = -m..m, m = ceil(4.5 L / (pi sigma)); the table sums the
    # shorter, so the default and gaussian.cfg's sigma keep the image sum
    L = 2.0 * math.pi
    assert _gaussian_axis_terms(sigma, L) == (images, modes)
