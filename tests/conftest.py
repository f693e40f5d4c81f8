import numpy as np
import pytest

import landau_hf as lhf

TWO_PI = 2.0 * np.pi


def make_config(M=3, n_max=2, N=2, strength=0.2, kind="separable-cosine",
                grid=64, tensor_grid=64, dt=1e-3, t_final=0.2,
                sample_stride=10, L=TWO_PI, integrator="rk4", sigma=1.2, lattice_cut=0):
    text = f"""
[domain]
L1 = {L!r}
L2 = {L!r}
M = {M}

[basis]
n_max = {n_max}
grid1 = {grid}
tensor_grid1 = {tensor_grid}
lattice_cut = {lattice_cut}

[dynamics]
N = {N}
dt = {dt!r}
t_final = {t_final!r}
integrator = {integrator}
sample_stride = {sample_stride}

[potential]
kind = {kind}
strength = {strength!r}
sigma = {sigma!r}
"""
    return lhf.parse_config(text)


@pytest.fixture(scope="session")
def cfg_m3():
    return make_config()


@pytest.fixture(scope="session")
def oset_m3(cfg_m3):
    return lhf.build_orbital_set(cfg_m3)


@pytest.fixture(scope="session")
def tensor_m3(cfg_m3, oset_m3):
    return lhf.two_body_tensor(cfg_m3.potential, oset_m3, cfg_m3.tensor_grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
