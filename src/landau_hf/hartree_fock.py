"""Nonlinear effective dynamics on the manifold of Slater determinants.

State: global phase a plus N orthonormal orbital coefficient vectors in the
truncated basis, where the one-body operator is exactly diagonal.  The
orbitals obey

    i hbar d/dt phi_l = H1 phi_l + (J[rho] - X[rho]) phi_l,

the Fock operator of the full density rho = sum_l phi_l phi_l^H, with the
direct (mean-field) potential J[rho] and the nonlocal exchange X[rho].  The
self-terms of orbital l in J and X cancel exactly, so this equals the mean
field and exchange of the other orbitals alone.  This orbital flow preserves
orthonormality exactly but carries the tangential phase rate
sum_l <phi_l | d/dt phi_l> = (T + 2W)/(i hbar), where T is the one-body and W
the pair part of the energy.  For a*(wedge of orbitals) to satisfy the
variational projection of the full dynamics (and hence preserve energy, norm,
and the two-replacement structure of the residual), the phase must absorb the
excess:

    i hbar da/dt = -W(t) a(t),

which reduces to a constant phase for vanishing interaction.  W is evaluated
from the current orbitals at every stage; the total energy T + W is a flow
invariant and is cached at t = 0 for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PhysicalConstants
from .errors import NonFiniteValue, NotUnitary, StepUnstable
from .manybody import InteractionTensor


@dataclass(frozen=True)
class HFState:
    """Snapshot of the effective dynamics at one instant."""

    time: float
    a: complex
    orbitals: np.ndarray          # (K, N), columns orthonormal
    e0: float | None = None       # total energy cached at t = 0

    @property
    def N(self) -> int:
        return self.orbitals.shape[1]

    @property
    def K(self) -> int:
        return self.orbitals.shape[0]

    def gram_deviation(self) -> float:
        C = self.orbitals
        return float(np.max(np.abs(C.conj().T @ C - np.eye(self.N))))


@dataclass
class HFTrajectory:
    times: np.ndarray
    states: list
    energies: np.ndarray
    norms: np.ndarray             # |a| at each sample
    gram_devs: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        n = len(self.times)
        if not (len(self.states) == len(self.energies)
                == len(self.norms) == len(self.gram_devs) == n):
            raise ValueError("diagnostic lengths do not match sample count")


def _nonlinear_terms(orbitals: np.ndarray, tensor: InteractionTensor) -> np.ndarray:
    """eta = (J[rho] - X[rho]) C, rho = C C^H; J and X are one product each
    on the pair layout pair[(ag), (bd)] of v, using no symmetry of v."""
    if tensor.is_zero() or orbitals.shape[1] == 1:
        return np.zeros_like(orbitals)
    rho = orbitals @ orbitals.conj().T
    J = (tensor.pair @ rho.T.ravel()).reshape(rho.shape)
    X = rho.ravel() @ tensor.pair.reshape(len(rho), -1, len(rho))
    return (J - X) @ orbitals


def interaction_energy(orbitals: np.ndarray, tensor: InteractionTensor) -> float:
    """W = (1/2) sum_{l != l'} (direct - exchange) pair terms."""
    eta = _nonlinear_terms(orbitals, tensor)
    return 0.5 * float(np.real(np.vdot(orbitals, eta)))


def hf_rhs(state: HFState, energies: np.ndarray, tensor: InteractionTensor,
           constants: PhysicalConstants) -> tuple[complex, np.ndarray]:
    """(da/dt, dphi/dt) for the coupled phase/orbital system."""
    hbar = constants.hbar
    C = state.orbitals
    eta = _nonlinear_terms(C, tensor)
    h_phi = np.asarray(energies)[:, None] * C + eta
    dphi = h_phi / (1j * hbar)
    W = 0.5 * float(np.real(np.vdot(C, eta)))
    da = (1j * W / hbar) * state.a
    return da, dphi


def hf_energy(state: HFState, energies: np.ndarray,
              tensor: InteractionTensor) -> float:
    """Total energy T + W of the embedded determinant state."""
    C = state.orbitals
    T = float(np.real(np.sum(np.asarray(energies)[:, None] * np.abs(C) ** 2)))
    return T + interaction_energy(C, tensor)


def gauge_transform(state: HFState, U: np.ndarray, tol: float = 1e-10) -> HFState:
    """Mix orbitals by a unitary and divide the phase by its determinant.

    The embedded many-body state is unchanged: the wedge picks up det U,
    the phase drops it.
    """
    U = np.asarray(U)
    N = state.N
    if U.shape != (N, N):
        raise NotUnitary(f"expected ({N}, {N}) matrix, got {U.shape}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(N))))
    if dev > tol:
        raise NotUnitary(f"U deviates from unitarity by {dev:.3e}")
    det = np.linalg.det(U)
    return HFState(time=state.time, a=state.a / det,
                   orbitals=state.orbitals @ U, e0=state.e0)


def _loewdin(a: complex, orbitals: np.ndarray) -> tuple[complex, np.ndarray]:
    """Symmetric orthogonalization with the compensating determinant factor.

    orbitals -> orbitals S^{-1/2} restores orthonormality; multiplying the
    phase by det S^{1/2} keeps the embedded state exactly fixed.
    """
    S = orbitals.conj().T @ orbitals
    w, U = np.linalg.eigh(S)
    inv_sqrt = (U * (w ** -0.5)) @ U.conj().T
    a_new = a * complex(np.prod(np.sqrt(w)))
    return a_new, orbitals @ inv_sqrt


def time_grid(dt: float, t_final: float, sample_stride: int) -> tuple[float, list[int]]:
    """Step dividing [0, t_final] into round(t_final / dt) steps (at least one
    if t_final > 0) and the sampled steps: every sample_stride-th and the last."""
    n_steps = max(1, round(t_final / dt)) if t_final > 0 else 0
    dt_eff = t_final / n_steps if n_steps else 0.0
    return dt_eff, [step for step in range(n_steps + 1)
                    if step % sample_stride == 0 or step == n_steps]


def integrate_hf(initial: HFState, dt: float, t_final: float, scheme: str,
                 tensor: InteractionTensor, energies: np.ndarray,
                 constants: PhysicalConstants, sample_stride: int = 1,
                 step_callback=None, step_gram_tol: float = 1e-3) -> HFTrajectory:
    """Classical RK4 on the coupled (a, orbitals) system.

    scheme 'rk4' integrates as-is; 'rk4+reorth' follows every step with a
    symmetric orthogonalization plus phase compensation (a pure gauge move).
    The callback sees every accepted step, t = 0 included; time_grid picks
    the recorded ones.
    """
    if scheme not in ("rk4", "rk4+reorth"):
        raise ValueError(f"unknown scheme '{scheme}'")
    reorth = scheme.endswith("+reorth")

    dt_eff, samples = time_grid(dt, t_final, sample_stride)
    n_steps, sampled = samples[-1], set(samples)

    e0 = initial.e0
    if e0 is None:
        e0 = hf_energy(initial, energies, tensor)
    a, C = complex(initial.a), initial.orbitals.astype(np.complex128).copy()
    t = float(initial.time)

    def rhs(a_val, C_val):
        st = HFState(time=t, a=a_val, orbitals=C_val, e0=e0)
        return hf_rhs(st, energies, tensor, constants)

    def snapshot():
        return HFState(time=t, a=a, orbitals=C.copy(), e0=e0)

    times, states, energy_log, norm_log, gram_log = [], [], [], [], []

    def record():
        st = snapshot()
        times.append(t)
        states.append(st)
        energy_log.append(hf_energy(st, energies, tensor))
        norm_log.append(abs(a))
        gram_log.append(st.gram_deviation())

    record()
    if step_callback is not None:
        step_callback(states[0])

    for step in range(1, n_steps + 1):
        gram_before = float(np.max(np.abs(C.conj().T @ C - np.eye(C.shape[1]))))
        k1a, k1C = rhs(a, C)
        k2a, k2C = rhs(a + 0.5 * dt_eff * k1a, C + 0.5 * dt_eff * k1C)
        k3a, k3C = rhs(a + 0.5 * dt_eff * k2a, C + 0.5 * dt_eff * k2C)
        k4a, k4C = rhs(a + dt_eff * k3a, C + dt_eff * k3C)
        a = a + dt_eff / 6.0 * (k1a + 2 * k2a + 2 * k3a + k4a)
        C = C + dt_eff / 6.0 * (k1C + 2 * k2C + 2 * k3C + k4C)
        t = initial.time + step * dt_eff

        if not (np.isfinite(a.real) and np.isfinite(a.imag)
                and np.all(np.isfinite(C))):
            raise NonFiniteValue(f"non-finite value at t = {t}")
        gram_after = float(np.max(np.abs(C.conj().T @ C - np.eye(C.shape[1]))))
        if gram_after - gram_before > step_gram_tol:
            raise StepUnstable(
                f"orthonormality drifted by {gram_after - gram_before:.3e} "
                f"in one step at t = {t}")
        if reorth:
            a, C = _loewdin(a, C)

        if step_callback is not None:
            step_callback(snapshot())
        if step in sampled:
            record()

    return HFTrajectory(times=np.asarray(times), states=states,
                        energies=np.asarray(energy_log),
                        norms=np.asarray(norm_log),
                        gram_devs=np.asarray(gram_log))
