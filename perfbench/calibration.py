"""The speed of the machine at the moment, from fixed computations.

The test machine is a 2-vCPU VM on a shared host.  The host's other load
slows everything that runs on it by up to 1.8x, in spells that last from a
fraction of a second to minutes, so a run of 30 s can fall wholly in a slow
spell.  Over ten runs the lower quartile of raw pass times then spreads by
5-27%.

``calibration_time`` times computations that do not touch landau_hf and
never change, each of one kind of work the program's hot paths do.  The
benchmark runs them right before and right after every timed pass, and
scales the pass's wall time by their reference time over the mean of the
two.  A change to the program changes the pass time and leaves the
calibration alone, so it shows in full; a slow spell stretches both and
mostly cancels.

A slow spell does not slow every kind of work by the same factor, so each
workload is calibrated with the kinds its own passes do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rng = np.random.default_rng(0)
_TENSOR = _rng.standard_normal((30, 30, 30, 30))
_MATRIX = _rng.standard_normal((30, 30))
_CMATRIX = _MATRIX + 1j * _rng.standard_normal((30, 30))


def _interpreter():
    total = 0
    for i in range(40_000):
        total += i * i


def _small_arrays():
    small = _MATRIX[:8, :8]
    for _ in range(1_500):
        small = np.tanh(small @ _MATRIX[:8, :8] + 1.0)


def _contraction():
    for _ in range(6):
        np.einsum("abgd,db->ag", _TENSOR, _MATRIX)


def _outer_sum():
    """A complex 4-index outer product summed into a 13 MB array."""
    outer = np.zeros((30, 30, 30, 30), dtype=np.complex128)
    outer += 0.5 * np.einsum("ag,bd->abgd", _CMATRIX, _CMATRIX)


# Each kind of work: its computation and its typical time on the reference
# machine (2-vCPU Intel Xeon VM).  Scaled times read as seconds on that
# machine.
KINDS = {
    "interpreter": (_interpreter, 0.003),
    "small_arrays": (_small_arrays, 0.0065),
    "contraction": (_contraction, 0.006),
    "outer_sum": (_outer_sum, 0.013),
}


def calibration_time(kinds) -> float:
    """Wall time of the computations of the given kinds, 5-25 ms."""
    t0 = perf_counter()
    for kind in kinds:
        KINDS[kind][0]()
    return perf_counter() - t0


def scaled(wall: float, calibration: float, kinds) -> float:
    """``wall`` as it would read on the reference machine."""
    return wall * sum(KINDS[kind][1] for kind in kinds) / calibration
