"""Host-speed calibration: a fixed kernel timed between the operations of a run.

The host lends this process a share of a core whose speed drifts by 20-50 %
over minutes, and the slowdown shows in process CPU time too, so it is not
time spent waiting for a CPU. A kernel of the same kind of work as the
program's (small numpy state vectors and interpreted Python), timed beside
it, slows with it. Each pass's timings are scaled by ``REFERENCE_S`` over
the kernel's median time in that pass, so the figures read as seconds on a
host where the kernel takes ``REFERENCE_S``. The kernel imports nothing from
``cnzsynth``: a change to the program cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

#: The kernel's time on the machine of the reference figures in README.md.
REFERENCE_S = 0.012

_QUBITS = 10
_STEPS = 600


def _gates() -> list[np.ndarray]:
    rng = np.random.default_rng(20240611)
    gates = []
    for _ in range(8):
        q, _r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        gates.append(q)
    return gates


_GATES = _gates()


def kernel() -> complex:
    """One fixed unit of work: 600 one-qubit gates on a 10-qubit state, with dict updates."""
    state = np.zeros((2,) * _QUBITS, dtype=complex)
    state[(0,) * _QUBITS] = 1.0
    tally: dict[int, int] = {}
    for k in range(_STEPS):
        q = k % _QUBITS
        state = np.moveaxis(np.tensordot(_GATES[k % 8], state, axes=([1], [q])), 0, q)
        tally[k % 37] = tally.get(k % 37, 0) + 1
    return complex(state.flat[0]) + len(tally)


def sample() -> float:
    """Seconds taken by one run of ``kernel``."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
