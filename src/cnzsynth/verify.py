"""Channel verification for measurement-and-feedback circuits: verdict types and entry point.

``check_implements`` proves that every measurement branch of a circuit,
after its conditioned fixups, acts on the data qubits as the target unitary
times an outcome-dependent but input-independent global phase. That
per-outcome phase freedom is exactly what "deterministically implements"
means here: the phase is unobservable per branch, but any input dependence
would be an error and is caught by assembling every outcome's full linear
map over all basis inputs. The brute-force check runs in the branch engine,
``simulator``, which ``engine`` imports on first use, numpy with it.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from .circuit import Circuit

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOLERANCE = 1e-9
#: A tolerance absorbs float rounding (~1e-15 here); one at or above this
#: would accept channels that differ measurably from the target.
MAX_TOLERANCE = 1e-3


@dataclass(frozen=True)
class BranchReport:
    """Per-outcome-group evidence: probability, global phase, worst deviation."""

    outcomes: tuple[int, ...]
    probability: float
    phase: complex
    max_deviation: float


@dataclass(frozen=True)
class ChannelVerdict:
    """Result of checking a feedback circuit against a target unitary."""

    passed: bool
    branch_reports: tuple[BranchReport, ...]
    ancilla_clean: bool
    probability_total: float


def check_phase_identity() -> bool:
    """Exhaustively confirm i^(ab xor cd) = i^ab * i^cd * (-1)^abcd over {0,1}^4.

    Uses exact integer-exponent complex arithmetic; this is the cancellation
    that lets the conditioned CZ fixups erase the Toffoli kickback while
    leaving only the CCCZ sign.
    """
    for a, b, c, d in product((0, 1), repeat=4):
        lhs = 1j ** ((a * b) ^ (c * d))
        rhs = (1j ** (a * b)) * (1j ** (c * d)) * ((-1) ** (a * b * c * d))
        if lhs != rhs:
            return False
    return True


#: This copy's package and the modules its engine imports, as loaded with this one.
_OWN = {name: sys.modules[name] for name in (__package__, f"{__package__}.circuit", __name__)}


@functools.cache  # imported once and kept across package re-imports, as cli._path_sum is
def engine():
    """This copy's brute-force engine, ``simulator``, imported on first use. After a
    re-import it is imported among this copy's modules, the new copy's set aside."""
    aside = () if sys.modules.get(__package__) is _OWN[__package__] else (*_OWN, f"{__package__}.simulator")
    theirs = {key: sys.modules.pop(key) for key in aside if key in sys.modules}
    sys.modules.update({key: _OWN[key] for key in aside if key in _OWN})
    try:
        from . import simulator
        return simulator
    finally:
        for key in aside:
            sys.modules.pop(key, None)
        sys.modules.update(theirs)


def check_implements(
    circuit: Circuit, target: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> ChannelVerdict:
    """Exhaustively check that ``circuit`` implements ``target`` on its data qubits.

    Every data basis state (ancillas in |0>) runs through every branch in one
    labeled pass; each full history (visible plus hidden reset outcomes) is one
    Kraus operator K_h over all inputs. The verdict passes iff each K_h is ~0
    or c_h * target, every branch leaves the ancillas clean (|0>, or the
    outcome on a measured-out wire), and the |c_h|^2 sum to 1. Each visible
    outcome string gets one report: its histories' summed probability, worst
    deviation and the depth-first first one's phase. An invalid circuit, or one
    whose register, data qubits and event labels exceed the MAX_KEY_BITS key,
    raises ``SimulationError`` before the target is read. A target with a NaN
    or infinite entry, or whose entries are all within ``tolerance`` of 0,
    raises ``ValueError``.
    """
    if not (math.isfinite(tolerance) and 0 < tolerance < MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must be finite and in (0, {MAX_TOLERANCE:g}), got {tolerance!r}")
    return engine().channel_verdict(circuit, target, tolerance)

