"""Brute-force channel verification for measurement-and-feedback circuits.

``check_implements`` proves that every measurement branch of a circuit,
after its conditioned fixups, acts on the data qubits as the target unitary
times an outcome-dependent but input-independent global phase. That
per-outcome phase freedom is exactly what "deterministically implements"
means here: the phase is unobservable per branch, but any input dependence
would be an error and is caught by assembling every outcome's full linear
map over all basis inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuit import Circuit, Gate, remap_qubits
from .simulator import histories, require_key_room, run_starts

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


def oracle_cnz(n: int) -> np.ndarray:
    """Diagonal (n+1)-qubit matrix with -1 on the all-ones state, +1 elsewhere.

    Built directly from the bit pattern, independently of any synthesis
    route, so it can serve as the ground-truth target.
    """
    if n < 1:
        raise ValueError("oracle_cnz requires n >= 1")
    dim = 1 << (n + 1)
    diag = np.ones(dim, dtype=complex)
    diag[dim - 1] = -1
    return np.diag(diag)


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

    ``histories`` has already dropped the negligible (history, input) pairs;
    the verdict prunes nothing. Entries outside the ancilla pattern are zeroed
    in place once each pair's leak is weighed: every reduction, the linear
    lacking-nonzero pass too, runs over the history runs as returned.
    """
    if not (math.isfinite(tolerance) and 0 < tolerance < MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must be finite and in (0, {MAX_TOLERANCE:g}), got {tolerance!r}")
    # before renumbering, so an invalid circuit names its own qubits, and before 2^d is formatted
    labels = require_key_room(circuit, len(circuit.data_qubits))
    data = sorted(circuit.data_qubits)
    dim_data = 1 << len(data)
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim_data, dim_data):
        raise ValueError(
            f"target dimension {target.shape} does not match "
            f"{len(data)} data qubits (expected {(dim_data, dim_data)})")
    # the only read of where the target is nonzero; != 0 first, as flatnonzero on complex is slow
    support = np.flatnonzero(target != 0)
    # the first largest entry in row-major order: argmax stops at the first NaN, else at an infinity
    pivot = int(support[np.argmax(np.abs(target.take(support)))]) if len(support) else 0
    if not np.isfinite(target.flat[pivot]):
        raise ValueError("target entries must be finite")
    if abs(target.flat[pivot]) <= tolerance:
        raise ValueError("target operator is ~0")
    if data != list(range(len(data))):  # renumber: data on wires 0..d-1, the ancillas after them
        order = data + sorted(circuit.ancilla_qubits)
        circuit = remap_qubits(circuit, {q: i for i, q in enumerate(order)})
    inputs = np.arange(dim_data, dtype=np.int64)  # input x is register index x
    history, column, basis, amps, outcomes, runs = histories(
        circuit, len(data), inputs, np.ones(dim_data, complex), labels)
    # each history's Kraus entries K_h[row, col], and the target's U[row, col]
    position = (basis & (dim_data - 1)) * dim_data + column
    wanted = np.take(target, position)

    # ancillas end in |0>; one whose last op measured it holds its outcome (MEASURE copies
    # the wire into its label), so it is left out of the pattern
    last = {q: op.gate for op in circuit.ops for q in op.qubits}
    held = sum(1 << q for q, gate in last.items() if gate is Gate.MEASURE)
    outside = (basis & (-dim_data & ~held)) != 0
    ancilla_clean = True
    if outside.any():  # entries form runs of one (history, input) within runs of one history
        weights = amps.real ** 2 + amps.imag ** 2
        pairs = np.flatnonzero(run_starts(history) | run_starts(column))
        off = np.add.reduceat(np.where(outside, weights, 0.0), pairs)
        ancilla_clean = not (off > tolerance ** 2 * np.add.reduceat(weights, pairs)).any()
        amps[outside], wanted[outside], position[outside] = 0, 0, -1  # no part of any K_h

    at = position == pivot
    scalar = np.zeros(len(outcomes), dtype=complex)
    scalar[history[at]] = amps[at] / target.flat[pivot]
    # K_h ~ 0 has no phase to fit: c_h = 0, so its deviation is its largest entry
    scalar[np.maximum.reduceat(np.abs(amps), runs) <= tolerance] = 0
    # max |K_h - c_h U| over the leaf's entries, then over the target's nonzeros it lacks
    deviation = np.maximum.reduceat(np.abs(amps - scalar[history] * wanted), runs)
    present = np.add.reduceat(wanted != 0, runs, dtype=np.intp)
    lacking = np.flatnonzero((present < len(support)) & (scalar != 0))
    ends = np.append(runs[1:], len(position))
    for h in lacking:  # its entries at target nonzeros: distinct, as setdiff1d assumes
        run = slice(runs[h], ends[h])
        missing = np.setdiff1d(support, position[run][wanted[run] != 0], assume_unique=True)
        deviation[h] = max(deviation[h], abs(scalar[h]) * np.abs(target.flat[missing]).max())

    # visible outcomes -> [sum of |c|^2, first phase, max deviation] over its histories, depth-first
    groups: dict[tuple[int, ...], list] = {}
    for visible, c, dev in zip(outcomes, scalar.tolist(), deviation.tolist()):
        group = groups.setdefault(visible, [0.0, c / abs(c) if c else complex(1), dev])
        group[0] += abs(c) ** 2
        group[2] = max(group[2], dev)
    reports = tuple(BranchReport(visible, *group) for visible, group in sorted(groups.items()))
    probability_total = math.fsum(r.probability for r in reports)
    passed = (ancilla_clean and all(r.max_deviation <= tolerance for r in reports)
              and abs(probability_total - 1.0) <= tolerance)
    return ChannelVerdict(passed, reports, ancilla_clean, probability_total)
