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

from .circuit import Circuit
from .simulator import PRUNE_THRESHOLD, basis_inputs, histories, run_starts

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
    deviation and the depth-first first one's phase. A target with a NaN or
    infinite entry, or whose entries are all within ``tolerance`` of 0,
    raises ``ValueError``.

    The per-(history, input) sums that drop pairs below PRUNE_THRESHOLD and
    weigh ancilla leaks run only when some entry lies outside the ancilla
    pattern or below that threshold. Skipping them otherwise is exact: a
    float sum of nonnegative terms is never below any one of its terms, so
    every pair is live, and no entry leaks.
    """
    if not (math.isfinite(tolerance) and 0 < tolerance < MAX_TOLERANCE):
        raise ValueError(
            f"tolerance must be finite and in (0, {MAX_TOLERANCE:g}), got {tolerance!r}")
    data = sorted(circuit.data_qubits)
    dim_data = 1 << len(data)
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim_data, dim_data):
        raise ValueError(
            f"target dimension {target.shape} does not match "
            f"{len(data)} data qubits (expected {(dim_data, dim_data)})")
    magnitude = np.abs(target)
    if not np.isfinite(magnitude).all():
        raise ValueError("target entries must be finite")
    pivot, nonzeros = int(np.argmax(magnitude)), np.count_nonzero(magnitude)
    del magnitude  # 4^d floats: held to the end, they made the n = 6 check refault heap pages
    if abs(target.flat[pivot]) <= tolerance:
        raise ValueError("target operator is ~0")
    inputs, spread, ones = basis_inputs(data)
    history, column, basis, amps, outcomes, runs = histories(circuit, inputs, spread, ones)

    # ancillas end in |0>, or hold the outcome when their last op measured them
    last = {q: i for i, op in enumerate(circuit.ops) for q in op.qubits}
    held = [1 << q if last[q] == i and q not in data else 0  # per measurement
            for i, op in enumerate(circuit.ops) if op.bit is not None for q in op.qubits]
    expected = (np.array(outcomes, np.int64) @ np.array(held, np.int64))[history] if any(held) else 0
    inside = (basis & sum(1 << q for q in circuit.ancilla_qubits)) == expected
    weights = amps.real ** 2 + amps.imag ** 2
    owner, col = history, column
    if inside.all() and weights.min() >= PRUNE_THRESHOLD:  # every pair live, none leaks
        ancilla_clean = True
    else:  # entries form runs of one (history, input) within runs of one history
        new_pair = run_starts(history) | run_starts(column)
        pairs = np.flatnonzero(new_pair)
        pair_total = np.add.reduceat(weights, pairs)
        # pruned as in a walk from one input; keeps rounding residue out of the ratio
        live = (pair_total >= PRUNE_THRESHOLD)[np.cumsum(new_pair) - 1]
        off = np.add.reduceat(np.where(inside, 0.0, weights), pairs)
        ancilla_clean = not (off > tolerance ** 2 * pair_total)[live[pairs]].any()
        kept = inside & live
        amps, owner, col, basis = amps[kept], history[kept], column[kept], basis[kept]
        runs = np.flatnonzero(run_starts(owner))

    # each history's Kraus entries K_h[row, col] inside the ancilla pattern
    row = basis & sum(1 << q for q in data)
    if spread[-1] >= dim_data:  # data wires other than 0..d-1: rank their patterns
        row = np.searchsorted(spread, row)
    position = row * dim_data + col
    at = position == pivot
    scalar = np.zeros(len(outcomes), dtype=complex)
    scalar[owner[at]] = amps[at] / target.flat[pivot]
    # max |K_h - c_h U| over the leaf's entries, then over the target's nonzeros it lacks
    wanted = np.take(target, position)
    largest, deviation, present = np.zeros((3, len(outcomes)))
    if len(owner):  # a run of entries per history
        lead = owner[runs]
        largest[lead] = np.maximum.reduceat(np.abs(amps), runs)
        deviation[lead] = np.maximum.reduceat(np.abs(amps - scalar[owner] * wanted), runs)
        present[lead] = np.add.reduceat(wanted != 0, runs, dtype=np.intp)
    lacking = np.flatnonzero((present < nonzeros) & (scalar != 0))
    support = np.flatnonzero(target) if len(lacking) else None
    for h in lacking:
        missing = np.setdiff1d(support, position[owner == h], assume_unique=True)
        deviation[h] = max(deviation[h], abs(scalar[h]) * np.abs(target.flat[missing]).max())

    # visible outcomes -> (|c|^2, phase, deviation) of each history, depth-first
    groups: dict[tuple[int, ...], list[tuple[float, complex, float]]] = {}
    for visible, c, big, dev in zip(outcomes, scalar.tolist(), largest.tolist(), deviation.tolist()):
        fit = (abs(c) ** 2, c / abs(c) if c else complex(1), dev)
        groups.setdefault(visible, []).append(fit if big > tolerance else (0.0, complex(1), big))
    reports = tuple(
        BranchReport(visible, sum(h[0] for h in group), group[0][1], max(h[2] for h in group))
        for visible, group in sorted(groups.items())
    )
    probability_total = sum(r.probability for r in reports)
    passed = (ancilla_clean and all(r.max_deviation <= tolerance for r in reports)
              and abs(probability_total - 1.0) <= tolerance)
    return ChannelVerdict(passed, reports, ancilla_clean, probability_total)
