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

from .circuit import Circuit, Gate
from .simulator import PRUNE_THRESHOLD, State, require_valid, walk_branches

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


def equal_up_to_global_phase(
    a: np.ndarray, b: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[bool, complex]:
    """Test max-norm equality of A and phase*B, with phase fitted from B's largest entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    flat = int(np.argmax(np.abs(b)))
    pivot = b.flat[flat]
    if abs(pivot) <= tolerance:
        if np.abs(a).max() <= tolerance:
            return True, complex(1)
        raise ValueError("reference operator is ~0 but candidate is not")
    phase = complex(a.flat[flat] / pivot)
    return bool(np.abs(a - phase * b).max() <= tolerance), phase


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


def _measured_out(circuit: Circuit) -> dict[int, int]:
    """Ancilla qubit -> index (in measurement order) of the measurement whose
    outcome it is left holding, for each wire whose last touching op is its
    measurement. Every other ancilla must end in |0>.
    """
    measurements = [op for op in circuit.ops if op.gate is Gate.MEASURE]
    last = {q: op for op in circuit.ops for q in op.qubits}
    return {q: measurements.index(op) for q, op in last.items()
            if q in circuit.ancilla_qubits and op.gate is Gate.MEASURE}


def _kraus_map(
    leaf: State, n: int, data: list[int], anc_mask: int, base: int, tolerance: float
) -> tuple[np.ndarray, bool]:
    """One history's operator K[row, x] on the data block, from a leaf that
    carries input x above the ``n``-qubit register, and whether every input's
    branch has at most tolerance^2 of its weight outside ancilla pattern ``base``.
    """
    keys = np.fromiter(leaf, dtype=np.int64, count=len(leaf))
    amps = np.fromiter(leaf.values(), dtype=complex, count=len(leaf))
    cols = keys >> n
    basis = keys & ((1 << n) - 1)
    weights = amps.real ** 2 + amps.imag ** 2
    dim_data = 1 << len(data)
    inside = (basis & anc_mask) == base
    total = np.bincount(cols, weights, minlength=dim_data)
    off = np.bincount(cols[~inside], weights[~inside], minlength=dim_data)
    # pruned as in a walk from one input; keeps rounding residue out of the ratio
    live = total >= PRUNE_THRESHOLD
    clean = not np.any(off[live] > tolerance ** 2 * total[live])
    keep = inside & live[cols]
    rows = np.zeros(int(keep.sum()), dtype=np.int64)
    for j, q in enumerate(data):
        rows |= ((basis[keep] >> q) & 1) << j
    kraus = np.zeros((dim_data, dim_data), dtype=complex)
    kraus[rows, cols[keep]] = amps[keep]
    return kraus, clean


def check_implements(
    circuit: Circuit, target: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> ChannelVerdict:
    """Exhaustively check that ``circuit`` implements ``target`` on its data qubits.

    Every data-register basis state (ancillas in |0>) is walked through every
    branch; each full history (visible plus hidden reset outcomes) is one Kraus
    operator K_h over all inputs. The verdict passes iff each K_h is ~0 or
    equals c_h * target, every branch leaves the ancillas clean (|0>, or the
    recorded outcome for a measured-out wire), and the |c_h|^2 sum to 1. Each
    visible outcome string gets one report: the sum of its histories'
    probabilities, their worst deviation and the first one's phase.
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
    require_valid(circuit)

    n = circuit.qubit_count
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    measured_out = _measured_out(circuit)
    # every input at once: input x rides in the index bits above the register
    inputs: State = {
        (x << n) | sum(((x >> j) & 1) << q for j, q in enumerate(data)): 1 + 0j
        for x in range(dim_data)
    }
    pivot_flat = int(np.argmax(np.abs(target)))
    pivot = target.flat[pivot_flat]

    # visible outcomes -> (|c|^2, phase, deviation) of each history, depth-first
    groups: dict[tuple[int, ...], list[tuple[float, complex, float]]] = {}
    ancilla_clean = True
    for outcomes, _, leaf in walk_branches(circuit.ops, inputs):
        base = sum(outcomes[m] << q for q, m in measured_out.items())
        kraus, clean = _kraus_map(leaf, n, data, anc_mask, base, tolerance)
        ancilla_clean &= clean
        histories = groups.setdefault(outcomes, [])
        largest = float(np.abs(kraus).max())
        if largest <= tolerance:
            histories.append((0.0, complex(1), largest))
            continue
        scalar = complex(kraus.flat[pivot_flat] / pivot)
        deviation = float(np.abs(kraus - scalar * target).max())
        phase = scalar / abs(scalar) if scalar else complex(1)
        histories.append((abs(scalar) ** 2, phase, deviation))

    reports = tuple(
        BranchReport(outcomes, sum(h[0] for h in histories), histories[0][1],
                     max(h[2] for h in histories))
        for outcomes, histories in sorted(groups.items())
    )
    probability_total = sum(r.probability for r in reports)
    passed = (
        ancilla_clean
        and all(r.max_deviation <= tolerance for r in reports)
        and abs(probability_total - 1.0) <= tolerance
    )
    return ChannelVerdict(passed, reports, ancilla_clean, probability_total)
