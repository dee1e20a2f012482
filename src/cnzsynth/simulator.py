"""Sparse statevector execution with depth-first measurement branching.

A state maps basis index to nonzero amplitude. X and CX relabel keys, CZ
and the diagonal gates scale entries, H and √X(†) split each entry in two,
and MEASURE or a firing RESET partitions the map into branches. From a basis
input the map stays small, because every H and √X here acts on an ancilla.

Conventions, pinned for the codec and verifier:
  - qubit 0 is the least-significant bit of the basis-state index;
  - MEASURE projects the wire (the post-measurement wire holds the outcome;
    synthesized circuits follow it with an explicit RESET);
  - RESET applies the Kraus pair |0><0|, |0><1| to the wire without
    recording an outcome, so on a superposed wire it branches like a
    measurement whose two outcomes stay separate histories;
  - global phase is never normalized away; phase comparison is the
    verifier's job.

Index bits above the register pass through every gate untouched, so they
can label entries: ``unitary_of`` and the verifier label each input column
that way and walk all of them at once.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, Op, validate

#: Branches whose squared norm falls below this are not explored or emitted.
PRUNE_THRESHOLD = 1e-12

_INPUT_TOLERANCE = 1e-9

#: Rounding residue of a cancellation in a splitting gate; dropped.
_NEGLIGIBLE = 1e-15

#: A sparse state: basis index (plus any label bits above the register) -> amplitude.
State = dict[int, complex]


class SimulationError(ValueError):
    """Raised for invalid circuits, malformed states, or unsupported requests."""


_R = 1 / math.sqrt(2.0)
_W = cmath.exp(1j * math.pi / 4)
#: Diagonal one-qubit gates: the factor on |1>.
_PHASES = {Gate.Z: -1 + 0j, Gate.S: 1j, Gate.SDG: -1j, Gate.T: _W, Gate.TDG: _W.conjugate()}
#: Gates that split each entry in two, as ((u00, u01), (u10, u11)); √X = H S H.
_SPLITS = {
    Gate.H: ((_R, _R), (_R, -_R)),
    Gate.SX: (((1 + 1j) / 2, (1 - 1j) / 2), ((1 - 1j) / 2, (1 + 1j) / 2)),
    Gate.SXDG: (((1 - 1j) / 2, (1 + 1j) / 2), ((1 + 1j) / 2, (1 - 1j) / 2)),
}


@dataclass(frozen=True)
class BranchRecord:
    """One measurement-outcome history.

    ``outcomes`` lists the recorded bits in measurement order,
    ``probability`` is the squared norm of the unnormalized branch, and
    ``final_state`` is the normalized state conditioned on the outcomes.
    """

    outcomes: tuple[int, ...]
    probability: float
    final_state: np.ndarray


def gate_matrix(kind: Gate) -> np.ndarray:
    """Exact matrix for a unitary gate kind (2x2, or 4x4 for CX/CZ).

    For two-qubit kinds the first operand is the least-significant bit of
    the sub-index, matching the full-register convention.
    """
    qubits = tuple(range(kind.arity))
    return unitary_of(Circuit(kind.arity, 0, (Op(kind, qubits),), frozenset(qubits)))


def require_valid(circuit: Circuit) -> None:
    """Raise SimulationError unless ``circuit`` is executable."""
    violations = validate(circuit)
    if violations:
        raise SimulationError(
            "invalid circuit: " + "; ".join(str(v) for v in violations))


def _step(state: State, op: Op) -> State:
    """Apply one unitary op (its condition is the caller's business) to a sparse state."""
    gate = op.gate
    if gate is Gate.CX:
        control, target = 1 << op.qubits[0], 1 << op.qubits[1]
        return {k ^ target if k & control else k: a for k, a in state.items()}
    if gate is Gate.CZ:
        both = (1 << op.qubits[0]) | (1 << op.qubits[1])
        return {k: -a if k & both == both else a for k, a in state.items()}
    mask = 1 << op.qubits[0]
    if gate is Gate.X:
        return {k ^ mask: a for k, a in state.items()}
    phase = _PHASES.get(gate)
    if phase is not None:
        return {k: a * phase if k & mask else a for k, a in state.items()}
    (u00, u01), (u10, u11) = _SPLITS[gate]
    out: State = {}
    for k, a in state.items():
        if k & mask:
            lo, to_lo, to_hi = k ^ mask, u01, u11
        else:
            lo, to_lo, to_hi = k, u00, u10
        hi = lo | mask
        out[lo] = out.get(lo, 0) + to_lo * a
        out[hi] = out.get(hi, 0) + to_hi * a
    return {k: a for k, a in out.items() if abs(a) > _NEGLIGIBLE}


def _weight(state: State) -> float:
    """Squared norm of a sparse state."""
    return sum(a.real * a.real + a.imag * a.imag for a in state.values())


def walk_branches(
    ops: tuple[Op, ...], state: State
) -> list[tuple[tuple[int, ...], tuple[int, ...], State]]:
    """Every branch of ``ops`` applied to ``state``, in depth-first order.

    Each leaf is (visible outcomes, hidden reset outcomes, unnormalized
    state): it is keyed by its full history. Outcome 0 is explored before 1
    at each MEASURE and each firing RESET; branches with squared norm below
    PRUNE_THRESHOLD are dropped. The circuit must already be valid.
    """
    leaves = []
    stack = [(0, state, {}, (), ())]
    while stack:
        start, st, bits, outs, hidden = stack.pop()
        for i in range(start, len(ops)):
            op = ops[i]
            if op.condition is not None and bits[op.condition[0]] != op.condition[1]:
                continue
            if op.gate.is_unitary:
                st = _step(st, op)
                continue
            q = op.qubits[0]
            keep = ~(1 << q) if op.gate is Gate.RESET else -1  # reset clears the wire
            parts: tuple[State, State] = ({}, {})
            for k, a in st.items():
                parts[(k >> q) & 1][k & keep] = a
            for m in (1, 0):  # pushed in reverse, so outcome 0 is popped first
                if _weight(parts[m]) < PRUNE_THRESHOLD:
                    continue
                if op.gate is Gate.MEASURE:
                    stack.append((i + 1, parts[m], {**bits, op.bit: m}, outs + (m,), hidden))
                else:
                    stack.append((i + 1, parts[m], bits, outs, hidden + (m,)))
            break
        else:
            if _weight(st) >= PRUNE_THRESHOLD:
                leaves.append((outs, hidden, st))
    return leaves


def _sparse(state: np.ndarray) -> State:
    return {int(k): complex(state[k]) for k in np.flatnonzero(state)}


def _dense(state: State, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[np.fromiter(state, dtype=np.int64, count=len(state))] = np.fromiter(
        state.values(), dtype=complex, count=len(state))
    return out


def apply(state: np.ndarray, op: Op) -> np.ndarray:
    """Apply one unitary gate instance to a statevector, returning a new array."""
    if not op.gate.is_unitary:
        raise SimulationError(f"cannot apply {op.gate.value} as a unitary")
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    qubit_count = dim.bit_length() - 1
    if dim != 1 << qubit_count:
        raise SimulationError(f"state length {dim} is not a power of two")
    require_valid(Circuit(qubit_count, 0, (op,), frozenset(range(qubit_count))))
    return _dense(_step(_sparse(state), op), dim)


def run_branches(circuit: Circuit, input_state: np.ndarray) -> list[BranchRecord]:
    """Enumerate all measurement branches of ``circuit`` on ``input_state``.

    Depth-first over outcomes, 0 before 1, so the emitted order is
    reproducible. Projections with squared norm below PRUNE_THRESHOLD are
    dropped; classical conditions are evaluated against the branch's
    recorded outcomes. The two outcomes of a firing RESET are separate
    records with the same ``outcomes``. Ancilla qubits of the input must be
    in |0>.
    """
    require_valid(circuit)
    dim = 1 << circuit.qubit_count
    dense = np.asarray(input_state, dtype=complex)
    if dense.shape != (dim,):
        raise SimulationError(f"state must have shape ({dim},), got {dense.shape}")
    state = _sparse(dense)
    if abs(_weight(state) - 1.0) > _INPUT_TOLERANCE:
        raise SimulationError("input state is not normalized")
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    if _weight({k: a for k, a in state.items() if k & anc_mask}) > _INPUT_TOLERANCE ** 2:
        raise SimulationError("ancilla qubits must start in |0>")
    records = []
    for outcomes, _, leaf in walk_branches(circuit.ops, state):
        p = _weight(leaf)
        records.append(BranchRecord(outcomes, p, _dense(leaf, dim) / np.sqrt(p)))
    return records


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Exact unitary of a measurement-free, condition-free circuit."""
    for i, op in enumerate(circuit.ops):
        if not op.gate.is_unitary:
            raise SimulationError(f"op {i}: {op.gate.value} has no unitary")
    require_valid(circuit)
    n = circuit.qubit_count
    state: State = {(x << n) | x: 1 + 0j for x in range(1 << n)}
    for op in circuit.ops:
        state = _step(state, op)
    return _dense(state, 1 << (2 * n)).reshape(1 << n, 1 << n).T.copy()
