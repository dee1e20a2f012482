"""Test-only differential oracle: a dense statevector kernel, branch walk and verdict.

This is the simulator the package shipped before its sparse engines, kept
so the tests can compare them: every op rewrites a dense 2^q vector (or the
2^q x 2^q matrix in ``unitary_of``) through index masks, and MEASURE and a
firing RESET project it, one input at a time and one branch at a time. Like
the old engine it emits the two outcomes of a hidden RESET as two records
with the same visible outcomes. ``check_implements`` is a reference verdict
that assembles each history's dense Kraus operator from those walks.
Nothing in ``src/`` imports it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cnzsynth import (
    BranchRecord,
    BranchReport,
    ChannelVerdict,
    Circuit,
    Gate,
    Op,
    SimulationError,
    validate,
)

#: Branches whose squared norm falls below this are not explored or emitted.
PRUNE_THRESHOLD = 1e-12

_INPUT_TOLERANCE = 1e-9

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex)
# sqrt(X) family: X^{1/2} = H S H and X^{-1/2} = H S† H.
_SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
_SXDG = np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex) / 2
# Two-qubit sub-index convention: first operand is the least-significant bit.
_CX = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)

_MATRICES = {
    Gate.H: _H,
    Gate.X: _X,
    Gate.Z: _Z,
    Gate.S: _S,
    Gate.SDG: _SDG,
    Gate.T: _T,
    Gate.TDG: _TDG,
    Gate.SX: _SX,
    Gate.SXDG: _SXDG,
    Gate.CX: _CX,
    Gate.CZ: _CZ,
}


def _apply_unitary(arr: np.ndarray, op: Op) -> np.ndarray:
    """Apply a unitary op to ``arr`` indexed by basis state on axis 0.

    Works for statevectors (dim,) and for matrices (dim, k), which is how
    ``unitary_of`` evolves all basis columns at once.
    """
    dim = arr.shape[0]
    idx = np.arange(dim)
    if op.gate is Gate.CX:
        c, t = op.qubits
        sel = idx[(((idx >> c) & 1) == 1) & (((idx >> t) & 1) == 0)]
        out = arr.copy()
        out[sel] = arr[sel | (1 << t)]
        out[sel | (1 << t)] = arr[sel]
        return out
    if op.gate is Gate.CZ:
        a, b = op.qubits
        sel = (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 1)
        out = arr.copy()
        out[sel] = -out[sel]
        return out
    (q,) = op.qubits
    u = _MATRICES[op.gate]
    lo = idx[((idx >> q) & 1) == 0]
    hi = lo | (1 << q)
    out = np.empty_like(arr)
    out[lo] = u[0, 0] * arr[lo] + u[0, 1] * arr[hi]
    out[hi] = u[1, 0] * arr[lo] + u[1, 1] * arr[hi]
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
    for q in op.qubits:
        if not 0 <= q < qubit_count:
            raise SimulationError(f"qubit {q} out of range for {qubit_count}-qubit state")
    if op.gate in (Gate.CX, Gate.CZ) and op.qubits[0] == op.qubits[1]:
        raise SimulationError("identical operands")
    return _apply_unitary(state, op)


def _project(state: np.ndarray, qubit: int, value: int) -> np.ndarray:
    proj = state.copy()
    proj[((np.arange(state.shape[0]) >> qubit) & 1) != value] = 0
    return proj


def _squared_norm(state: np.ndarray) -> float:
    return float(np.real(np.vdot(state, state)))


def run_branches(circuit: Circuit, input_state: np.ndarray) -> list[BranchRecord]:
    """Enumerate all measurement branches of ``circuit`` on ``input_state``.

    Depth-first over outcomes, 0 before 1, so the emitted order is
    reproducible. Projections with squared norm below PRUNE_THRESHOLD are
    dropped; classical conditions are evaluated against the branch's
    recorded outcomes. Ancilla qubits of the input must be in |0>.
    """
    violations = validate(circuit)
    if violations:
        raise SimulationError(
            "invalid circuit: " + "; ".join(str(v) for v in violations))
    dim = 1 << circuit.qubit_count
    state = np.asarray(input_state, dtype=complex)
    if state.shape != (dim,):
        raise SimulationError(f"state must have shape ({dim},), got {state.shape}")
    if abs(_squared_norm(state) - 1.0) > _INPUT_TOLERANCE:
        raise SimulationError("input state is not normalized")
    anc_mask = 0
    for q in circuit.ancilla_qubits:
        anc_mask |= 1 << q
    if anc_mask:
        off = state[(np.arange(dim) & anc_mask) != 0]
        if np.linalg.norm(off) > _INPUT_TOLERANCE:
            raise SimulationError("ancilla qubits must start in |0>")

    return [BranchRecord(outs, _squared_norm(leaf), leaf / np.sqrt(_squared_norm(leaf)))
            for outs, _, leaf in walk(circuit, state)]


def walk(circuit: Circuit, state: np.ndarray) -> list[tuple[tuple, tuple, np.ndarray]]:
    """Every leaf of a valid circuit's branch tree from ``state``, depth-first.

    A leaf is (visible outcomes, hidden reset outcomes, unnormalized state);
    each hidden outcome is an (op index, outcome) pair, so the visible and
    hidden outcomes together give the leaf's path through the tree.
    """
    dim = state.shape[0]
    leaves: list[tuple[tuple, tuple, np.ndarray]] = []
    ops = circuit.ops

    def step(i: int, st: np.ndarray, bits: dict[int, int], outs: tuple, hidden: tuple) -> None:
        while i < len(ops):
            op = ops[i]
            fires = op.condition is None or bits[op.condition[0]] == op.condition[1]
            if op.gate is Gate.MEASURE:
                q = op.qubits[0]
                for m in (0, 1):
                    proj = _project(st, q, m)
                    if _squared_norm(proj) < PRUNE_THRESHOLD:
                        continue
                    step(i + 1, proj, {**bits, op.bit: m}, outs + (m,), hidden)
                return
            if op.gate is Gate.RESET:
                if fires:
                    q = op.qubits[0]
                    hi = np.arange(dim)[((np.arange(dim) >> q) & 1) == 1]
                    kept = _project(st, q, 0)
                    flipped = np.zeros_like(st)
                    flipped[hi & ~(1 << q)] = st[hi]
                    for m, proj in enumerate((kept, flipped)):
                        if _squared_norm(proj) < PRUNE_THRESHOLD:
                            continue
                        step(i + 1, proj, bits, outs, hidden + ((i, m),))
                    return
                i += 1
                continue
            if fires:
                st = _apply_unitary(st, op)
            i += 1
        if _squared_norm(st) >= PRUNE_THRESHOLD:
            leaves.append((outs, hidden, st))

    step(0, state, {}, (), ())
    return leaves


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Exact unitary of a measurement-free, condition-free circuit."""
    for i, op in enumerate(circuit.ops):
        if not op.gate.is_unitary:
            raise SimulationError(f"op {i}: {op.gate.value} has no unitary")
        if op.condition is not None:
            raise SimulationError(f"op {i}: classically conditioned gate has no fixed unitary")
    violations = validate(circuit)
    if violations:
        raise SimulationError(
            "invalid circuit: " + "; ".join(str(v) for v in violations))
    u = np.eye(1 << circuit.qubit_count, dtype=complex)
    for op in circuit.ops:
        u = _apply_unitary(u, op)
    return u


@dataclass(frozen=True)
class History:
    """One history (visible and hidden outcomes) and its dense Kraus operator."""

    outcomes: tuple[int, ...]
    hidden: tuple[tuple[int, int], ...]
    kraus: np.ndarray


def check_implements(circuit: Circuit, target: np.ndarray, tolerance: float = 1e-9):
    """Reference verdict: walk each data basis input alone and assemble every
    history's dense K_h[row, x] from the leaves it reaches.

    Returns (ChannelVerdict, histories in depth-first order). The verdict
    rules are the package's: each K_h is ~0 or c_h * target, every (history,
    input) branch keeps all but tolerance^2 of its weight inside the expected
    ancilla pattern (|0>, or the recorded outcome on a measured-out wire), the
    |c_h|^2 sum to 1, and each visible outcome string reports the sum of its
    histories' probabilities, their worst deviation and the first one's phase
    (1 where that history's |c_h| is at most ``tolerance``).
    """
    n = circuit.qubit_count
    data = sorted(circuit.data_qubits)
    dim_data = 1 << len(data)
    target = np.asarray(target, dtype=complex)
    measurements = [i for i, op in enumerate(circuit.ops) if op.gate is Gate.MEASURE]
    last = {q: i for i, op in enumerate(circuit.ops) for q in op.qubits}
    measured_out = {q: measurements.index(i) for q, i in last.items()
                    if q in circuit.ancilla_qubits and i in measurements}
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    index = np.arange(1 << n)

    def spread(x: int) -> int:
        return sum(((x >> j) & 1) << q for j, q in enumerate(data))

    kraus: dict[tuple, np.ndarray] = {}
    clean = True
    for x in range(dim_data):
        state = np.zeros(1 << n, dtype=complex)
        state[spread(x)] = 1.0
        for outcomes, hidden, leaf in walk(circuit, state):
            pattern = sum(outcomes[m] << q for q, m in measured_out.items())
            inside = (index & anc_mask) == pattern
            if _squared_norm(leaf[~inside]) > tolerance ** 2 * _squared_norm(leaf):
                clean = False
            k = kraus.setdefault((outcomes, hidden), np.zeros((dim_data, dim_data), dtype=complex))
            k[:, x] = [leaf[spread(r) | pattern] for r in range(dim_data)]

    def path(key: tuple) -> tuple:  # every event outcome in op order: depth-first
        outcomes, hidden = key
        return tuple(sorted(list(zip(measurements, outcomes)) + list(hidden)))

    pivot = int(np.argmax(np.abs(target)))
    histories, groups = [], {}
    for key in sorted(kraus, key=path):
        k = kraus[key]
        largest = float(np.abs(k).max())
        scalar = complex(k.flat[pivot] / target.flat[pivot])
        histories.append(History(key[0], key[1], k))
        if largest <= tolerance:
            evidence = (0.0, complex(1), largest)
        else:
            deviation = float(np.abs(k - scalar * target).max())
            phase = scalar / abs(scalar) if abs(scalar) > tolerance else complex(1)
            evidence = (abs(scalar) ** 2, phase, deviation)
        groups.setdefault(key[0], []).append(evidence)
    reports = tuple(
        BranchReport(outcomes, sum(e[0] for e in evidence), evidence[0][1],
                     max(e[2] for e in evidence))
        for outcomes, evidence in sorted(groups.items()))
    total = sum(r.probability for r in reports)
    passed = (clean and all(r.max_deviation <= tolerance for r in reports)
              and abs(total - 1.0) <= tolerance)
    return ChannelVerdict(passed, reports, clean, total), histories
