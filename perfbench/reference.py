"""Independent reference verdict: explicit Kraus operators, one per history.

The circuit is read only through its IR fields (qubit count, data qubits,
and per op the gate mnemonic, qubits, destination bit and condition). The
gate matrices and the branch walk here are written apart from
``cnzsynth.simulator`` and ``cnzsynth.verify``, neither of which is imported.

Every op acts on the whole input block at once: the walk carries, for each
history of visible measurement outcomes and hidden reset outcomes, the
operator K restricted to ancilla-|0> inputs, a (2^qubits, 2^data) matrix. A
RESET is the pair of Kraus operators |0><0| and |0><1| on its wire, so each
hidden outcome becomes its own history instead of being added coherently to
its sibling.

A circuit implements a unitary U on its data qubits iff, for every history,
K maps into the expected ancilla pattern (|0>, or on a measured-out wire the
outcome it was measured with) and the block there equals c * U, with the
|c|^2 summing to 1 over all histories. Any Kraus decomposition of a unitary
channel has every operator proportional to U, so the verdict is exact, up to
the float tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-9
#: Histories whose operator has no entry above this are dropped as empty.
_EMPTY = 1e-12

_R = 1 / np.sqrt(2.0)
_W = np.exp(1j * np.pi / 4)
_ONE_QUBIT = {
    "h": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, _W]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.conj(_W)]], dtype=complex),
    # sqrt(X) = e^{i pi/4} R_x(pi/2); sqrt(X)^dagger its conjugate transpose.
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
}


@dataclass(frozen=True)
class Reference:
    """The reference verdict with the evidence it rests on."""

    passed: bool
    histories: int
    ancilla_clean: bool
    max_deviation: float
    probability_total: float


def _apply_one(k: np.ndarray, q: int, g: np.ndarray) -> np.ndarray:
    rows, cols = k.shape
    view = k.reshape(rows >> (q + 1), 2, 1 << q, cols)
    return np.einsum("ab,ibjc->iajc", g, view).reshape(rows, cols)


def _bit(rows: np.ndarray, q: int) -> np.ndarray:
    return (rows >> q) & 1


def _measured_out(circuit) -> dict[int, int]:
    """Ancilla wire -> destination bit, for wires whose last op is a measurement."""
    last: dict[int, object] = {}
    for op in circuit.ops:
        for q in op.qubits:
            last[q] = op
    return {
        q: op.bit
        for q, op in last.items()
        if q not in circuit.data_qubits and op.gate.value == "m"
    }


def reference_verdict(circuit, target: np.ndarray, tolerance: float = TOLERANCE) -> Reference:
    """Decide whether ``circuit`` implements ``target`` on its data qubits."""
    n = circuit.qubit_count
    data = sorted(circuit.data_qubits)
    dim_data = 1 << len(data)
    rows = np.arange(1 << n)
    embed = np.zeros(dim_data, dtype=np.int64)
    for j, q in enumerate(data):
        embed |= ((np.arange(dim_data) >> j) & 1) << q

    k0 = np.zeros((1 << n, dim_data), dtype=complex)
    k0[embed, np.arange(dim_data)] = 1.0
    live: list[tuple[np.ndarray, dict[int, int]]] = [(k0, {})]

    for op in circuit.ops:
        name = op.gate.value
        nxt: list[tuple[np.ndarray, dict[int, int]]] = []
        for k, bits in live:
            if op.condition is not None and bits[op.condition[0]] != op.condition[1]:
                nxt.append((k, bits))
                continue
            if name == "m":
                q = op.qubits[0]
                for m in (0, 1):
                    nxt.append((k * (_bit(rows, q) == m)[:, None], {**bits, op.bit: m}))
            elif name == "reset":
                q = op.qubits[0]
                low = rows[_bit(rows, q) == 0]
                kept = np.zeros_like(k)
                kept[low] = k[low]
                flipped = np.zeros_like(k)
                flipped[low] = k[low | (1 << q)]
                nxt += [(kept, bits), (flipped, bits)]
            elif name == "cx":
                c, t = op.qubits
                nxt.append((k[rows ^ (_bit(rows, c) << t)], bits))
            elif name == "cz":
                a, b = op.qubits
                sign = 1 - 2 * (_bit(rows, a) & _bit(rows, b))
                nxt.append((k * sign[:, None], bits))
            else:
                nxt.append((_apply_one(k, op.qubits[0], _ONE_QUBIT[name]), bits))
        live = [(k, bits) for k, bits in nxt if np.abs(k).max(initial=0.0) > _EMPTY]

    target = np.asarray(target, dtype=complex)
    outs = _measured_out(circuit)
    clean = True
    deviation = 0.0
    total = 0.0
    for k, bits in live:
        base = 0
        for q, bit in outs.items():
            base |= bits[bit] << q
        block = k[base | embed]
        rest = k.copy()
        rest[base | embed] = 0
        if np.abs(rest).max(initial=0.0) > tolerance:
            clean = False
        c = np.vdot(target, block) / dim_data
        deviation = max(deviation, float(np.abs(block - c * target).max()))
        total += abs(c) ** 2
    passed = clean and deviation <= tolerance and abs(total - 1.0) <= tolerance
    return Reference(bool(passed), len(live), clean, deviation, float(total))
