"""Circuit IR for Clifford+T circuits with measurement and classical feedback.

The gate alphabet is fixed and closed: the Cliffords H, X, Z, S, S†, √X,
√X†, CX, CZ, the non-Cliffords T, T†, plus Z-basis measurement and reset.
Any non-measurement gate may carry a single classical condition
``(bit, required value)`` referencing a previously measured bit.

Circuits are immutable after construction; every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable


class Gate(Enum):
    """Gate kinds; enum values double as the text-format mnemonics."""

    H = "h"
    X = "x"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    SX = "sx"
    SXDG = "sxdg"
    CX = "cx"
    CZ = "cz"
    MEASURE = "m"
    RESET = "reset"

    def __init__(self, mnemonic: str) -> None:
        # plain per-member values: validate and the codecs read them per op
        self.arity = 2 if mnemonic in ("cx", "cz") else 1
        self.is_unitary = mnemonic not in ("m", "reset")


#: T and T† are the only non-Clifford kinds in the alphabet.
NON_CLIFFORD = frozenset({Gate.T, Gate.TDG})


#: Largest valid register: far above anything synthesized or simulated (a key
#: holds at most 62 bits), yet a register-sized set stays cheap to build.
MAX_QUBITS = 1 << 16


class CircuitError(ValueError):
    """Raised when a circuit-level contract is broken (compose, remap, ...)."""


@dataclass(frozen=True)
class Op:
    """One gate application.

    ``bit`` is the destination bit for MEASURE and None otherwise.
    ``condition`` is ``(bit, value)``; the gate fires only when the recorded
    measurement outcome for ``bit`` equals ``value``.
    """

    gate: Gate
    qubits: tuple[int, ...]
    bit: int | None = None
    condition: tuple[int, int] | None = None


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``qubit_count`` qubits and ``bit_count`` bits.

    ``data_qubits`` is the logical interface; the complementary
    ``ancilla_qubits`` must start in |0> and be returned to |0> (or be
    measured out) by circuit end.
    """

    qubit_count: int
    bit_count: int
    ops: tuple[Op, ...]
    data_qubits: frozenset[int]

    @property
    def ancilla_qubits(self) -> frozenset[int]:
        return frozenset(range(self.qubit_count)) - self.data_qubits


@dataclass(frozen=True)
class Violation:
    """A single well-formedness violation; ``op_index`` is None for circuit-level issues."""

    op_index: int | None
    message: str

    def __str__(self) -> str:
        where = "circuit" if self.op_index is None else f"op {self.op_index}"
        return f"{where}: {self.message}"


def validate(circuit: Circuit) -> list[Violation]:
    """Return every invariant violation; empty iff the circuit is executable.

    Violations are data, not failures: callers that require a well-formed
    circuit (simulator, verifier, codec, counts) raise through ``require_valid``.
    """
    out: list[Violation] = []
    if circuit.qubit_count < 0:
        out.append(Violation(None, "negative qubit count"))
    elif circuit.qubit_count > MAX_QUBITS:
        out.append(Violation(None, f"qubit count {circuit.qubit_count} exceeds {MAX_QUBITS}"))
    if circuit.bit_count < 0:
        out.append(Violation(None, "negative bit count"))
    for q in sorted(circuit.data_qubits):
        if not 0 <= q < circuit.qubit_count:
            out.append(Violation(None, f"data qubit {q} out of range"))

    written: dict[int, int] = {}  # bit -> writing op index
    measured_not_reset: set[int] = set()
    qubit_count, bit_count = circuit.qubit_count, circuit.bit_count
    measure, reset = Gate.MEASURE, Gate.RESET
    for i, op in enumerate(circuit.ops):
        gate, qubits = op.gate, op.qubits
        if len(qubits) != gate.arity:
            out.append(Violation(i, f"{gate.value} expects {gate.arity} operand(s), got {len(qubits)}"))
            continue
        bad_index = False
        for q in qubits:
            if not 0 <= q < qubit_count:
                out.append(Violation(i, f"qubit {q} out of range"))
                bad_index = True
        if bad_index:
            continue
        if gate.arity == 2 and qubits[0] == qubits[1]:  # CX, CZ
            out.append(Violation(i, "identical operands"))
        if gate is measure:
            if op.condition is not None:
                out.append(Violation(i, "classical condition on a measurement"))
            if op.bit is None:
                out.append(Violation(i, "measurement without a destination bit"))
            elif not 0 <= op.bit < bit_count:
                out.append(Violation(i, f"bit {op.bit} out of range"))
            elif op.bit in written:
                out.append(Violation(i, f"bit {op.bit} already written at op {written[op.bit]}"))
            else:
                written[op.bit] = i
            measured_not_reset.add(qubits[0])
        else:
            if op.bit is not None:
                out.append(Violation(i, "destination bit on a non-measurement gate"))
            if op.condition is not None:
                b, v = op.condition
                if v not in (0, 1):
                    out.append(Violation(i, f"condition value {v} not in {{0,1}}"))
                if not 0 <= b < bit_count:
                    out.append(Violation(i, f"condition bit {b} out of range"))
                elif b not in written:
                    out.append(Violation(i, f"condition on bit {b} precedes its write"))
            if gate is reset:
                measured_not_reset.discard(qubits[0])
    for q in sorted(measured_not_reset):
        if q in circuit.data_qubits:
            out.append(Violation(None, f"data qubit {q} is measured and never reset"))
    return out


def require_valid(circuit: Circuit, error: type[Exception], lines: list[int] | None = None) -> None:
    """Raise ``error("invalid circuit: ...")`` listing every violation, unless
    ``circuit`` is executable. ``lines[i]``, when given, is op i's source line:
    an op's violation then reads ``line N: ...`` instead of ``op i: ...``."""
    violations = validate(circuit)
    if violations:
        raise error("invalid circuit: " + "; ".join(
            str(v) if lines is None or v.op_index is None else f"line {lines[v.op_index]}: {v.message}"
            for v in violations))


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate two circuits on the same register.

    Bit indices of ``second`` are shifted past those of ``first``; the
    data/ancilla designation must agree.
    """
    if first.qubit_count != second.qubit_count:
        raise CircuitError(
            f"mismatched qubit counts: {first.qubit_count} vs {second.qubit_count}")
    if first.data_qubits != second.data_qubits:
        raise CircuitError("conflicting data/ancilla designation")
    shift = first.bit_count
    shifted = tuple(
        replace(
            op,
            bit=None if op.bit is None else op.bit + shift,
            condition=None if op.condition is None else (op.condition[0] + shift, op.condition[1]),
        )
        for op in second.ops
    )
    return Circuit(
        qubit_count=first.qubit_count,
        bit_count=first.bit_count + second.bit_count,
        ops=first.ops + shifted,
        data_qubits=first.data_qubits,
    )


def remap_qubits(circuit: Circuit, mapping: dict[int, int]) -> Circuit:
    """Relabel qubits by a bijection on 0..qubit_count-1 (identity where omitted)."""
    full = {q: mapping.get(q, q) for q in range(circuit.qubit_count)}
    if mapping.keys() - full.keys() or sorted(full.values()) != list(range(circuit.qubit_count)):
        raise CircuitError("qubit mapping is not a bijection on the register")
    ops = tuple(replace(op, qubits=tuple(full[q] for q in op.qubits)) for op in circuit.ops)
    data = frozenset(full[q] for q in circuit.data_qubits)
    return Circuit(circuit.qubit_count, circuit.bit_count, ops, data)


class CircuitBuilder:
    """Append-only builder; ``measure`` allocates classical bits in order."""

    def __init__(self, qubit_count: int, data_qubits: Iterable[int]):
        self.qubit_count = qubit_count
        self.data_qubits = frozenset(data_qubits)
        self._ops: list[Op] = []
        self._bits = 0

    def append(self, gate: Gate, *qubits: int, when: tuple[int, int] | None = None) -> "CircuitBuilder":
        self._ops.append(Op(gate, qubits, None, when))
        return self

    def h(self, q: int, when=None):
        return self.append(Gate.H, q, when=when)

    def x(self, q: int, when=None):
        return self.append(Gate.X, q, when=when)

    def z(self, q: int, when=None):
        return self.append(Gate.Z, q, when=when)

    def s(self, q: int, when=None):
        return self.append(Gate.S, q, when=when)

    def sdg(self, q: int, when=None):
        return self.append(Gate.SDG, q, when=when)

    def t(self, q: int, when=None):
        return self.append(Gate.T, q, when=when)

    def tdg(self, q: int, when=None):
        return self.append(Gate.TDG, q, when=when)

    def sx(self, q: int, when=None):
        return self.append(Gate.SX, q, when=when)

    def sxdg(self, q: int, when=None):
        return self.append(Gate.SXDG, q, when=when)

    def cx(self, control: int, target: int, when=None):
        return self.append(Gate.CX, control, target, when=when)

    def cz(self, a: int, b: int, when=None):
        return self.append(Gate.CZ, a, b, when=when)

    def reset(self, q: int, when=None):
        return self.append(Gate.RESET, q, when=when)

    def measure(self, q: int) -> int:
        """Measure ``q``; returns the freshly allocated destination bit."""
        bit = self._bits
        self._bits += 1
        self._ops.append(Op(Gate.MEASURE, (q,), bit, None))
        return bit

    def build(self) -> Circuit:
        return Circuit(self.qubit_count, self._bits, tuple(self._ops), self.data_qubits)
