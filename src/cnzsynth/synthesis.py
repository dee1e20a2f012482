"""Constructors for feedback-based multi-controlled-Z circuits.

Two building blocks carry all of the T cost:

  - ``and_compute``: writes the AND of two qubits onto a fresh |0> ancilla
    exactly (no relative phase), using 4 T gates. ``and_uncompute`` later
    erases the ancilla for free: an X-basis measurement plus a classically
    conditioned CZ on the two inputs, zero T gates.
  - ``cccz_6t``: a 5-qubit circuit implementing the four-qubit CCCZ with
    six T gates. Two interleaved phase-kickback Toffoli ladders write
    (a AND b) xor (c AND d) onto the ancilla while kicking phases
    i^(ab), i^(cd) back onto the controls; phasing and measuring the
    ancilla in a rotated basis then leaves, after a conditioned CZ fixup
    on either the (a,b) or the (c,d) pair, exactly the (-1)^(abcd) sign.

``synth_cnz`` chains these into a C^nZ ladder: a linear chain of temporary
ANDs folds the controls pairwise, a 4-T CCZ core (baseline, 4n-4 T total)
or the 6-T CCCZ core (optimized, 4n-6 T total) applies the phase, and the
mirrored uncompute chain retires the ancillas. Every ancilla is measured
and explicitly reset, so synthesized circuits compose cleanly.

Wire layout: data qubits 0..n (controls then target), ancillas appended
after the data register in order of creation.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import Circuit, CircuitBuilder


class Method(Enum):
    """C^nZ synthesis strategy."""

    BASELINE = "baseline"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class CnZSpec:
    """A Z gate with ``n`` controls acting on n+1 data qubits (symmetric)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"C^nZ synthesis requires n >= 2 controls, got n={self.n}")


def _append_cccz(bld: CircuitBuilder, a: int, b: int, c: int, d: int, anc: int) -> None:
    """6-T CCCZ on (a, b, c, d) using ``anc`` as the measured ancilla.

    Outcome 0 needs a CZ fixup on (c, d); outcome 1 on (a, b). The reset
    returns the measured wire to |0> so the block can be chained.
    """
    bld.h(anc)
    bld.t(anc)
    bld.cx(b, anc)
    bld.tdg(anc)
    bld.cx(a, anc)
    bld.t(anc)
    bld.cx(b, anc)
    bld.cx(c, anc)
    bld.tdg(anc)
    bld.cx(d, anc)
    bld.t(anc)
    bld.cx(c, anc)
    bld.tdg(anc)
    bld.cx(d, anc)
    bld.sxdg(anc)
    m = bld.measure(anc)
    bld.reset(anc)
    bld.cz(c, d, when=(m, 0))
    bld.cz(a, b, when=(m, 1))


def _append_and_compute(bld: CircuitBuilder, a: int, b: int, anc: int) -> None:
    """|a, b, 0> -> |a, b, a AND b>, exact, 4 T gates."""
    bld.h(anc)
    bld.cx(b, anc)
    bld.tdg(anc)
    bld.cx(a, anc)
    bld.t(anc)
    bld.cx(b, anc)
    bld.tdg(anc)
    bld.cx(a, anc)
    bld.t(anc)
    bld.h(anc)
    bld.s(anc)


def _append_and_uncompute(bld: CircuitBuilder, a: int, b: int, anc: int) -> None:
    """Erase an ancilla holding a AND b: X-basis measurement + conditioned CZ, 0 T."""
    bld.h(anc)
    m = bld.measure(anc)
    bld.reset(anc)
    bld.cz(a, b, when=(m, 1))


def _and_circuit(append, a: int, b: int, anc: int) -> Circuit:
    """``append``'s block on the smallest register holding a, b and anc; anc is the one ancilla."""
    if len({a, b, anc}) != 3:
        raise ValueError(f"operands must be distinct, got {(a, b, anc)}")
    count = max(a, b, anc) + 1
    bld = CircuitBuilder(count, data_qubits=frozenset(range(count)) - {anc})
    append(bld, a, b, anc)
    return bld.build()


def cccz_6t() -> Circuit:
    """The 6-T CCCZ: data qubits 0..3, measured ancilla 4.

    Exactly 6 T/T† gates, one measurement, two conditioned CZ fixups; the
    channel on the data qubits equals CCCZ on every branch.
    """
    return synth_cnz(CnZSpec(3), Method.OPTIMIZED)


def and_compute(a: int, b: int, anc: int) -> Circuit:
    """Temporary-AND compute: maps |a, b, 0> to |a, b, a AND b> exactly.

    The unitary restricted to the anc=|0> input subspace is the exact AND
    isometry (no relative phase among basis states); T-count is 4.
    """
    return _and_circuit(_append_and_compute, a, b, anc)


def and_uncompute(a: int, b: int, anc: int) -> Circuit:
    """Measurement-based erasure of an ancilla left holding a AND b.

    Zero T gates; composing ``and_compute`` then ``and_uncompute`` is the
    identity channel on (a, b) on every branch, and anc ends reset to |0>.
    """
    return _and_circuit(_append_and_uncompute, a, b, anc)


def synth_cnz(spec: CnZSpec, method: Method) -> Circuit:
    """Synthesize C^nZ on data qubits 0..n (controls 0..n-1, target n).

    BASELINE: a chain of n-2 temporary ANDs folds the controls to a single
    conjunction wire, a 4-T AND/CZ/uncompute core phases the target against
    it and the last control, and the chain is uncomputed: 4n-4 T gates.

    OPTIMIZED (n >= 3): the chain stops two controls earlier and the final
    AND plus Toffoli core are replaced by the 6-T CCCZ on the conjunction
    wire, the last two controls, and the target: 4n-6 T gates.
    """
    n = spec.n
    if method is Method.OPTIMIZED and n < 3:
        raise ValueError("optimized requires n >= 3")

    controls = list(range(n))
    target = n
    chain_len = n - 2 if method is Method.BASELINE else n - 3
    chain_ancs = [n + 1 + i for i in range(chain_len)]
    core_anc = n + 1 + chain_len
    bld = CircuitBuilder(core_anc + 1, data_qubits=range(n + 1))

    chain: list[tuple[int, int, int]] = []
    conj = controls[0]
    for i in range(chain_len):
        chain.append((conj, controls[i + 1], chain_ancs[i]))
        conj = chain_ancs[i]
    for x, y, a in chain:
        _append_and_compute(bld, x, y, a)

    if method is Method.BASELINE:
        _append_and_compute(bld, conj, controls[n - 1], core_anc)
        bld.cz(core_anc, target)
        _append_and_uncompute(bld, conj, controls[n - 1], core_anc)
    else:
        _append_cccz(bld, conj, controls[n - 2], controls[n - 1], target, core_anc)

    for x, y, a in reversed(chain):
        _append_and_uncompute(bld, x, y, a)
    return bld.build()
