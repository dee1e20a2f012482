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
ANDs folds the controls pairwise, a core applies the phase, and the mirrored
uncompute chain retires the ancillas. The baseline is n-1 ANDs around a CZ,
4(n-1) T; the optimized ladder is n-3 ANDs around the 6-T CCCZ, 4(n-3) + 6
T. Every ancilla is measured and explicitly reset, so synthesized circuits
compose cleanly.

Wire layout: data qubits 0..n (controls then target), ancillas appended
after the data register in order of creation.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import MAX_QUBITS, Circuit, CircuitBuilder


class Method(Enum):
    """C^nZ synthesis strategy."""

    BASELINE = "baseline"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class CnZSpec:
    """A Z gate with ``n`` controls acting on n+1 data qubits (symmetric); the
    baseline ladder takes 2n qubits, so n is at most half the register bound."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"C^nZ synthesis requires n >= 2 controls, got n={self.n}")
        if self.n > MAX_QUBITS // 2:
            raise ValueError(f"C^nZ synthesis allows at most {MAX_QUBITS // 2} controls, got n={self.n}")


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

    Both methods are a chain of temporary ANDs that folds controls into one
    conjunction wire, a core, and the chain's uncompute in reverse.

    BASELINE: n-1 ANDs around a CZ from the conjunction wire to the target,
    4(n-1) T gates. OPTIMIZED (n >= 3): n-3 ANDs around the 6-T CCCZ on the
    conjunction wire, the last two controls and the target, 4(n-3) + 6 T.
    """
    n = spec.n
    if method is Method.OPTIMIZED and n < 3:
        raise ValueError("optimized requires n >= 3")

    links = n - 1 if method is Method.BASELINE else n - 3
    width = n + 1 + links + (method is Method.OPTIMIZED)  # data, chain ancillas, the CCCZ's ancilla
    bld = CircuitBuilder(width, data_qubits=range(n + 1))
    chain, conj = [], 0  # each link ANDs the conjunction so far with the next control
    for i in range(links):
        chain.append((conj, i + 1, n + 1 + i))
        conj = n + 1 + i
    for link in chain:
        _append_and_compute(bld, *link)
    if method is Method.BASELINE:
        bld.cz(conj, n)
    else:
        _append_cccz(bld, conj, n - 2, n - 1, n, width - 1)
    for link in reversed(chain):
        _append_and_uncompute(bld, *link)
    return bld.build()
