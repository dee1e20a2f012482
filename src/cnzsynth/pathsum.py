"""Exact proof of a passing verdict by a sum over paths (Dawson et al., quant-ph/0408129).

A run is √2^e · Σ_y ω^P |wires⟩, ω = e^(iπ/4), over the data inputs x, a path variable
y per H, and the visible and hidden reset outcomes o and r, each o and r one history
(deferred measurement). A wire holds a GF(2) polynomial, a set of variable bitmasks (0
is the constant 1); P is multilinear mod 8, a canonical form (Montanaro,
arXiv:1607.08473). MEASURE and RESET solve their wire's form for a path variable it
holds linearly; a y on no wire is summed out by the no-term, HH or ω rule (Amy,
arXiv:1805.06908). Whatever gets stuck is undecided, never a verdict.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, count, product
from operator import or_

from .verify import BranchReport, ChannelVerdict

#: A proof lists at most this many outcome strings; past it, the one report they all share.
MAX_REPORTS = 1 << 12
#: Z8 exponent that each diagonal gate adds where all its wires hold 1
_PHASES = {"z": 4, "s": 2, "sdg": 6, "t": 1, "tdg": 7, "cz": 4}
#: ω^k, as exact as floats allow
_OMEGA = (complex(1), (1 + 1j) * math.sqrt(0.5), 1j, (-1 + 1j) * math.sqrt(0.5),
          complex(-1), (-1 - 1j) * math.sqrt(0.5), complex(0, -1), (1 - 1j) * math.sqrt(0.5))


def _times(a, b) -> set[int]:
    """GF(2) product of two polynomials: a monomial met twice cancels."""
    out = set()
    for m in a:
        for n in b:
            out ^= {m | n}
    return out


def _lift(phase: dict[int, int], c: int, poly) -> None:
    """phase += c·lift(poly) mod 8: lift(m1 ⊕ … ⊕ mk) = Σ (−2)^(|S|−1)·ΠS over nonempty
    S ⊆ {m1, …, mk}, whose terms past |S| = 3 − (the 2-adic order of c) are 0 mod 8."""
    mons = tuple(poly)
    terms = [(m, c) for m in mons]
    if len(mons) > 1 and c % 4:
        terms += [(a | b, 6 * c) for a, b in combinations(mons, 2)]
        if c % 2:
            terms += [(a | b | d, 4) for a, b, d in combinations(mons, 3)]
    for m, k in terms:
        k = (phase.get(m, 0) + k) & 7
        if k:
            phase[m] = k
        else:
            phase.pop(m, None)


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class _PathSum:
    """√2^e · Σ_y ω^phase |wires⟩ over the live path variables y."""

    def __init__(self, wires: list[set[int]], first: int):
        self.wires, self.masks = wires, [reduce(or_, form, 0) for form in wires]  # each wire's variables
        self.phase, self.e, self.fresh = {}, 0, (1 << i for i in count(first))  # variable bits from first
        self.paths = self.free = 0  # the live path variables, and those on no wire: one bit each
        self.holders: dict[int, set[int]] = {}  # each live path variable on a wire -> its wires

    def h(self, q: int) -> None:
        y = next(self.fresh)
        self.paths |= y
        _lift(self.phase, 4, {m | y for m in self.wires[q]})  # 4·lift(w)·y = 4·(w·y) mod 8
        self.e -= 1
        self.write(q, {y})

    def write(self, q: int, form: set[int]) -> None:
        """Give wire q a new form; sum out a path variable that this takes off every wire."""
        if self.put(q, form):
            self.reduce_all()

    def put(self, q: int, form: set[int]) -> int:
        """Give wire q a new form and index the path variables it gains and loses; the
        mask of those now on no wire."""
        old, new = self.masks[q], reduce(or_, form, 0)
        self.wires[q], self.masks[q] = form, new
        gained, freed = new & ~old & self.paths, 0
        for y in _bits(gained):
            self.holders.setdefault(y, set()).add(q)
        for y in _bits(old & ~new & self.paths):
            self.holders[y].discard(q)
            if not self.holders[y]:
                del self.holders[y]
                freed |= y
        self.free = self.free & ~gained | freed
        return freed

    def linear(self, poly) -> int:
        """The highest path variable that is a monomial of ``poly`` and in no other; or 0."""
        return max((m for m in poly if not m & (m - 1) and m & self.paths
                    and all(n == m or not n & m for n in poly)), default=0)

    def solve(self, q: int, var: int) -> bool:
        """Project wire q onto ``var`` by y := var ⊕ (the rest), for a y it holds linearly."""
        y = self.linear(self.wires[q])
        if y:
            self.substitute(y, self.wires[q] ^ {y, var})
            self.reduce_all()
        return bool(y)

    def drop(self, y: int) -> None:
        """y leaves the sum."""
        self.paths &= ~y
        self.free &= ~y

    def substitute(self, y: int, poly: set[int]) -> None:
        """y := poly in every wire and in the phase."""
        self.drop(y)
        for q in self.holders.pop(y, ()):
            hit = {m for m in self.wires[q] if m & y}
            self.put(q, (self.wires[q] - hit) ^ _times({m ^ y for m in hit}, poly))
        for m in [m for m in self.phase if m & y]:
            _lift(self.phase, self.phase.pop(m), _times({m ^ y}, poly))

    def reduce_all(self) -> None:
        """Sum out path variables on no wire, lowest first, while a rule takes one."""
        while any(self.sum_out(y) for y in _bits(self.free)):
            pass

    def sum_out(self, y: int) -> bool:
        """Σ_y ω^phase for a y on no wire; False, changing nothing, if no rule applies."""
        terms = {m: c for m, c in self.phase.items() if m & y}
        linear = terms.pop(y, 0)  # the terms are linear·y + 4y·rest
        if linear % 2 or any(c != 4 for c in terms.values()):
            return False
        rest = {m ^ y for m in terms} ^ ({0} if linear in (4, 6) else set())  # 6y = 2y + 4y·1
        other = self.linear(rest)
        if linear in (0, 4) and rest and not other:
            return False
        self.phase = {m: c for m, c in self.phase.items() if not m & y}
        self.drop(y)
        if linear in (2, 6):  # ω: Σ_y ω^(2y + 4y·B) = √2·ω^(1 − 2B)
            self.e += 1
            _lift(self.phase, 1, {0})
            _lift(self.phase, 6, rest)
        else:  # Σ_y (−1)^(y·B) = 2·[B = 0]: B is 0, or (HH) B = y′ ⊕ B′ and y′ := B′
            self.e += 2
            if rest:
                self.substitute(other, rest ^ {other})
        return True


def certify(circuit, target: dict[int, int]) -> ChannelVerdict | None:
    """The exact verdict of a valid ``circuit`` proved to be ω^target up to an input-independent
    phase on every branch (``target`` maps monomials over the data qubits, bit i the i-th
    lowest, to exponents mod 8): each outcome string's report, equal values sharing their
    objects; past MAX_REPORTS strings, one report of m zero outcomes for all 2^m, with p = 2^-m
    (0.0 past 1074 measurements: state it by the exponent -m). None where undecided."""
    data = {q: 1 << i for i, q in enumerate(sorted(circuit.data_qubits))}  # x_i on wire q
    inputs = (1 << len(data)) - 1
    s = _PathSum([{data[q]} if q in data else set() for q in range(circuit.qubit_count)], len(data))
    bits, hidden = {}, 0  # each measurement bit's variable; the reset variables
    for op in circuit.ops:
        gate, qubits, q = op.gate._value_, op.qubits, op.qubits[-1]
        cond = op.condition
        if cond is not None and gate in ("h", "sx", "sxdg", "reset"):
            return None
        lit = cond and ({bits[cond[0]]} if cond[1] else {0, bits[cond[0]]})  # o or 1 ⊕ o
        if gate in _PHASES:
            form = s.wires[q] if len(qubits) == 1 else _times(s.wires[qubits[0]], s.wires[q])
            _lift(s.phase, _PHASES[gate], form if lit is None else _times(form, lit))
        elif gate in ("x", "cx"):
            flip = s.wires[qubits[0]] if gate == "cx" else {0}
            s.write(q, s.wires[q] ^ (flip if lit is None else _times(flip, lit)))
        elif gate == "m":
            bits[op.bit] = next(s.fresh)
            if not s.solve(q, bits[op.bit]):
                return None
        elif gate == "reset":
            r = next(s.fresh)
            if s.solve(q, r):
                hidden |= r
            elif s.masks[q] & (inputs | s.paths):
                return None
            s.write(q, set())
        else:  # H, or √X(†) = H·S(†)·H
            if gate != "h":
                s.h(q)
                _lift(s.phase, 2 if gate == "sx" else 6, s.wires[q])
            s.h(q)
    for m, c in target.items():
        _lift(s.phase, -c & 7, {m})
    dirty = [q for q in circuit.ancilla_qubits if s.wires[q]]  # fine if its last op measured it
    last = dirty and {q: op.gate._value_ for op in circuit.ops for q in op.qubits}
    # no path variable left, data wires their inputs, P − target input-free, e = −(#o + #r)
    if (s.paths or any(s.wires[q] != {x} for q, x in data.items())
            or any(last[q] != "m" for q in dirty) or any(m & inputs for m in s.phase)
            or s.e != -len(bits) - bin(hidden).count("1")):
        return None
    m, phase = len(bits), {k: c for k, c in s.phase.items() if not k & hidden}  # R(o, r = 0)
    varies = phase.keys() - {0}
    if 1 << m > MAX_REPORTS and varies:
        return None  # too many outcome strings to list, with more than one phase
    p, k = math.ldexp(1.0, -m), phase.get(0, 0)  # p is 0.0 past 1074 measurements
    reports = []  # the first measurement highest
    for outcomes in product((0, 1), repeat=m) if 1 << m <= MAX_REPORTS else [(0,) * m]:
        if varies:
            held = sum(o for o, b in zip(bits.values(), outcomes) if b)
            k = sum(c for mask, c in phase.items() if mask & held == mask) & 7
        reports.append(BranchReport(outcomes, p, _OMEGA[k], 0.0))
    return ChannelVerdict(True, tuple(reports), True, 1.0)
