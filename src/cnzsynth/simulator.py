"""Sparse statevector execution of every measurement branch in one labeled pass.

A state is two parallel arrays: int64 keys (basis index plus label bits above
the register) and the complex amplitudes of its nonzero entries. X, CX,
MEASURE and RESET flip key bits where a source wire holds 1, CZ and the
diagonal gates scale entries, and H and √X(†) pair each key with its partner
on the wire. Every H and √X here acts on an ancilla, so from basis inputs
the state stays small. Measurement is deferred (Nielsen & Chuang §4.4): each
MEASURE and RESET writes its outcome into its own label bit, so each branch
is one label class and every op runs once over all of them. Events take label
bits in op order from the top down, so ascending label order is depth-first
order, outcome 0 before 1. A classical condition masks on its measurement's
label bit. A preamble, ``require_key_room``, validates the circuit, labels its
events and holds the whole key (register, input labels and event labels) to
MAX_KEY_BITS once, before the pass; a wider circuit raises SimulationError.
``histories`` is the only reader of this key layout:
``run_branches``, ``unitary_of`` and the verifier all read its table of
(history, input, basis, amplitude) entries.

The pass knows each register wire as classical (a function of the label bits,
so no key's partner on it is present) or free, and a split pairs keys only on
a free wire. An echo, an unconditioned RESET whose wire still holds its last
MEASURE's outcome, takes no label bit: it just clears the wire.

Conventions, pinned for the codec and verifier:
  - qubit 0 is the least-significant bit of the basis-state index;
  - MEASURE projects the wire (the post-measurement wire holds the outcome;
    synthesized circuits follow it with an explicit RESET);
  - RESET applies the Kraus pair |0><0|, |0><1| to the wire without recording
    an outcome: its two outcomes are separate histories (unfired, it writes 0);
  - global phase is never normalized away; phase comparison is the verifier's.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Op, require_valid

#: ``histories`` drops each input's branch, one (history, input) pair, whose final
#: squared norm falls below this (as if at its event); the verifier prunes nothing.
PRUNE_THRESHOLD = 1e-12

_INPUT_TOLERANCE = 1e-9

#: Rounding residue of a cancellation in a splitting gate; dropped.
_NEGLIGIBLE = 1e-15

#: Bits one int64 key may use for the register, input and event labels.
MAX_KEY_BITS = 62


class SimulationError(ValueError):
    """Raised for invalid circuits, malformed states, or unsupported requests."""


_R = 1 / math.sqrt(2.0)
_W = cmath.exp(1j * math.pi / 4)
#: Diagonal gates by mnemonic: the factor where every wire of the gate holds 1.
_PHASES = {"z": -1 + 0j, "s": 1j, "sdg": -1j, "t": _W, "tdg": _W.conjugate(), "cz": -1 + 0j}
#: Gates that mix |0> and |1> by mnemonic, as [[u00, u01], [u10, u11]]; √X = H S H.
_SPLITS = {
    "h": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "sx": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2,
    "sxdg": np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2,
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


def require_key_room(circuit: Circuit, input_bits: int) -> tuple[dict[int, int], dict[int, int]]:
    """Validate ``circuit``, label its events and hold the register, ``input_bits``
    input label bits and the event labels to MAX_KEY_BITS, before anything is
    sized by 2^n. Returns the label bit of each MEASURE and each RESET but the
    echoes, by op index (the first takes the highest bit, the last the lowest
    above the input labels), and of each measurement bit in measurement order."""
    require_valid(circuit, SimulationError)
    events, held = [], 0  # wires that still hold their last MEASURE's outcome
    for i, op in enumerate(circuit.ops):
        gate = op.gate._value_
        if gate not in _PHASES:  # X, a CX's target, H, √X(†) and RESET may flip the wire
            wire = 1 << op.qubits[-1]
            if gate == "m" or gate == "reset" and (op.condition is not None or not held & wire):
                events.append(i)
            held = held | wire if gate == "m" else held & ~wire
    base = circuit.qubit_count + input_bits
    if base + len(events) > MAX_KEY_BITS:
        raise SimulationError(
            f"{base} register and input label bits plus {len(events)} measurement and "
            f"reset labels exceed the {MAX_KEY_BITS}-bit key")
    top = base + len(events) - 1
    labels = {i: top - e for e, i in enumerate(events)}
    return labels, {circuit.ops[i].bit: labels[i] for i in events if circuit.ops[i].bit is not None}


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted, nonempty array."""
    return np.concatenate(([True], values[1:] != values[:-1]))


def _split(keys: np.ndarray, amps: np.ndarray, q: int, u: np.ndarray, classical, settle):
    """Apply a mixing gate ``u`` (H, √X or √X†) on wire ``q`` to distinct keys,
    pairing k with k ^ 2^q; returns (keys, amps, whether the wire is classical).
    A ``classical`` wire has no partners: every entry splits in place. When the
    second half of the entries holds the partners of the first, in order, each
    pair merges in place: an earlier split on the wire leaves them so, and X, CX
    and diagonal gates keep entries where they are. Any other layout sorts to
    find the pairs. A merge leaves the wire classical when each pair keeps one
    entry and, by ``settle``, no other wire is free."""
    mask, n = 1 << q, len(keys)
    lo = keys & ~mask
    to = u.take((keys != lo).view(np.int8), axis=1) * amps  # each entry's share of |0>, |1>
    if not classical and n % 2 == 0 and (lo[:n // 2] == lo[n // 2:]).all():
        lo, to = lo[:n // 2], to[:, :n // 2] + to[:, n // 2:]
    elif not classical:
        order = np.argsort(lo, kind="stable")
        first = run_starts(lo[order])
        if not first.all():
            lo, to = lo[order[first]], np.add.reduceat(to[:, order], np.flatnonzero(first), axis=1)
    keys, amps = np.concatenate((lo, lo | mask)), to.ravel()
    if len(lo) == n:  # no partners
        return keys, amps, False
    # settled, the keys of a label class form one pair, so keeping one entry of each is a function
    keep = np.abs(amps) > _NEGLIGIBLE
    return keys[keep], amps[keep], settle and bool((keep[:len(lo)] != keep[len(lo):]).all())


def labeled_pass(ops: tuple[Op, ...], keys: np.ndarray, amps: np.ndarray, labels, free: int):
    """Run valid ``ops`` once over every branch of a sparse state whose keys use
    only the bits below the event labels and whose register wires start free
    where the mask ``free`` says, classical elsewhere; ``labels`` are
    ``require_key_room``'s two label maps. Returns (keys, amps); arrays may
    change in place."""
    # Sound: each key that an op makes keeps its source key's label bits and its
    # value on every wire the op does not write, so a function of the labels stays one.
    event_label, bit_label = labels
    for i, op in enumerate(ops):  # hashing a Gate member runs Python code: read _value_
        q, wire, gate = op.qubits[0], 1 << op.qubits[-1], op.gate._value_  # wire: the one it writes
        care = want = 0  # the op acts on the entries whose keys & care == want
        if op.condition is not None:
            care = 1 << bit_label[op.condition[0]]
            want = care * op.condition[1]
        split, phase = _SPLITS.get(gate), _PHASES.get(gate)
        if split is not None:
            if care:  # split where the op fires, pass the rest through
                fires = (keys & care) == want
                k, a, classical = _split(keys[fires], amps[fires], q, split, not free & wire, False)
                keys, amps = np.concatenate((keys[~fires], k)), np.concatenate((amps[~fires], a))
            else:
                keys, amps, classical = _split(keys, amps, q, split, not free & wire, not free & ~wire)
            free = free & ~wire if classical else free | wire
        elif phase is not None:  # where every wire holds 1
            wires = (1 << q) | wire
            np.multiply(amps, phase, out=amps, where=(keys & (care | wires)) == (want | wires))
        else:  # flip the bits ``flip`` where wire ``src`` holds 1: X its wire everywhere,
            # CX its target, MEASURE its label, RESET its wire and label (an echo its wire)
            src = 0 if gate == "x" else 1 << q
            flip = (1 << event_label[i] if i in event_label else 0) | (0 if gate == "m" else wire)
            if care or not src:
                np.bitwise_xor(keys, flip, out=keys, where=(keys & (care | src)) == (want | src))
            else:  # keys & src is 0 or 2^q: shift it onto flip
                held = keys & src
                keys ^= held >> (q - op.qubits[-1]) if flip < src else held * (flip >> q)
            if src == wire and not care:  # a MEASURE or an unconditioned RESET
                free &= ~wire
            elif free & src:  # a CX from a free control; X has none, a RESET's is its own wire
                free |= wire
    return keys, amps


def histories(circuit: Circuit, input_bits: int, basis: np.ndarray, amps: np.ndarray, labels):
    """Run ``circuit`` once over entries (register index, amplitude), each one's
    input label the low ``input_bits`` bits of its index, with the ``labels`` of
    ``require_key_room(circuit, input_bits)``. Returns per-entry (history, input,
    basis, amplitude) arrays sorted in that order, each history's visible
    outcomes in measurement order and the offset of each history's first entry.
    A history is one full run of events, hidden reset outcomes included. Each
    (history, input) pair of squared norm below PRUNE_THRESHOLD is dropped, as a
    walk from that input drops its branch; the histories left with a pair are
    numbered 0..H-1 depth-first."""
    n = circuit.qubit_count
    width = n + input_bits
    inputs = basis & ((1 << input_bits) - 1)
    # one key per input label: every wire is classical; else a wire some key sets is free
    free = 0 if (inputs[1:] > inputs[:-1]).all() else int(np.bitwise_or.reduce(basis))
    keys, amps = labeled_pass(circuit.ops, (inputs << n) | basis, amps, labels, free)
    order = np.argsort(keys, kind="stable")
    keys, amps = keys[order], amps[order]
    weights = amps.real ** 2 + amps.imag ** 2
    if weights.min() < PRUNE_THRESHOLD:  # else no pair can sum below it
        new_pair = run_starts(keys >> n)
        live = np.add.reduceat(weights, np.flatnonzero(new_pair)) >= PRUNE_THRESHOLD
        keep = live[np.cumsum(new_pair) - 1]
        keys, amps = keys[keep], amps[keep]
    new = run_starts(keys >> width)
    starts = np.flatnonzero(new)
    measured = np.array(list(labels[1].values()), np.int64)  # each measurement bit's label
    outcomes = list(map(tuple, ((keys[starts, None] >> measured) & 1).tolist()))
    history = np.cumsum(new) - 1
    return history, (keys >> n) & ((1 << input_bits) - 1), keys & ((1 << n) - 1), amps, outcomes, starts


def run_branches(circuit: Circuit, input_state: np.ndarray) -> list[BranchRecord]:
    """Enumerate all measurement branches of ``circuit`` on ``input_state``.

    Depth-first over outcomes, 0 before 1, so the emitted order is
    reproducible. Branches with squared norm below PRUNE_THRESHOLD are
    dropped; classical conditions are evaluated against the branch's
    recorded outcomes. The two outcomes of a firing RESET are separate
    records with the same ``outcomes``. The input must be finite and
    normalized, with its ancilla qubits in |0>.
    """
    labels = require_key_room(circuit, 0)
    n = circuit.qubit_count
    dense = np.asarray(input_state, dtype=complex)
    if dense.shape != (1 << n,):
        raise SimulationError(f"state must have shape ({1 << n},), got {dense.shape}")
    if not np.isfinite(dense).all():
        raise SimulationError("input state has a non-finite amplitude")
    weights = dense.real ** 2 + dense.imag ** 2
    if abs(weights.sum() - 1.0) > _INPUT_TOLERANCE:
        raise SimulationError("input state is not normalized")
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    if weights[np.arange(1 << n) & anc_mask != 0].sum() > _INPUT_TOLERANCE ** 2:
        raise SimulationError("ancilla qubits must start in |0>")
    keys = np.flatnonzero(dense)
    history, _, basis, amps, outcomes, starts = histories(circuit, 0, keys, dense[keys], labels)
    states = np.zeros((len(outcomes), 1 << n), dtype=complex)
    states[history, basis] = amps
    leaves = np.split(amps, starts[1:])
    norms = [float(np.vdot(leaf, leaf).real) for leaf in leaves]
    return [BranchRecord(o, p, state / np.sqrt(p)) for o, p, state in zip(outcomes, norms, states)]


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Exact unitary of a measurement-free, condition-free circuit."""
    for i, op in enumerate(circuit.ops):
        if not op.gate.is_unitary:
            raise SimulationError(f"op {i}: {op.gate.value} has no unitary")
    n = circuit.qubit_count
    labels = require_key_room(circuit, n)
    u = np.zeros((1 << n, 1 << n), dtype=complex)  # fails here, before the pass, if it cannot fit
    x = np.arange(1 << n, dtype=np.int64)  # input x is register index x
    _, column, row, amps, _, _ = histories(circuit, n, x, np.ones(len(x), dtype=complex), labels)
    u[row, column] = amps
    return u
