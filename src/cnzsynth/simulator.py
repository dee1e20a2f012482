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
``run_branches``, ``unitary_of`` and ``channel_verdict``, the brute-force
verdict of ``verify.check_implements``, all read its table of
(history, input, basis, amplitude) entries. The package imports this
module, numpy with it, on first use of it or of one of its public names.

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

from .circuit import Circuit, Gate, Op, remap_qubits, require_valid
from .verify import BranchReport, ChannelVerdict

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


def channel_verdict(circuit: Circuit, target: np.ndarray, tolerance: float) -> ChannelVerdict:
    """``verify.check_implements``' verdict, for a tolerance it has checked.

    ``histories`` has already dropped the negligible (history, input) pairs;
    the verdict prunes nothing. Entries outside the ancilla pattern are zeroed
    in place once each pair's leak is weighed: every reduction, the linear
    lacking-nonzero pass too, runs over the history runs as returned.
    """
    # before renumbering, so an invalid circuit names its own qubits, and before 2^d is formatted
    labels = require_key_room(circuit, len(circuit.data_qubits))
    data = sorted(circuit.data_qubits)
    dim_data = 1 << len(data)
    target = np.asarray(target, dtype=complex)
    if target.shape != (dim_data, dim_data):
        raise ValueError(
            f"target dimension {target.shape} does not match "
            f"{len(data)} data qubits (expected {(dim_data, dim_data)})")
    # the only read of where the target is nonzero; != 0 first, as flatnonzero on complex is slow
    support = np.flatnonzero(target != 0)
    # the first largest entry in row-major order: argmax stops at the first NaN, else at an infinity
    pivot = int(support[np.argmax(np.abs(target.take(support)))]) if len(support) else 0
    if not np.isfinite(target.flat[pivot]):
        raise ValueError("target entries must be finite")
    if abs(target.flat[pivot]) <= tolerance:
        raise ValueError("target operator is ~0")
    if data != list(range(len(data))):  # renumber: data on wires 0..d-1, the ancillas after them
        order = data + sorted(circuit.ancilla_qubits)
        circuit = remap_qubits(circuit, {q: i for i, q in enumerate(order)})
    inputs = np.arange(dim_data, dtype=np.int64)  # input x is register index x
    history, column, basis, amps, outcomes, runs = histories(
        circuit, len(data), inputs, np.ones(dim_data, complex), labels)
    # each history's Kraus entries K_h[row, col], and the target's U[row, col]
    position = (basis & (dim_data - 1)) * dim_data + column
    wanted = np.take(target, position)

    # ancillas end in |0>; one whose last op measured it holds its outcome (MEASURE copies
    # the wire into its label), so it is left out of the pattern
    last = {q: op.gate for op in circuit.ops for q in op.qubits}
    held = sum(1 << q for q, gate in last.items() if gate is Gate.MEASURE)
    outside = (basis & (-dim_data & ~held)) != 0
    ancilla_clean = True
    if outside.any():  # entries form runs of one (history, input) within runs of one history
        weights = amps.real ** 2 + amps.imag ** 2
        pairs = np.flatnonzero(run_starts(history) | run_starts(column))
        off = np.add.reduceat(np.where(outside, weights, 0.0), pairs)
        ancilla_clean = not (off > tolerance ** 2 * np.add.reduceat(weights, pairs)).any()
        amps[outside], wanted[outside], position[outside] = 0, 0, -1  # no part of any K_h

    at = position == pivot
    scalar = np.zeros(len(outcomes), dtype=complex)
    scalar[history[at]] = amps[at] / target.flat[pivot]
    # K_h ~ 0 has no phase to fit: c_h = 0, so its deviation is its largest entry
    scalar[np.maximum.reduceat(np.abs(amps), runs) <= tolerance] = 0
    # max |K_h - c_h U| over the leaf's entries, then over the target's nonzeros it lacks
    deviation = np.maximum.reduceat(np.abs(amps - scalar[history] * wanted), runs)
    present = np.add.reduceat(wanted != 0, runs, dtype=np.intp)
    lacking = np.flatnonzero((present < len(support)) & (scalar != 0))
    ends = np.append(runs[1:], len(position))
    for h in lacking:  # its entries at target nonzeros: distinct, as setdiff1d assumes
        run = slice(runs[h], ends[h])
        missing = np.setdiff1d(support, position[run][wanted[run] != 0], assume_unique=True)
        deviation[h] = max(deviation[h], abs(scalar[h]) * np.abs(target.flat[missing]).max())

    # visible outcomes -> [sum of |c|^2, first phase, max deviation] over its histories, depth-first;
    # a |c| within the tolerance is a rounding residue with no phase to fit: phase 1
    groups: dict[tuple[int, ...], list] = {}
    for visible, c, dev in zip(outcomes, scalar.tolist(), deviation.tolist()):
        group = groups.setdefault(visible, [0.0, c / abs(c) if abs(c) > tolerance else complex(1), dev])
        group[0] += abs(c) ** 2
        group[2] = max(group[2], dev)
    reports = tuple(BranchReport(visible, *group) for visible, group in sorted(groups.items()))
    probability_total = math.fsum(r.probability for r in reports)
    passed = (ancilla_clean and all(r.max_deviation <= tolerance for r in reports)
              and abs(probability_total - 1.0) <= tolerance)
    return ChannelVerdict(passed, reports, ancilla_clean, probability_total)
