"""Sparse statevector execution of every measurement branch in one labeled pass.

A state is two parallel arrays: int64 keys (basis index plus label bits above
the register) and the complex amplitudes of its nonzero entries. X and CX
relabel keys, CZ and the diagonal gates scale entries, and H and √X(†) pair
each key with its partner on the wire. Every H and √X here acts on an
ancilla, so from basis inputs the state stays small. Measurement is deferred
(Nielsen & Chuang §4.4): each MEASURE and RESET writes its outcome into its
own label bit, so each branch is one label class and every op runs once over
all of them. Events take label bits in op order from the top down, so
ascending label order is depth-first order, outcome 0 before 1. A classical
condition masks on its measurement's label bit. One key holds at most
MAX_KEY_BITS bits; a wider circuit raises SimulationError. ``histories`` is
the only reader of this key layout: ``run_branches``, ``unitary_of`` and the
verifier all read its table of (history, input, basis, amplitude) entries.

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

from .circuit import Circuit, Op, validate

#: Branches whose final squared norm falls below this are dropped (as if at their event).
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


def require_valid(circuit: Circuit) -> None:
    """Raise SimulationError unless ``circuit`` is executable."""
    violations = validate(circuit)
    if violations:
        raise SimulationError(
            "invalid circuit: " + "; ".join(str(v) for v in violations))


def _event_bits(ops: tuple[Op, ...], base: int) -> dict[int, int]:
    """Label bit of each MEASURE and RESET by op index: the first event takes the
    highest bit, the last takes bit ``base``. Keys are held to MAX_KEY_BITS."""
    events = [i for i, op in enumerate(ops) if not op.gate.is_unitary]
    if base + len(events) > MAX_KEY_BITS:
        raise SimulationError(
            f"{base} register and input label bits plus {len(events)} measurement and "
            f"reset labels exceed the {MAX_KEY_BITS}-bit key")
    top = base + len(events) - 1
    return {i: top - e for e, i in enumerate(events)}


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted, nonempty array."""
    return np.concatenate(([True], values[1:] != values[:-1]))


def _split(keys: np.ndarray, amps: np.ndarray, q: int, u: np.ndarray):
    """Apply a mixing gate ``u`` (H, √X or √X†) on wire ``q`` to distinct keys,
    pairing k with k ^ 2^q. When no key has the wire set, every entry splits in
    place. When the second half of the entries holds the partners of the first,
    in order, each pair merges in place: an earlier split on the wire leaves
    them so, and X, CX and diagonal gates keep entries where they are. Any
    other layout sorts to find the pairs."""
    mask = 1 << q
    lo = keys & ~mask
    one = keys != lo
    to = u.take(one.view(np.int8), axis=1) * amps  # each entry's share of |0>, |1>
    if np.count_nonzero(one):
        half = len(keys) // 2
        if len(keys) % 2 == 0 and (lo[:half] == lo[half:]).all():
            lo, to = lo[:half], to[:, :half] + to[:, half:]
        else:
            order = np.argsort(lo, kind="stable")
            first = run_starts(lo[order])
            if first.all():  # no partners
                return np.concatenate((lo, lo | mask)), to.ravel()
            lo, to = lo[order[first]], np.add.reduceat(to[:, order], np.flatnonzero(first), axis=1)
        keys, amps = np.concatenate((lo, lo | mask)), to.ravel()
        keep = np.abs(amps) > _NEGLIGIBLE
        return keys[keep], amps[keep]
    return np.concatenate((lo, lo | mask)), to.ravel()


def labeled_pass(ops: tuple[Op, ...], keys: np.ndarray, amps: np.ndarray, base: int):
    """Run valid ``ops`` once over every branch of a sparse state whose keys
    use only the bits below ``base``; returns (keys, amps, _event_bits(ops, base)).
    Both arrays may be updated in place."""
    labels = _event_bits(ops, base)
    bit_label = {op.bit: labels[i] for i, op in enumerate(ops) if op.bit is not None}
    for i, op in enumerate(ops):
        q, gate = op.qubits[0], op.gate._value_  # hashing a Gate member runs Python code
        care = want = 0  # the op acts on the entries whose keys & care == want
        if op.condition is not None:
            care = 1 << bit_label[op.condition[0]]
            want = care * op.condition[1]
        split, phase = _SPLITS.get(gate), _PHASES.get(gate)
        wires = (1 << q) | (1 << op.qubits[-1])
        if op.bit is not None:  # MEASURE copies its wire into its label
            keys |= (keys & (1 << q)) << (labels[i] - q)
        elif split is not None and not care:
            keys, amps = _split(keys, amps, q, split)
        elif split is not None:  # split where the op fires, pass the rest through
            fires = (keys & care) == want
            k, a = _split(keys[fires], amps[fires], q, split)
            keys, amps = np.concatenate((keys[~fires], k)), np.concatenate((amps[~fires], a))
        elif phase is not None:  # where every wire holds 1
            np.multiply(amps, phase, out=amps, where=(keys & (care | wires)) == (want | wires))
        else:
            if i in labels:  # RESET moves a 1 on its wire into its label
                care, want, flip = care | wires, want | wires, wires | (1 << labels[i])
            elif len(op.qubits) == 2:  # CX flips its target where its control holds 1
                care, want, flip = care | (1 << q), want | (1 << q), 1 << op.qubits[1]
            else:
                flip = wires
            np.bitwise_xor(keys, flip, out=keys, where=(keys & care) == want if care else True)
    return keys, amps, labels


def basis_inputs(wires) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``histories`` inputs for every basis state of ``wires``, the other wires
    |0>: input x, its register index (wire wires[j] holds bit j of x) and 1."""
    x = spread = np.arange(1 << len(wires), dtype=np.int64)  # wires 0..k-1, as synthesized
    if list(wires) != list(range(len(wires))):
        spread = (((x[:, None] >> np.arange(len(wires))) & 1) << np.array(wires, dtype=np.int64)).sum(1)
    return x, spread, np.ones(len(x), dtype=complex)


def histories(circuit: Circuit, inputs: np.ndarray, basis: np.ndarray, amps: np.ndarray):
    """Validate ``circuit``, run it once over entries (input label, register index,
    amplitude) and return per-entry (history, input, basis, amplitude) arrays sorted
    in that order, each history's visible outcomes in measurement order and the
    offset of each history's first entry. A history is one full run of events,
    hidden reset outcomes included; those of squared norm below PRUNE_THRESHOLD
    are dropped, the rest numbered 0..H-1 depth-first."""
    require_valid(circuit)
    n = circuit.qubit_count
    width = n + int(inputs.max(initial=0)).bit_length()
    keys, amps, labels = labeled_pass(circuit.ops, (inputs << n) | basis, amps, width)
    order = np.argsort(keys, kind="stable")
    keys, amps = keys[order], amps[order]
    new = run_starts(keys >> width)
    starts = np.flatnonzero(new)
    live = np.add.reduceat(amps.real ** 2 + amps.imag ** 2, starts) >= PRUNE_THRESHOLD
    measured = np.array([labels[i] for i, op in enumerate(circuit.ops) if op.bit is not None], np.int64)
    outcomes = list(map(tuple, ((keys[starts[live], None] >> measured) & 1).tolist()))
    history = np.cumsum(new) - 1
    if len(outcomes) < len(starts):  # some history was pruned
        keep = live[history]
        keys, amps, history = keys[keep], amps[keep], (np.cumsum(live) - 1)[history[keep]]
        starts = np.flatnonzero(run_starts(history))
    return history, (keys >> n) & ((1 << (width - n)) - 1), keys & ((1 << n) - 1), amps, outcomes, starts


def run_branches(circuit: Circuit, input_state: np.ndarray) -> list[BranchRecord]:
    """Enumerate all measurement branches of ``circuit`` on ``input_state``.

    Depth-first over outcomes, 0 before 1, so the emitted order is
    reproducible. Branches with squared norm below PRUNE_THRESHOLD are
    dropped; classical conditions are evaluated against the branch's
    recorded outcomes. The two outcomes of a firing RESET are separate
    records with the same ``outcomes``. The input must be finite and
    normalized, with its ancilla qubits in |0>.
    """
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
    history, _, basis, amps, outcomes, starts = histories(circuit, np.zeros_like(keys), keys, dense[keys])
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
    _, column, row, amps, _, _ = histories(circuit, *basis_inputs(range(n)))
    u = np.zeros((1 << n, 1 << n), dtype=complex)
    u[row, column] = amps
    return u
