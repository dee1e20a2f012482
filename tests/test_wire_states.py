"""Soundness of the wire states and echo resets of the labeled pass.

``labeled_pass`` tells ``_split`` when a wire is classical (a function of the
label bits, so no key's partner on the wire is present), and the split then
skips the pairing. ``checked_splits`` checks each such claim against the keys
themselves, with a sort, while the engine runs random, hand-built and every
small circuit; every result, or a seeded sample of them, is also compared
with the dense oracle. An echo reset takes no label bit, so a wrongly found
echo shows as a different label count here, as a repeated entry in the
history table and as a different result there.
"""
from __future__ import annotations

import contextlib
import functools
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnzsynth import (
    Circuit, CircuitBuilder, CnZSpec, Gate, Method, Op, cccz_6t, check_implements, oracle_cnz, synth_cnz,
    validate)
from cnzsynth import simulator
from test_engine_oracle import assert_same_records, data_inputs, feedback_circuits, superposed
from test_verdict_oracle import assert_same_verdicts


@contextlib.contextmanager
def checked_splits(n: int):
    """Check every classical claim the pass makes on an ``n``-qubit register;
    yields their count."""
    claims = {"classical": 0}
    split = simulator._split

    def checked(keys, amps, q, u, classical, settle):
        if classical:
            pairs = np.sort(keys & ~(1 << q))
            assert (pairs[1:] != pairs[:-1]).all(), f"'classical' wire {q} has partners"
            labels = keys >> n
            assert len(np.unique(labels)) == len(np.unique(labels << 1 | (keys >> q) & 1)), \
                f"'classical' wire {q} is not a function of the labels"
            claims["classical"] += 1
        return split(keys, amps, q, u, classical, settle)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(simulator, "_split", checked)
        yield claims


def assert_matches_dense_oracle(circuit: Circuit, seed: int = 0) -> None:
    """Records on every data input and on a superposition of them, and the
    verdicts, all with the wire-state claims checked."""
    with checked_splits(circuit.qubit_count):
        for state in [*data_inputs(circuit), superposed(circuit, seed)]:
            assert_same_records(circuit, state)
        assert_same_verdicts(circuit)


def labels(circuit: Circuit) -> int:
    """Label bits the circuit's events take: one per MEASURE and per RESET but the echoes."""
    return len(simulator.require_key_room(circuit, 0)[0])


@settings(max_examples=150, deadline=None)
@given(circuit=feedback_circuits(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_wire_state_claims_hold_on_random_circuits(circuit, seed):
    assert_matches_dense_oracle(circuit, seed)


def free_cx_into_classical() -> Circuit:
    """H makes wire 0 free; the CX must make its classical target 1 free too:
    after the second H on wire 0, the H on wire 1 meets its partners."""
    return CircuitBuilder(2, (0, 1)).h(0).cx(0, 1).h(0).h(1).build()


def conditioned_reset_then_h() -> Circuit:
    """A conditioned RESET of free wire 2 keeps it free: it is reset only where b0 == 1."""
    bld = CircuitBuilder(3, (0,))
    bld.h(1).h(2).cx(0, 2)
    m = bld.measure(1)
    bld.reset(1)
    return bld.reset(2, when=(m, 1)).h(2).build()


def measured_then(*between: str) -> Circuit:
    """Data wire 0 and ancilla 1: H and CX entangle them, the ancilla is
    measured, then the ops ``between`` act on it (``"cx"`` is CX 0 -> 1,
    ``"m"`` measures again), then it is reset."""
    bld = CircuitBuilder(2, (0,))
    bld.h(0).h(1).cx(0, 1).t(1)
    bld.measure(1)
    for gate in between:
        if gate == "cx":
            bld.cx(0, 1)
        elif gate == "m":
            bld.measure(1)
        else:
            getattr(bld, gate)(1)
    return bld.reset(1).build()


@pytest.mark.parametrize("circuit, events, echoes", [
    pytest.param(free_cx_into_classical(), 0, 0, id="cx-free-into-classical-then-h"),
    # the closing H of H T H keeps both entries of each pair: the wire stays free
    pytest.param(CircuitBuilder(2, (0,)).h(1).t(1).h(1).h(1).build(), 0, 0, id="merge-keeping-both"),
    pytest.param(conditioned_reset_then_h(), 3, 1, id="conditioned-reset-then-h"),
    pytest.param(measured_then("x"), 2, 0, id="m-x-reset"),
    pytest.param(measured_then("h"), 2, 0, id="m-h-reset"),
    pytest.param(measured_then("cx"), 2, 0, id="m-cx-reset"),
    pytest.param(measured_then("sx"), 2, 0, id="m-sx-reset"),
    pytest.param(measured_then("m"), 3, 1, id="m-m-reset"),
    pytest.param(measured_then("t", "z"), 2, 1, id="m-diagonal-reset"),
    pytest.param(measured_then("reset"), 3, 1, id="m-reset-reset"),
    pytest.param(CircuitBuilder(2, (0,)).h(1).cx(1, 0).reset(1).build(), 1, 0, id="never-measured"),
    pytest.param(cccz_6t(), 2, 1, id="cccz"),
    pytest.param(synth_cnz(CnZSpec(4), Method.BASELINE), 6, 3, id="cnz4-baseline"),
])
def test_hand_built_wire_states_match_dense_oracle(circuit, events, echoes):
    assert sum(not op.gate.is_unitary for op in circuit.ops) == events
    assert labels(circuit) == events - echoes
    assert_matches_dense_oracle(circuit)


@pytest.mark.parametrize("n, method, splits", [
    (3, Method.BASELINE, 4), (3, Method.OPTIMIZED, 1),
    (4, Method.BASELINE, 6), (4, Method.OPTIMIZED, 3),
    (5, Method.BASELINE, 8), (5, Method.OPTIMIZED, 5),
    (6, Method.BASELINE, 10), (6, Method.OPTIMIZED, 7),
])
def test_ladders_claim_classical_wires(n, method, splits):
    # each opening H meets a classical ancilla (it holds 0), and so does each
    # measured uncompute's H (it holds the AND); the closing H of an AND merges
    circuit = synth_cnz(CnZSpec(n), method)
    with checked_splits(circuit.qubit_count) as claims:
        assert check_implements(circuit, oracle_cnz(n)).passed
    assert claims == {"classical": splits}


#: The small scope: H on any wire and CX on any ordered pair, 3 qubits, data {0, 1}.
SMALL_OPS = [Op(Gate.H, (q,)) for q in range(3)] + [Op(Gate.CX, pair) for pair in permutations(range(3), 2)]


def small_circuits(length: int = 5) -> list[Circuit]:
    """Every circuit of ``length`` ops over SMALL_OPS, up to the swap of the two
    data qubits: of a circuit and its swapped image, the one whose op indices
    come first in order. The swap only renames the data qubits, so a fault
    that does not hinge on which is which still shows on the half kept."""
    swap = (1, 0, 2)
    image = [SMALL_OPS.index(Op(op.gate, tuple(swap[q] for q in op.qubits))) for op in SMALL_OPS]
    return [Circuit(3, 0, tuple(SMALL_OPS[i] for i in seq), frozenset({0, 1}))
            for seq in product(range(len(SMALL_OPS)), repeat=length)
            if seq <= tuple(image[i] for i in seq)]


def test_every_small_circuit_makes_sound_claims():
    # the small-scope hypothesis (Andoni et al., 2002): a fault in the wire
    # rules shows on some small circuit; ``h 0; cx 0 1; h 0; h 0; h 0`` is the
    # smallest that catches a merge settled while another wire is free
    circuits = small_circuits()
    assert len(circuits) == (9 ** 5 + 1) // 2  # only h 2 ×5 is its own image
    x = np.arange(4, dtype=np.int64)
    with checked_splits(3) as claims:
        for circuit in circuits:
            simulator.histories(circuit, 2, x, np.ones(4, complex), simulator.require_key_room(circuit, 2))
    assert claims == {"classical": 38328}


def test_small_circuits_match_dense_oracle():
    rng = np.random.default_rng(12)
    circuits = small_circuits()
    for i in rng.choice(len(circuits), size=100, replace=False):
        assert_matches_dense_oracle(circuits[i], int(i))


#: The feedback scope: H, X, T and RESET on any wire, CX on any ordered pair and CZ
#: on any unordered one, each unconditioned or on any earlier bit and value, and
#: MEASURE of any wire into the next bit; 3 qubits, data {0, 1}.
FEEDBACK_OPS = ([Op(g, (q,)) for g in (Gate.H, Gate.X, Gate.T, Gate.RESET) for q in range(3)]
                + [Op(Gate.CX, pair) for pair in permutations(range(3), 2)]
                + [Op(Gate.CZ, pair) for pair in combinations(range(3), 2)])


def next_feedback_ops(bits: int) -> list[Op]:
    """Every op of the feedback scope after ``bits`` measurements."""
    conditions = [None] + [(b, v) for b in range(bits) for v in (0, 1)]
    return ([replace(op, condition=c) for op in FEEDBACK_OPS for c in conditions]
            + [Op(Gate.MEASURE, (q,), bits) for q in range(3)])


def swapped_data(op: Op) -> Op:
    """``op`` with data qubits 0 and 1 swapped; a CZ keeps its pair in order."""
    qubits = tuple((1, 0, 2)[q] for q in op.qubits)
    return replace(op, qubits=tuple(sorted(qubits)) if op.gate is Gate.CZ else qubits)


@functools.cache
def small_feedback_circuits(length: int = 3) -> tuple[Circuit, ...]:
    """Every valid circuit of 1 to ``length`` ops over the feedback scope, up to
    the swap of the two data qubits, as ``small_circuits`` keeps them."""
    def rank(ops) -> list:
        return [(op.gate.value, op.qubits, op.condition or ()) for op in ops]

    out, level = [], [((), 0)]
    for _ in range(length):
        level = [(ops + (op,), bits + (op.gate is Gate.MEASURE))
                 for ops, bits in level for op in next_feedback_ops(bits)]
        out += [Circuit(3, bits, ops, frozenset({0, 1})) for ops, bits in level
                if rank(ops) <= rank(map(swapped_data, ops))]
    return tuple(circuit for circuit in out if not validate(circuit))


def test_every_small_feedback_circuit_makes_sound_claims():
    # from every basis input (each wire starts classical, as the verifier starts) and
    # from one superposed input (the data wires start free, as run_branches does);
    # ``m 2; reset 1 if b0 == 1; h 1`` catches a conditioned reset taken as
    # unconditioned. A wrongly found echo clears a wire that still holds either
    # value, so an entry repeats in the table: ``m 2; h 2; reset 2`` shows it.
    circuits = small_feedback_circuits()
    assert len(circuits) == 8593
    x = np.arange(4, dtype=np.int64)
    with checked_splits(3) as claims:
        for circuit in circuits:
            for input_bits, amps in [(2, np.ones(4, complex)), (0, np.full(4, 0.5 + 0j))]:
                maps = simulator.require_key_room(circuit, input_bits)
                history, column, basis, *_ = simulator.histories(circuit, input_bits, x, amps, maps)
                assert ((np.diff(history) != 0) | (np.diff(column) != 0) | (np.diff(basis) != 0)).all()
    assert claims == {"classical": 4010}


def test_small_feedback_circuits_match_dense_oracle():
    rng = np.random.default_rng(13)
    circuits = small_feedback_circuits()
    for i in rng.choice(len(circuits), size=150, replace=False):
        assert_matches_dense_oracle(circuits[i], int(i))
