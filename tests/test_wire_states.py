"""Soundness of the wire states and echo resets of the labeled pass.

``labeled_pass`` tells ``_split`` when a wire is zero (no key sets it) or
classical (a function of the label bits, so no key's partner on the wire is
present), and the split then skips the pairing. ``checked_splits`` checks
each such claim against the keys themselves, with a sort, while the engine
runs random and hand-built circuits; every result is also compared with the
dense oracle. An echo reset takes no label bit, so a wrongly found echo shows
as a different label count here and as a different result there.
"""
from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnzsynth import (
    Circuit, CircuitBuilder, CnZSpec, Method, cccz_6t, check_implements, oracle_cnz, synth_cnz)
from cnzsynth import simulator
from test_engine_oracle import assert_same_records, data_inputs, feedback_circuits, superposed
from test_verdict_oracle import assert_same_verdicts


@contextlib.contextmanager
def checked_splits(n: int):
    """Check every zero and classical claim the pass makes on an ``n``-qubit
    register; yields their counts."""
    claims = {"zero": 0, "classical": 0}
    split = simulator._split

    def checked(keys, amps, q, u, zero, classical, settle):
        if zero:
            assert not (keys & (1 << q)).any(), f"a key sets 'zero' wire {q}"
            claims["zero"] += 1
        elif classical:
            pairs = np.sort(keys & ~(1 << q))
            assert (pairs[1:] != pairs[:-1]).all(), f"'classical' wire {q} has partners"
            labels = keys >> n
            assert len(np.unique(labels)) == len(np.unique(labels << 1 | (keys >> q) & 1)), \
                f"'classical' wire {q} is not a function of the labels"
            claims["classical"] += 1
        return split(keys, amps, q, u, zero, classical, settle)

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
    return len(simulator._event_bits(circuit.ops, 0)[0])


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


def test_ladders_claim_zero_and_classical_wires():
    # each AND's opening H meets a zero ancilla, each uncompute's H a classical one
    with checked_splits(8) as claims:
        assert check_implements(synth_cnz(CnZSpec(4), Method.BASELINE), oracle_cnz(4)).passed
    assert claims == {"zero": 3, "classical": 3}
