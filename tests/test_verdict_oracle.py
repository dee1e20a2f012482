"""Differential tests: ``check_implements`` against the dense reference verdict.

``dense_oracle.check_implements`` walks one data input and one branch at a
time and assembles each history's dense Kraus operator; the package finalizes
every history of its labeled pass at once. Both must give the same verdict
and the same reports, in the same order.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

import dense_oracle
from cnzsynth import (
    Circuit,
    CircuitBuilder,
    and_compute,
    and_uncompute,
    cccz_6t,
    check_implements,
    compose,
    oracle_cnz,
    remap_qubits,
)
from test_engine_oracle import feedback_circuits, named_circuits
from test_simulator import count_numpy_calls, fifteen_rounds
from test_verify import then_h_reset

TOL = 1e-12


def conditioned_reset() -> Circuit:
    """A reset of a superposed wire that fires in one branch and is skipped in
    the other, where the wire is returned to |0> by H instead."""
    bld = CircuitBuilder(3, (0,))
    bld.h(2).h(1).t(0)
    m = bld.measure(1)
    bld.reset(1)
    bld.reset(2, when=(m, 1))
    bld.h(2, when=(m, 0))
    return bld.build()


def hidden_reset_circuits() -> list:
    return [
        pytest.param(CircuitBuilder(2, (0,)).h(1).reset(1).build(), id="h-reset"),
        pytest.param(then_h_reset(cccz_6t(), 4), id="cccz+h-reset"),
        pytest.param(then_h_reset(compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2)), 2),
                     id="and-pair+h-reset"),
        pytest.param(conditioned_reset(), id="conditioned-reset"),
    ]


def assert_same_verdict(circuit: Circuit, target: np.ndarray) -> None:
    want, _ = dense_oracle.check_implements(circuit, target)
    got = check_implements(circuit, target)
    assert got.passed == want.passed
    assert got.ancilla_clean == want.ancilla_clean
    assert abs(got.probability_total - want.probability_total) <= TOL
    assert [r.outcomes for r in got.branch_reports] == [r.outcomes for r in want.branch_reports]
    for g, w in zip(got.branch_reports, want.branch_reports):
        assert abs(g.probability - w.probability) <= TOL
        assert abs(g.phase - w.phase) <= TOL
        assert abs(g.max_deviation - w.max_deviation) <= TOL


def assert_same_verdicts(circuit: Circuit) -> None:
    """Against the identity, and against the reference's first history operator
    that is not zero (a history can have all its weight outside the ancilla pattern)."""
    dim = 1 << len(circuit.data_qubits)
    _, histories = dense_oracle.check_implements(circuit, np.eye(dim))
    assert_same_verdict(circuit, np.eye(dim))
    for history in histories:
        if np.abs(history.kraus).max() > 1e-6:
            assert_same_verdict(circuit, history.kraus)
            break


@pytest.mark.parametrize("circuit", named_circuits() + hidden_reset_circuits())
def test_verdict_matches_dense_reference(circuit):
    assert_same_verdicts(circuit)


def test_conditioned_reset_passes_with_hidden_histories_in_one_branch():
    circuit = conditioned_reset()
    verdict = check_implements(circuit, np.diag([1, np.exp(1j * np.pi / 4)]))
    assert verdict.passed
    assert [(r.outcomes, r.probability) for r in verdict.branch_reports] == [
        ((0,), pytest.approx(0.5)), ((1,), pytest.approx(0.5))]
    # op 4 resets the measured wire, op 5 the |+> wire when b0 == 1
    _, histories = dense_oracle.check_implements(circuit, np.eye(2))
    assert [(h.outcomes, h.hidden) for h in histories] == [
        ((0,), ((4, 0),)), ((1,), ((4, 1), (5, 0))), ((1,), ((4, 1), (5, 1)))]


@pytest.mark.parametrize("circuit, target, calls", [
    # the compute leaves the ancilla holding a AND b: entries outside the pattern
    pytest.param(and_compute(0, 1, 2), np.eye(4), {"cumsum": 2, "where": 1}, id="dirty-ancilla"),
    # input 0's all-zeros run weighs ~3e-13 inside a history that input 1 keeps live
    pytest.param(fifteen_rounds(entangle=True), np.eye(2), {"cumsum": 2, "where": 1},
                 id="dead-pair-in-live-history"),
    # data wires 1, 2, 3, 4 reach the verdict through basis_inputs' spread and its ranks
    pytest.param(remap_qubits(cccz_6t(), {0: 4, 4: 0}), oracle_cnz(3), {"cumsum": 1, "where": 0},
                 id="remapped-data-wires"),
])
def test_each_verdict_path_matches_dense_reference(monkeypatch, circuit, target, calls):
    with monkeypatch.context() as patched:
        counting = count_numpy_calls(patched, *calls)
        check_implements(circuit, target)
    assert counting.calls == calls
    assert_same_verdict(circuit, target)


@settings(max_examples=200, deadline=None)
@given(circuit=feedback_circuits())
def test_verdict_matches_dense_reference_on_random_circuits(circuit):
    assert_same_verdicts(circuit)
