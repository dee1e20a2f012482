"""Tests for the channel checker and its brute-force oracles."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from cnzsynth import (
    NON_CLIFFORD,
    Circuit,
    CircuitBuilder,
    CnZSpec,
    Gate,
    Method,
    Op,
    SimulationError,
    and_compute,
    and_uncompute,
    cccz_6t,
    check_implements,
    check_phase_identity,
    compose,
    oracle_cnz,
    run_branches,
    synth_cnz,
)
from test_simulator import count_numpy_calls, fifteen_rounds


def without_ops(circuit: Circuit, *indices: int) -> Circuit:
    ops = tuple(op for i, op in enumerate(circuit.ops) if i not in indices)
    return Circuit(circuit.qubit_count, circuit.bit_count, ops, circuit.data_qubits)


def then_h_reset(circuit: Circuit, ancilla: int) -> Circuit:
    tail = CircuitBuilder(circuit.qubit_count, circuit.data_qubits).h(ancilla).reset(ancilla)
    return compose(circuit, tail.build())


def test_oracle_cnz_n1_is_cz():
    assert np.abs(oracle_cnz(1) - np.diag([1, 1, 1, -1])).max() == 0


def test_oracle_cnz_n3_single_minus_one():
    u = oracle_cnz(3)
    assert u.shape == (16, 16)
    diag = np.diag(u)
    assert diag[15] == -1
    assert (diag[:15] == 1).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_cnz_is_involution(n):
    u = oracle_cnz(n)
    assert np.abs(u @ u - np.eye(u.shape[0])).max() == 0


def test_oracle_cnz_rejects_small_n():
    with pytest.raises(ValueError):
        oracle_cnz(0)


def test_check_implements_empty_circuit_is_identity():
    verdict = check_implements(Circuit(2, 0, (), frozenset({0, 1})), np.eye(4))
    assert verdict.passed
    assert len(verdict.branch_reports) == 1
    report = verdict.branch_reports[0]
    assert report.outcomes == ()
    assert report.probability == pytest.approx(1.0)
    assert report.phase == pytest.approx(1.0)


def test_check_implements_detects_wrong_unitary():
    circuit = Circuit(1, 0, (Op(Gate.Z, (0,)),), frozenset({0}))
    verdict = check_implements(circuit, np.eye(2))
    assert not verdict.passed
    assert verdict.branch_reports[0].max_deviation == pytest.approx(2.0)


def test_check_implements_cccz_two_outcome_groups():
    verdict = check_implements(cccz_6t(), oracle_cnz(3))
    assert verdict.passed
    assert sorted(r.outcomes for r in verdict.branch_reports) == [(0,), (1,)]
    assert verdict.probability_total == pytest.approx(1.0, abs=1e-9)


def test_check_implements_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        check_implements(cccz_6t(), np.eye(8))


@pytest.mark.parametrize("target", [np.zeros((16, 16)), 1e-10 * np.eye(16)])
def test_check_implements_rejects_a_zero_target(target):
    # no entry to fit the phase from
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="~0"):
            check_implements(cccz_6t(), target)


@pytest.mark.parametrize("entry, value", [((5, 5), np.nan), ((2, 9), np.inf),
                                          ((15, 15), complex(0, -np.inf))])
def test_check_implements_rejects_a_non_finite_target(entry, value):
    target = oracle_cnz(3)
    target[entry] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            check_implements(cccz_6t(), target)


def test_check_implements_flags_entangled_ancilla():
    # the AND compute alone leaves the ancilla holding a AND b
    verdict = check_implements(and_compute(0, 1, 2), np.eye(4))
    assert not verdict.passed
    assert not verdict.ancilla_clean


def test_check_implements_flags_outcome_dependent_gate():
    # branch 1 applies S to the data qubit: K_1 is not proportional to I
    bld = CircuitBuilder(2, (0,))
    bld.h(1)
    m = bld.measure(1)
    bld.reset(1)
    bld.s(0, when=(m, 1))
    verdict = check_implements(bld.build(), np.eye(2))
    assert not verdict.passed
    assert verdict.ancilla_clean


def test_check_implements_accepts_measured_out_unreset_ancilla():
    # without the reset the wire ends holding the recorded outcome: still clean
    ops = tuple(op for op in cccz_6t().ops if op.gate is not Gate.RESET)
    bare = Circuit(5, 1, ops, frozenset({0, 1, 2, 3}))
    verdict = check_implements(bare, oracle_cnz(3))
    assert verdict.passed


def test_check_implements_accepts_z_and_rejects_identity_for_z():
    circuit = CircuitBuilder(1, (0,)).z(0).build()
    assert check_implements(circuit, np.diag([1, -1])).passed
    assert not check_implements(circuit, np.eye(2)).passed


def test_check_implements_composition_squares_target():
    # passing for C implies passing for C∘C against the squared target
    c = cccz_6t()
    assert check_implements(c, oracle_cnz(3)).passed
    squared = oracle_cnz(3) @ oracle_cnz(3)
    assert check_implements(compose(c, c), squared).passed


@pytest.mark.parametrize("circuit, target", [
    (CircuitBuilder(2, (0,)).h(1).reset(1).build(), np.eye(2)),
    (then_h_reset(cccz_6t(), 4), oracle_cnz(3)),
    (then_h_reset(compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2)), 2), np.eye(4)),
], ids=["alone", "after-cccz", "after-and-pair"])
def test_hidden_reset_histories_are_separate_kraus_operators(circuit, target):
    # reset of |+> is the pair |0><0|, |0><1|: two histories of weight 1/2,
    # each proportional to the target, never added coherently
    verdict = check_implements(circuit, target)
    assert verdict.passed
    assert abs(verdict.probability_total - 1.0) <= 1e-9
    measured = sum(op.gate is Gate.MEASURE for op in circuit.ops)
    assert len(verdict.branch_reports) == 2 ** measured


def test_pruned_history_that_sorts_first_is_dropped():
    # the all-zeros history, which sorts first, weighs 2 * 0.146^15 ~ 6e-13 over both inputs
    circuit = fifteen_rounds()
    verdict = check_implements(circuit, np.eye(2))
    assert verdict.passed
    assert len(verdict.branch_reports) == 2 ** 15 - 1
    assert (0,) * 15 not in {r.outcomes for r in verdict.branch_reports}
    records = run_branches(circuit, np.array([1, 0, 0, 0], dtype=complex))
    assert len(records) == 2 ** 15 - 1
    assert records[0].outcomes == (0,) * 14 + (1,)


@pytest.mark.parametrize("n, method", [(3, None)] + [
    (n, method) for n in (3, 4, 5) for method in Method])
def test_clean_history_table_skips_the_pair_sums(monkeypatch, n, method):
    # every entry of a passing ladder lies inside the ancilla pattern and at or above
    # PRUNE_THRESHOLD, so the one cumsum numbers the histories and no leak sum runs
    circuit = cccz_6t() if method is None else synth_cnz(CnZSpec(n), method)
    counting = count_numpy_calls(monkeypatch, "cumsum", "where")
    assert check_implements(circuit, oracle_cnz(n)).passed
    assert counting.calls == {"cumsum": 1, "where": 0}


def test_deleted_t_is_wrong_but_leaves_ancillas_clean():
    # op 12 of the optimized C^3Z is `tdg 4`; without it the channel is
    # wrong, yet every branch still returns the ancillas to |0>
    circuit = synth_cnz(CnZSpec(3), Method.OPTIMIZED)
    assert circuit.ops[12] == Op(Gate.TDG, (4,))
    verdict = check_implements(without_ops(circuit, 12), oracle_cnz(3))
    assert verdict.passed is False
    assert verdict.ancilla_clean is True


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), 0.0, -1.0, 1e-3, 0.5])
def test_check_implements_rejects_meaningless_tolerance(tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        check_implements(cccz_6t(), oracle_cnz(3), tolerance)


@pytest.mark.parametrize("tolerance", [1e-12, 1e-9, 1e-6, 9e-4])
def test_two_deleted_t_gates_fail_at_every_accepted_tolerance(tolerance):
    circuit = cccz_6t()
    assert [circuit.ops[i].gate for i in (1, 3)] == [Gate.T, Gate.TDG]
    assert not check_implements(without_ops(circuit, 1, 3), oracle_cnz(3), tolerance).passed
    assert check_implements(circuit, oracle_cnz(3), tolerance).passed


def measured_ancillas(qubit_count: int, measured: int) -> Circuit:
    """Data qubits 0 and 1, then ``measured`` ancillas each measured and reset."""
    bld = CircuitBuilder(qubit_count, (0, 1))
    for q in range(2, 2 + measured):
        bld.measure(q)
        bld.reset(q)
    return bld.build()


def test_key_width_limit_is_62_bits():
    # 22 register bits + 2 input label bits + 2 labels per measured ancilla
    at_limit = check_implements(measured_ancillas(22, 19), np.eye(4))
    assert at_limit.passed
    assert [r.outcomes for r in at_limit.branch_reports] == [(0,) * 19]
    with pytest.raises(SimulationError, match="62-bit"):
        check_implements(measured_ancillas(22, 20), np.eye(4))


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("n", [7, 8])
def test_ladders_verify_at_n7_and_n8(n, method):
    circuit = synth_cnz(CnZSpec(n), method)
    t_count = sum(op.gate in NON_CLIFFORD for op in circuit.ops)
    assert t_count == (4 * n - 4 if method is Method.BASELINE else 4 * n - 6)
    verdict = check_implements(circuit, oracle_cnz(n))
    assert verdict.passed
    assert verdict.ancilla_clean
    measurements = sum(op.gate is Gate.MEASURE for op in circuit.ops)
    assert len(verdict.branch_reports) == 2 ** measurements


def test_phase_identity_holds():
    assert check_phase_identity()


def test_phase_identity_spot_cases():
    # (1,1,0,0): i^1 == i * 1 * 1
    assert 1j ** 1 == (1j ** 1) * (1j ** 0) * ((-1) ** 0)
    # (1,1,1,1): i^0 == i * i * (-1), the sign term firing
    assert 1j ** 0 == (1j ** 1) * (1j ** 1) * ((-1) ** 1)
