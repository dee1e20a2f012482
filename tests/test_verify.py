"""Tests for the channel checker and its brute-force oracles."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from cnzsynth import (
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
    remap_qubits,
    run_branches,
    synth_cnz,
)
from cnzsynth import simulator
from cnzsynth.circuit import NON_CLIFFORD
from test_simulator import count_numpy_calls, fifteen_rounds, five_rounds


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


@pytest.mark.parametrize("first, second", [(np.inf, np.nan), (np.nan, np.inf),
                                           (complex(0, -np.inf), complex(np.nan, 1))])
def test_non_finite_target_raises_whatever_comes_first(first, second):
    # argmax over the magnitudes stops at a NaN even after an infinity
    target = oracle_cnz(3)
    target[0, 3], target[7, 1] = first, second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as raised:
            check_implements(cccz_6t(), target)
    assert str(raised.value) == "target entries must be finite"


def test_tied_largest_entries_take_the_phase_from_the_first_in_row_major_order():
    first, last = oracle_cnz(3), oracle_cnz(3)
    first[0, 0], last[15, 15] = 1j, -1j  # every nonzero still has magnitude 1
    assert [r.phase for r in check_implements(cccz_6t(), first).branch_reports] == [-1j, -1j]
    assert [r.phase for r in check_implements(cccz_6t(), last).branch_reports] == [1, 1]


@pytest.mark.parametrize("entry, deviation", [
    (-0.0, 0.0), (complex(-0.0, -0.0), 0.0), (5e-324, 5e-324), (complex(0, 1e-310), 1e-310),
], ids=["negative-zero", "complex-negative-zero", "smallest-subnormal", "imaginary-subnormal"])
def test_signed_zero_is_no_target_entry_and_a_subnormal_is_one(entry, deviation):
    # the empty circuit lacks every off-diagonal nonzero, so its deviation is that entry's size
    target = np.eye(4, dtype=complex)
    target[0, 1] = entry
    verdict = check_implements(Circuit(2, 0, (), frozenset({0, 1})), target)
    assert verdict.passed
    assert [(r.phase, r.max_deviation) for r in verdict.branch_reports] == [(1, deviation)]


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


def test_history_within_tolerance_of_zero_fits_no_phase():
    # three rounds that each measure the ancilla as 0 with probability ~0.00314: the
    # all-zeros history's entries, ~1.8e-4, outweigh the prune threshold but lie within
    # the tolerance, so K_h ~ 0: c_h = 0, and its deviation is its largest entry
    bld = CircuitBuilder(2, (0,))
    for _ in range(3):
        for gate in "hththtthththttththth":
            getattr(bld, gate)(1)
        bld.measure(1)
        bld.reset(1)
    verdict = check_implements(bld.build(), np.eye(2), tolerance=5e-4)
    zero = verdict.branch_reports[0]
    assert (zero.outcomes, zero.probability, zero.phase) == ((0, 0, 0), 0.0, 1 + 0j)
    assert 1e-4 < zero.max_deviation < 5e-4
    assert verdict.passed


def test_check_implements_accepts_measured_out_unreset_ancilla():
    # without the reset the wire ends holding the recorded outcome: still clean
    ops = tuple(op for op in cccz_6t().ops if op.gate is not Gate.RESET)
    bare = Circuit(5, 1, ops, frozenset({0, 1, 2, 3}))
    verdict = check_implements(bare, oracle_cnz(3))
    assert verdict.passed


def test_measured_out_ancilla_on_wire_0_is_clean():
    # data on wires 1..4: the verifier renumbers them to 0..3 and the ancilla to 4,
    # and the measured-out mask must name the renumbered wire
    ops = tuple(op for op in cccz_6t().ops if op.gate is not Gate.RESET)
    bare = remap_qubits(Circuit(5, 1, ops, frozenset({0, 1, 2, 3})), {0: 4, 4: 0})
    assert bare.data_qubits == {1, 2, 3, 4}
    verdict = check_implements(bare, oracle_cnz(3))
    assert verdict.passed
    assert verdict.ancilla_clean


@pytest.mark.parametrize("ancilla", [0, 1])
def test_ancilla_used_after_its_measurement_is_not_clean(ancilla):
    # its last op is a CX it controls, not the measurement: no reset follows, and
    # it still holds its outcome, 1 in half of the branches
    data = 1 - ancilla
    bld = CircuitBuilder(2, (data,))
    bld.h(ancilla)
    bld.measure(ancilla)
    bld.cx(ancilla, data)
    verdict = check_implements(bld.build(), np.eye(2))
    assert verdict.ancilla_clean is False
    assert verdict.passed is False


@pytest.mark.parametrize("circuit, message", [
    (Circuit(3, 0, (Op(Gate.H, (5,)),), frozenset({1})), "op 0: qubit 5 out of range"),
    (Circuit(3, 0, (), frozenset({1, 7})), "circuit: data qubit 7 out of range"),
    (Circuit(3, 1, (Op(Gate.X, (0,), None, (0, 1)), Op(Gate.MEASURE, (2,), 0)), frozenset({1})),
     "op 0: condition on bit 0 precedes its write"),
    (Circuit(3, 1, (Op(Gate.MEASURE, (2,), 0),), frozenset({2})),
     "circuit: data qubit 2 is measured and never reset"),
], ids=["operand-out-of-range", "data-qubit-out-of-range", "condition-before-write",
        "measured-data-qubit"])
def test_invalid_circuit_with_data_off_the_low_wires_keeps_its_error(circuit, message):
    # the verifier renumbers data wires onto 0..d-1 only once the circuit is valid,
    # so the error names the caller's own qubits
    with pytest.raises(SimulationError) as raised:
        check_implements(circuit, np.eye(1 << len(circuit.data_qubits)))
    assert str(raised.value) == "invalid circuit: " + message


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


def test_history_whose_every_pair_is_dead_is_dropped():
    # the all-zeros history weighs ~3e-13 on each of 4 inputs, 1.2e-12 in all; a walk
    # from each input drops it, so it gets no report, not one of probability 0
    verdict = check_implements(five_rounds(2), np.eye(4))
    assert verdict.passed
    assert len(verdict.branch_reports) == 31
    assert (0,) * 5 not in {r.outcomes for r in verdict.branch_reports}


@pytest.mark.parametrize("n, method", [(3, None)] + [
    (n, method) for n in (3, 4, 5) for method in Method])
def test_clean_history_table_skips_the_pair_sums(monkeypatch, n, method):
    # every entry of a passing ladder lies at or above PRUNE_THRESHOLD and inside the
    # ancilla pattern, so histories prunes no pair, its one cumsum numbers the
    # histories, and the verdict runs no leak sum
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


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("n", range(3, 9))
def test_probability_total_is_correctly_rounded(n, method):
    verdict = check_implements(synth_cnz(CnZSpec(n), method), oracle_cnz(n))
    assert verdict.probability_total == math.fsum(r.probability for r in verdict.branch_reports)


def test_probability_total_does_not_depend_on_the_interpreter():
    # a left-to-right float sum of these 8 reports gives 0.9999999999999984, as
    # sum() does before Python 3.12; from 3.12 on sum() compensates
    verdict = check_implements(synth_cnz(CnZSpec(4), Method.BASELINE), oracle_cnz(4))
    assert repr(verdict.probability_total) == "0.9999999999999986"


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
    """Data qubits 0 and 1, then ``measured`` ancillas each measured, flipped
    and reset: the flip keeps the reset from echoing the measurement."""
    bld = CircuitBuilder(qubit_count, (0, 1))
    for q in range(2, 2 + measured):
        bld.measure(q)
        bld.x(q)
        bld.reset(q)
    return bld.build()


def test_key_width_limit_is_62_bits():
    # 22 register bits + 2 input label bits + 2 labels per measured ancilla
    at_limit = check_implements(measured_ancillas(22, 19), np.eye(4))
    assert at_limit.passed
    assert [r.outcomes for r in at_limit.branch_reports] == [(0,) * 19]
    with pytest.raises(SimulationError, match="62-bit"):
        check_implements(measured_ancillas(22, 20), np.eye(4))


@pytest.mark.parametrize("n, bits, with_echoes", [(12, 48, 59), (13, 52, 64)])
def test_echo_resets_take_no_key_bits(n, bits, with_echoes):
    # register + input label bits + one label per ancilla measurement; each
    # ancilla's reset echoes its measurement. Counted without simulating.
    circuit = synth_cnz(CnZSpec(n), Method.BASELINE)
    base = circuit.qubit_count + len(circuit.data_qubits)
    labels, _ = simulator.require_key_room(circuit, len(circuit.data_qubits))
    events = sum(not op.gate.is_unitary for op in circuit.ops)
    assert (base + len(labels), base + events) == (bits, with_echoes)


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
