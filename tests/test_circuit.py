"""Tests for the circuit IR: validation, composition, remapping."""
from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from cnzsynth import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    CodecError,
    Gate,
    Op,
    SimulationError,
    Violation,
    cccz_6t,
    check_implements,
    compose,
    count,
    emit_text,
    export_quirk_url,
    remap_qubits,
    run_branches,
    unitary_of,
    validate,
)


def empty(qubit_count: int = 0, data=()) -> Circuit:
    return Circuit(qubit_count, 0, (), frozenset(data))


def test_gate_arity_and_unitarity_table():
    table = {
        "h": (1, True), "x": (1, True), "z": (1, True), "s": (1, True), "sdg": (1, True),
        "t": (1, True), "tdg": (1, True), "sx": (1, True), "sxdg": (1, True),
        "cx": (2, True), "cz": (2, True), "m": (1, False), "reset": (1, False),
    }
    assert {g.value: (g.arity, g.is_unitary) for g in Gate} == table


def test_validate_empty_circuit():
    assert validate(empty()) == []


def test_validate_accepts_synthesized_circuit():
    assert validate(cccz_6t()) == []


def test_validate_identical_cx_operands():
    circuit = Circuit(2, 0, (Op(Gate.CX, (0, 0)),), frozenset({0, 1}))
    violations = validate(circuit)
    assert len(violations) == 1
    assert violations[0].op_index == 0
    assert "identical operands" in violations[0].message


def test_validate_condition_precedes_write():
    ops = (
        Op(Gate.CZ, (0, 1), None, (0, 1)),
        Op(Gate.MEASURE, (2,), 0),
    )
    circuit = Circuit(3, 1, ops, frozenset({0, 1}))
    messages = [v.message for v in validate(circuit)]
    assert any("precedes its write" in m for m in messages)


def test_validate_out_of_range_operand():
    circuit = Circuit(1, 0, (Op(Gate.H, (3,)),), frozenset({0}))
    assert any("out of range" in v.message for v in validate(circuit))


def test_validate_double_written_bit():
    ops = (Op(Gate.MEASURE, (0,), 0), Op(Gate.MEASURE, (1,), 0))
    circuit = Circuit(2, 1, ops, frozenset())
    assert any("already written" in v.message for v in validate(circuit))


def test_validate_condition_on_measurement():
    ops = (Op(Gate.MEASURE, (0,), 0), Op(Gate.MEASURE, (1,), 1, (0, 1)))
    circuit = Circuit(2, 2, ops, frozenset())
    assert any("condition on a measurement" in v.message for v in validate(circuit))


def test_validate_measured_data_qubit_needs_reset():
    bare = Circuit(1, 1, (Op(Gate.MEASURE, (0,), 0),), frozenset({0}))
    assert any("never reset" in v.message for v in validate(bare))
    fixed = Circuit(
        1, 1, (Op(Gate.MEASURE, (0,), 0), Op(Gate.RESET, (0,))), frozenset({0}))
    assert validate(fixed) == []


@pytest.mark.parametrize("circuit, violation", [
    (Circuit(-1, 0, (), frozenset()), Violation(None, "negative qubit count")),
    (Circuit(1, -1, (), frozenset()), Violation(None, "negative bit count")),
    (empty(2, (0, 2)), Violation(None, "data qubit 2 out of range")),
    (Circuit(2, 0, (Op(Gate.CX, (0,)),), frozenset({0, 1})),
     Violation(0, "cx expects 2 operand(s), got 1")),
    (Circuit(1, 1, (Op(Gate.MEASURE, (0,)),), frozenset()),
     Violation(0, "measurement without a destination bit")),
    (Circuit(1, 1, (Op(Gate.MEASURE, (0,), 3),), frozenset()), Violation(0, "bit 3 out of range")),
    (Circuit(1, 1, (Op(Gate.H, (0,), 0),), frozenset({0})),
     Violation(0, "destination bit on a non-measurement gate")),
    (Circuit(2, 1, (Op(Gate.MEASURE, (1,), 0), Op(Gate.X, (0,), None, (0, 2))), frozenset({0})),
     Violation(1, "condition value 2 not in {0,1}")),
    (Circuit(1, 1, (Op(Gate.X, (0,), None, (5, 1)),), frozenset({0})),
     Violation(0, "condition bit 5 out of range")),
], ids=["negative-qubits", "negative-bits", "data-out-of-range", "arity", "measure-without-bit",
        "measure-bit-out-of-range", "bit-on-non-measurement", "condition-value",
        "condition-bit-out-of-range"])
def test_validate_reports_each_violation(circuit, violation):
    assert validate(circuit) == [violation]


def test_validate_bounds_the_register_at_2_to_the_16():
    assert validate(empty(1 << 16)) == []
    assert validate(empty((1 << 16) + 1)) == [Violation(None, "qubit count 65537 exceeds 65536")]


WIDE = Circuit(400000000, 0, (), frozenset({5}))


@pytest.mark.parametrize("call, error", [
    (lambda: run_branches(WIDE, np.ones(1)), SimulationError),
    (lambda: unitary_of(WIDE), SimulationError),
    (lambda: check_implements(WIDE, np.eye(2)), SimulationError),
    (lambda: count(WIDE), ValueError),
    (lambda: emit_text(WIDE), CodecError),
    (lambda: export_quirk_url(WIDE), CodecError),
], ids=["run_branches", "unitary_of", "check_implements", "count", "emit_text", "export_quirk_url"])
def test_register_above_the_bound_is_rejected_before_anything_is_sized(call, error):
    # a Python-built circuit meets the same bound as a text header, before any register-sized work
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(error) as raised:
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(raised.value) is error
    assert str(raised.value) == "invalid circuit: circuit: qubit count 400000000 exceeds 65536"
    assert elapsed < 0.25 and peak < 1 << 20


def test_validate_measured_ancilla_without_reset_is_fine():
    circuit = Circuit(1, 1, (Op(Gate.MEASURE, (0,), 0),), frozenset())
    assert validate(circuit) == []


def test_ancilla_qubits_complement_data():
    circuit = cccz_6t()
    assert circuit.data_qubits == frozenset({0, 1, 2, 3})
    assert circuit.ancilla_qubits == frozenset({4})


def test_compose_with_empty_is_identity():
    c = cccz_6t()
    blank = Circuit(5, 0, (), c.data_qubits)
    assert compose(blank, c) == c
    assert compose(c, blank) == c


def test_compose_shifts_bits_of_second():
    first = cccz_6t()
    combined = compose(first, first)
    assert combined.bit_count == 2
    measures = [op for op in combined.ops if op.gate is Gate.MEASURE]
    assert [op.bit for op in measures] == [0, 1]
    conditions = [op.condition for op in combined.ops if op.condition is not None]
    assert conditions == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_compose_rejects_mismatched_qubit_counts():
    with pytest.raises(CircuitError, match="mismatched qubit counts"):
        compose(empty(2, {0, 1}), empty(3, {0, 1}))


def test_compose_rejects_conflicting_designation():
    with pytest.raises(CircuitError, match="designation"):
        compose(empty(2, {0}), empty(2, {1}))


def test_compose_is_associative():
    bld = CircuitBuilder(2, (0,))
    bld.h(0)
    bld.measure(1)
    bld.reset(1)
    a = bld.build()
    left = compose(compose(a, a), a)
    right = compose(a, compose(a, a))
    assert left == right


def test_builder_sdg_appends_sdg_plain_and_conditioned():
    bld = CircuitBuilder(2, (0,))
    bld.measure(1)
    circuit = bld.sdg(0).sdg(0, when=(0, 1)).build()
    assert circuit.ops[1:] == (Op(Gate.SDG, (0,)), Op(Gate.SDG, (0,), None, (0, 1)))
    assert validate(circuit) == []


def test_remap_qubits_permutes_operands_and_designation():
    swapped = remap_qubits(cccz_6t(), {0: 3, 3: 0})
    assert swapped.data_qubits == frozenset({0, 1, 2, 3})
    assert swapped.ops[4].qubits == (3, 4)  # the CX formerly controlled by 0


def test_remap_qubits_rejects_non_bijection():
    with pytest.raises(CircuitError, match="bijection"):
        remap_qubits(cccz_6t(), {0: 1})
    with pytest.raises(CircuitError, match="bijection"):  # keys outside the register
        remap_qubits(cccz_6t(), {7: 7, -1: 3})
