"""Tests for gate matrices, state evolution, and measurement branching."""
from __future__ import annotations

import time
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnzsynth import (
    Circuit,
    CircuitBuilder,
    CnZSpec,
    CodecError,
    Gate,
    Method,
    Op,
    SimulationError,
    cccz_6t,
    check_implements,
    count,
    emit_text,
    export_quirk_url,
    oracle_cnz,
    run_branches,
    synth_cnz,
    unitary_of,
)
from cnzsynth import simulator
from cnzsynth.simulator import histories, require_key_room

UNITARY_GATES = [g for g in Gate if g.is_unitary]


def basis(qubit_count: int, index: int) -> np.ndarray:
    state = np.zeros(1 << qubit_count, dtype=complex)
    state[index] = 1.0
    return state


def one_op(gate: Gate, qubits: tuple[int, ...], qubit_count: int) -> Circuit:
    return Circuit(qubit_count, 0, (Op(gate, qubits),), frozenset(range(qubit_count)))


def matrix(gate: Gate, qubits: tuple[int, ...] | None = None, qubit_count: int | None = None):
    """Unitary of ``gate`` alone, by default on its own one or two wires."""
    qubits = tuple(range(gate.arity)) if qubits is None else qubits
    return unitary_of(one_op(gate, qubits, qubit_count or gate.arity))


@pytest.mark.parametrize("gate", UNITARY_GATES)
def test_gate_matrices_are_unitary(gate):
    for placement in permutations(range(3), gate.arity):
        u = matrix(gate, placement, 3)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12


def test_t_squared_is_s():
    t = matrix(Gate.T)
    assert np.abs(t @ t - matrix(Gate.S)).max() < 1e-12
    assert abs((t @ t)[1, 1] - 1j) < 1e-12


def test_sqrt_x_dagger_squared_is_x():
    sxdg = matrix(Gate.SXDG)
    assert np.abs(sxdg @ sxdg - matrix(Gate.X)).max() < 1e-12


def test_sqrt_x_convention_matches_h_conjugation():
    h, s, sdg = matrix(Gate.H), matrix(Gate.S), matrix(Gate.SDG)
    assert np.abs(matrix(Gate.SX) - h @ s @ h).max() < 1e-12
    assert np.abs(matrix(Gate.SXDG) - h @ sdg @ h).max() < 1e-12


def test_h_is_self_inverse():
    h = matrix(Gate.H)
    assert np.abs(h @ h - np.eye(2)).max() < 1e-12


def test_apply_hadamard_on_qubit_zero():
    state = matrix(Gate.H, (0,), 4) @ basis(4, 0)
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[1] = 1 / np.sqrt(2)  # qubit 0 is the low bit
    assert np.abs(state - expected).max() < 1e-12


def test_apply_cz_flips_sign_of_ones():
    state = matrix(Gate.CZ) @ basis(2, 3)
    assert abs(state[3] + 1) < 1e-12


def test_apply_cx_convention_first_operand_controls():
    cx = matrix(Gate.CX)
    assert abs((cx @ basis(2, 1))[3] - 1) < 1e-12  # control q0=1 flips q1
    assert abs((cx @ basis(2, 2))[2] - 1) < 1e-12  # control q0=0 does nothing


@settings(max_examples=60, deadline=None)
@given(
    gate=st.sampled_from(UNITARY_GATES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_preserves_norm(gate, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    qubits = (0,) if gate.arity == 1 else (0, 2)
    [branch] = run_branches(one_op(gate, qubits, 3), state)
    assert abs(branch.probability - 1.0) < 1e-9


def test_run_branches_deterministic_measurement():
    circuit = Circuit(1, 1, (Op(Gate.MEASURE, (0,), 0),), frozenset())
    branches = run_branches(circuit, basis(1, 0))
    assert len(branches) == 1
    assert branches[0].outcomes == (0,)
    assert branches[0].probability == pytest.approx(1.0)


def test_run_branches_uniform_superposition():
    bld = CircuitBuilder(1, ())
    bld.h(0)
    bld.measure(0)
    branches = run_branches(bld.build(), basis(1, 0))
    assert [b.outcomes for b in branches] == [(0,), (1,)]  # 0 explored first
    assert [b.probability for b in branches] == pytest.approx([0.5, 0.5])


def test_run_branches_probabilities_sum_to_one():
    branches = run_branches(cccz_6t(), basis(5, 0b01011))
    assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_run_branches_measurement_free_matches_unitary():
    bld = CircuitBuilder(2, (0, 1))
    bld.h(0)
    bld.cx(0, 1)
    bld.t(1)
    circuit = bld.build()
    state = basis(2, 0)
    branches = run_branches(circuit, state)
    assert len(branches) == 1
    assert branches[0].probability == pytest.approx(1.0)
    assert np.abs(branches[0].final_state - unitary_of(circuit) @ state).max() < 1e-9


def test_run_branches_rejects_dirty_ancilla_input():
    with pytest.raises(SimulationError, match="ancilla"):
        run_branches(cccz_6t(), basis(5, 0b10000))


def test_run_branches_rejects_unnormalized_input():
    with pytest.raises(SimulationError, match="normalized"):
        run_branches(cccz_6t(), 2.0 * basis(5, 0))


@pytest.mark.parametrize("state", [basis(4, 0), basis(5, 0).reshape(4, 8)], ids=["short", "2-d"])
def test_run_branches_rejects_a_state_of_the_wrong_shape(state):
    with pytest.raises(SimulationError) as raised:
        run_branches(cccz_6t(), state)
    assert str(raised.value) == f"state must have shape (32,), got {state.shape}"


def data_register(qubits: int) -> Circuit:
    return Circuit(qubits, 0, (), frozenset(range(qubits)))


def run_one(circuit: Circuit):
    return run_branches(circuit, np.ones(1))


def check_one(circuit: Circuit):
    return check_implements(circuit, np.eye(2))


KEY = "register and input label bits plus 0 measurement and reset labels exceed the 62-bit key"
WIDEST = data_register(20000)


@pytest.mark.parametrize("call, circuit, message", [
    (run_one, data_register(63), f"63 {KEY}"),
    (run_one, WIDEST, f"20000 {KEY}"),
    (unitary_of, data_register(32), f"64 {KEY}"),
    (unitary_of, data_register(63), f"126 {KEY}"),
    (unitary_of, WIDEST, f"40000 {KEY}"),
    (check_one, data_register(63), f"126 {KEY}"),
    (check_one, WIDEST, f"40000 {KEY}"),
    # an invalid circuit given a target of the wrong shape: the circuit is checked first
    (check_one, Circuit(2, 0, (Op(Gate.CX, (0, 0)),), frozenset({0, 1})), "invalid circuit: op 0: identical operands"),
], ids=["run_branches-63", "run_branches-20000", "unitary_of-32", "unitary_of-63", "unitary_of-20000",
        "check_implements-63", "check_implements-20000", "check_implements-invalid"])
def test_key_budget_is_checked_before_anything_is_sized(call, circuit, message):
    # the register plus the input labels (none, one per qubit, one per data qubit) must fit
    # one key before 2^n sizes a state or a target or formats a shape message
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SimulationError) as raised:
            call(circuit)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == message
    assert elapsed < 0.25 and peak < 1 << 20


def test_unitary_of_sizes_its_result_before_the_pass(monkeypatch):
    # 24 qubits fit the key (48 bits), but the 2^24 x 2^24 result (4 PiB) fits no
    # address space: it fails at once, not after a pass over 2^24 inputs
    passes = []
    monkeypatch.setattr(simulator, "histories", lambda *args: passes.append(args))
    start = time.perf_counter()
    with pytest.raises(MemoryError, match="4.00 PiB"):
        unitary_of(data_register(24))
    assert time.perf_counter() - start < 0.25
    assert passes == []


@pytest.mark.parametrize("index", [1, 0], ids=["beside-one", "alone"])
def test_run_branches_rejects_a_non_finite_state(index):
    # [1, nan, 0, ...] would pass the norm check, since NaN compares False
    state = basis(5, 0)
    state[index] = np.nan
    with pytest.raises(SimulationError, match="non-finite"):
        run_branches(cccz_6t(), state)


def test_run_branches_rejects_invalid_circuit():
    broken = Circuit(2, 0, (Op(Gate.CX, (0, 0)),), frozenset({0, 1}))
    with pytest.raises(SimulationError, match="invalid circuit"):
        run_branches(broken, basis(2, 0))


@pytest.mark.parametrize("call, error", [
    (lambda circuit: run_branches(circuit, np.ones(1)), SimulationError),
    (unitary_of, SimulationError),
    (lambda circuit: check_implements(circuit, np.eye(1)), SimulationError),
    (count, ValueError),
    (emit_text, CodecError),
    (export_quirk_url, CodecError),
], ids=["run_branches", "unitary_of", "check_implements", "count", "emit_text", "export_quirk_url"])
def test_negative_qubit_count_is_an_invalid_circuit(call, error):
    # each public call validates the circuit before it sizes anything by its qubit count,
    # through the one gate in circuit.py, and raises its own error class
    with pytest.raises(error) as raised:
        call(Circuit(-1, 0, (), frozenset()))
    assert type(raised.value) is error
    assert str(raised.value) == "invalid circuit: circuit: negative qubit count"


def test_reset_returns_wire_to_zero_without_recording():
    bld = CircuitBuilder(1, ())
    bld.h(0)
    bld.reset(0)
    branches = run_branches(bld.build(), basis(1, 0))
    assert all(b.outcomes == () for b in branches)
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert abs(abs(b.final_state[0]) - 1.0) < 1e-9


def fifteen_rounds() -> Circuit:
    """Fifteen rounds that each measure the ancilla as 0 with probability
    sin^2(pi/8) ~ 0.146, so the all-zeros history weighs 0.146^15 ~ 3e-13 per
    input."""
    bld = CircuitBuilder(2, (0,))
    for _ in range(15):
        bld.h(1).t(1).h(1).x(1)
        bld.measure(1)
        bld.reset(1)
    return bld.build()


def five_rounds(data: int, entangle: bool = False) -> Circuit:
    """Five rounds on ancilla wire ``data``, after ``data`` idle data wires,
    that each measure it as 0 with probability ~0.00314, so the all-zeros
    history weighs ~3e-13 on every input. With ``entangle``, a CX from wire 0
    before each measurement flips the ancilla on odd inputs, where the
    all-ones history weighs ~3e-13 instead and the all-zeros one ~0.98."""
    bld = CircuitBuilder(data + 1, tuple(range(data)))
    for _ in range(5):
        for gate in "hththtthththttththth":
            getattr(bld, gate)(data)
        if entangle:
            bld.cx(0, data)
        bld.measure(data)
        bld.reset(data)
    return bld.build()


@pytest.mark.parametrize("circuit, outcomes", [
    (cccz_6t(), [(0,), (1,)]),
    (CircuitBuilder(2, (0,)).h(1).reset(1).build(), [(), ()]),
    (fifteen_rounds(), list(product((0, 1), repeat=15))[1:]),
], ids=["cccz", "hidden-reset", "pruned"])
def test_history_table_is_sorted_and_densely_numbered(circuit, outcomes):
    x = np.arange(1 << len(circuit.data_qubits), dtype=np.int64)  # data on wires 0..d-1
    labels = require_key_room(circuit, len(circuit.data_qubits))
    history, inputs, basis_index, amps, got, starts = histories(
        circuit, len(circuit.data_qubits), x, np.ones(len(x), complex), labels)
    assert got == outcomes
    assert len(history) == len(inputs) == len(basis_index) == len(amps)
    assert (np.lexsort((basis_index, inputs, history)) == np.arange(len(history))).all()
    assert sorted(set(history.tolist())) == list(range(len(outcomes)))
    assert sorted(set(inputs.tolist())) == x.tolist()
    assert starts.tolist() == np.flatnonzero(np.diff(history, prepend=-1)).tolist()


class CountingNumpy:
    """numpy, with a count of the calls to each of the named functions."""

    def __init__(self, *names: str):
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        function = getattr(np, name)
        if name not in self.calls:
            return function

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return counted


def count_numpy_calls(monkeypatch, *names: str) -> CountingNumpy:
    """Count the branch engine's calls to the named numpy functions: the simulator
    holds the only numpy of the verify path."""
    counting = CountingNumpy(*names)
    monkeypatch.setattr(simulator, "np", counting)
    return counting


@pytest.mark.parametrize("n, method, sorts", [
    (3, None, 2),  # the 6-T CCCZ
    (3, Method.BASELINE, 5), (3, Method.OPTIMIZED, 2),
    (4, Method.BASELINE, 7), (4, Method.OPTIMIZED, 4),
    (5, Method.BASELINE, 9), (5, Method.OPTIMIZED, 6),
    (6, Method.BASELINE, 11), (6, Method.OPTIMIZED, 8),
])
def test_merging_splits_do_not_sort(monkeypatch, n, method, sorts):
    # Each opening H meets a classical ancilla (it holds 0) and splits in place.
    # Each AND's closing H (the CCCZ's closing √X†) finds its partners in the
    # aligned halves that the opening split left, and leaves the ancilla
    # classical, so the measured uncompute's H splits in place: only the final
    # history sort calls argsort. Not told that wires are classical, each
    # opening and each uncompute H sorts to learn that it has no partners:
    # ``sorts`` in all.
    circuit = cccz_6t() if method is None else synth_cnz(CnZSpec(n), method)
    counting = count_numpy_calls(monkeypatch, "argsort")
    assert check_implements(circuit, oracle_cnz(n)).passed
    assert counting.calls == {"argsort": 1}
    split = simulator._split
    monkeypatch.setattr(simulator, "_split", lambda *args: split(*args[:4], False, args[5]))
    counting.calls["argsort"] = 0
    assert check_implements(circuit, oracle_cnz(n)).passed
    assert counting.calls == {"argsort": sorts}


def test_cccz_branches_flip_all_ones_input():
    branches = run_branches(cccz_6t(), basis(5, 0b01111))
    assert len(branches) == 2
    for b in branches:
        # ancilla is reset, so the full-register index equals the data index
        assert abs(b.final_state[0b01111] + 1.0) < 1e-9


def test_cccz_branches_fix_superposed_input():
    state = np.zeros(32, dtype=complex)
    state[0b00000] = state[0b01111] = 1 / np.sqrt(2)
    for b in run_branches(cccz_6t(), state):
        ratio = b.final_state[0b01111] / b.final_state[0b00000]
        assert abs(ratio + 1.0) < 1e-9
        assert abs(abs(b.final_state[0b00000]) - 1 / np.sqrt(2)) < 1e-9


def test_cccz_leaves_other_basis_states_alone():
    branches = run_branches(cccz_6t(), basis(5, 0b00111))
    for b in branches:
        assert abs(abs(b.final_state[0b00111]) - 1.0) < 1e-9


def test_unitary_of_empty_circuit():
    assert np.abs(unitary_of(Circuit(2, 0, (), frozenset({0, 1}))) - np.eye(4)).max() == 0


def test_unitary_of_inverse_pair():
    bld = CircuitBuilder(1, (0,))
    bld.t(0)
    bld.tdg(0)
    assert np.abs(unitary_of(bld.build()) - np.eye(2)).max() < 1e-12


def test_unitary_of_rejects_measurement():
    with pytest.raises(SimulationError):
        unitary_of(Circuit(1, 1, (Op(Gate.MEASURE, (0,), 0),), frozenset()))


def test_gate_matrix_rejects_measure_and_reset():
    # The matrix of a lone gate is the unitary of its one-op circuit; the
    # non-unitary gates have none.
    assert {g for g in Gate if not g.is_unitary} == {Gate.MEASURE, Gate.RESET}
    with pytest.raises(SimulationError):
        unitary_of(Circuit(1, 1, (Op(Gate.MEASURE, (0,), 0),), frozenset()))
    with pytest.raises(SimulationError):
        unitary_of(Circuit(1, 0, (Op(Gate.RESET, (0,)),), frozenset()))
