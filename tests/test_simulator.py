"""Tests for gate matrices, state evolution, and measurement branching."""
from __future__ import annotations

from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnzsynth import (
    Circuit,
    CircuitBuilder,
    CnZSpec,
    Gate,
    Method,
    Op,
    SimulationError,
    cccz_6t,
    check_implements,
    oracle_cnz,
    run_branches,
    synth_cnz,
    unitary_of,
)
from cnzsynth import simulator, verify
from cnzsynth.simulator import basis_inputs, histories

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


def test_reset_returns_wire_to_zero_without_recording():
    bld = CircuitBuilder(1, ())
    bld.h(0)
    bld.reset(0)
    branches = run_branches(bld.build(), basis(1, 0))
    assert all(b.outcomes == () for b in branches)
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert abs(abs(b.final_state[0]) - 1.0) < 1e-9


def fifteen_rounds(entangle: bool = False) -> Circuit:
    """Fifteen rounds that each measure the ancilla as 0 with probability
    sin^2(pi/8) ~ 0.146, so the all-zeros history weighs 0.146^15 ~ 3e-13 per
    input. With ``entangle``, a CX from the data wire before each measurement
    flips the ancilla on input 1, whose all-zeros run then weighs about 0.09."""
    bld = CircuitBuilder(2, (0,))
    for _ in range(15):
        bld.h(1).t(1).h(1).x(1)
        if entangle:
            bld.cx(0, 1)
        bld.measure(1)
        bld.reset(1)
    return bld.build()


@pytest.mark.parametrize("circuit, outcomes", [
    (cccz_6t(), [(0,), (1,)]),
    (CircuitBuilder(2, (0,)).h(1).reset(1).build(), [(), ()]),
    (fifteen_rounds(), list(product((0, 1), repeat=15))[1:]),
], ids=["cccz", "hidden-reset", "pruned"])
def test_history_table_is_sorted_and_densely_numbered(circuit, outcomes):
    data = sorted(circuit.data_qubits)
    history, inputs, basis_index, amps, got, starts = histories(circuit, *basis_inputs(data))
    assert got == outcomes
    assert len(history) == len(inputs) == len(basis_index) == len(amps)
    assert (np.lexsort((basis_index, inputs, history)) == np.arange(len(history))).all()
    assert sorted(set(history.tolist())) == list(range(len(outcomes)))
    assert sorted(set(inputs.tolist())) == list(range(1 << len(data)))
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
    """Count the simulator's and the verifier's calls to the named numpy functions."""
    counting = CountingNumpy(*names)
    monkeypatch.setattr(simulator, "np", counting)
    monkeypatch.setattr(verify, "np", counting)
    return counting


@pytest.mark.parametrize("n, method, sorts", [
    (3, None, 1),  # the 6-T CCCZ
    (3, Method.BASELINE, 3), (3, Method.OPTIMIZED, 1),
    (4, Method.BASELINE, 4), (4, Method.OPTIMIZED, 2),
    (5, Method.BASELINE, 5), (5, Method.OPTIMIZED, 3),
])
def test_merging_splits_do_not_sort(monkeypatch, n, method, sorts):
    # Each AND's closing H (the CCCZ's closing √X†) finds its partners in the
    # aligned halves that the opening split left. Only the measured uncompute's
    # H, which has no partners, and the final history sort call argsort.
    circuit = cccz_6t() if method is None else synth_cnz(CnZSpec(n), method)
    counting = count_numpy_calls(monkeypatch, "argsort")
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
