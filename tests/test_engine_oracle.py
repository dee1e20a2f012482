"""Differential tests: the sparse branch engine against the dense oracle.

``dense_oracle`` is the dense statevector kernel and branch walk the
simulator used before; both must give the same records in the same order.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from cnzsynth import (
    Circuit,
    CnZSpec,
    Gate,
    Method,
    Op,
    and_compute,
    and_uncompute,
    cccz_6t,
    compose,
    parse_quirk_url,
    run_branches,
    synth_cnz,
    unitary_of,
    validate,
)
from quirk_fixtures import REFERENCE_QUIRK_CCCZ_URL

TOL = 1e-12


def named_circuits() -> list:
    out = [
        pytest.param(cccz_6t(), id="cccz"),
        pytest.param(and_compute(0, 1, 2), id="and-compute"),
        pytest.param(and_uncompute(0, 1, 2), id="and-uncompute"),
        pytest.param(compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2)), id="and-pair"),
        pytest.param(parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL), id="quirk-fixture"),
    ]
    for n in range(2, 6):
        for method in Method:
            if method is Method.OPTIMIZED and n < 3:
                continue
            out.append(pytest.param(synth_cnz(CnZSpec(n), method), id=f"cnz{n}-{method.value}"))
    return out


def data_inputs(circuit: Circuit):
    """Every data-register basis state, ancillas in |0>, as a full-register vector."""
    data = sorted(circuit.data_qubits)
    for x in range(1 << len(data)):
        state = np.zeros(1 << circuit.qubit_count, dtype=complex)
        state[sum(((x >> j) & 1) << q for j, q in enumerate(data))] = 1.0
        yield state


def assert_same_records(circuit: Circuit, state: np.ndarray) -> None:
    got = run_branches(circuit, state)
    want = dense_oracle.run_branches(circuit, state)
    assert [r.outcomes for r in got] == [r.outcomes for r in want]
    for g, w in zip(got, want):
        assert abs(g.probability - w.probability) <= TOL
        assert isinstance(g.final_state, np.ndarray)
        assert np.abs(g.final_state - w.final_state).max() <= TOL


@pytest.mark.parametrize("circuit", named_circuits())
def test_run_branches_matches_dense_oracle_on_every_basis_input(circuit):
    for state in data_inputs(circuit):
        assert_same_records(circuit, state)


@pytest.mark.parametrize("circuit", [
    and_compute(0, 1, 2),
    Circuit(3, 0, tuple(Op(g, (0,) if g.arity == 1 else (0, 2))
                        for g in Gate if g.is_unitary), frozenset({0, 1, 2})),
], ids=["and-compute", "alphabet"])
def test_unitary_of_matches_dense_oracle(circuit):
    assert np.abs(unitary_of(circuit) - dense_oracle.unitary_of(circuit)).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(
    gate=st.sampled_from([g for g in Gate if g.is_unitary]),
    qubits=st.permutations(range(3)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_matches_dense_oracle(gate, qubits, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    op = Op(gate, tuple(qubits[:gate.arity]))
    [branch] = run_branches(Circuit(3, 0, (op,), frozenset(range(3))), state)
    got = np.sqrt(branch.probability) * branch.final_state
    assert np.abs(got - dense_oracle.apply(state, op)).max() <= TOL


@st.composite
def feedback_circuits(draw) -> Circuit:
    """A valid circuit of at most 4 qubits over the whole alphabet, with
    mid-circuit measurement, reset and classical conditions."""
    n = draw(st.integers(min_value=1, max_value=4))
    data = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    kinds = [g for g in Gate if g.arity == 1 or n >= 2]
    ops: list[Op] = []
    bits = 0
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        gate = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:gate.arity])
        if gate is Gate.MEASURE:
            ops.append(Op(gate, qubits, bits))
            bits += 1
            continue
        condition = None
        if bits and draw(st.booleans()):
            condition = (draw(st.integers(min_value=0, max_value=bits - 1)),
                         draw(st.integers(min_value=0, max_value=1)))
        ops.append(Op(gate, qubits, None, condition))
    # a measured data qubit must be reset before the circuit ends
    ops += [Op(Gate.RESET, (q,)) for q in sorted(data)]
    circuit = Circuit(n, bits, tuple(ops), frozenset(data))
    assert validate(circuit) == []
    return circuit


def superposed(circuit: Circuit, seed: int) -> np.ndarray:
    """A random superposition over the data qubits, ancillas in |0>."""
    rng = np.random.default_rng(seed)
    state = np.zeros(1 << circuit.qubit_count, dtype=complex)
    for basis in data_inputs(circuit):
        state += (rng.normal() + 1j * rng.normal()) * basis
    return state / np.linalg.norm(state)


@settings(max_examples=200, deadline=None)
@given(circuit=feedback_circuits(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_run_branches_matches_dense_oracle_on_random_circuits(circuit, seed):
    assert_same_records(circuit, superposed(circuit, seed))
