"""Tests of the benchmark's own parts: the reference verdict, the mutant generator and the tracer.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import numpy as np
import pytest

import cnzsynth as cs
import mutants
from reference import reference_verdict
from tracing import Tracer


def test_cccz_passes():
    verdict = reference_verdict(cs.cccz_6t(), mutants.cnz_target(3))
    assert verdict.passed
    assert verdict.histories == 2
    assert abs(verdict.probability_total - 1.0) <= 1e-12


def test_cccz_with_one_t_deleted_fails():
    circuit = cs.cccz_6t()
    t_sites = [i for i, op in enumerate(circuit.ops) if op.gate in (cs.Gate.T, cs.Gate.TDG)]
    assert len(t_sites) == 6
    for i in t_sites:
        ops = circuit.ops[:i] + circuit.ops[i + 1:]
        mutant = cs.Circuit(circuit.qubit_count, circuit.bit_count, ops, circuit.data_qubits)
        assert not reference_verdict(mutant, mutants.cnz_target(3)).passed, i


def test_hidden_reset_on_clean_ancilla_is_the_identity():
    circuit = cs.CircuitBuilder(2, (0,)).h(1).reset(1).build()
    verdict = reference_verdict(circuit, np.eye(2))
    assert verdict.passed
    assert verdict.histories == 2
    assert abs(verdict.probability_total - 1.0) <= 1e-12


def test_dirty_ancilla_fails():
    circuit = cs.CircuitBuilder(2, (0,)).cx(0, 1).build()
    verdict = reference_verdict(circuit, np.eye(2))
    assert not verdict.passed
    assert not verdict.ancilla_clean


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agrees_with_check_implements_outside_the_known_fault(seed):
    cases, _ = mutants.all_cases(cs, seed)
    for case in cases:
        reference = reference_verdict(case.circuit, case.target)
        if case.known_fault:
            assert reference.passed, case.label
            continue
        program = cs.check_implements(case.circuit, case.target)
        assert program.passed == reference.passed, case.label


def test_mutants_are_seeded_valid_and_fixed_in_number():
    first, _ = mutants.all_cases(cs, 7)
    again, _ = mutants.all_cases(cs, 7)
    other, _ = mutants.all_cases(cs, 8)
    assert [c.circuit for c in first] == [c.circuit for c in again]
    assert [c.circuit for c in first] != [c.circuit for c in other]
    assert len(first) == len(other) == 110
    assert all(not cs.validate(c.circuit) for c in first)
    for kind in mutants.KINDS:
        assert sum(c.kind == kind for c in first) == 18


def test_tracer_counts_calls_and_restores_the_program():
    original = cs.verify.run_branches
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("pass"):
            cs.check_implements(cs.cccz_6t(), mutants.cnz_target(3))
    finally:
        tracer.uninstall()
    assert cs.verify.run_branches is original
    assert cs.simulator.validate is cs.circuit.validate
    rows = tracer.summarize()["pass"]
    assert rows["verify.check_implements"]["calls"] == 1
    assert rows["verify.check_implements"]["groups"] == 2
    assert rows["simulator.run_branches"]["calls"] == 16
    assert rows["circuit.validate"]["calls"] == 16
    assert rows["verify.check_implements"]["self_s"] < rows["verify.check_implements"]["s"]
