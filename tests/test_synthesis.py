"""Tests for the circuit constructors: 6-T CCCZ, temporary AND, C^nZ ladders."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cnzsynth import (
    CnZSpec,
    Gate,
    Method,
    and_compute,
    and_uncompute,
    cccz_6t,
    check_implements,
    compose,
    count,
    emit_text,
    oracle_cnz,
    synth_cnz,
    unitary_of,
    validate,
)


def test_cccz_structure():
    circuit = cccz_6t()
    assert validate(circuit) == []
    rc = count(circuit)
    assert rc.t == 6
    assert rc.measurements == 1
    assert rc.ancillas == 1
    assert rc.conditioned_gates == 2


def test_cccz_fixups_condition_on_the_measured_bit():
    circuit = cccz_6t()
    conditioned = [op for op in circuit.ops if op.condition is not None]
    assert [(op.gate, op.qubits, op.condition) for op in conditioned] == [
        (Gate.CZ, (2, 3), (0, 0)),
        (Gate.CZ, (0, 1), (0, 1)),
    ]


def test_cccz_measurement_preceded_by_sqrt_x_dagger():
    ops = cccz_6t().ops
    at = next(i for i, op in enumerate(ops) if op.gate is Gate.MEASURE)
    assert ops[at - 1].gate is Gate.SXDG
    assert ops[at - 1].qubits == ops[at].qubits


def test_cccz_implements_the_target():
    verdict = check_implements(cccz_6t(), oracle_cnz(3))
    assert verdict.passed
    assert len(verdict.branch_reports) == 2


def and_isometry() -> np.ndarray:
    """|a,b> -> |a,b,a AND b| as an 8x4 matrix, built by basis enumeration."""
    iso = np.zeros((8, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            iso[a + 2 * b + 4 * (a & b), a + 2 * b] = 1
    return iso


def test_and_compute_is_exact_isometry():
    u = unitary_of(and_compute(0, 1, 2))
    assert np.abs(u[:, :4] - and_isometry()).max() < 1e-9


def test_and_compute_t_budget():
    assert count(and_compute(0, 1, 2)).t <= 4


def test_and_compute_basis_cases():
    u = unitary_of(and_compute(0, 1, 2))
    assert abs(u[0b111, 0b011] - 1) < 1e-9  # |1,1,0> -> |1,1,1>
    assert abs(u[0b010, 0b010] - 1) < 1e-9  # |0,1,0> -> |0,1,0>


def test_and_gadgets_reject_repeated_operands():
    with pytest.raises(ValueError, match="distinct"):
        and_compute(0, 0, 1)
    with pytest.raises(ValueError, match="distinct"):
        and_uncompute(0, 1, 1)


def test_and_uncompute_is_free_of_t_gates():
    assert count(and_uncompute(0, 1, 2)).t == 0


def test_and_pair_is_identity_channel():
    pair = compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2))
    verdict = check_implements(pair, np.eye(4))
    assert verdict.passed
    assert verdict.probability_total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(3, 7))
def test_cnz_t_counts(n):
    assert count(synth_cnz(CnZSpec(n), Method.OPTIMIZED)).t == 4 * n - 6
    assert count(synth_cnz(CnZSpec(n), Method.BASELINE)).t == 4 * n - 4


def test_cnz_baseline_n2_is_a_four_t_toffoli_equivalent():
    circuit = synth_cnz(CnZSpec(2), Method.BASELINE)
    assert count(circuit).t == 4
    assert check_implements(circuit, oracle_cnz(2)).passed


@pytest.mark.parametrize("n,method", [(2, Method.BASELINE),
                                      (3, Method.BASELINE), (3, Method.OPTIMIZED),
                                      (4, Method.BASELINE), (4, Method.OPTIMIZED)])
def test_cnz_channels(n, method):
    verdict = check_implements(synth_cnz(CnZSpec(n), method), oracle_cnz(n))
    assert verdict.passed


def test_cnz_optimized_measurement_count():
    for n in range(3, 7):
        circuit = synth_cnz(CnZSpec(n), Method.OPTIMIZED)
        assert count(circuit).measurements == n - 2


def test_cnz_ancilla_layout():
    # ancillas appended after the n+1 data qubits, chain then core
    for n in range(3, 7):
        opt = synth_cnz(CnZSpec(n), Method.OPTIMIZED)
        assert opt.data_qubits == frozenset(range(n + 1))
        assert opt.ancilla_qubits == frozenset(range(n + 1, 2 * n - 1))
        base = synth_cnz(CnZSpec(n), Method.BASELINE)
        assert base.ancilla_qubits == frozenset(range(n + 1, 2 * n))


def test_cnz_rejects_invalid_requests():
    with pytest.raises(ValueError, match="n >= 2"):
        CnZSpec(1)
    with pytest.raises(ValueError, match="optimized requires n >= 3"):
        synth_cnz(CnZSpec(2), Method.OPTIMIZED)
    # the baseline ladder takes 2n qubits and the register at most 2^16: refused before it is built
    assert CnZSpec(32768).n == 32768
    with pytest.raises(ValueError) as raised:
        CnZSpec(32769)
    assert str(raised.value) == "C^nZ synthesis allows at most 32768 controls, got n=32769"


def test_cnz_optimized_n3_is_the_cccz():
    assert synth_cnz(CnZSpec(3), Method.OPTIMIZED) == cccz_6t()


#: SHA-256 of ``emit_text`` of each ladder, as first synthesized; n = 3 optimized is the 6-T CCCZ.
LADDER_DIGESTS = {
    (2, "baseline"): "4b5fae18ce00c84471a3e180302a62d92cdab75ca9a4a055670e6e2c3fb88cf5",
    (3, "baseline"): "3b56d838d04fedace596d6e47456afd8ce213716c4e2ada4428b3453f0aea31d",
    (3, "optimized"): "4dd40469e84d76e7e953a83c0b299319d34126e3ec7f2a049680a58edf68b894",
    (4, "baseline"): "23909ad35222ecd6be8fbd46c3a28a549dd608b97762990fff5b3202acd1f6f2",
    (4, "optimized"): "85ba8365fe450f37cca73717606f27056de21912b037a275bed14f0205bcc8f1",
    (5, "baseline"): "1f342af2a551ce2a3aa029d7c1221de06f9c84ca5aba16658980fb109a1195b1",
    (5, "optimized"): "10137c470076fd66be11a86eecec80896923fb3493728e8e94484c4a9936b7ed",
    (6, "baseline"): "25297ef41ea5eddb3cb8509bef26b28cc1fae04c3ff968700bbaad0ae1ea9e9f",
    (6, "optimized"): "3c15c5e638dda9b528c9c28c8dbfc21ad46af92370b6db8ee8c3a32c5fe93bfc",
    (7, "baseline"): "d9735692345d0c9c7690eee9eb01262f3cf34eae2f5fd36be6f0b2e976243d28",
    (7, "optimized"): "52329debc2bd52d19145ab56c24f8f02866579b6d21b856b09be8f7cdeefeb4d",
    (8, "baseline"): "19472cb5d0d37e8f849881876472479d0ab0b96dbc32a167f933e96e712db4f0",
    (8, "optimized"): "288669d67459b5e2e1989b4be688464b2910f2d7fd6f7b46709649d5b1b1498e",
}


@pytest.mark.parametrize("n, method", sorted(LADDER_DIGESTS))
def test_ladder_ops_are_pinned(n, method):
    # the exact op sequence, not just its counts or channel
    circuit = synth_cnz(CnZSpec(n), Method(method))
    assert hashlib.sha256(emit_text(circuit).encode()).hexdigest() == LADDER_DIGESTS[n, method]


def test_cccz_ops_are_pinned():
    assert hashlib.sha256(emit_text(cccz_6t()).encode()).hexdigest() == LADDER_DIGESTS[3, "optimized"]
