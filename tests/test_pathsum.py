"""Soundness of the path-sum proof against the brute-force verdict.

Wherever ``pathsum.certify`` proves a pass, ``check_implements`` must pass with
the same outcome strings, and with each one's probability and phase within
1e-12. The inputs are every single-point mutant of ``cccz_6t`` and of both
ladders at n <= 4, a seeded random net of small circuits over the whole
alphabet, the small-scope nets of the wire-state tests, and the paper's
circuits, which must all be proved. A passing circuit
that a stuck rule leaves undecided goes to brute force.
"""
from __future__ import annotations

import random

import numpy as np
import pytest

from cnzsynth import (
    Circuit, CircuitBuilder, CnZSpec, Gate, Method, Op, and_compute, and_uncompute, cccz_6t,
    check_implements, compose, oracle_cnz, parse_quirk_url, parse_text, synth_cnz, validate)
from cnzsynth import pathsum
from cnzsynth.cli import main
from cnzsynth.pathsum import certify
from quirk_fixtures import REFERENCE_QUIRK_CCCZ_URL
from test_mutants import single_point_mutants
from test_wire_states import small_circuits, small_feedback_circuits


def cnz_term(n: int) -> dict[int, int]:
    """C^nZ as a phase polynomial: ω^(4·x0·…·xn)."""
    return {(2 << n) - 1: 4}


def proved(circuit: Circuit, term: dict[int, int], target: np.ndarray) -> bool:
    """Whether ``certify`` proves ``circuit``; if so, assert that brute force agrees."""
    proof = certify(circuit, term)
    if proof is None:
        return False
    verdict = check_implements(circuit, target)
    assert (proof.passed, proof.ancilla_clean, proof.probability_total) == (True, True, 1.0)
    assert verdict.passed
    assert [r.outcomes for r in proof.branch_reports] == [r.outcomes for r in verdict.branch_reports]
    for exact, brute in zip(proof.branch_reports, verdict.branch_reports):
        assert abs(exact.probability - brute.probability) <= 1e-12
        assert abs(exact.phase - brute.phase) <= 1e-12
        assert exact.max_deviation == 0.0
    return True


def paper_circuits() -> list:
    out = [pytest.param(cccz_6t(), 3, id="cccz"),
           pytest.param(parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL), 3, id="quirk-fixture")]
    for method in Method:
        for n in range(2 if method is Method.BASELINE else 3, 10):
            out.append(pytest.param(synth_cnz(CnZSpec(n), method), n, id=f"cnz{n}-{method.value}"))
    return out


@pytest.mark.parametrize("circuit, n", paper_circuits())
def test_the_paper_circuits_are_proved_and_match_brute_force(circuit, n):
    assert proved(circuit, cnz_term(n), oracle_cnz(n))


def identities() -> list:
    and_pair = compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2))
    return [
        pytest.param(and_pair, id="and-pair"),
        pytest.param(compose(cccz_6t(), cccz_6t()), id="cccz-twice"),
        pytest.param(CircuitBuilder(2, (0,)).h(1).reset(1).build(), id="h-reset"),
    ]


@pytest.mark.parametrize("circuit", identities())
def test_identity_channels_are_proved_against_the_empty_phase(circuit):
    # a hidden reset outcome is a variable r of its own: h 1; reset 1 has two histories
    assert proved(circuit, {}, np.eye(2 ** len(circuit.data_qubits)))


# every mutant that brute force accepts is proved: an AND's first CX or an ancilla's final reset deleted
@pytest.mark.parametrize("circuit, n, valid, accepted", [
    pytest.param(cccz_6t(), 3, 54, 1, id="cccz"),
    pytest.param(synth_cnz(CnZSpec(2), Method.BASELINE), 2, 38, 2, id="cnz2-baseline"),
    pytest.param(synth_cnz(CnZSpec(3), Method.BASELINE), 3, 109, 4, id="cnz3-baseline"),
    pytest.param(synth_cnz(CnZSpec(4), Method.BASELINE), 4, 214, 6, id="cnz4-baseline"),
    pytest.param(synth_cnz(CnZSpec(4), Method.OPTIMIZED), 4, 134, 3, id="cnz4-optimized"),
])
def test_every_proved_single_point_mutant_passes_brute_force(circuit, n, valid, accepted):
    mutants = {m.ops: m for kind in single_point_mutants(circuit).values() for _, m in kind}
    assert len(mutants) == valid
    assert sum(proved(m, cnz_term(n), oracle_cnz(n)) for m in mutants.values()) == accepted


def random_circuit(rng: random.Random) -> Circuit:
    """3 or 4 qubits, data 0 and 1, up to 10 steps over the whole alphabet; a
    non-measurement op is conditioned on an earlier bit a third of the time. Once a
    bit is measured, a quarter of the steps are the motif that can leave the HH rule
    stuck: a conditioned CX onto a wire, a CX back, then H on both wires."""
    qubits, ops, bits = rng.choice((3, 4)), [], 0
    for _ in range(rng.randint(0, 10)):
        if bits and rng.random() < 1 / 4:
            a, b = rng.sample(range(qubits), 2)
            ops += [Op(Gate.CX, (a, b), None, (rng.randrange(bits), 1)), Op(Gate.CX, (b, a)),
                    Op(Gate.H, (b,)), Op(Gate.H, (a,))]
            continue
        gate = rng.choice(list(Gate))
        wires = tuple(rng.sample(range(qubits), gate.arity))
        if gate is Gate.MEASURE:
            ops.append(Op(gate, wires, bits))
            bits += 1
        else:
            condition = (rng.randrange(bits), rng.randint(0, 1)) if bits and rng.random() < 1 / 3 else None
            ops.append(Op(gate, wires, None, condition))
    return Circuit(qubits, bits, tuple(ops), frozenset({0, 1}))


def stuck_hh_calls(monkeypatch) -> list:
    """Spy on ``_PathSum.sum_out``; the returned list gets the terms 4y·B of each call
    that the HH rule leaves stuck, as B holds no linear path variable."""
    stuck, sum_out = [], pathsum._PathSum.sum_out

    def spy(self, y):
        terms = {m: c for m, c in self.phase.items() if m & y}
        done = sum_out(self, y)
        if not done and set(terms.values()) == {4}:  # the odd-coefficient rule's terms are not all 4
            stuck.append(terms)
        return done
    monkeypatch.setattr(pathsum._PathSum, "sum_out", spy)
    return stuck


def phase_on_data_1(c: int) -> np.ndarray:
    """ω^(c·x1), a Z-type phase on data qubit 1: Z, S and T for c = 4, 2 and 1."""
    w = np.exp(1j * np.pi * c / 4)
    return np.diag([1, 1, w, w])


@pytest.mark.parametrize("seed", [1, 2])
def test_every_proved_random_circuit_passes_brute_force(seed, monkeypatch):
    # each against CZ, the identity, and Z, S and T on data qubit 1 (CS is never proved here)
    calls = stuck_hh_calls(monkeypatch)
    rng, valid, cz, identity, stuck = random.Random(seed), 0, 0, 0, 0
    on_data_1 = dict.fromkeys((4, 2, 1), 0)
    for _ in range(15_000):
        circuit = random_circuit(rng)
        if not validate(circuit):
            valid += 1
            before = len(calls)
            cz += proved(circuit, cnz_term(1), oracle_cnz(1))
            identity += proved(circuit, {}, np.eye(4))
            for c in on_data_1:
                on_data_1[c] += proved(circuit, {2: c}, phase_on_data_1(c))
            stuck += len(calls) > before
    assert valid > 12_000
    assert cz >= 30 and identity >= 1_500  # about 0.4 % and 16 % of the valid draws
    assert min(on_data_1.values()) >= 60, on_data_1  # each about 0.5 %: 62 to 78
    assert stuck >= 5  # valid draws on which the HH rule is stuck: 7 and 17


@pytest.mark.parametrize("net, identity, cz", [
    pytest.param(small_circuits, 749, 85, id="small"),
    pytest.param(small_feedback_circuits, 274, 96, id="small-feedback"),
])
def test_every_proved_small_circuit_passes_brute_force(net, identity, cz):
    # the small-scope nets of the wire-state tests, each circuit against I and CZ
    circuits = net()
    assert sum(proved(c, {}, np.eye(4)) for c in circuits) >= identity
    assert sum(proved(c, cnz_term(1), oracle_cnz(1)) for c in circuits) >= cz


def test_a_target_term_of_exponent_0_mod_8_is_no_term():
    idle = Circuit(1, 0, (), frozenset({0}))
    assert certify(idle, {1: 8}) == certify(idle, {1: 0}) == certify(idle, {}) is not None
    assert certify(cccz_6t(), {15: 4, 1: 8}) == certify(cccz_6t(), {15: 4}) is not None


@pytest.mark.parametrize("method", list(Method))
def test_a_ladder_is_not_proved_against_the_identity_or_past_a_conditioned_h(method):
    ladder = synth_cnz(CnZSpec(4), method)
    assert certify(ladder, cnz_term(4)) is not None
    assert certify(ladder, {}) is None
    h = Op(Gate.H, (ladder.qubit_count - 1,), None, (0, 1))
    twice = Circuit(ladder.qubit_count, ladder.bit_count, ladder.ops + (h, h), ladder.data_qubits)
    assert check_implements(twice, oracle_cnz(4)).passed
    assert certify(twice, cnz_term(4)) is None


# With o the outcome of b0, wire 3 holds o ⊕ o·y and wire 2 y ⊕ o ⊕ o·y. H on each takes y off every
# wire and leaves it the terms 4y·(o·y2 ⊕ y3 ⊕ o·y3), in which neither new path variable is linear,
# so the HH rule is stuck. Both ancillas are then measured out, and every branch is CZ on the data.
HH_STUCK = ("qubits 4\nbits 3\ndata 0 1\nh 3\nm 3 -> b0\nh 2\ncx 2 3 if b0==1\ncx 3 2\nh 3\nh 2\n"
            "m 3 -> b1\nm 2 -> b2\ncz 0 1\n")


def test_a_stuck_hh_rule_leaves_a_passing_circuit_to_brute_force(tmp_path, capsys, monkeypatch):
    stuck = stuck_hh_calls(monkeypatch)
    circuit = parse_text(HH_STUCK)
    assert certify(circuit, cnz_term(1)) is None
    assert stuck
    verdict = check_implements(circuit, oracle_cnz(1))
    assert (verdict.passed, verdict.ancilla_clean) == (True, True)
    assert abs(verdict.probability_total - 1) <= 1e-12
    path = tmp_path / "c.qct"
    path.write_text(HH_STUCK)
    assert main(["verify", "--in", str(path), "--against", "cnz:1"]) == 0
    assert "route=" not in capsys.readouterr().err
