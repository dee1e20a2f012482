"""Every single-point mutant of the paper's circuits, against an independent reference.

Each valid mutant of one point (an op deleted, T and T† swapped, a condition
flipped, a conditioned CZ retargeted, a reset dropped, a measurement moved) of
the 6-T CCCZ, the temporary AND's compute∘uncompute pair and both n = 3
ladders is checked by ``check_implements`` and by
``dense_oracle.check_implements``; the two must agree on every report. The
n = 4 ladders' mutants, too many for the dense walk, are checked against the
block-wise ``perfbench/reference.py`` instead, which must agree on the verdict.
The mutants the verdict accepts are pinned: each is an equal channel.
"""
from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cnzsynth import (
    Circuit, CnZSpec, Gate, Method, and_compute, and_uncompute, cccz_6t, check_implements, compose,
    oracle_cnz, synth_cnz, validate)
from test_verdict_oracle import assert_same_verdict

KINDS = ("delete", "swap_t", "flip_condition", "retarget_cz", "drop_reset", "move_measurement")
_SWAPPED_T = {Gate.T: Gate.TDG, Gate.TDG: Gate.T}


def single_point_mutants(circuit: Circuit) -> dict[str, list[tuple[int, Circuit]]]:
    """Every valid single-point mutant of ``circuit`` by kind, each with the index
    of the op it mutates, in op order."""
    ops, kinds = circuit.ops, {kind: [] for kind in KINDS}

    def put(kind: str, i: int, new: tuple) -> None:
        mutant = Circuit(circuit.qubit_count, circuit.bit_count, new, circuit.data_qubits)
        if not validate(mutant):
            kinds[kind].append((i, mutant))

    for i, op in enumerate(ops):
        before, after = ops[:i], ops[i + 1:]
        put("delete", i, before + after)
        if op.gate in _SWAPPED_T:
            put("swap_t", i, (*before, replace(op, gate=_SWAPPED_T[op.gate]), *after))
        if op.condition is not None:
            bit, value = op.condition
            put("flip_condition", i, (*before, replace(op, condition=(bit, 1 - value)), *after))
        if op.gate is Gate.CZ and op.condition is not None:
            for slot in (0, 1):
                for q in sorted(set(range(circuit.qubit_count)) - set(op.qubits)):
                    qubits = (q, op.qubits[1]) if slot == 0 else (op.qubits[0], q)
                    put("retarget_cz", i, (*before, replace(op, qubits=qubits), *after))
        if op.gate is Gate.RESET:
            put("drop_reset", i, before + after)
        if op.gate is Gate.MEASURE:
            rest = before + after
            for j in range(len(ops)):
                if j != i:
                    put("move_measurement", i, (*rest[:j], op, *rest[j:]))
    return kinds


def bases() -> dict[str, tuple[Circuit, np.ndarray]]:
    out = {"cccz": (cccz_6t(), oracle_cnz(3)),
           "and-pair": (compose(and_compute(0, 1, 2), and_uncompute(0, 1, 2)), np.eye(4))}
    for method in Method:
        out[f"cnz3-{method.value}"] = (synth_cnz(CnZSpec(3), method), oracle_cnz(3))
    return out


# Accepted, and equal channels: deleting a reset that is its ancilla's last op leaves
# the ancilla measured out, holding its outcome; deleting an AND's first CX leaves the
# ancilla in |+>, which a CX target leaves alone.
@pytest.mark.parametrize("base, counts, accepted", [
    pytest.param("cccz", (18, 6, 2, 12, 1, 16), ["delete 16"], id="cccz"),
    pytest.param("and-pair", (14, 4, 1, 2, 1, 13), ["delete 1", "delete 13"], id="and-pair"),
    pytest.param("cnz3-baseline", (29, 8, 2, 16, 2, 54),
                 ["delete 1", "delete 12", "delete 25", "delete 29"], id="cnz3-baseline"),
    pytest.param("cnz3-optimized", (18, 6, 2, 12, 1, 16), ["delete 16"], id="cnz3-optimized"),
])
def test_every_single_point_mutant_matches_dense_reference(base, counts, accepted):
    circuit, target = bases()[base]
    kinds = single_point_mutants(circuit)
    assert tuple(len(kinds[kind]) for kind in KINDS) == counts  # 251 distinct over the four bases
    passing, checked = [], set()
    for kind, mutants in kinds.items():
        for index, mutant in mutants:
            if mutant.ops in checked:  # a dropped reset is also a deletion
                continue
            checked.add(mutant.ops)
            assert_same_verdict(mutant, target)
            if check_implements(mutant, target).passed:
                passing.append(f"{kind} {index}")
    assert passing == accepted


@functools.cache
def block_reference():
    """``perfbench/reference.py``, loaded by path: it imports nothing from cnzsynth."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("block_reference", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


# The same two equal-channel kinds as at n = 3: an AND's first CX, an ancilla's final reset.
@pytest.mark.parametrize("method, counts, accepted", [
    pytest.param(Method.BASELINE, (43, 12, 3, 36, 3, 120),
                 ["delete 1", "delete 12", "delete 23", "delete 36", "delete 40", "delete 44"],
                 id="cnz4-baseline"),
    pytest.param(Method.OPTIMIZED, (32, 10, 3, 30, 2, 59), ["delete 1", "delete 27", "delete 32"],
                 id="cnz4-optimized"),
])
def test_every_single_point_mutant_at_n4_matches_block_reference(method, counts, accepted):
    reference_verdict = block_reference().reference_verdict
    circuit, target = synth_cnz(CnZSpec(4), method), oracle_cnz(4)
    kinds = single_point_mutants(circuit)
    assert tuple(len(kinds[kind]) for kind in KINDS) == counts  # 214 and 134 distinct
    passing, checked = [], set()
    for kind, mutants in kinds.items():
        for index, mutant in mutants:
            if mutant.ops in checked:  # a dropped reset is also a deletion
                continue
            checked.add(mutant.ops)
            passed = check_implements(mutant, target).passed
            assert passed == reference_verdict(mutant, target).passed, f"{kind} {index}"
            if passed:
                passing.append(f"{kind} {index}")
    assert passing == accepted
