"""Seeded single-point mutants and equal-channel rewrites for ``mutant-verdicts``.

Everything is built through the public ``cnzsynth`` API handed in as ``cs``
(the freshly imported package), so the program only ever sees the generated
circuits. Targets are built here from bit patterns, not by the program.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

import numpy as np

KINDS = ("delete", "swap_t", "flip_condition", "retarget_cz", "drop_reset")
#: Mutants per (base, kind): drawing per base keeps the cost of a pass
#: the same whatever the seed.
MUTANTS_PER_BASE = 3
PERMUTATIONS = 4


@dataclass(frozen=True)
class Case:
    """One circuit to verify, its target and where it came from."""

    label: str
    kind: str
    circuit: object
    target: np.ndarray
    known_fault: bool = False


def cnz_target(n: int) -> np.ndarray:
    """C^nZ on n+1 qubits: -1 on the all-ones basis state."""
    diag = np.ones(1 << (n + 1), dtype=complex)
    diag[-1] = -1
    return np.diag(diag)


def _widen(cs, circuit, qubit_count: int):
    """The same ops on a register padded with idle ancillas."""
    return cs.Circuit(qubit_count, circuit.bit_count, circuit.ops, circuit.data_qubits)


def bases(cs) -> list[Case]:
    """The verified circuits every mutant is drawn from."""
    out = [
        Case("cccz", "base", cs.cccz_6t(), cnz_target(3)),
        Case("and", "base", cs.compose(cs.and_compute(0, 1, 2), cs.and_uncompute(0, 1, 2)), np.eye(4)),
    ]
    for n in (3, 4):
        for method in (cs.Method.BASELINE, cs.Method.OPTIMIZED):
            circuit = cs.synth_cnz(cs.CnZSpec(n), method)
            out.append(Case(f"cnz{n}-{method.value}", "base", circuit, cnz_target(n)))
    return out


def _mutate(cs, kind: str, circuit, rng: random.Random):
    """One random single-point mutation of ``kind`` (every base has a site of each kind)."""
    ops = list(circuit.ops)
    sites = {
        "delete": lambda op: True,
        "swap_t": lambda op: op.gate in (cs.Gate.T, cs.Gate.TDG),
        "flip_condition": lambda op: op.condition is not None,
        "retarget_cz": lambda op: op.gate is cs.Gate.CZ and op.condition is not None,
        "drop_reset": lambda op: op.gate is cs.Gate.RESET,
    }[kind]
    i = rng.choice([i for i, op in enumerate(ops) if sites(op)])
    op = ops[i]
    if kind in ("delete", "drop_reset"):
        del ops[i]
    elif kind == "swap_t":
        ops[i] = replace(op, gate=cs.Gate.TDG if op.gate is cs.Gate.T else cs.Gate.T)
    elif kind == "flip_condition":
        ops[i] = replace(op, condition=(op.condition[0], 1 - op.condition[1]))
    else:
        slot = rng.randrange(2)
        new = rng.choice([q for q in range(circuit.qubit_count) if q not in op.qubits])
        qubits = list(op.qubits)
        qubits[slot] = new
        ops[i] = replace(op, qubits=tuple(qubits))
    return cs.Circuit(circuit.qubit_count, circuit.bit_count, tuple(ops), circuit.data_qubits)


def mutants(cs, seed: int, originals: list[Case]) -> tuple[list[Case], dict[str, int]]:
    """MUTANTS_PER_BASE valid mutants of each kind of every base; returns them
    with the count of invalid draws discarded per kind."""
    rng = random.Random(seed)
    out: list[Case] = []
    redraws = dict.fromkeys(KINDS, 0)
    for kind in KINDS:
        for base in originals:
            made = 0
            while made < MUTANTS_PER_BASE:
                circuit = _mutate(cs, kind, base.circuit, rng)
                if cs.validate(circuit):
                    redraws[kind] += 1
                    continue
                out.append(Case(f"{base.label}:{kind}#{made}", kind, circuit, base.target))
                made += 1
    return out, redraws


def rewrites(cs, seed: int, originals: list[Case]) -> list[Case]:
    """Equal-channel rewrites: squares, baseline∘optimized, CCCZ relabelings."""
    by_label = {c.label: c for c in originals}
    out = [Case("cccz∘cccz", "rewrite", cs.compose(cs.cccz_6t(), cs.cccz_6t()), np.eye(16))]
    for n in (3, 4):
        base = by_label[f"cnz{n}-baseline"].circuit
        opt = _widen(cs, by_label[f"cnz{n}-optimized"].circuit, base.qubit_count)
        identity = np.eye(1 << (n + 1))
        out.append(Case(f"cnz{n}-baseline²", "rewrite", cs.compose(base, base), identity))
        out.append(Case(f"cnz{n}-optimized²", "rewrite", cs.compose(opt, opt), identity))
        out.append(Case(f"cnz{n}-baseline∘optimized", "rewrite", cs.compose(base, opt), identity))
    perms = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
    for perm in random.Random(seed).sample(perms, PERMUTATIONS):
        relabeled = cs.remap_qubits(cs.cccz_6t(), dict(enumerate(perm)))
        out.append(Case(f"cccz{perm}", "rewrite", relabeled, cnz_target(3)))
    return out


def hidden_reset_family(cs, originals: list[Case]) -> list[Case]:
    """``h a; reset a`` on a clean ancilla: the identity channel, alone and appended.

    ``check_implements`` adds the two hidden reset histories coherently and
    reports probability_total = 2.0 on each of these, so they are counted as
    failed operations while that fault stands. None depends on the seed.
    """
    by_label = {c.label: c for c in originals}

    def tail(circuit, anc: int):
        bld = cs.CircuitBuilder(circuit.qubit_count, circuit.data_qubits)
        bld.h(anc).reset(anc)
        return cs.compose(circuit, bld.build())

    alone = cs.CircuitBuilder(2, (0,)).h(1).reset(1).build()
    return [
        Case("h-reset", "hidden_reset", alone, np.eye(2), True),
        Case("cccz+h-reset", "hidden_reset", tail(by_label["cccz"].circuit, 4), cnz_target(3), True),
        Case("and+h-reset", "hidden_reset", tail(by_label["and"].circuit, 2), np.eye(4), True),
    ]


def all_cases(cs, seed: int) -> tuple[list[Case], dict[str, int]]:
    """The whole ``mutant-verdicts`` set for ``seed``, and the redraws per kind."""
    originals = bases(cs)
    drawn, redraws = mutants(cs, seed, originals)
    return originals + drawn + rewrites(cs, seed, originals) + hidden_reset_family(cs, originals), redraws
