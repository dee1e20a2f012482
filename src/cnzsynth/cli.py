"""Command-line front end: synthesis, verification, counting, conversion.

JSON results go to stdout, human diagnostics to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or parse errors. All output is
byte-deterministic for fixed inputs and flags.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from .circuit import Circuit, Gate, Op
from .codec import CodecError, emit_text, export_quirk_url, parse_quirk_url, parse_text
from .resources import count
from .synthesis import CnZSpec, Method, synth_cnz
from .verify import check_implements, load


def _load_circuit(source: str) -> Circuit:
    if source.startswith(("http://", "https://")) or "#circuit=" in source:
        return parse_quirk_url(source)
    return parse_text(Path(source).read_text(encoding="utf-8-sig"))


def _conjugate_target_with_h(circuit: Circuit) -> Circuit:
    """Toggle an H on the highest data qubit at each end: H-conjugate the target.

    An end that already is that unconditioned H loses it (H·H = I); otherwise
    one is added. So the Z-type gate becomes its X-type twin and back.
    """
    h = Op(Gate.H, (max(circuit.data_qubits),))
    ops = circuit.ops
    ops = ops[1:] if ops[:1] == (h,) else (h,) + ops
    ops = ops[:-1] if ops[-1:] == (h,) else ops + (h,)
    return Circuit(circuit.qubit_count, circuit.bit_count, ops, circuit.data_qubits)


def _print_count(circuit: Circuit) -> None:
    print(json.dumps(dataclasses.asdict(count(circuit))))


def cmd_synth(args: argparse.Namespace) -> int:
    if args.gate == "cccz" and args.n is not None:
        raise CodecError("synth --gate cccz takes no -n")
    if args.gate == "cnz" and args.n is None:
        raise CodecError("synth --gate cnz requires -n")
    circuit = synth_cnz(CnZSpec(3 if args.gate == "cccz" else args.n), Method(args.method))
    if args.x_target:
        circuit = _conjugate_target_with_h(circuit)
    Path(args.out).write_text(emit_text(circuit), encoding="utf-8")
    _print_count(circuit)
    return 0


def _parse_target(label: str) -> tuple[int, bool]:
    """Control count n and whether the target is C^nX rather than C^nZ."""
    kind, _, tail = label.partition(":")
    if label in ("cccz", "cccx"):
        return 3, label == "cccx"
    if kind in ("cnz", "cnx") and tail.isascii() and tail.isdigit() and int(tail) >= 1:
        return int(tail), kind == "cnx"
    raise CodecError(
        f"unknown verification target {label!r} (expected cccz, cccx, cnz:N or cnx:N)")


def cmd_verify(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.input)
    n, x_target = _parse_target(args.against)
    if len(circuit.data_qubits) != n + 1:
        raise CodecError(
            f"target {args.against} acts on {n + 1} qubits but the circuit has "
            f"{len(circuit.data_qubits)} data qubits")
    if x_target:  # C implements H·C^nZ·H on every branch iff H·C·H implements C^nZ
        circuit = _conjugate_target_with_h(circuit)
    proof = load("pathsum").certify(circuit, {(2 << n) - 1: 4})  # C^nZ is ω^(4·x0·…·xn)
    verdict = proof or check_implements(circuit, load("simulator").oracle_cnz(n))
    m = proof and len(proof.branch_reports[0].outcomes)
    if proof and len(proof.branch_reports) < 1 << m:  # one report for all 2^m equiprobable outcome strings
        r = proof.branch_reports[0]
        sys.stderr.write(f"outcomes=each of 2^{m} p=2^-{m} phase={r.phase.real:+.6f}{r.phase.imag:+.6f}j "
                         f"max_deviation={r.max_deviation:.3e}\n")
        branches = {"log2_probability": -m, "phase": [r.phase.real, r.phase.imag]}
    else:
        lines, branches, shown = [], [], {}
        for r in verdict.branch_reports:
            # each distinct report formatted once; by identity, as equal floats may differ in a zero's sign
            key = id(r.probability), id(r.phase), id(r.max_deviation)
            if key not in shown:
                shown[key] = (f"p={r.probability:.6f} phase={r.phase.real:+.6f}{r.phase.imag:+.6f}j "
                              f"max_deviation={r.max_deviation:.3e}\n", [r.phase.real, r.phase.imag])
            text, phase = shown[key]
            outcomes = "".join(map(str, r.outcomes))
            lines.append(f"outcomes={outcomes or '-'} {text}")
            branches.append({"outcomes": outcomes, "probability": r.probability, "phase": phase,
                             "max_deviation": r.max_deviation})
        sys.stderr.write("".join(lines))
    print(f"ancilla_clean={verdict.ancilla_clean} "
          f"probability_total={verdict.probability_total:.9f} "
          f"passed={verdict.passed}", file=sys.stderr)
    if proof is not None:
        print("route=path-sum", file=sys.stderr)
    print(json.dumps({"passed": verdict.passed, "ancilla_clean": verdict.ancilla_clean,
                      "probability_total": verdict.probability_total, "branches": branches}))
    return 0 if verdict.passed else 1


def cmd_count(args: argparse.Namespace) -> int:
    _print_count(_load_circuit(args.input))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 3:
        raise CodecError("table requires --n-max >= 3")
    CnZSpec(args.n_max)  # the widest row's bound, checked before any row is printed
    # Each ladder is an AND chain, a core and the chain's uncompute, one link
    # per added control: count n = 3 and 4, and add one counted link per row.
    base3, opt3 = (count(synth_cnz(CnZSpec(3), m)).t for m in Method)
    base4, opt4 = (count(synth_cnz(CnZSpec(4), m)).t for m in Method)
    print(f"{'n':>3}  {'baseline_t':>10}  {'optimized_t':>11}  {'saving':>6}")
    for n in range(3, args.n_max + 1):
        base, opt = base3 + (n - 3) * (base4 - base3), opt3 + (n - 3) * (opt4 - opt3)
        print(f"{n:>3}  {base:>10}  {opt:>11}  {base - opt:>6}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    print(export_quirk_url(_load_circuit(args.input)))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="cnzsynth",
        description="Synthesize and verify feedback-based multi-controlled-Z circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a circuit and write it as text")
    p.add_argument("--gate", choices=("cccz", "cnz"), required=True)
    p.add_argument("-n", type=int, default=None, help="control count for cnz")
    p.add_argument("--method", choices=("baseline", "optimized"), default="optimized",
                   help="ladder T count, cccz (n = 3) included: baseline 4n-4 (8), optimized 4n-6 (6)")
    p.add_argument("--out", required=True, help="output path for the circuit text")
    p.add_argument("--x-target", action="store_true",
                   help="H-conjugate the target qubit (C^nX instead of C^nZ)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a circuit against a target gate")
    p.add_argument("--in", dest="input", required=True,
                   help="circuit text path or Quirk URL")
    p.add_argument("--against", required=True, help="cccz, cccx, cnz:N or cnx:N")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="print resource counts as JSON")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="counted baseline vs optimized T costs")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export", help="convert a circuit to an interchange format")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=("quirk",), required=True)
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # CodecError, CircuitError, SimulationError included
        # a failed allocation inside Python raises MemoryError() with no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
