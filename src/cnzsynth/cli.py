"""Command-line front end: synthesis, verification, counting, conversion.

JSON results go to stdout, human diagnostics to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or parse errors. All output is
byte-deterministic for fixed inputs and flags.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .circuit import Circuit, CircuitError, Gate, Op
from .codec import CodecError, emit_text, export_quirk_url, parse_quirk_url, parse_text
from .resources import compare, count
from .simulator import SimulationError
from .synthesis import CnZSpec, Method, cccz_6t, synth_cnz
from .verify import check_implements, oracle_cnz


def _load_circuit(source: str) -> Circuit:
    if source.startswith(("http://", "https://")) or "#circuit=" in source:
        return parse_quirk_url(source)
    return parse_text(Path(source).read_text(encoding="utf-8"))


def _conjugate_target_with_h(circuit: Circuit, target: int) -> Circuit:
    """Turn the Z-type gate into its X-type twin by H-conjugating the target."""
    h = Op(Gate.H, (target,))
    return Circuit(
        circuit.qubit_count,
        circuit.bit_count,
        (h,) + circuit.ops + (h,),
        circuit.data_qubits,
    )


def _print_count(circuit: Circuit) -> None:
    print(json.dumps(count(circuit).to_dict()))


def cmd_synth(args: argparse.Namespace) -> int:
    if args.gate == "cccz":
        if args.n is not None:
            raise CodecError("synth --gate cccz takes no -n")
        circuit = cccz_6t()
        target = 3
    else:
        if args.n is None:
            raise CodecError("synth --gate cnz requires -n")
        circuit = synth_cnz(CnZSpec(args.n), Method(args.method))
        target = args.n
    if args.x_target:
        circuit = _conjugate_target_with_h(circuit, target)
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
    target = oracle_cnz(n)
    if x_target:  # (H ⊗ I) C^nZ (H ⊗ I), H on the top data qubit: X where every control holds 1
        ones = [(1 << n) - 1, (2 << n) - 1]
        target[np.ix_(ones, ones)] = [[0, 1], [1, 0]]
    verdict = check_implements(circuit, target)
    for report in verdict.branch_reports:
        outcomes = "".join(str(b) for b in report.outcomes)
        print(
            f"outcomes={outcomes or '-'} p={report.probability:.6f} "
            f"phase={report.phase.real:+.6f}{report.phase.imag:+.6f}j "
            f"max_deviation={report.max_deviation:.3e}",
            file=sys.stderr,
        )
    print(
        f"ancilla_clean={verdict.ancilla_clean} "
        f"probability_total={verdict.probability_total:.9f} "
        f"passed={verdict.passed}",
        file=sys.stderr,
    )
    print(json.dumps({
        "passed": verdict.passed,
        "ancilla_clean": verdict.ancilla_clean,
        "probability_total": verdict.probability_total,
        "branches": [
            {
                "outcomes": "".join(str(b) for b in r.outcomes),
                "probability": r.probability,
                "phase": [r.phase.real, r.phase.imag],
                "max_deviation": r.max_deviation,
            }
            for r in verdict.branch_reports
        ],
    }))
    return 0 if verdict.passed else 1


def cmd_count(args: argparse.Namespace) -> int:
    _print_count(_load_circuit(args.input))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.n_max < 3:
        raise CodecError("table requires --n-max >= 3")
    print(f"{'n':>3}  {'baseline_t':>10}  {'optimized_t':>11}  {'saving':>6}")
    for n in range(3, args.n_max + 1):
        row = compare(CnZSpec(n))
        print(f"{row.n:>3}  {row.baseline_t:>10}  {row.optimized_t:>11}  {row.saving:>6}")
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
    p.add_argument("--method", choices=("baseline", "optimized"), default="optimized")
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
    except (CodecError, CircuitError, SimulationError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
