"""Run one workload in this process and print its metrics (see README.md).

Started by ``run.py`` in a fresh process with BLAS/OpenMP pinned to one
thread. Set-up (import ``cnzsynth`` and build the workload) runs once
before the timed passes and again after each pass, and its median is
reported. Whole passes over the workload's operations run until
the next pass would end after ``--seconds`` (at least one pass). Untraced
runs time a calibration kernel between the operations and scale each pass's
times to a reference host speed (see calibrate.py). Outputs
are checked after the timed passes: the first pass against known answers or
the independent reference, every later pass against the first, byte for
byte.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TOL = 1e-9

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import fixtures  # noqa: E402
import mutants  # noqa: E402
from reference import reference_verdict  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Operation:
    """One timed call into the program.

    ``call`` looks the program's functions up when it runs, so a traced run
    sees the wrapped ones. ``verify`` is (data qubits, qubits, ops) when the
    call is a verification, else None.
    """

    label: str
    call: Callable[[], object]
    verify: tuple[int, int, int] | None = None


@dataclass
class Built:
    """A workload ready to run: its operations and the checker of their outputs.

    ``check`` takes the first pass's outputs and returns (problems, failed
    operations per pass, report lines). An untraced pass takes a calibration
    sample before every ``calibrate_every``-th operation and one at its end;
    the stride is fixed per workload, about one sample per 0.2 s of work,
    so the samples fall at the same places in every run.
    """

    ops: list[Operation]
    check: Callable[[list], tuple[list[str], int, list[str]]]
    calibrate_every: int


def import_program(modules: tuple[str, ...]):
    """Import ``cnzsynth`` (and ``modules``) afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "cnzsynth" or n.startswith("cnzsynth.")]:
        del sys.modules[name]
    cs = importlib.import_module("cnzsynth")
    for name in modules:
        importlib.import_module(name)
    return cs


def t_count(ops) -> int:
    return sum(op.gate.value in ("t", "tdg") for op in ops)


# --------------------------------------------------------------- ladder-large

#: n = 7 is left out: one n = 7 verification takes 8-25 s, too long to be
#: repeated within a run, and single samples that long vary by 15-30 %
#: between runs on a shared host (see README.md).
LADDER_N = (5, 6)


def build_ladder_large(cs, seed: int, scratch: Path) -> Built:
    cases = []
    for n in LADDER_N:
        for method in (cs.Method.BASELINE, cs.Method.OPTIMIZED):
            cases.append((n, method.value, cs.synth_cnz(cs.CnZSpec(n), method), cs.oracle_cnz(n)))
    ops = [
        Operation(f"cnz{n}-{m}", lambda c=c, t=t: cs.check_implements(c, t, TOL),
                  (n + 1, c.qubit_count, len(c.ops)))
        for n, m, c, t in cases
    ]

    def check(outputs):
        problems = []
        for (n, m, circuit, target), verdict in zip(cases, outputs):
            label = f"cnz{n}-{m}"
            want_t = 4 * n - 4 if m == "baseline" else 4 * n - 6
            measurements = sum(op.gate.value == "m" for op in circuit.ops)
            total = sum(r.probability for r in verdict.branch_reports)
            if not np.array_equal(target, mutants.cnz_target(n)):
                problems.append(f"{label}: oracle_cnz({n}) is not C^{n}Z")
            if not verdict.passed:
                problems.append(f"{label}: verdict failed")
            if t_count(circuit.ops) != want_t:
                problems.append(f"{label}: T count {t_count(circuit.ops)} != {want_t}")
            if abs(total - 1.0) > TOL:
                problems.append(f"{label}: branch probabilities sum to {total!r}")
            if len(verdict.branch_reports) != 2 ** measurements:
                problems.append(f"{label}: {len(verdict.branch_reports)} groups != 2^{measurements}")
        return problems, 0, []

    return Built(ops, check, calibrate_every=1)


# ------------------------------------------------------------------ cli-small

def _cli(cs, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cs.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_cli_small(cs, seed: int, scratch: Path) -> Built:
    specs = [("cccz", ["--gate", "cccz"], "cccz", 6)]
    for n in range(2, 6):
        for method in ("baseline", "optimized"):
            if method == "optimized" and n < 3:
                continue
            t = 4 * n - 4 if method == "baseline" else 4 * n - 6
            specs.append((f"cnz{n}-{method}", ["--gate", "cnz", "-n", str(n), "--method", method],
                          f"cnz:{n}", t))
    for method, t in (("baseline", 12), ("optimized", 10)):
        specs.append((f"cnx4-{method}", ["--gate", "cnz", "-n", "4", "--method", method, "--x-target"],
                      None, t))

    ops: list[Operation] = []
    roles: list[tuple[str, str]] = []  # (role, spec label) per op
    for label, synth_args, against, _ in specs:
        path = str(scratch / f"{label}.qct")
        calls = [
            ("synth", ["synth", *synth_args, "--out", path]),
            ("count", ["count", "--in", path]),
            ("export", ["export", "--in", path, "--format", "quirk"]),
        ]
        if against is not None:
            calls.append(("verify", ["verify", "--in", path, "--against", against]))
        for role, argv in calls:
            verify = None
            if role == "verify":
                data = 4 if against == "cccz" else int(against.split(":")[1]) + 1
                circuit = _spec_circuit(cs, synth_args)
                verify = (data, circuit.qubit_count, len(circuit.ops))
            ops.append(Operation(f"{role} {label}", lambda a=argv: _cli(cs, a), verify))
            roles.append((role, label))
    fixture = cs.parse_quirk_url(fixtures.REFERENCE_QUIRK_CCCZ_URL)
    ops.append(Operation("verify quirk-fixture",
                         lambda: _cli(cs, ["verify", "--in", fixtures.REFERENCE_QUIRK_CCCZ_URL,
                                           "--against", "cccz"]),
                         (4, fixture.qubit_count, len(fixture.ops))))
    roles.append(("verify", "quirk-fixture"))
    table_max = 12
    ops.append(Operation("table", lambda: _cli(cs, ["table", "--n-max", str(table_max)])))
    roles.append(("table", "table"))

    expected_t = {label: t for label, _, _, t in specs}

    def check(outputs):
        problems = []
        by_role = {(role, label): out for (role, label), out in zip(roles, outputs)}
        for (role, label), (code, stdout, stderr) in by_role.items():
            if code != 0:
                problems.append(f"{role} {label}: exit {code}: {stderr.strip()[-200:]}")
        if problems:
            return problems, 0, []
        for label, want in expected_t.items():
            path = scratch / f"{label}.qct"
            text = path.read_text(encoding="utf-8")
            synth_counts = json.loads(by_role[("synth", label)][1])
            counts = json.loads(by_role[("count", label)][1])
            own_t = sum(line.split()[0] in ("t", "tdg") for line in text.splitlines() if line.strip())
            if counts != synth_counts or counts["t"] != want or own_t != want:
                problems.append(f"{label}: T counted {counts['t']}, in file {own_t}, want {want}")
            url = by_role[("export", label)][1].strip()
            if cs.parse_quirk_url(url) != cs.parse_text(text):
                problems.append(f"{label}: exported Quirk URL does not re-import op-identical")
            if ("verify", label) in by_role:
                problems += _verify_problems(label, by_role[("verify", label)][1])
        problems += _verify_problems("quirk-fixture", by_role[("verify", "quirk-fixture")][1])
        rows = [line.split() for line in by_role[("table", "table")][1].splitlines()[1:]]
        want_rows = [[str(n), str(4 * n - 4), str(4 * n - 6), "2"] for n in range(3, table_max + 1)]
        if rows != want_rows:
            problems.append(f"table rows {rows} != {want_rows}")
        return problems, 0, []

    return Built(ops, check, calibrate_every=8)


def _spec_circuit(cs, synth_args: list[str]):
    if synth_args[1] == "cccz":
        return cs.cccz_6t()
    return cs.synth_cnz(cs.CnZSpec(int(synth_args[3])), cs.Method(synth_args[5]))


def _verify_problems(label: str, stdout: str) -> list[str]:
    verdict = json.loads(stdout)
    if verdict["passed"] is not True or abs(verdict["probability_total"] - 1.0) > TOL:
        return [f"verify {label}: {stdout[:200]}"]
    return []


# ------------------------------------------------------------ mutant-verdicts

def build_mutant_verdicts(cs, seed: int, scratch: Path) -> Built:
    cases, redraws = mutants.all_cases(cs, seed)
    ops = [
        Operation(case.label, lambda c=case: cs.check_implements(c.circuit, c.target, TOL),
                  (len(case.circuit.data_qubits), case.circuit.qubit_count, len(case.circuit.ops)))
        for case in cases
    ]

    def check(outputs):
        problems = []
        failed = 0
        equal = dict.fromkeys(mutants.KINDS, 0)
        for case, verdict in zip(cases, outputs):
            ref = reference_verdict(case.circuit, case.target, TOL)
            if case.kind in equal:
                equal[case.kind] += ref.passed
            if verdict.passed == ref.passed:
                continue
            if case.known_fault:
                failed += 1
            else:
                problems.append(f"{case.label}: check_implements {verdict.passed}, reference {ref.passed}")
        drawn = mutants.MUTANTS_PER_BASE * sum(case.kind == "base" for case in cases)
        notes = [
            f"mutants per kind {drawn} ({len(cases)} cases a pass); "
            f"invalid draws redrawn {redraws}",
            f"equal-channel mutants per kind {equal} (total {sum(equal.values())})",
        ]
        return problems, failed, notes

    return Built(ops, check, calibrate_every=6)


WORKLOADS = {
    "ladder-large": (build_ladder_large, ()),
    "cli-small": (build_cli_small, ("cnzsynth.cli",)),
    "mutant-verdicts": (build_mutant_verdicts, ()),
}


# ------------------------------------------------------------------- running

@dataclass
class Pass:
    """One pass: each operation's time, the calibration kernel's times and the set-up after it."""

    times: list[float]
    calibration: list[float]
    setup_after: float = 0.0

    @property
    def scale(self) -> float:
        """Factor that turns this pass's seconds into seconds at the reference host speed."""
        if not self.calibration:
            return 1.0
        return calibrate.REFERENCE_S / statistics.median(self.calibration)


def run_passes(built: Built, seconds: float, tracer: Tracer | None, between: Callable[[], float]):
    """Whole passes until the next one would end after ``seconds``.

    ``between`` runs after each pass and returns the set-up time it took.
    Untraced runs interleave calibration samples with the operations.
    """
    passes: list[Pass] = []
    durations: list[float] = []
    first: list | None = None
    mismatched: set[str] = set()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        outputs, record = [], Pass([], [])
        scope = tracer.root("pass") if tracer else contextlib.nullcontext()
        with scope:
            for i, op in enumerate(built.ops):
                if not tracer and i % built.calibrate_every == 0:
                    record.calibration.append(calibrate.sample())
                t0 = time.perf_counter()
                outputs.append(op.call())
                record.times.append(time.perf_counter() - t0)
        if not tracer:
            record.calibration.append(calibrate.sample())
        if first is None:
            first = outputs
        else:
            mismatched.update(op.label for op, a, b in zip(built.ops, first, outputs) if a != b)
        record.setup_after = between()
        passes.append(record)
        durations.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes, first, mismatched


def end_to_end(built: Built, first_setup: float, passes: list[Pass],
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, as medians over the passes of host-speed-scaled times.

    Each pass's times are scaled by its calibration (see calibrate.py); an
    operation's time is the median of its scaled times, and ``wall_s`` is the
    median of the scaled pass totals. The set-up before the first pass is
    scaled by the first pass's calibration, every other by that of the pass
    before it.
    """
    scaled = [[t * p.scale for t in p.times] for p in passes]
    per_op = [statistics.median(times[i] for times in scaled) for i in range(len(built.ops))]
    setups = [first_setup * passes[0].scale] + [p.setup_after * p.scale for p in passes]
    verifies = [i for i, op in enumerate(built.ops) if op.verify]
    largest = max(verifies, key=lambda i: built.ops[i].verify[1:])
    inputs = sum(2 ** built.ops[i].verify[0] for i in verifies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(times) for times in scaled), "s"),
        "verify_p50_s": (statistics.median(per_op[i] for i in verifies), "s"),
        "largest_verify_s": (per_op[largest], "s"),
        "inputs_per_s": (inputs / sum(per_op[i] for i in verifies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, passes: int, traced_s: float) -> dict[str, tuple[float, str]]:
    summary = tracer.summarize()
    run = summary.get("pass", {})
    setup = summary.get("setup", {})

    def get(name: str, key: str, scope=run) -> float:
        return scope.get(name, {}).get(key, 0.0)

    def each(name: str, key: str) -> float:
        return get(name, key) / passes

    branches = "simulator.run_branches"
    amplitudes = get(branches, "amplitudes")
    codec = ("codec.parse_text", "codec.emit_text", "codec.parse_quirk_url", "codec.export_quirk_url")
    return {
        f"{branches}.calls": (each(branches, "calls"), "count"),
        f"{branches}.s": (each(branches, "s"), "s"),
        f"{branches}.records": (each(branches, "records"), "count"),
        "simulator.records_bytes": (each(branches, "bytes"), "bytes"),
        "simulator.support_fraction": (get(branches, "nonzero") / amplitudes if amplitudes else 0.0, "ratio"),
        "verify.check_implements.calls": (each("verify.check_implements", "calls"), "count"),
        "verify.check_implements.self_s": (each("verify.check_implements", "self_s"), "s"),
        "verify.groups": (each("verify.check_implements", "groups"), "count"),
        "verify.group_bytes": (each("verify.check_implements", "group_bytes"), "bytes"),
        "circuit.validate.calls": (each("circuit.validate", "calls"), "count"),
        "circuit.validate.s": (each("circuit.validate", "s"), "s"),
        **{f"{name}.s": (each(name, "s"), "s") for name in codec},
        "codec.bytes": (sum(each(name, "bytes") for name in codec), "bytes"),
        "resources.count.s": (each("resources.count", "s"), "s"),
        "cli.main.calls": (each("cli.main", "calls"), "count"),
        "cli.main.self_s": (each("cli.main", "self_s"), "s"),
        "synthesis.synth_cnz.s": (get("synthesis.synth_cnz", "s", setup) + each("synthesis.synth_cnz", "s"), "s"),
        "synthesis.ops_emitted": (get("synthesis.synth_cnz", "ops", setup) + each("synthesis.synth_cnz", "ops"),
                                  "count"),
        "trace.overhead_fraction": (tracer.spans_overhead_s() / traced_s, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cnzsynth").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'cnzsynth'} not found; run from a checkout of the repository")
    build, modules = WORKLOADS[args.workload]
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, build, modules, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def set_up(build, modules, seed: int, scratch: Path):
    """Import the program afresh and build the workload; return both and the seconds taken."""
    t0 = time.perf_counter()
    cs = import_program(modules)
    built = build(cs, seed, scratch)
    return cs, built, time.perf_counter() - t0


def _run(args, build, modules, scratch: Path) -> int:
    cs, built, first_setup = set_up(build, modules, args.seed, scratch)

    def set_up_again() -> float:
        # Set-up is timed again after every pass, so that its samples span
        # the run; the garbage of the discarded import is collected untimed.
        seconds = set_up(build, modules, args.seed, scratch)[2]
        gc.collect()
        return seconds

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        with tracer.root("setup"):
            built = build(cs, args.seed, scratch)
    passes, first, mismatched = run_passes(built, args.seconds, tracer, set_up_again)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    e2e = end_to_end(built, first_setup, passes, peak_rss_mb)

    problems, failed_per_pass, notes = built.check(first)
    problems += [f"{label}: output differs between passes" for label in sorted(mismatched)]
    attempted = len(built.ops) * len(passes)
    failed = failed_per_pass * len(passes)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={np.__version__} OMP_NUM_THREADS={os.environ.get('OMP_NUM_THREADS')} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    print(f"# passes={len(passes)} operations/pass={len(built.ops)} attempted={attempted} "
          f"failed={failed} correct={not problems}")
    for line in notes + problems:
        print(f"# {line}")
    if not tracer:
        kernel = [statistics.median(p.calibration) for p in passes]
        print(f"# calibration kernel median {statistics.median(kernel):.4g} s "
              f"(passes {min(kernel):.4g}-{max(kernel):.4g} s; reference {calibrate.REFERENCE_S:g} s); "
              f"times below are scaled to the reference")
    raw = [statistics.median(p.times[i] for p in passes) for i in range(len(built.ops))]
    slowest = sorted(zip(raw, (op.label for op in built.ops)), reverse=True)[:5]
    print("# slowest operations (median unscaled time over the passes): "
          + "; ".join(f"{label} {t:.4g} s" for t, label in slowest))
    label = "traced run, not for comparison" if tracer else "untraced"
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit} ({label})")

    if tracer:
        traced_s = sum(end - start for start, end, parent in zip(tracer.start, tracer.end, tracer.parent)
                       if parent < 0)
        layers = per_layer(tracer, len(passes), traced_s)
        _print_self_times(tracer, len(passes))
        for name, (value, unit) in layers.items():
            print(f"# {name} = {value:.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"# {len(tracer.names)} spans written to {spans.relative_to(ROOT)}")
        metrics = layers
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _print_self_times(tracer: Tracer, passes: int) -> None:
    overhead = tracer.spans_overhead_s()
    print(f"# tracing overhead {overhead:.4f} s over {len(tracer.names)} spans "
          f"({tracer.entry_cost_s * 1e6:.2f} us entry cost a span)")
    for scope, rows in sorted(tracer.summarize().items()):
        div = passes if scope == "pass" else 1
        print(f"# per layer, {scope}{' (per pass)' if div > 1 else ''}: calls total_s self_s")
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:<28} {row['calls'] / div:>10.1f} {row['s'] / div:>10.5f} "
                  f"{row['self_s'] / div:>10.5f}")


if __name__ == "__main__":
    sys.exit(main())
