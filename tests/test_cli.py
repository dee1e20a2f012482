"""Tests for the command-line interface: flags, exit codes, determinism."""
from __future__ import annotations

import json
import sys
import time
import urllib.parse

import numpy as np
import pytest

from cnzsynth import (
    Circuit, CircuitBuilder, CnZSpec, Gate, Method, Op, cccz_6t, check_implements, count, emit_text,
    oracle_cnz, parse_quirk_url, parse_text, synth_cnz, validate)
from cnzsynth import cli, pathsum, simulator
from cnzsynth.cli import main
from cnzsynth.codec import QUIRK_URL_PREFIX
from cnzsynth.verify import DEFAULT_TOLERANCE
from quirk_fixtures import REFERENCE_QUIRK_CCCZ_URL
from test_api import run_fresh
from test_mutants import single_point_mutants


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_cccz_writes_canonical_text(tmp_path, capsys):
    out = tmp_path / "c.qct"
    code, stdout, _ = run(capsys, "synth", "--gate", "cccz", "--out", str(out))
    assert code == 0
    assert out.read_text() == emit_text(cccz_6t())
    summary = json.loads(stdout)
    assert summary["t"] == 6
    assert stdout.count("\n") == 1  # exactly one JSON object on stdout
    # optimized is the default method
    optimized = run(capsys, "synth", "--gate", "cccz", "--method", "optimized", "--out", str(out))
    assert optimized == (0, stdout, "")
    assert out.read_text() == emit_text(cccz_6t())


def test_synth_cccz_file_has_six_t_lines(tmp_path, capsys):
    out = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--out", str(out))
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.split()[0] in ("t", "tdg")) == 6


def test_synth_cnz_optimized_summary(tmp_path, capsys):
    out = tmp_path / "c.qct"
    code, stdout, _ = run(capsys, "synth", "--gate", "cnz", "-n", "5",
                          "--method", "optimized", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["t"] == 14


def test_synth_rejects_optimized_n2(tmp_path, capsys):
    code, _, stderr = run(capsys, "synth", "--gate", "cnz", "-n", "2",
                          "--method", "optimized", "--out", str(tmp_path / "c.qct"))
    assert code == 2
    assert "optimized requires n >= 3" in stderr


def test_synth_rejects_cnz_without_n(tmp_path, capsys):
    out = tmp_path / "c.qct"
    assert run(capsys, "synth", "--gate", "cnz", "--out", str(out)) == (
        2, "", "error: synth --gate cnz requires -n\n")
    assert not out.exists()


def test_synth_rejects_cccz_with_n(tmp_path, capsys):
    out = tmp_path / "c.qct"
    code, stdout, stderr = run(capsys, "synth", "--gate", "cccz", "-n", "5", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "synth --gate cccz takes no -n" in stderr
    assert not out.exists()


@pytest.mark.parametrize("method", list(Method))
def test_synth_cccz_is_the_n3_ladder_of_its_method(tmp_path, capsys, method):
    # --method applies to cccz: baseline is the 8-T C^3Z, two ANDs around a CZ
    cccz, ladder = tmp_path / "cccz.qct", tmp_path / "cnz3.qct"
    code, stdout, _ = run(capsys, "synth", "--gate", "cccz", "--method", method.value, "--out", str(cccz))
    assert code == 0
    assert cccz.read_text() == emit_text(synth_cnz(CnZSpec(3), method))
    assert json.loads(stdout)["t"] == (8 if method is Method.BASELINE else 6)
    assert run(capsys, "synth", "--gate", "cnz", "-n", "3", "--method", method.value,
               "--out", str(ladder)) == (0, stdout, "")
    assert ladder.read_bytes() == cccz.read_bytes()
    code, stdout, stderr = run(capsys, "verify", "--in", str(cccz), "--against", "cccz")
    assert (code, json.loads(stdout)["passed"], stderr.splitlines()[-1]) == (0, True, "route=path-sum")


def test_a_text_file_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "c.qct", tmp_path / "bom.qct"
    plain.write_text(emit_text(cccz_6t()), encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for argv in (["count"], ["verify", "--against", "cccz"]):
        code, stdout, _ = run(capsys, *argv, "--in", str(plain))
        assert code == 0
        assert run(capsys, *argv, "--in", str(marked))[:2] == (code, stdout)


def test_synth_x_target_wraps_with_hadamards(tmp_path, capsys):
    out = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--x-target", "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[3] == "h 3"
    assert lines[-1] == "h 3"


def test_verify_synthesized_cccz(tmp_path, capsys):
    out = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--out", str(out))
    code, stdout, stderr = run(capsys, "verify", "--in", str(out), "--against", "cccz")
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["passed"] is True
    assert len(verdict["branches"]) == 2
    assert "outcomes=0" in stderr


def test_verify_detects_wrong_circuit(tmp_path, capsys):
    path = tmp_path / "t.qct"
    path.write_text("qubits 2\nbits 0\ndata 0 1\nt 0\n")
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--against", "cnz:1")
    assert code == 1
    assert json.loads(stdout)["passed"] is False


def test_verify_reference_url(capsys):
    code, stdout, _ = run(capsys, "verify", "--in", REFERENCE_QUIRK_CCCZ_URL,
                          "--against", "cccz")
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_verify_rejects_malformed_quirk_json(capsys):
    url = 'https://algassert.com/quirk#circuit={"cols":[],"gates":5}'
    code, stdout, stderr = run(capsys, "verify", "--in", url, "--against", "cccz")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: malformed circuit JSON")


def test_verify_rejects_quirk_wire_not_starting_in_zero(capsys):
    # Quirk would start wire 0 in |1>; the IR starts every wire in |0>
    url = 'https://algassert.com/quirk#circuit={"cols":[["H"]],"init":[1]}'
    code, stdout, stderr = run(capsys, "verify", "--in", url, "--against", "cnz:1")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: malformed circuit JSON: 'init'")


@pytest.mark.parametrize("doc, message", [
    ("qubits 1\nqubits 2\n", "line 2: duplicate header 'qubits'"),
    ("qubits\n", "line 1: usage: qubits <N>"),
    ("bits 1 2\n", "line 1: usage: bits <M>"),
    ("qubits 1\nh if b0==1 0\n", "line 2: condition must be the trailing 'if b<k>==0|1'"),
    ("qubits 1\nbits 1\nm 0 -> b0 if b0==1\n",
     "invalid circuit: line 3: classical condition on a measurement; "
     "circuit: data qubit 0 is measured and never reset"),
    ("qubits 2\ncx 0\n", "invalid circuit: line 2: cx expects 2 operand(s), got 1"),
    ("qubits 1\ndata 3\n", "invalid circuit: circuit: data qubit 3 out of range"),
], ids=["duplicate-header", "qubits-usage", "bits-usage", "misplaced-if", "condition-on-m",
        "operand-count", "data-out-of-range"])
def test_malformed_text_exits_2_with_one_error_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.qct"
    path.write_text(doc, encoding="utf-8")
    assert run(capsys, "count", "--in", str(path)) == (2, "", f"error: {message}\n")


def test_text_rule_violations_come_in_one_message_by_line(tmp_path, capsys):
    # operand count and a condition on a measurement are validate's rules, not syntax errors
    path = tmp_path / "bad.qct"
    path.write_text("qubits 2\nbits 1\ncx 0\nm 1 -> b0 if b0==1\nh 5\n", encoding="utf-8")
    assert run(capsys, "count", "--in", str(path)) == (2, "", (
        "error: invalid circuit: line 3: cx expects 2 operand(s), got 1; "
        "line 4: classical condition on a measurement; line 5: qubit 5 out of range; "
        "circuit: data qubit 1 is measured and never reset\n"))


@pytest.mark.parametrize("command", ["count", "verify"])
@pytest.mark.parametrize("qubits", [65537, 400000000])
def test_qubit_header_above_the_bound_exits_2_at_once(tmp_path, capsys, command, qubits):
    # rejected at the header line: no header-sized set is built
    path = tmp_path / "wide.qct"
    path.write_text(f"qubits {qubits}\n", encoding="utf-8")
    argv = [command, "--in", str(path)] + (["--against", "cccz"] if command == "verify" else [])
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 0.25
    assert result == (2, "", f"error: line 1: qubit count {qubits} exceeds 65536\n")


@pytest.mark.parametrize("payload, message", [
    ("[1]", "malformed circuit JSON: expected an object with a 'cols' list"),
    ('{"cols":[5]}', "malformed circuit JSON: column is not a list"),
    ('{"cols":[[2]]}', "unsupported column entry 2"),
    ('{"cols":[["~x"]],"gates":[{"id":"~x","matrix":"{{0,1},{1,0}}"}]}', "unsupported gate id '~x'"),
    ('{"cols":[["Measure","H"]]}', "unsupported column: measurement mixed with other operations"),
    ('{"cols":[["Measure"],["Measure"]]}', "unsupported column: wire 0 measured twice"),
    ('{"cols":[["Measure","Measure"],["•","•","X"]]}',
     "unsupported column: more than one classical control"),
    ('{"cols":[["Measure"],["H"]]}', "unsupported column: quantum gate on measured wire 0"),
], ids=["not-an-object", "column-not-a-list", "non-string-entry", "custom-gate", "measure-mixed",
        "measured-twice", "two-classical-controls", "gate-on-measured-wire"])
def test_unsupported_quirk_url_exits_2_with_one_error_line(capsys, payload, message):
    url = QUIRK_URL_PREFIX + urllib.parse.quote(payload, safe="")
    assert run(capsys, "count", "--in", url) == (2, "", f"error: {message}\n")


def test_verify_rejects_circuit_wider_than_the_key(tmp_path, capsys):
    # 22 qubits + 2 input label bits + 40 measurement and reset labels > 62; the X
    # between them keeps each reset from echoing its measurement, so each takes a label
    bld = CircuitBuilder(22, (0, 1))
    for q in range(2, 22):
        bld.measure(q)
        bld.x(q)
        bld.reset(q)
    path = tmp_path / "wide.qct"
    path.write_text(emit_text(bld.build()))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:1")
    assert code == 2
    assert stdout == ""
    assert "62-bit" in stderr


def test_verify_too_wide_for_a_dense_target_exits_2(tmp_path, capsys, monkeypatch):
    # what numpy raises when it cannot hold the 2^30 x 2^30 target; nothing is allocated
    def refuse(n):
        raise MemoryError(f"Unable to allocate the {2 ** (n + 1)}-square target")
    monkeypatch.setattr(simulator, "oracle_cnz", refuse)  # the engine's, which the fallback reads
    path = tmp_path / "wide.qct"
    path.write_text(emit_text(Circuit(30, 0, (), frozenset(range(30)))))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:29")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: Unable to allocate")


def test_an_error_without_a_message_is_named_by_its_type(tmp_path, capsys, monkeypatch):
    # what Python raises when an allocation of its own fails: no message at all
    def exhausted(circuit):
        raise MemoryError()
    monkeypatch.setattr(cli, "count", exhausted)
    path = tmp_path / "c.qct"
    path.write_text(emit_text(cccz_6t()))
    assert run(capsys, "count", "--in", str(path)) == (2, "", "error: MemoryError\n")


def undecided_cccz() -> Circuit:
    """cccz_6t and then, where its outcome is 1, H twice on its reset ancilla: the same
    channel, but the path sum leaves a conditioned H undecided."""
    cccz = cccz_6t()
    h = Op(Gate.H, (4,), None, (0, 1))
    return Circuit(cccz.qubit_count, cccz.bit_count, cccz.ops + (h, h), cccz.data_qubits)


def test_verify_tolerance_defaults_to_the_library_default(tmp_path, capsys, monkeypatch):
    # verify has no tolerance flag: every brute-force check runs at the library default
    seen = []

    def spy(circuit, target, tolerance=DEFAULT_TOLERANCE):
        seen.append(tolerance)
        return check_implements(circuit, target, tolerance)
    monkeypatch.setattr(cli, "check_implements", spy)
    path = tmp_path / "c.qct"
    path.write_text(emit_text(undecided_cccz()))
    code, _, stderr = run(capsys, "verify", "--in", str(path), "--against", "cccz")
    assert code == 0
    assert seen == [DEFAULT_TOLERANCE]
    assert "route=" not in stderr


@pytest.mark.parametrize("method", list(Method))
def test_a_proved_ladder_never_reaches_brute_force(tmp_path, capsys, monkeypatch, method):
    def refuse(*args):
        raise AssertionError("brute force was called")
    monkeypatch.setattr(simulator, "oracle_cnz", refuse)
    monkeypatch.setattr(cli, "check_implements", refuse)
    path = tmp_path / "c.qct"
    path.write_text(emit_text(synth_cnz(CnZSpec(5), method)))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:5")
    assert code == 0
    assert stderr.endswith("passed=True\nroute=path-sum\n")
    verdict = json.loads(stdout)
    m = 4 if method is Method.BASELINE else 3
    assert (verdict["passed"], verdict["ancilla_clean"], verdict["probability_total"]) == (True, True, 1.0)
    assert verdict["branches"] == [
        {"outcomes": f"{i:0{m}b}", "probability": 2.0 ** -m, "phase": [1.0, 0.0], "max_deviation": 0.0}
        for i in range(2 ** m)]


def test_a_proof_lists_up_to_max_reports_and_summarizes_above(tmp_path, capsys):
    # the baseline ladder measures n - 1 times: 2^12 outcome strings at n = 13, 2^13 at n = 14
    assert pathsum.MAX_REPORTS == 4096
    for n, listed in ((13, True), (14, False)):
        path = tmp_path / f"c{n}.qct"
        path.write_text(emit_text(synth_cnz(CnZSpec(n), Method.BASELINE)))
        code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", f"cnz:{n}")
        assert code == 0
        branches = json.loads(stdout)["branches"]
        lines = stderr.splitlines()
        assert lines[-1] == "route=path-sum"
        if listed:
            assert len(branches) == len(lines) - 2 == 4096
            assert branches[-1] == {"outcomes": "1" * 12, "probability": 2.0 ** -12,
                                    "phase": [1.0, 0.0], "max_deviation": 0.0}
        else:
            assert branches == {"log2_probability": -13, "phase": [1.0, 0.0]}
            assert lines[0] == ("outcomes=each of 2^13 p=2^-13 phase=+1.000000+0.000000j "
                                "max_deviation=0.000e+00")


def test_a_proof_whose_phases_differ_above_max_reports_falls_back(tmp_path, capsys, monkeypatch):
    # the Z on the measured ancilla gives outcome 1 the phase -1
    path = tmp_path / "c.qct"
    path.write_text("qubits 3\nbits 1\ndata 0 1\nh 2\nm 2 -> b0\nz 2\nreset 2\ncz 0 1\n")
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:1")
    assert (code, stderr.splitlines()[-1]) == (0, "route=path-sum")
    assert [b["phase"] for b in json.loads(stdout)["branches"]] == [[1.0, 0.0], [-1.0, 0.0]]
    monkeypatch.setattr(pathsum, "MAX_REPORTS", 1)
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:1")
    assert code == 0
    assert "route=" not in stderr
    assert len(json.loads(stdout)["branches"]) == 2


@pytest.mark.parametrize("method", list(Method))
def test_verify_proves_a_64_control_ladder_in_under_a_second(tmp_path, capsys, method):
    path = tmp_path / "c.qct"
    path.write_text(emit_text(synth_cnz(CnZSpec(64), method)))
    start = time.perf_counter()
    code, stdout, _ = run(capsys, "verify", "--in", str(path), "--against", "cnz:64")
    assert time.perf_counter() - start < 1
    assert code == 0
    m = 63 if method is Method.BASELINE else 62
    assert json.loads(stdout)["branches"] == {"log2_probability": -m, "phase": [1.0, 0.0]}


@pytest.mark.parametrize("method", list(Method))
def test_verify_proves_a_2048_control_ladder_in_under_two_seconds(tmp_path, capsys, method):
    # the proof visits only the wires that hold the path variable in hand, so its cost grows with the circuit
    path = tmp_path / "c.qct"
    path.write_text(emit_text(synth_cnz(CnZSpec(2048), method)))
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:2048")
    assert time.perf_counter() - start < 2
    assert (code, stderr.splitlines()[-1]) == (0, "route=path-sum")
    m = 2047 if method is Method.BASELINE else 2046
    assert json.loads(stdout)["branches"] == {"log2_probability": -m, "phase": [1.0, 0.0]}


@pytest.mark.parametrize("n", [
    pytest.param(1075, id="cnz1075"), pytest.param(1100, id="cnz1100"), pytest.param(2200, id="cnz2200")])
def test_a_summary_below_the_least_float_gives_the_log2_of_its_probability(tmp_path, capsys, n):
    # the baseline ladder measures n - 1 times: 2^-1074 is the least float, 2^-1099 is no float, and
    # 2^2199 has 662 decimal digits, past the lowered limit, so writing it would raise ValueError
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        path = tmp_path / "c.qct"
        path.write_text(emit_text(synth_cnz(CnZSpec(n), Method.BASELINE)))
        code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", f"cnz:{n}")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, stderr
    assert json.loads(stdout)["branches"] == {"log2_probability": 1 - n, "phase": [1.0, 0.0]}
    assert stderr.splitlines() == [
        f"outcomes=each of 2^{n - 1} p=2^-{n - 1} phase=+1.000000+0.000000j max_deviation=0.000e+00",
        "ancilla_clean=True probability_total=1.000000000 passed=True", "route=path-sum"]


def test_a_proof_shares_a_constant_phase_across_every_outcome_string(tmp_path, capsys):
    # x a; z a; x a on a clean ancilla multiplies every branch by -1
    ladder = synth_cnz(CnZSpec(4), Method.BASELINE)
    x, z = Op(Gate.X, (ladder.qubit_count - 1,)), Op(Gate.Z, (ladder.qubit_count - 1,))
    circuit = Circuit(ladder.qubit_count, ladder.bit_count, ladder.ops + (x, z, x), ladder.data_qubits)
    proof, brute = pathsum.certify(circuit, {(2 << 4) - 1: 4}), check_implements(circuit, oracle_cnz(4))
    assert proof.passed and brute.passed
    assert [r.outcomes for r in proof.branch_reports] == [r.outcomes for r in brute.branch_reports]
    for exact, r in zip(proof.branch_reports, brute.branch_reports):
        assert (exact.probability, exact.phase, exact.max_deviation) == (0.125, -1, 0.0)
        assert abs(r.probability - 0.125) <= 1e-12 and abs(r.phase + 1) <= 1e-12
    path = tmp_path / "c.qct"
    path.write_text(emit_text(circuit))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:4")
    assert (code, stderr.splitlines()[-1]) == (0, "route=path-sum")
    assert stderr.splitlines()[:8] == [
        f"outcomes={i:03b} p=0.125000 phase=-1.000000+0.000000j max_deviation=0.000e+00" for i in range(8)]
    assert json.loads(stdout)["branches"] == [
        {"outcomes": f"{i:03b}", "probability": 0.125, "phase": [-1.0, 0.0], "max_deviation": 0.0}
        for i in range(8)]


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1", "1e-3"])
def test_verify_rejects_meaningless_tolerance(tmp_path, capsys, tolerance):
    # no tolerance can loosen verify: the flag is gone, so a C^3Z with two
    # T gates deleted (ops 1 and 3, T and T†) is refused as a usage error, never passed
    cccz = cccz_6t()
    ops = tuple(op for i, op in enumerate(cccz.ops) if i not in (1, 3))
    path = tmp_path / "c.qct"
    path.write_text(emit_text(Circuit(cccz.qubit_count, cccz.bit_count, ops, cccz.data_qubits)))
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--in", str(path), "--against", "cccz", f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tolerance" in captured.err
    assert run(capsys, "verify", "--in", str(path), "--against", "cccz")[0] == 1


def test_verify_rejects_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "t.qct"
    path.write_text("qubits 2\nbits 0\ndata 0 1\nt 0\n")
    code, _, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:3")
    assert code == 2
    assert "data qubits" in stderr


def synth_then_verify_cases() -> list:
    """Every synth --gate x --method x --x-target combination with n <= 6, as
    (synth flags, verify target with {} for z or x, kind)."""
    out = []
    for method in ("baseline", "optimized"):
        specs = [("cccz", ["--gate", "cccz"], "ccc{}")] + [
            (f"cnz{n}", ["--gate", "cnz", "-n", str(n)], f"cn{{}}:{n}")
            for n in range(2 if method == "baseline" else 3, 7)]
        for label, gate_args, against in specs:
            for kind in "zx":
                flags = [*gate_args, "--method", method] + (["--x-target"] if kind == "x" else [])
                out.append(pytest.param(flags, against, kind, id=f"{label}-{method}-{kind}"))
    return out


@pytest.mark.parametrize("flags, against, kind", synth_then_verify_cases())
def test_every_synthesized_circuit_verifies(tmp_path, capsys, flags, against, kind):
    path = tmp_path / "c.qct"
    assert run(capsys, "synth", *flags, "--out", str(path))[0] == 0
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against",
                               against.format(kind))
    assert code == 0, stderr
    assert json.loads(stdout)["passed"] is True
    # the Z- and X-type targets differ, so each rejects the other's circuit
    other = against.format("x" if kind == "z" else "z")
    assert run(capsys, "verify", "--in", str(path), "--against", other)[0] == 1


def synthesized() -> list:
    """cccz_6t and every ladder with n <= 8, both methods, as (synth flags, circuit, n)."""
    out = [pytest.param(["--gate", "cccz"], cccz_6t(), 3, id="cccz")]
    for method in Method:
        for n in range(2 if method is Method.BASELINE else 3, 9):
            flags = ["--gate", "cnz", "-n", str(n), "--method", method.value]
            out.append(pytest.param(flags, synth_cnz(CnZSpec(n), method), n,
                                    id=f"cnz{n}-{method.value}"))
    return out


@pytest.mark.parametrize("flags, circuit, n", synthesized())
def test_toggling_twice_is_the_identity(flags, circuit, n):
    once = cli._conjugate_target_with_h(circuit)
    assert len(once.ops) == len(circuit.ops) + 2
    assert cli._conjugate_target_with_h(once) == circuit


@pytest.mark.parametrize("flags, circuit, n", synthesized())
def test_toggling_an_x_target_output_gives_back_the_synthesized_circuit(
        tmp_path, capsys, flags, circuit, n):
    path = tmp_path / "x.qct"
    assert run(capsys, "synth", *flags, "--x-target", "--out", str(path))[0] == 0
    x_target = parse_text(path.read_text())
    h = Op(Gate.H, (n,))  # the highest data qubit
    assert (x_target.ops[0], x_target.ops[-1]) == (h, h)
    assert cli._conjugate_target_with_h(x_target).ops == circuit.ops


def test_toggle_cancels_only_an_unconditioned_h_on_the_highest_data_qubit():
    # the toggle reads only the end ops, so a conditioned H may stand first here
    h, t = Op(Gate.H, (2,)), Op(Gate.T, (0,))
    for end in (Op(Gate.H, (2,), None, (0, 1)), Op(Gate.H, (1,)), Op(Gate.X, (2,))):
        for ops in ((end, t), (t, end)):
            circuit = Circuit(4, 1, ops, frozenset({0, 1, 2}))
            assert cli._conjugate_target_with_h(circuit).ops == (h, *ops, h)
    circuit = Circuit(3, 0, (h, t, h), frozenset({0, 1, 2}))
    assert cli._conjugate_target_with_h(circuit).ops == (t,)


@pytest.mark.parametrize("flags, circuit, n", [p for p in synthesized() if p.values[2] <= 6])
def test_cnx_verify_prints_what_cnz_prints_for_the_plain_circuit(tmp_path, capsys, flags, circuit, n):
    # the X-type check is the Z-type check of the H-conjugated circuit, which is the
    # plain circuit again: every byte agrees, float residue included
    plain, x_target = tmp_path / "z.qct", tmp_path / "x.qct"
    run(capsys, "synth", *flags, "--out", str(plain))
    run(capsys, "synth", *flags, "--x-target", "--out", str(x_target))
    z, x = ("cccz", "cccx") if flags[1] == "cccz" else (f"cnz:{n}", f"cnx:{n}")
    z_type = run(capsys, "verify", "--in", str(plain), "--against", z)
    assert z_type[0] == 0
    assert run(capsys, "verify", "--in", str(x_target), "--against", x) == z_type


def moved_one_qubit_gates(circuit: Circuit) -> list[Circuit]:
    """Every valid circuit with one unitary 1-qubit op moved to another position."""
    out = []
    for i, op in enumerate(circuit.ops):
        if op.gate.is_unitary and op.gate.arity == 1:
            rest = circuit.ops[:i] + circuit.ops[i + 1:]
            for j in range(len(circuit.ops)):
                moved = Circuit(circuit.qubit_count, circuit.bit_count, (*rest[:j], op, *rest[j:]),
                                circuit.data_qubits)
                if j != i and not validate(moved):
                    out.append(moved)
    return out


def dense_cnx(n: int) -> np.ndarray:
    """C^nX with X on the highest data qubit: C^nZ with its last 2x2 block made X."""
    target = oracle_cnz(n)
    ones = [(1 << n) - 1, (2 << n) - 1]
    target[np.ix_(ones, ones)] = [[0, 1], [1, 0]]
    return target


# cccz_6t is also the n = 3 optimized ladder
@pytest.mark.parametrize("base, n", [
    pytest.param(cccz_6t(), 3, id="cccz"),
    pytest.param(synth_cnz(CnZSpec(2), Method.BASELINE), 2, id="cnz2-baseline"),
    pytest.param(synth_cnz(CnZSpec(3), Method.BASELINE), 3, id="cnz3-baseline"),
])
def test_toggle_then_cnz_agrees_with_the_dense_cnx_target_on_mutants(base, n):
    # the X-target circuit, and each one with an op deleted, T and T† swapped, a
    # condition flipped or a 1-qubit gate moved
    x_target = cli._conjugate_target_with_h(base)
    kinds = single_point_mutants(x_target)
    mutants = [m for kind in ("delete", "swap_t", "flip_condition") for _, m in kinds[kind]]
    circuits = {c.ops: c for c in [x_target, *mutants, *moved_one_qubit_gates(x_target)]}
    target, accepted = dense_cnx(n), 0
    for circuit in circuits.values():
        dense = check_implements(circuit, target)
        toggled = check_implements(cli._conjugate_target_with_h(circuit), oracle_cnz(n))
        assert (toggled.passed, toggled.ancilla_clean) == (dense.passed, dense.ancilla_clean)
        accepted += dense.passed
    assert 0 < accepted < len(circuits)


@pytest.mark.parametrize("against", ["cnz:٣", "cnx:３", "cnz:²", "cnz:0", "cnz:", "ccx"])
def test_verify_rejects_malformed_target(tmp_path, capsys, against):
    path = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--out", str(path))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", against)
    assert code == 2
    assert stdout == ""
    assert "unknown verification target" in stderr


def test_verify_rejects_unknown_target(tmp_path, capsys):
    path = tmp_path / "t.qct"
    path.write_text("qubits 1\nt 0\n")
    code, _, _ = run(capsys, "verify", "--in", str(path), "--against", "ccz")
    assert code == 2


def test_count_empty_file(tmp_path, capsys):
    path = tmp_path / "e.qct"
    path.write_text("qubits 0\nbits 0\ndata\n")
    code, stdout, _ = run(capsys, "count", "--in", str(path))
    assert code == 0
    assert json.loads(stdout) == {
        "t": 0, "clifford": 0, "measurements": 0, "ancillas": 0, "conditioned_gates": 0}


def test_count_cnz6_optimized(tmp_path, capsys):
    out = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cnz", "-n", "6", "--method", "optimized",
        "--out", str(out))
    code, stdout, _ = run(capsys, "count", "--in", str(out))
    assert code == 0
    assert json.loads(stdout)["t"] == 18


def test_count_missing_file(capsys):
    code, _, stderr = run(capsys, "count", "--in", "/nonexistent/x.qct")
    assert code == 2
    assert "error:" in stderr


def test_table_single_row(capsys):
    code, stdout, _ = run(capsys, "table", "--n-max", "3")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["3", "8", "6", "2"]


def test_table_savings_all_two(capsys):
    code, stdout, _ = run(capsys, "table", "--n-max", "6")
    assert code == 0
    rows = [line.split() for line in stdout.splitlines()[1:]]
    assert len(rows) == 4
    assert all(row[3] == "2" for row in rows)


def test_table_rejects_small_n_max(capsys):
    code, _, _ = run(capsys, "table", "--n-max", "2")
    assert code == 2


def test_table_rows_equal_the_counted_ladders(capsys):
    # the table counts n = 3 and 4 and adds one link per control: each row is a full count
    code, stdout, _ = run(capsys, "table", "--n-max", "64")
    assert code == 0
    rows = [[int(x) for x in line.split()] for line in stdout.splitlines()[1:]]
    expected = []
    for n in range(3, 65):
        base, opt = (count(synth_cnz(CnZSpec(n), m)).t for m in (Method.BASELINE, Method.OPTIMIZED))
        expected.append([n, base, opt, base - opt])
    assert rows == expected


def test_table_at_the_register_bound_is_fast(capsys):
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, "table", "--n-max", "32768")
    assert time.perf_counter() - start < 1
    assert (code, stderr) == (0, "")
    lines = stdout.splitlines()
    assert len(lines) == 32767
    assert lines[-1] == "32768      131068       131066       2"


@pytest.mark.parametrize("command", [["synth", "--gate", "cnz", "-n", "32769"], ["table", "--n-max", "32769"]],
                         ids=["synth", "table"])
def test_ladder_wider_than_the_register_bound_exits_2_at_once(tmp_path, capsys, command):
    # neither builds a ladder, nor prints a header or a row, before the bound is checked
    out = tmp_path / "wide.qct"
    argv = command + (["--out", str(out)] if command[0] == "synth" else [])
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < 0.25
    assert result == (2, "", "error: C^nZ synthesis allows at most 32768 controls, got n=32769\n")
    assert not out.exists()


def test_export_round_trips_through_quirk(tmp_path, capsys):
    out = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--out", str(out))
    code, stdout, _ = run(capsys, "export", "--in", str(out), "--format", "quirk")
    assert code == 0
    url = stdout.strip()
    assert parse_quirk_url(url) == parse_text(out.read_text())


def test_export_empty_circuit(tmp_path, capsys):
    path = tmp_path / "e.qct"
    path.write_text("qubits 0\nbits 0\ndata\n")
    code, stdout, _ = run(capsys, "export", "--in", str(path), "--format", "quirk")
    assert code == 0
    assert stdout.strip().startswith("https://algassert.com/quirk#circuit=")


def test_export_rejects_unsupported_construct(tmp_path, capsys):
    path = tmp_path / "r.qct"
    path.write_text("qubits 1\nbits 0\ndata 0\nreset 0\n")
    code, _, stderr = run(capsys, "export", "--in", str(path), "--format", "quirk")
    assert code == 2
    assert "error:" in stderr


def test_outputs_are_byte_deterministic(tmp_path, capsys):
    first = run(capsys, "table", "--n-max", "5")
    second = run(capsys, "table", "--n-max", "5")
    assert first == second
    out_a, out_b = tmp_path / "a.qct", tmp_path / "b.qct"
    _, json_a, _ = run(capsys, "synth", "--gate", "cnz", "-n", "4",
                       "--method", "baseline", "--out", str(out_a))
    _, json_b, _ = run(capsys, "synth", "--gate", "cnz", "-n", "4",
                       "--method", "baseline", "--out", str(out_b))
    assert json_a == json_b
    assert out_a.read_text() == out_b.read_text()


def test_repeated_calls_in_one_process_are_identical(tmp_path, capsys):
    # main shares one parser between calls; no call may leave state for the next
    cccz, broken, out = tmp_path / "cccz.qct", tmp_path / "broken.qct", tmp_path / "s.qct"
    circuit = cccz_6t()
    first_t = next(i for i, op in enumerate(circuit.ops) if op.gate is Gate.T)
    cccz.write_text(emit_text(circuit))
    broken.write_text(emit_text(Circuit(circuit.qubit_count, circuit.bit_count,
                                        circuit.ops[:first_t] + circuit.ops[first_t + 1:],
                                        circuit.data_qubits)))
    sequence = [
        ["verify", "--in", str(cccz), "--against", "cccz"],
        ["verify", "--in", str(cccz), "--against", "cccz", "--bogus"],
        ["verify", "--in", str(broken), "--against", "cccz"],
        ["synth", "--gate", "cnz", "-n", "3", "--out", str(out)],
        ["--help"],
    ]

    def once():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    first = once()
    assert [code for code, _, _ in first] == [0, 2, 1, 0, 0]
    assert "unrecognized arguments: --bogus" in first[1][2]
    assert once() == first


def test_one_shot_commands_run_without_numpy(tmp_path, capsys):
    # synth, count, export, table and a proved verify never load the brute-force engine,
    # so a process in which numpy cannot be imported prints what this one prints
    circuits = [("cccz.qct", ["--gate", "cccz"], "cccz"),
                ("b6.qct", ["--gate", "cnz", "-n", "6", "--method", "baseline"], "cnz:6"),
                ("o6.qct", ["--gate", "cnz", "-n", "6", "--method", "optimized"], "cnz:6"),
                ("x4.qct", ["--gate", "cnz", "-n", "4", "--x-target"], "cnx:4")]

    def commands(folder: str) -> list[list[str]]:
        out = [["table", "--n-max", "12"]]
        for name, flags, against in circuits:
            source = f"{folder}/{name}"
            out += [["synth", *flags, "--out", source], ["count", "--in", source],
                    ["export", "--in", source, "--format", "quirk"],
                    ["verify", "--in", source, "--against", against]]
        url = REFERENCE_QUIRK_CCCZ_URL
        return out + [["count", "--in", url], ["export", "--in", url, "--format", "quirk"],
                      ["verify", "--in", url, "--against", "cccz"]]

    (tmp_path / "blocked").mkdir()
    (tmp_path / "normal").mkdir()
    blocked, loaded = json.loads(run_fresh(f"""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None  # any import of numpy raises ImportError
        from cnzsynth.cli import main
        results = []
        for argv in {commands(str(tmp_path / "blocked"))!r}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results.append([main(argv), out.getvalue(), err.getvalue()])
        print(json.dumps([results, sorted(name for name in sys.modules if name.startswith("cnzsynth"))]))
    """))
    normal = [list(run(capsys, *argv)) for argv in commands(str(tmp_path / "normal"))]
    assert blocked == normal
    assert [code for code, _, _ in normal] == [0] * len(normal)
    assert sum(err.endswith("route=path-sum\n") for _, _, err in normal) == len(circuits) + 1
    assert "cnzsynth.simulator" not in loaded
    for name, _, _ in circuits:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


def test_an_undecided_verify_loads_the_engine_and_fails(tmp_path):
    # the n = 4 baseline ladder with its first tdg deleted: the proof is undecided and
    # the brute-force engine, imported for it alone, rejects the channel
    text = emit_text(synth_cnz(CnZSpec(4), Method.BASELINE)).splitlines(True)
    del text[next(i for i, line in enumerate(text) if line.startswith("tdg "))]
    path = tmp_path / "bad.qct"
    path.write_text("".join(text))
    out = run_fresh(f"""
        import contextlib, io, sys
        from cnzsynth.cli import main
        before = "cnzsynth.simulator" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "--in", {str(path)!r}, "--against", "cnz:4"])
        print(before, code, "route=" in err.getvalue(), "cnzsynth.simulator" in sys.modules)
    """)
    assert out.split() == ["False", "1", "False", "True"]
