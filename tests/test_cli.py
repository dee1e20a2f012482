"""Tests for the command-line interface: flags, exit codes, determinism."""
from __future__ import annotations

import json

import pytest

from cnzsynth import (
    DEFAULT_TOLERANCE, Circuit, CircuitBuilder, Gate, cccz_6t, check_implements, emit_text,
    parse_quirk_url, parse_text)
from cnzsynth import cli
from cnzsynth.cli import main
from quirk_fixtures import REFERENCE_QUIRK_CCCZ_URL


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
    code, _, _ = run(capsys, "synth", "--gate", "cnz", "--out", str(tmp_path / "c.qct"))
    assert code == 2


def test_synth_rejects_cccz_with_n(tmp_path, capsys):
    out = tmp_path / "c.qct"
    code, stdout, stderr = run(capsys, "synth", "--gate", "cccz", "-n", "5", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "synth --gate cccz takes no -n" in stderr
    assert not out.exists()


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


def test_verify_rejects_circuit_wider_than_the_key(tmp_path, capsys):
    # 22 qubits + 2 input label bits + 40 measurement and reset labels > 62
    bld = CircuitBuilder(22, (0, 1))
    for q in range(2, 22):
        bld.measure(q)
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
    monkeypatch.setattr(cli, "oracle_cnz", refuse)
    path = tmp_path / "wide.qct"
    path.write_text(emit_text(Circuit(30, 0, (), frozenset(range(30)))))
    code, stdout, stderr = run(capsys, "verify", "--in", str(path), "--against", "cnz:29")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: Unable to allocate")


def test_verify_tolerance_defaults_to_the_library_default(tmp_path, capsys, monkeypatch):
    # verify has no tolerance flag: every check runs at the library default
    seen = []

    def spy(circuit, target, tolerance=DEFAULT_TOLERANCE):
        seen.append(tolerance)
        return check_implements(circuit, target, tolerance)
    monkeypatch.setattr(cli, "check_implements", spy)
    path = tmp_path / "c.qct"
    run(capsys, "synth", "--gate", "cccz", "--out", str(path))
    code, _, _ = run(capsys, "verify", "--in", str(path), "--against", "cccz")
    assert code == 0
    assert seen == [DEFAULT_TOLERANCE]


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
