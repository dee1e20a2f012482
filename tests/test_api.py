"""The package's public names: each one kept has a caller outside the tests."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cnzsynth

PUBLIC = {
    "BranchRecord", "BranchReport", "ChannelVerdict", "Circuit", "CircuitBuilder",
    "CircuitError", "CnZSpec", "CodecError", "DEFAULT_TOLERANCE", "Gate", "Method",
    "NON_CLIFFORD", "Op", "QUIRK_URL_PREFIX", "ResourceCount", "SimulationError",
    "Violation", "and_compute", "and_uncompute", "cccz_6t", "check_implements",
    "check_phase_identity", "compose", "count", "emit_text", "export_quirk_url",
    "oracle_cnz", "parse_quirk_url", "parse_text", "remap_qubits", "run_branches",
    "synth_cnz", "unitary_of", "validate",
}


def test_all_lists_exactly_the_kept_names_and_each_resolves():
    assert len(cnzsynth.__all__) == len(PUBLIC) == 34
    assert set(cnzsynth.__all__) == PUBLIC
    for name in cnzsynth.__all__:
        assert hasattr(cnzsynth, name), name


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this ``cnzsynth``; return its stdout."""
    src = str(Path(cnzsynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_the_verification_core_and_the_rest_on_first_use():
    out = run_fresh("""
        import sys
        import cnzsynth

        def loaded():
            return sorted(name for name in sys.modules if name.startswith("cnzsynth"))

        print(loaded(), "numpy" in sys.modules)
        cnzsynth.parse_text
        print(loaded())
        cnzsynth.count
        print(loaded())
        cnzsynth.run_branches
        print(loaded(), "numpy" in sys.modules)
        try:
            cnzsynth.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    core = ["cnzsynth", "cnzsynth.circuit", "cnzsynth.synthesis", "cnzsynth.verify"]
    with_codec = sorted(core + ["cnzsynth.codec"])
    with_count = sorted(with_codec + ["cnzsynth.resources"])
    assert out.splitlines() == [
        f"{core!r} False",
        repr(with_codec),
        repr(with_count),
        f"{sorted(with_count + ['cnzsynth.simulator'])!r} True",
        "module 'cnzsynth' has no attribute 'no_such_name'",
    ]


def test_star_import_and_dir_list_every_public_name():
    out = run_fresh("""
        import json
        import cnzsynth
        names = {}
        exec("from cnzsynth import *", names)
        print(json.dumps([sorted(set(names) - {"__builtins__"}), dir(cnzsynth)]))
    """)
    bound, listed = json.loads(out)
    assert bound == sorted(PUBLIC)
    assert PUBLIC <= set(listed)


def test_a_reimport_leaves_the_first_package_on_its_own_classes(tmp_path):
    # the benchmark's set-up: import, drop every cnzsynth module, import again; its
    # operations keep the first cli, whose first verify loaded the proof module for good,
    # and the first package's engine, even when its first use comes after the re-import
    path, bad = tmp_path / "cccz.qct", tmp_path / "bad.qct"
    out = run_fresh(f"""
        import contextlib
        import importlib
        import io
        import sys
        import numpy as np
        first = importlib.import_module("cnzsynth")
        cli = importlib.import_module("cnzsynth.cli")
        print("cnzsynth.pathsum" not in sys.modules)
        with open({str(path)!r}, "w") as f:
            f.write(first.emit_text(first.cccz_6t()))
        # the n = 4 ladder with its first tdg deleted: the proof is undecided, brute force fails it
        lines = first.emit_text(first.synth_cnz(first.CnZSpec(4), first.Method.BASELINE)).splitlines(True)
        del lines[next(i for i, line in enumerate(lines) if line.startswith("tdg "))]
        with open({str(bad)!r}, "w") as f:
            f.write("".join(lines))

        def verify(cli, source, against):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(["verify", "--in", source, "--against", against]), out.getvalue(), err.getvalue()

        print(verify(cli, {str(path)!r}, "cccz")[0] == 0, "cnzsynth.pathsum" in sys.modules,
              "cnzsynth.simulator" not in sys.modules)
        for name in [n for n in sys.modules if n.startswith("cnzsynth")]:
            del sys.modules[name]
        second = importlib.import_module("cnzsynth")
        second_cli = importlib.import_module("cnzsynth.cli")
        back = first.parse_text(first.emit_text(first.cccz_6t()))
        print(second is not first, second.Circuit is not first.Circuit,
              type(back) is first.Circuit, back == first.cccz_6t(), verify(cli, {str(path)!r}, "cccz")[0] == 0,
              "cnzsynth.pathsum" not in sys.modules)
        # the first package's first brute-force checks: its own engine, not the second package's
        target = np.diag([1.0] * 15 + [-1.0])
        verdict = first.check_implements(first.cccz_6t(), target)
        failed = verify(cli, {str(bad)!r}, "cnz:4")
        print(type(verdict) is first.ChannelVerdict, verdict.passed, failed[0] == 1,
              "route=" not in failed[2], "cnzsynth.simulator" not in sys.modules)
        # the same checks in the second package, which loads an engine of its own
        print(repr(verdict) == repr(second.check_implements(second.cccz_6t(), target)),
              failed == verify(second_cli, {str(bad)!r}, "cnz:4"),
              first.verify.engine() is not second.verify.engine() is sys.modules["cnzsynth.simulator"])
    """)
    assert out.split() == ["True"] * 18
