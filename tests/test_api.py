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

        print(loaded())
        cnzsynth.parse_text
        print(loaded())
        cnzsynth.count
        print(loaded())
        try:
            cnzsynth.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    core = ["cnzsynth", "cnzsynth.circuit", "cnzsynth.simulator", "cnzsynth.synthesis",
            "cnzsynth.verify"]
    with_codec = sorted(core + ["cnzsynth.codec"])
    assert out.splitlines() == [
        repr(core),
        repr(with_codec),
        repr(sorted(with_codec + ["cnzsynth.resources"])),
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
    # operations keep the first cli, whose first verify loaded the proof module for good
    path = tmp_path / "cccz.qct"
    out = run_fresh(f"""
        import contextlib
        import importlib
        import io
        import sys
        first = importlib.import_module("cnzsynth")
        cli = importlib.import_module("cnzsynth.cli")
        print("cnzsynth.pathsum" not in sys.modules)
        with open({str(path)!r}, "w") as f:
            f.write(first.emit_text(first.cccz_6t()))

        def verify():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(["verify", "--in", {str(path)!r}, "--against", "cccz"])

        print(verify() == 0, "cnzsynth.pathsum" in sys.modules)
        for name in [n for n in sys.modules if n.startswith("cnzsynth")]:
            del sys.modules[name]
        second = importlib.import_module("cnzsynth")
        importlib.import_module("cnzsynth.cli")
        back = first.parse_text(first.emit_text(first.cccz_6t()))
        print(second is not first, second.Circuit is not first.Circuit,
              type(back) is first.Circuit, back == first.cccz_6t(), verify() == 0,
              "cnzsynth.pathsum" not in sys.modules)
    """)
    assert out.split() == ["True"] * 9
