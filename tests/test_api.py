"""The package's public names and how a copy of the package loads its modules.

The public names are what the CLI, the acceptance suite or the benchmark needs,
with the types their results carry and the errors their calls raise (CircuitError,
CodecError, SimulationError). Constants stay in the modules that define them.
"""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cnzsynth

PUBLIC = {
    "BranchRecord", "BranchReport", "ChannelVerdict", "Circuit", "CircuitBuilder",
    "CircuitError", "CnZSpec", "CodecError", "Gate", "Method", "Op", "ResourceCount",
    "SimulationError", "Violation", "and_compute", "and_uncompute", "cccz_6t",
    "check_implements", "check_phase_identity", "compose", "count", "emit_text",
    "export_quirk_url", "oracle_cnz", "parse_quirk_url", "parse_text", "remap_qubits",
    "run_branches", "synth_cnz", "unitary_of", "validate",
}

#: Constants that no caller reads through the package, by their defining module.
MODULE_ONLY = {"DEFAULT_TOLERANCE": "verify", "NON_CLIFFORD": "circuit", "QUIRK_URL_PREFIX": "codec"}


def test_all_lists_exactly_the_kept_names_and_each_resolves():
    assert len(cnzsynth.__all__) == len(PUBLIC) == 31
    assert set(cnzsynth.__all__) == PUBLIC
    for name in cnzsynth.__all__:
        assert hasattr(cnzsynth, name), name


def test_constants_live_only_in_their_modules():
    for name, module in MODULE_ONLY.items():
        assert not hasattr(cnzsynth, name), name
        assert name in vars(importlib.import_module(f"cnzsynth.{module}")), name
    assert not hasattr(cnzsynth.ResourceCount, "to_dict")


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
        cnzsynth.pathsum
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
    with_proof = sorted(core + ["cnzsynth.pathsum"])
    with_codec = sorted(with_proof + ["cnzsynth.codec"])
    with_count = sorted(with_codec + ["cnzsynth.resources"])
    assert out.splitlines() == [
        f"{core!r} False",
        f"{with_proof!r} False",
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
    assert PUBLIC <= set(listed) and not MODULE_ONLY.keys() & set(listed)


def test_a_reimport_leaves_the_first_package_on_its_own_classes(tmp_path):
    # the benchmark's set-up: import, use, drop every cnzsynth module, import again. The
    # first copy loaded each module it uses before the re-import, so its codec, count,
    # engine and CLI keep working on its own classes, and the second copy loads its own
    path, bad = tmp_path / "cccz.qct", tmp_path / "bad.qct"
    out = run_fresh(f"""
        import contextlib
        import importlib
        import io
        import sys
        import numpy as np
        first = importlib.import_module("cnzsynth")
        cli = importlib.import_module("cnzsynth.cli")
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

        target = np.diag([1.0] * 15 + [-1.0])
        proved, failed = verify(cli, {str(path)!r}, "cccz"), verify(cli, {str(bad)!r}, "cnz:4")
        verdict = first.check_implements(first.cccz_6t(), target)
        print(proved[0] == 0, proved[2].endswith("route=path-sum\\n"), failed[0] == 1, "route=" not in failed[2],
              verdict.passed)
        for name in [n for n in sys.modules if n.startswith("cnzsynth")]:
            del sys.modules[name]
        second = importlib.import_module("cnzsynth")
        second_cli = importlib.import_module("cnzsynth.cli")
        before = dict(sys.modules)
        text = first.emit_text(first.cccz_6t())
        back = first.parse_text(text)
        counted, again = first.count(back), first.check_implements(back, target)
        try:
            first.parse_text("qubits 1\\nbogus 0\\n")
        except Exception as exc:
            refused = type(exc) is first.CodecError
        print(type(back) is first.Circuit, back == first.cccz_6t(), refused,
              type(first.parse_quirk_url(first.export_quirk_url(back))) is first.Circuit,
              type(counted) is first.ResourceCount,
              counted.t == 6, type(again) is first.ChannelVerdict, repr(again) == repr(verdict),
              verify(cli, {str(path)!r}, "cccz") == proved, verify(cli, {str(bad)!r}, "cnz:4") == failed,
              first.pathsum.ChannelVerdict is first.simulator.ChannelVerdict is first.ChannelVerdict,
              dict(sys.modules) == before)
        ours = second.parse_text(text)
        print(second.Circuit is not first.Circuit, type(ours) is second.Circuit,
              type(second.count(ours)) is second.ResourceCount,
              repr(second.check_implements(ours, target)) == repr(verdict),
              verify(second_cli, {str(path)!r}, "cccz") == proved, verify(second_cli, {str(bad)!r}, "cnz:4") == failed,
              all(vars(second)[m] is sys.modules["cnzsynth." + m] is not vars(first)[m]
                  for m in ("codec", "resources", "pathsum", "simulator")),
              second.pathsum.ChannelVerdict is second.simulator.ChannelVerdict is second.ChannelVerdict)
    """)
    assert out.split() == ["True"] * 25


def test_a_first_load_after_a_reimport_raises_and_leaves_the_import_table(tmp_path):
    # each copy's first use of a lazy module comes after the package was imported again:
    # the first copy's count (resources), check_implements (simulator), parse_text (codec) and
    # pathsum attribute, and the second copy's CLI's first verify (pathsum). Each raises ImportError
    # naming the module it would have loaded, and neither the import table nor the old copy changes
    path = tmp_path / "cccz.qct"
    out = run_fresh(f"""
        import contextlib
        import importlib
        import io
        import json
        import sys
        import numpy as np

        def reimport():
            for name in [n for n in sys.modules if n.startswith("cnzsynth")]:
                del sys.modules[name]
            return importlib.import_module("cnzsynth")

        def entries():  # the package's; a first cli.main call may import locale for argparse
            return {{name: module for name, module in sys.modules.items() if name.startswith("cnzsynth")}}

        def refused(package, use):
            before = entries()
            try:
                use()
            except ImportError as exc:
                module = exc.name.rpartition(".")[2]
                return [exc.name, exc.name in str(exc), entries() == before, module not in vars(package)]
            return "loaded"

        first = importlib.import_module("cnzsynth")
        second = reimport()
        cli = importlib.import_module("cnzsynth.cli")
        third = reimport()
        with open({str(path)!r}, "w") as f:
            f.write(third.emit_text(third.cccz_6t()))

        def verify():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(["verify", "--in", {str(path)!r}, "--against", "cccz"])

        print(json.dumps([refused(first, lambda: first.count),
                          refused(first, lambda: first.check_implements(first.cccz_6t(), np.diag([1.0] * 15 + [-1.0]))),
                          refused(second, verify),
                          refused(first, lambda: first.parse_text("qubits 1\\n")),
                          refused(first, lambda: first.pathsum)]))
        print(third.count(third.cccz_6t()).t, third.check_implements(third.cccz_6t(), third.oracle_cnz(3)).passed)
    """)
    assert out.splitlines() == [
        json.dumps([[f"cnzsynth.{name}", True, True, True]
                    for name in ("resources", "simulator", "pathsum", "codec", "pathsum")]),
        "6 True",
    ]


def test_no_module_in_src_writes_the_import_table():
    # sys.modules is read in src/ (the copy's own package), never assigned to, popped from or updated
    def import_table(node):
        return (isinstance(node, ast.Attribute) and node.attr == "modules"
                and isinstance(node.value, ast.Name) and node.value.id == "sys")

    mutators = {"pop", "popitem", "update", "setdefault", "clear", "__setitem__", "__delitem__"}
    reads, writes = 0, []
    for path in sorted(Path(cnzsynth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (import_table(node) and not isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Subscript) and import_table(node.value) and not isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and import_table(node.value) and node.attr in mutators):
                writes.append(f"{path.name}:{node.lineno}")
            reads += import_table(node)
    assert reads >= 2 and writes == []
