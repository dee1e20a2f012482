"""Clifford+T synthesis and verification of multi-controlled-Z gates.

Synthesizes C^nZ circuits built from 4-T temporary ANDs, measurement-based
uncomputation, and a 6-T feedback CCCZ core, and machine-checks them by
exhaustive channel comparison against brute-force oracles.

Importing the package loads circuit, synthesis and verify, and no numpy; its
codec, resources, pathsum and simulator (with numpy) are package attributes,
each imported on first use of it or of one of its public names.
"""
import importlib
import sys

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    Op,
    Violation,
    compose,
    remap_qubits,
    validate,
)
from .synthesis import CnZSpec, Method, and_compute, and_uncompute, cccz_6t, synth_cnz
from .verify import (
    BranchReport,
    ChannelVerdict,
    check_implements,
    check_phase_identity,
)

__all__ = [
    "BranchRecord",
    "BranchReport",
    "ChannelVerdict",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "CnZSpec",
    "CodecError",
    "Gate",
    "Method",
    "Op",
    "ResourceCount",
    "SimulationError",
    "Violation",
    "and_compute",
    "and_uncompute",
    "cccz_6t",
    "check_implements",
    "check_phase_identity",
    "compose",
    "count",
    "emit_text",
    "export_quirk_url",
    "oracle_cnz",
    "parse_quirk_url",
    "parse_text",
    "remap_qubits",
    "run_branches",
    "synth_cnz",
    "unitary_of",
    "validate",
]

__version__ = "0.1.0"

#: The modules imported on first use (PEP 562), each with its public names.
_LAZY = {
    "codec": ("CodecError", "emit_text", "export_quirk_url", "parse_quirk_url", "parse_text"),
    "resources": ("ResourceCount", "count"),
    "pathsum": (),
    "simulator": ("BranchRecord", "SimulationError", "oracle_cnz", "run_branches", "unitary_of"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):  # a lazy module or public name; importing binds the module in globals()
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if (loaded := globals().get(module)) is None:
        qualified = f"{__name__}.{module}"
        if getattr(sys.modules.get(__name__), "__dict__", None) is not globals():
            raise ImportError(f"{qualified} was first used after {__name__} was imported again; "
                              "load it before the re-import", name=qualified)
        loaded = importlib.import_module(qualified)
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
