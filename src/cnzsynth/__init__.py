"""Clifford+T synthesis and verification of multi-controlled-Z gates.

Synthesizes C^nZ circuits built from 4-T temporary ANDs, measurement-based
uncomputation, and a 6-T feedback CCCZ core, and machine-checks them by
exhaustive channel comparison against brute-force oracles.

Importing the package loads circuit, synthesis and verify, and no numpy; a
codec, count or branch-engine name imports its module on first use (the
branch engine, simulator, through ``verify.engine``, and numpy with it).
"""
import importlib

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    NON_CLIFFORD,
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
    DEFAULT_TOLERANCE,
    check_implements,
    check_phase_identity,
    engine as _engine,
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
    "DEFAULT_TOLERANCE",
    "Gate",
    "Method",
    "NON_CLIFFORD",
    "Op",
    "QUIRK_URL_PREFIX",
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

#: Public names whose module is imported on first use (PEP 562).
_LAZY = {
    **dict.fromkeys(("CodecError", "QUIRK_URL_PREFIX", "emit_text", "export_quirk_url",
                     "parse_quirk_url", "parse_text"), "codec"),
    **dict.fromkeys(("ResourceCount", "count"), "resources"),
    **dict.fromkeys(("BranchRecord", "SimulationError", "oracle_cnz", "run_branches",
                     "unitary_of"), "simulator"),
}


def __getattr__(name):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if submodule == "simulator":  # this copy's engine, even when first used after a re-import
        return getattr(_engine(), name)
    # This package's own submodule first: after a re-import, import_module
    # would return the new copy, whose classes are not this copy's.
    module = globals().get(submodule) or importlib.import_module(f".{submodule}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
