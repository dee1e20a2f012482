"""Clifford+T synthesis and verification of multi-controlled-Z gates.

Synthesizes C^nZ circuits built from 4-T temporary ANDs, measurement-based
uncomputation, and a 6-T feedback CCCZ core, and machine-checks them by
exhaustive channel comparison against brute-force oracles.

Importing the package loads circuit, synthesis and verify, and no numpy; a
codec, count or branch-engine name imports its module on first use through
``verify.load`` (the branch engine, simulator, with numpy).
"""
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
    load as _load,
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

#: Public names whose module is imported on first use (PEP 562).
_LAZY = {
    **dict.fromkeys(("CodecError", "emit_text", "export_quirk_url", "parse_quirk_url",
                     "parse_text"), "codec"),
    **dict.fromkeys(("ResourceCount", "count"), "resources"),
    **dict.fromkeys(("BranchRecord", "SimulationError", "oracle_cnz", "run_branches",
                     "unitary_of"), "simulator"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_load(_LAZY[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
