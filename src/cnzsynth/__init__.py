"""Clifford+T synthesis and verification of multi-controlled-Z gates.

Synthesizes C^nZ circuits built from 4-T temporary ANDs, measurement-based
uncomputation, and a 6-T feedback CCCZ core, and machine-checks them by
exhaustive channel comparison against brute-force oracles.
"""
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
from .codec import (
    CodecError,
    QUIRK_URL_PREFIX,
    emit_text,
    export_quirk_url,
    parse_quirk_url,
    parse_text,
)
from .resources import ComparisonRow, ResourceCount, compare, count
from .simulator import (
    BranchRecord,
    SimulationError,
    run_branches,
    unitary_of,
)
from .synthesis import CnZSpec, Method, and_compute, and_uncompute, cccz_6t, synth_cnz
from .verify import (
    BranchReport,
    ChannelVerdict,
    DEFAULT_TOLERANCE,
    check_implements,
    check_phase_identity,
    oracle_cnz,
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
    "ComparisonRow",
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
    "compare",
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
