"""The package's public names: each one kept has a caller outside the tests."""
from __future__ import annotations

import cnzsynth

PUBLIC = {
    "BranchRecord", "BranchReport", "ChannelVerdict", "Circuit", "CircuitBuilder",
    "CircuitError", "CnZSpec", "CodecError", "ComparisonRow", "DEFAULT_TOLERANCE", "Gate",
    "Method", "NON_CLIFFORD", "Op", "QUIRK_URL_PREFIX", "ResourceCount", "SimulationError",
    "Violation", "and_compute", "and_uncompute", "cccz_6t", "check_implements",
    "check_phase_identity", "compare", "compose", "count", "emit_text", "export_quirk_url",
    "oracle_cnz", "parse_quirk_url", "parse_text", "remap_qubits", "run_branches",
    "synth_cnz", "unitary_of", "validate",
}


def test_all_lists_exactly_the_kept_names_and_each_resolves():
    assert len(cnzsynth.__all__) == len(PUBLIC) == 36
    assert set(cnzsynth.__all__) == PUBLIC
    for name in cnzsynth.__all__:
        assert hasattr(cnzsynth, name), name
