"""Exact resource accounting for synthesized circuits.

The T / Clifford / conditioned split reflects the cost model: T and T† are
the expensive non-Clifford resource, every other unitary gate is a free
stabilizer operation, and conditioned gates are tallied statically whether
or not they fire at runtime. Measurements and resets are neither.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate, NON_CLIFFORD, require_valid


@dataclass(frozen=True)
class ResourceCount:
    t: int
    clifford: int
    measurements: int
    ancillas: int
    conditioned_gates: int


def count(circuit: Circuit) -> ResourceCount:
    """Exact tallies by scanning ops; raises on an invalid circuit."""
    require_valid(circuit, ValueError)
    t = clifford = measurements = conditioned = 0
    for op in circuit.ops:
        if op.gate in NON_CLIFFORD:
            t += 1
        elif op.gate is Gate.MEASURE:
            measurements += 1
        elif op.gate.is_unitary:
            clifford += 1
        if op.condition is not None:
            conditioned += 1
    return ResourceCount(
        t=t,
        clifford=clifford,
        measurements=measurements,
        ancillas=len(circuit.ancilla_qubits),
        conditioned_gates=conditioned,
    )
