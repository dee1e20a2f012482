"""Tests for resource accounting."""
from __future__ import annotations

import pytest

from cnzsynth import (
    Circuit,
    CnZSpec,
    Method,
    cccz_6t,
    count,
    synth_cnz,
)


def test_count_empty_circuit_is_all_zeros():
    rc = count(Circuit(0, 0, (), frozenset()))
    assert (rc.t, rc.clifford, rc.measurements, rc.ancillas, rc.conditioned_gates) == (0, 0, 0, 0, 0)


def test_count_cccz():
    rc = count(cccz_6t())
    assert rc.t == 6
    assert rc.measurements == 1
    assert rc.conditioned_gates == 2
    assert rc.ancillas == 1
    # H + 7 CX + sqrt(X)† + 2 conditioned CZ; measure and reset are not Cliffords
    assert rc.clifford == 11


def test_count_conditioned_gates_counted_statically():
    rc = count(cccz_6t())
    # both fixups land in the Clifford tally even though only one fires per run
    assert rc.conditioned_gates == 2


def test_count_cnz4_optimized():
    rc = count(synth_cnz(CnZSpec(4), Method.OPTIMIZED))
    assert rc.t == 10
    assert rc.ancillas == 2


def test_count_rejects_invalid_circuit():
    from cnzsynth import Gate, Op
    broken = Circuit(1, 0, (Op(Gate.CZ, (0, 0)),), frozenset({0}))
    with pytest.raises(ValueError, match="invalid circuit"):
        count(broken)


def counted_t(n: int) -> tuple[int, int]:
    """Counted T costs of the baseline and the optimized C^nZ ladder."""
    return tuple(count(synth_cnz(CnZSpec(n), m)).t for m in (Method.BASELINE, Method.OPTIMIZED))


@pytest.mark.parametrize("n,expected", [(3, (8, 6)), (4, (12, 10)), (6, (20, 18))])
def test_compare_known_rows(n, expected):
    assert counted_t(n) == expected


@pytest.mark.parametrize("n", range(3, 9))
def test_compare_matches_closed_forms(n):
    assert counted_t(n) == (4 * n - 4, 4 * n - 6)
