"""Planted defects: each row makes one kernel wrong in a way that some check
claims to catch, and every check the row names must then fail.

A row is (name, owner, attribute, plant, checks): `plant` takes the real
attribute and returns the defective one, which is set on `owner` for the
duration of the test. Each check passes on the real code in its own module.
"""

import pytest

from dirmat.matroid import Matroid

from test_circuits import DUAL_CIRCUIT_COUNTS, circuit_mismatches, dual_circuit_counts


def drop_first(circuits):
    def planted(self, within=None, limit=16):
        return circuits(self, within, limit)[1:]

    return planted


def add_union(circuits):
    def planted(self, within=None, limit=16):
        found = circuits(self, within, limit)
        return found + (found[0] | found[1],) if len(found) > 1 else found

    return planted


CHECKS = {
    "circuits match the scan": lambda: circuit_mismatches() == [],
    "dual circuit counts": lambda: dual_circuit_counts() == DUAL_CIRCUIT_COUNTS,
}

ROWS = [
    ("circuits drops its first", Matroid, "circuits", drop_first,
     ("circuits match the scan", "dual circuit counts")),
    ("circuits adds a union of two", Matroid, "circuits", add_union,
     ("circuits match the scan", "dual circuit counts")),
]


@pytest.mark.parametrize(
    "row, check",
    [(row, check) for row in ROWS for check in row[4]],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_planted_defect_fails_the_check(monkeypatch, row, check):
    _, owner, attr, plant, _ = row
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    assert not CHECKS[check]()
