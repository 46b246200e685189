"""Planted defects: each row makes one kernel wrong in a way that some check
claims to catch, and every check the row names must then fail.

A row is (name, owner, attribute, plant, checks): `plant` takes the real
attribute and returns the defective one, which is set on `owner`, and on
every dirmat module that imported it by name, for the duration of the test.
Each check passes on the real code in its own module.
"""

import sys

import pytest

from dirmat import circular, dirichlet
from dirmat.families import path, star, sunflower, wheatstone
from dirmat.matroid import Matroid
from dirmat.network import EH
from dirmat.verify import run_suite

from test_circuits import DUAL_CIRCUIT_COUNTS, circuit_mismatches, dual_circuit_counts
from test_circular import non_cocircuits_refused
from test_dirichlet import cocircuit_test_mismatches


def drop_first(circuits):
    def planted(self, within=None, limit=16):
        return circuits(self, within, limit)[1:]

    return planted


def add_union(circuits):
    def planted(self, within=None, limit=16):
        found = circuits(self, within, limit)
        return found + (found[0] | found[1],) if len(found) > 1 else found

    return planted


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def without_the_boundary_clause(_):
    """The one-pass test, but an edge of Z joining two components that both
    hold boundary nodes counts as raising the rank even when u(H) = 1."""

    def build(net):
        m = len(net.boundary)
        ends, forest = dirichlet._lift_forest(net)
        eh_bit = 1 << len(ends)
        merges, c_b, _ = forest(eh_bit - 1)

        def test(zmask):
            h_merges, h_c_b, parent = forest(~zmask & (eh_bit - 1))
            u = h_c_b < m or not zmask & eh_bit
            if h_merges - m + h_c_b + u != merges - m + c_b or u and zmask & eh_bit:
                return False
            return all(
                _root(parent, a) != _root(parent, c)
                for i, (a, c) in enumerate(ends)
                if zmask >> i & 1
            )

        return test

    return build


def accept_all(_):
    return lambda net: lambda zmask: True


def without_the_crossing_bump(_):
    """The lift rank, plus one only for `eh`, never for c_B < m."""

    def build(net):
        m = len(net.boundary)
        _, forest = dirichlet._lift_forest(net)
        eh_bit = 1 << len(net.edge_order)

        def rank(mask):
            merges, c_b, _ = forest(mask & (eh_bit - 1))
            return merges - m + c_b + (1 if mask & eh_bit else 0)

        return rank

    return build


def drop_bonds(cocircuits):
    def planted(net, node_limit=4_000_000):
        return tuple(z for z in cocircuits(net, node_limit) if EH in z)

    return planted


def drop_second_half(cocircuits):
    def planted(net, node_limit=4_000_000):
        found = cocircuits(net, node_limit)
        return found[: len(found) // 2]

    return planted


CHECKS = {
    "circuits match the scan": lambda: circuit_mismatches() == [],
    "dual circuit counts": lambda: dual_circuit_counts() == DUAL_CIRCUIT_COUNTS,
    "cocircuit test matches the rank test": lambda: cocircuit_test_mismatches() == [],
    "min cover refuses non-cocircuits": non_cocircuits_refused,
    "duality suite": lambda: run_suite(
        "duality", nets=[wheatstone(), sunflower(3), sunflower(4)]
    )["all_ok"],
    "oracle suite": lambda: run_suite(
        "oracles", nets=[path(3), star(3), sunflower(3)]
    )["all_ok"],
}

ROWS = [
    ("circuits drops its first", Matroid, "circuits", drop_first,
     ("circuits match the scan", "dual circuit counts")),
    ("circuits adds a union of two", Matroid, "circuits", add_union,
     ("circuits match the scan", "dual circuit counts")),
    ("cocircuit test ignores the boundary clause", dirichlet, "_cocircuit_test",
     without_the_boundary_clause, ("cocircuit test matches the rank test",)),
    ("cocircuit test accepts every candidate", dirichlet, "_cocircuit_test",
     accept_all,
     ("cocircuit test matches the rank test", "min cover refuses non-cocircuits")),
    ("cocircuits drop the bonds", dirichlet, "network_cocircuits", drop_bonds,
     ("duality suite",)),
    ("cocircuits drop the second half", dirichlet, "network_cocircuits",
     drop_second_half, ("duality suite",)),
    ("lift rank drops the crossing bump", dirichlet, "_lift_engine",
     without_the_crossing_bump, ("oracle suite",)),
]


@pytest.mark.parametrize(
    "row, check",
    [(row, check) for row in ROWS for check in row[4]],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_planted_defect_fails_the_check(monkeypatch, row, check):
    _, owner, attr, plant, _ = row
    real = getattr(owner, attr)
    planted = plant(real)
    monkeypatch.setattr(owner, attr, planted)
    for name, module in list(sys.modules.items()):
        if name.startswith("dirmat.") and getattr(module, attr, None) is real:
            monkeypatch.setattr(module, attr, planted)
    assert not CHECKS[check]()
