import random
from fractions import Fraction

from dirmat.dirichlet import dirichlet_matroid
from dirmat.families import double_path, hexwheel, path, star, sunflower, triangle
from dirmat.grovepoly import (
    chromatic_poly,
    count_precolorings,
    cpintro_compare,
    grove_polys,
    hexwheel_scan,
    network_graph,
    precoloring_poly,
)
from dirmat.network import add_boundary_clique
from dirmat.polynomials import IntPoly

from bruteforce import brute_color_count


def _count(poly):
    # the coefficients of a generating polynomial add up to the family's size
    return sum(poly.terms.values())


def test_grove_counts_path3():
    gp = grove_polys(path(3))
    # spanning trees of the two-vertex identified graph: each single edge
    assert _count(gp["P0"]) == 2
    # the only crossing uses both edges
    assert _count(gp["P1"]) == 1


def test_grove_counts_pinned():
    known = {
        "hexwheel(5)": (121, 165),
        "hexwheel(6)": (320, 528),
        "sunflower(4)": (192, 480),
    }
    for net in [hexwheel(5), hexwheel(6), sunflower(4)]:
        gp = grove_polys(net)
        s0, s1 = known[net.name]
        assert _count(gp["P0"]) == s0
        assert _count(gp["P1"]) == s1


def test_pair_buckets_cover_p1():
    for net in [triangle(), star(4), double_path()]:
        gp = grove_polys(net)
        assert sum(_count(p) for p in gp["pairs"].values()) == _count(gp["P1"])


def test_chromatic_poly_matches_brute_force():
    for net in [path(3), triangle(), star(3), hexwheel(3)]:
        g = network_graph(net)
        chi = chromatic_poly(g)
        for k in range(5):
            assert chi(k) == brute_color_count(g, k)


def test_precoloring_poly_counts_extensions():
    for net in [path(3), path(4), triangle(), star(4), hexwheel(3)]:
        phi = precoloring_poly(net)
        m = len(net.boundary)
        for k in range(m, 7):
            assert phi(k) == count_precolorings(net, k)


def test_precoloring_hexwheel3_pinned():
    assert precoloring_poly(hexwheel(3)).pretty("λ") == "λ^3 - 6λ^2 + 14λ - 13"


def test_factorization_through_boundary_clique():
    for net in [path(3), triangle(), star(3), star(5), hexwheel(4)]:
        m = len(net.boundary)
        chi = dirichlet_matroid(net).char_poly()
        lhs = chi * IntPoly.falling_factorial(m)
        rhs = chromatic_poly(add_boundary_clique(net)) * IntPoly((-1, 1))
        assert lhs == rhs


def test_cpintro_domination_triangle():
    rep = cpintro_compare(triangle())
    assert rep["a"] == [1, 5, 9]
    assert rep["b"] == [1, 5, 7]
    assert rep["dominates"]
    assert rep["equal_below"] == 2
    assert rep["equal_ok"]


def test_whitney_broken_circuit_counts():
    rng = random.Random(5)
    for net in [path(3), triangle(), star(4)]:
        M = dirichlet_matroid(net)
        chi = M.char_poly()
        r = M.full_rank()
        ground = list(M.ground)
        for _ in range(4):
            rng.shuffle(ground)
            counts = M.nbc_counts(order=list(ground))
            for i, w in enumerate(counts):
                assert chi[r - i] == (-1) ** i * w


def test_hexwheel_scan_base_cases_and_recurrence():
    rows = hexwheel_scan(6)
    by_m = {r["m"]: r for r in rows}
    assert by_m[3]["poly"].pretty("λ") == "λ^3 - 6λ^2 + 14λ - 13"
    # closed form and chromatic route agree everywhere they run
    for m, row in by_m.items():
        assert "closed-form" in row["agreements"]
        assert "recurrence-unshifted" not in row["agreements"]
    # the printed recurrence only matches after the argument shift
    for m in (5, 6):
        assert "recurrence" in by_m[m]["agreements"]
        assert "recurrence-unshifted" in by_m[m]["mismatches"]
