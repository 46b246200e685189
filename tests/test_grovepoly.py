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
    precoloring_poly,
)
from dirmat.network import add_boundary_clique
from dirmat.polynomials import IntPoly
from dirmat.verify import corpus

from bruteforce import brute_color_count


def _count(poly):
    # the coefficients of a generating polynomial add up to the family's size
    return sum(c for c, _ in poly.terms)


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


def _at(vec, i, val):
    out = list(vec)
    out[i] = val
    return out


def test_multiaffine_partials_and_lines_against_values():
    # full() against the multiaffine difference rule d_e f = f|x_e=1 - f|x_e=0
    # (and its second-order form), and restrict_line against values along the
    # line, on every grove polynomial of the small corpus networks
    rng = random.Random(11)
    nets = [net for net in corpus() if len(net.edges) <= 12]
    assert len(nets) >= 20
    for net in nets:
        gp = grove_polys(net)
        for poly in [gp["P0"], gp["P1"], gp["PB"], *gp["pairs"].values()]:
            n = len(poly.variables)
            for _ in range(3):
                vec = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                value, first, second = poly.full(vec)
                assert value == poly.value(vec)
                for i in range(n):
                    assert first[i] == poly.value(_at(vec, i, 1)) - poly.value(_at(vec, i, 0))
                    for j in range(i + 1, n):
                        corners = [
                            poly.value(_at(_at(vec, i, a), j, b)) for a in (0, 1) for b in (0, 1)
                        ]
                        d_ij = corners[3] - corners[2] - corners[1] + corners[0]
                        assert second.get((i, j), 0) == d_ij
                base = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
                direction = [rng.choice([0, Fraction(rng.randint(1, 9), 2)]) for _ in range(n)]
                line = IntPoly(poly.restrict_line(base, direction))
                for t in range(poly.degree + 2):
                    point = [b + t * d for b, d in zip(base, direction)]
                    assert line(t) == poly.value(point)


def _term_loop(poly, vec):
    total = 0
    for c, term in poly.terms:
        p = c
        for i in term:
            p *= vec[i]
        total += p
    return total


def test_value_matches_a_plain_term_loop():
    # the zero-mask skip of value() against multiplying out every term, on
    # every grove polynomial of the corpus, at mixed-sign points with 0, 1
    # and 2 zero coordinates
    rng = random.Random(12)
    for net in corpus():
        gp = grove_polys(net)
        for poly in [gp["P0"], gp["P1"], gp["PB"], *gp["pairs"].values()]:
            n = len(poly.variables)
            for zeros in (0, 1, 2):
                for _ in range(2):
                    vec = [rng.choice([rng.randint(-50, -1), rng.randint(1, 50)]) for _ in range(n)]
                    for i in rng.sample(range(n), zeros):
                        vec[i] = 0
                    assert poly.value(vec) == _term_loop(poly, vec)
                    vec[rng.randrange(n)] = Fraction(rng.randint(-9, 9), 7)
                    assert poly.value(vec) == _term_loop(poly, vec)


def test_chromatic_poly_matches_brute_force():
    for net in [path(3), triangle(), star(3), hexwheel(3)]:
        chi = chromatic_poly(net)
        for k in range(5):
            assert chi(k) == brute_color_count(net, k)


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
