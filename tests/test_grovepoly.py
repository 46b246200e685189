import random
from fractions import Fraction

import pytest

from dirmat.dirichlet import dirichlet_matroid
from dirmat.errors import BadParameter
from dirmat.families import hexwheel, path, star, sunflower, triangle
from dirmat.grovepoly import (
    chromatic_poly,
    count_precolorings,
    cpintro_compare,
    grove_polys,
    hexwheel_scan,
    precoloring_poly,
)
from dirmat.network import add_boundary_clique
from dirmat import polynomials
from dirmat.polynomials import IntPoly, MultiAffinePoly, table_program, table_sources
from dirmat.verify import corpus

from bruteforce import (
    basis_poly,
    brute_color_count,
    dag_value,
    dag_values,
    integer_points,
    seeded_random_networks,
    term_full,
    term_value,
)


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
    # each one-crossing grove goes into exactly one pair's bucket, so the
    # pairs' terms, taken together, are P1's as a multiset
    for net in corpus():
        gp = grove_polys(net)
        terms = sorted(t for poly in gp["pairs"].values() for t in poly.terms)
        assert terms == sorted(gp["P1"].terms), net.name


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
        for poly in [gp["P0"], gp["P1"], basis_poly(net), *gp["pairs"].values()]:
            n = len(poly.variables)
            for _ in range(3):
                vec = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
                value, first, second = poly.full(vec)
                assert value == dag_value(poly, vec)
                for i in range(n):
                    assert first[i] == dag_value(poly, _at(vec, i, 1)) - dag_value(poly, _at(vec, i, 0))
                    for j in range(i + 1, n):
                        corners = [
                            dag_value(poly, _at(_at(vec, i, a), j, b)) for a in (0, 1) for b in (0, 1)
                        ]
                        d_ij = corners[3] - corners[2] - corners[1] + corners[0]
                        assert second.get((i, j), 0) == d_ij
                base = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)]
                direction = [rng.choice([0, Fraction(rng.randint(1, 9), 2)]) for _ in range(n)]
                line = IntPoly(poly.restrict_line(base, direction))
                for t in range(poly.degree + 2):
                    point = [b + t * d for b, d in zip(base, direction)]
                    assert line(t) == dag_value(poly, point)


def _agree_with_term_loops(poly, vec):
    value, first, second = poly.full(vec)
    want_value, want_first, want_second = term_full(poly, vec)
    assert value == want_value == dag_value(poly, vec) == term_value(poly, vec)
    assert first == want_first
    n = len(vec)
    keys = set(second) | set(want_second)
    assert all(i < j < n for i, j in keys)
    assert all(second.get(k, 0) == want_second.get(k, 0) for k in keys)


def test_value_and_full_match_the_term_loops():
    # full() reads the suffix-sharing DAG, and the identity checks call the
    # function compiled from the node table P0 shares with the pair
    # polynomials; the term loops and the DAG's own loop are the oracles, on
    # every grove polynomial of the corpus and of 20 seeded random networks,
    # at mixed-sign integer points with 0, 1 and 2 zeros and at points with
    # Fraction coordinates
    rng = random.Random(17)
    for net in corpus() + seeded_random_networks(20):
        gp = grove_polys(net)
        nodes, roots = gp["table"]
        shared = [gp["P0"], *gp["pairs"].values()]
        assert len(roots) == len(shared)
        program = table_program(nodes, roots, len(net.edge_order))
        for vec in integer_points(rng, len(net.edge_order), 60):
            for _ in range(2):
                val = dag_values(nodes, vec)
                want = [term_value(poly, vec) for poly in shared]
                assert [val[r] for r in roots] == want
                assert list(program(*vec)) == want
                vec[rng.randrange(len(vec))] = Fraction(rng.randint(-9, 9), 7)
        for poly in [gp["P0"], gp["P1"], basis_poly(net), *gp["pairs"].values()]:
            for vec in integer_points(rng, len(poly.variables), 60):
                _agree_with_term_loops(poly, vec)
                # the DAG takes any exact number; the oracle's value does too
                vec[rng.randrange(len(vec))] = Fraction(rng.randint(-9, 9), 7)
                assert dag_value(poly, vec) == term_value(poly, vec)
            # a grove polynomial is homogeneous of degree r, so its partials
            # at vec / 7 are those at vec scaled by 7^-r, 7^(1-r) and 7^(2-r)
            r, seven = poly.degree, Fraction(7)
            value, first, second = poly.full([x / seven for x in vec])
            want_value, want_first, want_second = poly.full(vec)
            assert value * seven**r == want_value
            assert [d * seven ** (r - 1) for d in first] == want_first
            assert {k: d * seven ** (r - 2) for k, d in second.items()} == want_second


def test_dag_matches_the_term_loops_on_arbitrary_coefficients():
    # repeated terms, coefficients of either sign (some summing to 0), terms
    # of mixed degree and the empty term, over random variable orders
    rng = random.Random(18)
    for _ in range(200):
        names = [f"y{k}" for k in range(rng.randint(1, 8))]
        rng.shuffle(names)
        family = [set(rng.sample(names, rng.randint(0, len(names)))) for _ in range(rng.randint(0, 12))]
        family += rng.sample(family, len(family) // 3)
        coeffs = [rng.randint(-5, 5) for _ in family]
        poly = MultiAffinePoly(names, family, coeffs)
        for vec in integer_points(rng, len(names), 9):
            _agree_with_term_loops(poly, vec)
    # hpp_scan_poly's negative control (test_electrical.py checks that the
    # scan still catches it)
    poly = MultiAffinePoly(["x1", "x2", "x3", "x4"], [{"x1", "x2"}, {"x3", "x4"}], coeffs=[1, -1])
    for vec in integer_points(rng, 4, 9):
        _agree_with_term_loops(poly, vec)


def test_dag_node_counts_pinned():
    # equal suffixes are merged: a plain trie of sunflower(5)'s one-crossing
    # groves would keep 4,462 nodes. The basis polynomial is the oracle's,
    # built from the grove lists, so full() on 17 variables stays covered
    net = sunflower(5)
    for poly, terms, nodes, edges in [
        (grove_polys(net)["P1"], 2280, 243, 1058),
        (basis_poly(net), 3002, 304, 1300),
    ]:
        dag = poly.dag()
        assert len(poly.terms) == terms
        assert len(dag) == nodes
        assert sum(len(out) for _, out in dag) == edges
    # the table P0 shares with the pair polynomials: apart, their DAGs hold
    # 939 nodes and 2,281 edges on sunflower(5), and 832 and 1,471 on
    # hexwheel(6). Its function has a line per node, and three more in each
    # of the 9 pieces of up to 64 nodes, and the entry point 12 more
    for net, polys, nodes, edges, lines in [
        (sunflower(5), 11, 566, 1544, 605),
        (hexwheel(6), 16, 526, 1094, 565),
    ]:
        table, roots = grove_polys(net)["table"]
        assert len(roots) == polys
        assert len(table) == nodes
        assert sum(len(out) for _, out in table) == edges
        sources = table_sources(table, roots, len(net.edge_order))
        assert len(sources) == 10
        assert sum(len(source.splitlines()) for source in sources) == lines


def test_table_sources_hold_integers_and_generated_names_only(monkeypatch):
    # a node reads end + x_i * child for each edge, the end left out when it
    # is 0 (and kept for a node with no edges), a child of an earlier piece
    # read off the list v; an end that is not an int never reaches a source
    monkeypatch.setattr(polynomials, "TABLE_CHUNK", 2)
    nodes = [(1, ()), (0, ()), (-3, ((1, 0),)), (0, ((0, 2), (2, 0)))]
    assert table_sources(nodes, [3, 2], 3) == [
        "def piece0(x, v):\n"
        "    (x0, x1, x2, ) = x\n"
        "    v0 = 1\n"
        "    v1 = 0\n"
        "    v += (v0, v1, )\n",
        "def piece2(x, v):\n"
        "    (x0, x1, x2, ) = x\n"
        "    v2 = -3 + x1*v[0]\n"
        "    v3 = x0*v2 + x2*v[0]\n"
        "    v += (v2, v3, )\n",
        "def table(*x):\n"
        "    v = []\n"
        "    piece0(x, v)\n"
        "    piece2(x, v)\n"
        "    return (v[3], v[2], )\n",
    ]
    assert table_program(nodes, [3, 2], 3)(2, 5, 7) == (2 * 2 + 7, 2)
    for end in (Fraction(1, 2), 1.0, "1"):
        with pytest.raises(BadParameter):
            table_sources([(end, ())], [0], 0)


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
