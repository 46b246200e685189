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
from dirmat.polynomials import IntPoly, MultiAffinePoly, dag_values
from dirmat.verify import corpus

from bruteforce import (
    brute_color_count,
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


def _agree_with_term_loops(poly, vec):
    value, first, second = poly.full(vec)
    want_value, want_first, want_second = term_full(poly, vec)
    assert value == want_value == poly.value(vec) == term_value(poly, vec)
    assert first == want_first
    n = len(vec)
    keys = set(second) | set(want_second)
    assert all(i < j < n for i, j in keys)
    assert all(second.get(k, 0) == want_second.get(k, 0) for k in keys)


def test_value_and_full_match_the_term_loops():
    # value() and full() read the suffix-sharing DAG, and the identity
    # checks read every root of the node table P0 shares with the pair
    # polynomials; the term loops are the oracles, on every grove polynomial
    # of the corpus and of 20 seeded random networks
    rng = random.Random(17)
    for net in corpus() + seeded_random_networks(20):
        gp = grove_polys(net)
        nodes, roots = gp["table"]
        shared = [gp["P0"], *gp["pairs"].values()]
        assert len(roots) == len(shared)
        for vec in integer_points(rng, len(net.edge_order), 60):
            val = dag_values(nodes, vec)
            assert [val[r] for r in roots] == [term_value(poly, vec) for poly in shared]
        for poly in [gp["P0"], gp["P1"], gp["PB"], *gp["pairs"].values()]:
            for vec in integer_points(rng, len(poly.variables), 60):
                _agree_with_term_loops(poly, vec)
                # the DAG takes any exact number; the oracle's value does too
                vec[rng.randrange(len(vec))] = Fraction(rng.randint(-9, 9), 7)
                assert poly.value(vec) == term_value(poly, vec)
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
    # groves would keep 4,462 nodes
    gp = grove_polys(sunflower(5))
    for name, terms, nodes, edges in [("P1", 2280, 243, 1058), ("PB", 3002, 304, 1300)]:
        dag = gp[name].dag()
        assert len(gp[name].terms) == terms
        assert len(dag) == nodes
        assert sum(len(out) for _, out in dag) == edges
    # the table P0 shares with the pair polynomials: apart, their DAGs hold
    # 939 nodes and 2,281 edges on sunflower(5), and 832 and 1,471 on
    # hexwheel(6)
    for net, polys, nodes, edges in [(sunflower(5), 11, 566, 1544), (hexwheel(6), 16, 526, 1094)]:
        table, roots = grove_polys(net)["table"]
        assert len(roots) == polys
        assert len(table) == nodes
        assert sum(len(out) for _, out in table) == edges


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
