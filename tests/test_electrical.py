import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dirmat import electrical
from dirmat.electrical import (
    grove_identities,
    hpp_sample,
    hpp_scan_poly,
    identity_sweep,
    interlacing,
    interlacing_sweep,
    laplacian,
    monotonicity_and_bound,
    proper_position_checks,
    response,
)
from dirmat.errors import BadParameter, SingularInterior
from dirmat.families import hexwheel, path, star, triangle
from dirmat.grovepoly import grove_polys
from dirmat.network import EH, Network, groves
from dirmat.polynomials import MultiAffinePoly
from dirmat.verify import corpus

from bruteforce import (
    fraction_point_identities,
    fraction_response,
    integer_points,
    seeded_random_networks,
)


def test_response_closed_form_path3():
    net = path(3)
    rng = random.Random(99)
    for _ in range(30):
        x1 = Fraction(rng.randint(1, 60), rng.randint(1, 11))
        x2 = Fraction(rng.randint(1, 60), rng.randint(1, 11))
        lam = response(net, {"e1": x1, "e2": x2})
        want = x1 * x2 / (x1 + x2)
        assert lam["v1", "v1"] == want
        assert lam["v3", "v3"] == want
        assert lam["v1", "v3"] == -want
        assert lam["v3", "v1"] == -want


def test_response_is_symmetric_with_zero_row_sums():  # also checked inside
    lam = response(triangle(), {e: 1 for e in triangle().edge_order})
    n = len(lam.boundary_order)
    for i in range(n):
        assert sum(lam.entries[i]) == 0
        for j in range(n):
            assert lam.entries[i][j] == lam.entries[j][i]


def test_singular_interior_raises():
    net = path(3)
    with pytest.raises(SingularInterior):
        response(net, {"e1": 1, "e2": -1})


def test_identity_sweep_small():
    for net in [path(3), star(3), triangle()]:
        rep = identity_sweep(net, trials=40, seed=1)
        assert rep["all_ok"]
        assert rep["points"] == 40


@pytest.mark.parametrize("count", [0, -3])
def test_sweeps_refuse_a_nonpositive_count(count):
    # a sweep of no points or lines would report all_ok on nothing
    with pytest.raises(BadParameter, match="need at least one trial"):
        identity_sweep(triangle(), trials=count)
    with pytest.raises(BadParameter, match="need at least one line"):
        interlacing_sweep(triangle(), lines=count)


def test_grove_identities_at_a_point():
    net = triangle()
    rep = grove_identities(net, {e: 1 for e in net.edge_order})
    assert rep["all_ok"]


def _two_blocks():
    # a-i-b and b-j-c: crossings join (a, b) and (b, c), never (a, c)
    return Network(
        ["a", "b", "c", "i", "j"],
        ["a", "b", "c"],
        [("ai", "a", "i"), ("ib", "i", "b"), ("bj", "b", "j"), ("jc", "j", "c")],
        name="two_blocks",
    )


def test_grove_identities_check_pairs_no_crossing_joins(monkeypatch):
    net = _two_blocks()
    x = {"ai": 2, "ib": 3, "bj": 5, "jc": 7}
    rep = grove_identities(net, x)
    assert rep["all_ok"] and set(rep["pairs"]) == {("a", "b"), ("b", "c")}
    real = electrical.response

    def skew(u, v):
        # Lambda_uv and Lambda_vu go up by 1, after response() has checked
        # symmetry and row sums
        def skewed(net, x):
            lam = real(net, x)
            i, j = lam.boundary_order.index(u), lam.boundary_order.index(v)
            lam.S[i][j] += lam.scale
            if i != j:
                lam.S[j][i] += lam.scale
            return lam

        return skewed

    # a pair no crossing joins, a pair a crossing joins, a diagonal entry
    for entry, trace_ok, bad_pair, failure in [
        (("a", "c"), True, None, ("offdiag-zero", ("a", "c"))),
        (("a", "b"), True, ("a", "b"), ("offdiag", ("a", "b"))),
        (("b", "b"), False, None, ("trace",)),
    ]:
        monkeypatch.setattr(electrical, "response", skew(*entry))
        rep = grove_identities(net, x)
        assert rep["det_ok"] and rep["trace_ok"] == trace_ok
        assert rep["pairs"] == {pair: pair != bad_pair for pair in [("a", "b"), ("b", "c")]}
        assert not rep["all_ok"]
        sweep = identity_sweep(net, trials=3, seed=0)
        assert [f[:-1] for f in sweep["failures"]] == [failure] * 3


def test_point_identities_match_the_fraction_route(monkeypatch):
    # one pass over the node table P0 shares with the pair polynomials,
    # compared in integers, against every polynomial evaluated on its own and
    # compared in Fractions: on the corpus and 20 seeded random networks, at
    # mixed-sign integer points with 0, 1 and 2 zeros, as response gives it
    # and with one off-diagonal and one diagonal entry skewed
    rng = random.Random("identity-differential")
    real = electrical.response

    def skewed(net, x):
        lam = real(net, x)
        lam.S[0][1] += lam.scale
        lam.S[1][0] += lam.scale
        lam.S[1][1] -= 2 * lam.scale
        return lam

    outcomes = set()
    for net in corpus() + seeded_random_networks(20):
        gp = grove_polys(net)
        for patch in (real, skewed):
            monkeypatch.setattr(electrical, "response", patch)
            for _ in range(4):
                for vec in integer_points(rng, len(net.edge_order), 3):
                    ints = dict(zip(net.edge_order, vec))
                    got = electrical._point_identities(net, gp, ints)
                    assert got == fraction_point_identities(net, gp, ints), net.name
                    if got is not None:
                        got = (got[1], all(got[2].values()), not got[3])
                    outcomes.add(got)
    # P0 = 0 (both return None), the identities holding, and a skew caught
    # on each side: the trace, a pair a crossing joins, a pair none joins
    assert {None, (True, True, True), (False, True, False), (False, False, True)} <= outcomes


def test_delta_eval_pinned_path3():
    # the basis polynomial of the two-edge path is x1 x2 + x_eh (x1 + x2);
    # its Rayleigh difference at (eh, e1) is x2^2
    net = path(3)
    order = net.edge_order + (EH,)
    family = list(groves(net, "one-crossing"))
    family += [fs | {EH} for fs in groves(net, "no-crossing")]
    ev = MultiAffinePoly(order, family)
    rng = random.Random(4)
    for _ in range(25):
        x = [rng.randint(-9, 9) for _ in order]
        value, first, second = ev.full(x)
        delta = first[0] * first[2] - value * second.get((0, 2), 0)
        assert delta == x[1] ** 2


def test_wronskian_orientation_path3():
    # W_e(P0, P1) = P0 d_e P1 - d_e P0 P1 is x2^2 at e1 and x1^2 at e2, the
    # orientation proper_position_checks tests for nonnegativity
    net = path(3)
    ev0 = MultiAffinePoly(net.edge_order, groves(net, "no-crossing"))
    ev1 = MultiAffinePoly(net.edge_order, groves(net, "one-crossing"))
    rng = random.Random(6)
    for _ in range(25):
        x = [rng.randint(-9, 9), rng.randint(-9, 9)]
        v0, f0, _ = ev0.full(x)
        v1, f1, _ = ev1.full(x)
        assert v0 * f1[0] - f0[0] * v1 == x[1] ** 2
        assert v0 * f1[1] - f0[1] * v1 == x[0] ** 2


def test_hpp_sample_nonnegative():
    for net in [path(3), star(3), triangle()]:
        rep = hpp_sample(net, trials=60, seed=2)
        assert rep["all_nonnegative"]


def test_hpp_scan_flags_a_counterexample():
    # x1*x2 - x3*x4 is multiaffine but not stable; some Rayleigh difference
    # must go negative
    poly = MultiAffinePoly(
        ["x1", "x2", "x3", "x4"], [{"x1", "x2"}, {"x3", "x4"}], coeffs=[1, -1]
    )
    rep = hpp_scan_poly(poly, trials=300, seed=0)
    assert not rep["all_nonnegative"]
    assert rep["violations"]


def test_proper_position_sweep():
    for net in [path(3), triangle(), star(4)]:
        rep = proper_position_checks(net, trials=50, seed=3)
        assert rep["all_ok"]


def test_interlacing_on_a_line():
    net = triangle()
    base = {e: Fraction(1) for e in net.edge_order}
    direction = {e: Fraction(i + 1) for i, e in enumerate(net.edge_order)}
    rep = interlacing(net, base, direction)
    assert rep["real_rooted"]
    assert rep["interlaced"]


def test_monotonicity_and_bound_small():
    for net in [path(3), star(3), triangle()]:
        rep = monotonicity_and_bound(net, trials=30, seed=5)
        assert rep["all_ok"]


def test_path3_degenerate_pair_is_skipped_with_zero_bilinear():
    # the only off-diagonal pair of the two-edge path has delta(P1) = 0
    # identically, so the quotient bound is skipped and the degenerate
    # consequence E = 0 must hold instead
    rep = monotonicity_and_bound(path(3), trials=30, seed=8)
    assert rep["all_ok"]
    assert rep["skipped_degenerate_pairs"] > 0


def test_laplacian_block_shapes():
    net = star(4)
    lap = laplacian(net, {e: 1 for e in net.edge_order})
    assert len(lap.boundary_order) == 4
    assert len(lap.interior_order) == 1


def _mixed_point(rng, labels):
    # mixed signs, mixed denominators and, one coordinate in four, an exact 0
    return {
        e: Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for e in labels
    }


def _agrees_with_fraction_route(net, x):
    want = fraction_response(net, x)
    if want is None:
        with pytest.raises(SingularInterior):
            response(net, x)
        return False
    lam = response(net, x)
    assert lam.entries == want[0]
    assert lam.det_interior == want[1]
    return True


def test_response_matches_fraction_elimination():
    # the integer (Bareiss) Schur complement against Gauss-Jordan in
    # Fractions, on the corpus and 20 seeded random networks
    rng = random.Random("response-differential")
    counts = {True: 0, False: 0}
    for net in corpus() + seeded_random_networks(20):
        for _ in range(8):
            counts[_agrees_with_fraction_route(net, _mixed_point(rng, net.edge_order))] += 1
    # both outcomes are exercised
    assert counts[True] > 300 and counts[False] > 50


def test_response_row_swap_and_no_interior():
    # path(4)'s first interior pivot is e1 + e2 = 0 while det D = -1, so the
    # elimination must swap rows
    net = path(4)
    x = {"e1": 1, "e2": -1, "e3": 2}
    assert laplacian(net, x).D[0][0] == 0
    assert _agrees_with_fraction_route(net, x)
    assert response(net, x).det_interior == -1
    # Network refuses a network whose every vertex is on the boundary; the
    # four fields laplacian reads make one, whose response is its Laplacian
    flat = SimpleNamespace(
        vertices=("a", "b", "c"),
        boundary=frozenset("abc"),
        edges={"e1": ("a", "b"), "e2": ("b", "c")},
        edge_order=("e1", "e2"),
    )
    x = {"e1": Fraction(-2, 3), "e2": Fraction(5)}
    assert _agrees_with_fraction_route(flat, x)
    lam = response(flat, x)
    assert lam.det_interior == 1
    assert lam["a", "b"] == Fraction(2, 3) and lam["b", "b"] == Fraction(13, 3)
