import random
from itertools import combinations

import pytest

from dirmat.dirichlet import dirichlet_matroid, network_cocircuits
from dirmat.errors import GroundTooLarge
from dirmat.families import path, star, triangle, wheatstone
from dirmat.matroid import Matroid, beta_from_char_poly
from dirmat.network import EH, MultiGraph, add_boundary_clique, identify_boundary
from dirmat.verify import circular_corpus, corpus, triangulate

from bruteforce import brute_independent, brute_rank


def test_rank_axioms_triangle():
    M = dirichlet_matroid(triangle())
    ground = list(M.ground)
    n = len(ground)
    rng = random.Random(11)
    for _ in range(200):
        a = [g for g in ground if rng.random() < 0.5]
        b = [g for g in ground if rng.random() < 0.5]
        ra, rb = M.rank(a), M.rank(b)
        assert 0 <= ra <= len(a)
        union = set(a) | set(b)
        inter = set(a) & set(b)
        # submodularity
        assert M.rank(union) + M.rank(inter) <= ra + rb
        # monotone
        assert M.rank(union) >= max(ra, rb)


def test_rank_matches_brute_force():
    for net in [path(3), star(3), triangle(), wheatstone()]:
        M = dirichlet_matroid(net)
        ground = list(M.ground)
        rng = random.Random(net.name)
        for _ in range(60):
            sub = [g for g in ground if rng.random() < 0.5]
            assert M.rank(sub) == brute_rank(net, sub)


def test_grove_and_lift_engines_agree():
    # the grove definition against the lift rank on every subset, by
    # triangulate; wheatstone is not in the verification corpus
    for net in [path(3), star(4), triangle(), wheatstone()]:
        rep = triangulate(net)
        assert rep["all_ok"], rep["mismatches"]
        assert rep["subsets"] == 1 << (len(net.edges) + 1)


def test_graphic_rank_counts_components():
    rng = random.Random(5)
    for net in corpus():
        for mg in (identify_boundary(net)[0], add_boundary_clique(net)):
            M = Matroid.graphic(mg)
            for _ in range(40):
                sub = [e for e in M.ground if rng.random() < 0.5]
                part = MultiGraph(
                    mg.vertices, [(e,) + mg.edges[e] for e in sub]
                )
                want = len(mg.vertices) - len(part.components())
                assert M.rank(sub) == want, (net.name, sub)


def test_star3_is_the_four_point_line():
    M = dirichlet_matroid(star(3))
    assert len(M.ground) == 4
    assert M.full_rank() == 2
    assert len(M.bases()) == 6
    for pair in combinations(M.ground, 2):
        assert M.rank(pair) == 2


def test_triangle_has_the_three_small_circuits():
    M = dirichlet_matroid(triangle())
    small = {c for c in M.circuits() if len(c) == 3}
    assert small == {
        frozenset({"e1", "e2", EH}),
        frozenset({"e3", "e4", EH}),
        frozenset({"e2", "e3", "e5"}),
    }


def test_path3_matroid_is_graphic_triangle():
    net = path(3)
    M = dirichlet_matroid(net)
    clique = add_boundary_clique(net)
    G = Matroid.graphic(clique)
    # the natural map keeps the path edges and sends the extra element to
    # the one added boundary edge
    mapping = {"e1": "e1", "e2": "e2", EH: "+0"}
    assert M.iso_check(G, mapping=mapping)


def test_iso_check_refuses_a_map_that_changes_ranks():
    # a and b are parallel, c is a coloop; swapping b and c keeps the
    # ground set, the full rank and every singleton rank, but not rank({a, b})
    mg = MultiGraph([1, 2, 3], [("a", 1, 2), ("b", 1, 2), ("c", 2, 3)])
    G = Matroid.graphic(mg)
    swap = {"a": "a", "b": "c", "c": "b"}
    assert G.rank(["a", "b"]) != G.rank([swap["a"], swap["b"]])
    assert G.iso_check(G, mapping=swap) is None
    # folding the parallel pair onto a preserves every rank but is no bijection
    assert G.iso_check(G, mapping={"a": "a", "b": "a", "c": "c"}) is None
    assert G.iso_check(G, mapping={e: e for e in G.ground}) is not None


def test_cocircuit_routes_agree():
    nets = corpus() + circular_corpus()
    nets = [net for net in nets if len(net.edges) + 1 <= 16]
    assert len(nets) >= 40
    for net in nets:
        M = dirichlet_matroid(net)
        assert set(M.cocircuits()) == set(network_cocircuits(net)), net.name


def test_basis_exchange():
    M = dirichlet_matroid(triangle())
    bases = M.bases()
    rng = random.Random(3)
    for _ in range(50):
        b1 = set(rng.choice(bases))
        b2 = set(rng.choice(bases))
        for x in b1 - b2:
            assert any(
                frozenset(b1 - {x} | {y}) in set(bases) for y in b2 - b1
            )


def test_beta_two_routes():
    for net in [path(3), star(3), triangle(), star(4)]:
        M = dirichlet_matroid(net)
        direct = M.beta()
        via_chi = beta_from_char_poly(M.char_poly(), M.full_rank())
        assert direct == via_chi


def test_dual_is_involutive():
    M = dirichlet_matroid(star(3))
    D = M.dual()
    for r in range(len(M.ground) + 1):
        for sub in combinations(M.ground, r):
            assert M.rank(sub) == D.dual().rank(sub)


def test_ground_guard():
    big = MultiGraph(
        [f"n{i}" for i in range(22)],
        [(f"e{i}", f"n{i}", f"n{i+1}") for i in range(21)],
    )
    M = Matroid.graphic(big)
    with pytest.raises(GroundTooLarge):
        M.char_poly(limit=20)
