import random
from itertools import combinations

import pytest

from dirmat.dirichlet import dirichlet_matroid, network_cocircuits
from dirmat.errors import GroundTooLarge
from dirmat.families import path, star, triangle, wheatstone
from dirmat.matroid import Matroid, beta_from_char_poly
from dirmat.network import EH, MultiGraph, add_boundary_clique
from dirmat.verify import circular_corpus, corpus

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
    for net in [path(3), star(4), triangle(), wheatstone()]:
        lift = dirichlet_matroid(net, engine="lift")
        grove = dirichlet_matroid(net, engine="groves")
        ground = list(lift.ground)
        for r in range(len(ground) + 1):
            for sub in combinations(ground, r):
                assert lift.rank(sub) == grove.rank(sub)


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
