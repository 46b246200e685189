import random

import pytest

from dirmat.dirichlet import (
    connectivity_criteria,
    dirichlet_matroid,
    network_cocircuits,
    vertical_biseparations,
)
from dirmat.errors import BadParameter, GraphTooLarge
from dirmat.families import (
    double_path,
    double_sunflower,
    hexwheel,
    path,
    random_network,
    star,
    sunflower,
    triangle,
)
from dirmat.network import EH
from dirmat.verify import circular_corpus, corpus

from bruteforce import brute_independent, recursion_cocircuits


def test_independence_definition_random_nets():
    """The matroid's verdict equals the raw grove definition."""
    rng = random.Random(42)
    nets = [triangle(), star(4), path(4), double_path()]
    for seed in range(6):
        nets.append(random_network(5, 2, 0.5, seed))
    for net in nets:
        M = dirichlet_matroid(net)
        ground = list(M.ground)
        for _ in range(80):
            sub = [g for g in ground if rng.random() < 0.5]
            independent = M.rank(sub) == len(sub)
            assert independent == brute_independent(net, sub)


def test_eh_is_never_a_loop_or_coloop():
    for net in [path(3), star(3), triangle(), hexwheel(3)]:
        M = dirichlet_matroid(net)
        assert M.rank([EH]) == 1
        rest = [g for g in M.ground if g != EH]
        assert M.rank(rest) == M.full_rank()


def test_full_rank_is_interior_plus_one():
    for net in [path(3), path(5), star(5), triangle(), sunflower(3)]:
        interior = len(net.vertices) - len(net.boundary)
        assert dirichlet_matroid(net).full_rank() == interior + 1


def test_connectivity_criteria_star():
    crit = connectivity_criteria(star(3))
    assert crit["interior_connected"]
    assert crit["nabla_3_connected"]
    assert crit["predicts_3_connected"]


def test_connectivity_criteria_path():
    # long paths have articulation points in the boundary clique graph
    crit = connectivity_criteria(path(5))
    assert crit["interior_connected"]
    assert not crit["predicts_3_connected"]


def test_criterion_matches_tutte_small():
    for net in [path(3), path(4), star(3), star(4), triangle(), hexwheel(3)]:
        M = dirichlet_matroid(net)
        if len(M.ground) > 10:
            continue
        crit = connectivity_criteria(net)
        assert crit["predicts_3_connected"] == (M.tutte_connectivity() >= 3)


def test_vertical_biseparations_contract():
    # too few elements on the small path; none on the star either
    assert vertical_biseparations(path(3), 2) == []
    assert vertical_biseparations(star(3), 2) == []
    # the glued double path has one, coming from its two tracts, and the
    # side holding the extra element is never balanced
    seps = vertical_biseparations(double_path(), 2)
    assert seps
    assert any(s["kind"] == "neither-balanced" for s in seps)
    for s in seps:
        assert s["kind"] != "both-balanced"
        assert len(s["X"]) >= 2 and len(s["Y"]) >= 2
        assert sorted(s["X"] + s["Y"]) == sorted(
            list(double_path().edge_order) + ["eh"]
        )


def test_cocircuits_are_minimal():
    for net in [triangle(), star(4)]:
        M = dirichlet_matroid(net)
        r = M.full_rank()
        ground = set(M.ground)
        for z in network_cocircuits(net):
            assert M.rank(ground - z) == r - 1
            for x in z:
                assert M.rank((ground - z) | {x}) == r


def _seeded_random_networks(count):
    nets = []
    seed = 0
    while len(nets) < count:
        try:
            nets.append(random_network(7, 3, 0.5, seed))
        except BadParameter:
            pass
        seed += 1
    return nets


def test_cocircuits_match_recursion():
    """The labelling search gives the recursion's ordered tuple exactly."""
    nets = corpus() + circular_corpus() + [sunflower(6)]
    nets += _seeded_random_networks(24)
    for net in nets:
        assert network_cocircuits(net) == recursion_cocircuits(net), net.name


def test_cocircuit_counts_pinned():
    for net, total in [(sunflower(7), 2180), (double_sunflower(8), 10909)]:
        assert len(network_cocircuits(net)) == total


def test_cocircuit_search_node_limit():
    with pytest.raises(GraphTooLarge):
        network_cocircuits(double_sunflower(6), node_limit=100)
