import random
import time

import pytest

from dirmat import dirichlet
from dirmat.circular import dual_network
from dirmat.dirichlet import (
    _lift_engine,
    connectivity_criteria,
    dirichlet_matroid,
    network_cocircuits,
)
from dirmat.errors import GraphTooLarge
from dirmat.families import (
    double_path,
    double_sunflower,
    hexwheel,
    parse_generator,
    path,
    random_network,
    star,
    sunflower,
    triangle,
)
from dirmat.network import EH
from dirmat.verify import circular_corpus, corpus

from bruteforce import (
    brute_independent,
    check_cocircuit,
    crossing_list_rank,
    recursion_cocircuits,
    seeded_random_networks,
)


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


def test_lift_rank_matches_crossing_list_exhaustively():
    """The union-find lift rank equals the crossing-list rank on every
    subset of every small corpus, circular-corpus and dual network."""
    nets = corpus() + circular_corpus()
    nets += [dual_network(net) for net in circular_corpus()]
    nets = [net for net in nets if len(net.edges) + 1 <= 14]
    assert len(nets) >= 40
    for net in nets:
        new, old = _lift_engine(net), crossing_list_rank(net)
        for mask in range(1 << (len(net.edges) + 1)):
            assert new(mask) == old(mask), (net.name, mask)


def test_lift_rank_matches_crossing_list_on_random_masks():
    rng = random.Random(2024)
    for net in [double_sunflower(8)] + seeded_random_networks(24):
        new, old = _lift_engine(net), crossing_list_rank(net)
        for _ in range(2000):
            mask = rng.getrandbits(len(net.edges) + 1)
            assert new(mask) == old(mask), (net.name, mask)


def test_rank_query_lists_no_crossings():
    # 67 edges: a list of this network's crossings takes tens of seconds
    # and gigabytes to build, so the oracle must answer without one
    net = parse_generator("random:21,4,0.3,1")
    M = dirichlet_matroid(net)
    assert M.rank([EH]) == 1
    assert M.rank(net.edge_order) == M.full_rank() == len(net.interior) + 1
    assert "crossings" not in net._cache


def test_cocircuits_are_minimal():
    for net in [triangle(), star(4)]:
        M = dirichlet_matroid(net)
        r = M.full_rank()
        ground = set(M.ground)
        for z in network_cocircuits(net):
            assert M.rank(ground - z) == r - 1
            for x in z:
                assert M.rank((ground - z) | {x}) == r


def test_cocircuits_match_recursion():
    """The labelling search gives the recursion's ordered tuple exactly."""
    nets = corpus() + circular_corpus() + [sunflower(6)]
    nets += seeded_random_networks(24)
    for net in nets:
        assert network_cocircuits(net) == recursion_cocircuits(net), net.name


def cocircuit_test_mismatches():
    """The masks where the one-pass cocircuit test and the rank test differ:
    on every corpus, circular-corpus and seeded random network and
    sunflower(6), every cocircuit, each with one element toggled, and 100
    seeded masks with `eh` and 100 without."""
    rng = random.Random("cocircuit-test")
    nets = corpus() + circular_corpus() + [sunflower(6)]
    nets += seeded_random_networks(24)
    out = []
    for net in nets:
        n = len(net.edges)
        rank = _lift_engine(net)
        full = (1 << (n + 1)) - 1
        r = rank(full)
        test = dirichlet._cocircuit_test(net)
        mask_of = dirichlet_matroid(net).mask_of
        cocircuits = [mask_of(z) for z in network_cocircuits(net)]
        masks = cocircuits + [z ^ 1 << i for z in cocircuits for i in range(n + 1)]
        masks += [rng.getrandbits(n) | eh for eh in (0, 1 << n) for _ in range(100)]
        out += [
            (net.name, z) for z in masks if test(z) != check_cocircuit(rank, full, r, z)
        ]
    return out


def test_one_pass_cocircuit_test_matches_the_rank_test():
    assert cocircuit_test_mismatches() == []


def test_bond_scan_is_charged_to_the_node_limit():
    # 2^24 vertex bipartitions: refused before the scan starts
    start = time.perf_counter()
    with pytest.raises(GraphTooLarge):
        network_cocircuits(sunflower(24))
    assert time.perf_counter() - start < 1
    # sunflower(3) scans 8 bipartitions and needs a budget of 39 labellings
    assert len(network_cocircuits(sunflower(3), node_limit=47)) == 24
    for limit in (7, 46):
        with pytest.raises(GraphTooLarge):
            network_cocircuits(sunflower(3), node_limit=limit)


def test_cocircuit_counts_pinned():
    for net, total in [(sunflower(7), 2180), (double_sunflower(8), 10909)]:
        assert len(network_cocircuits(net)) == total


def test_cocircuit_search_node_limit():
    with pytest.raises(GraphTooLarge):
        network_cocircuits(double_sunflower(6), node_limit=100)
