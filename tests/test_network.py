import json
import random

import pytest

from dirmat import electrical
from dirmat.electrical import grove_count
from dirmat.errors import (
    BadParameter,
    BoundaryEdge,
    BoundaryTooSmall,
    ConsistencyError,
    GraphTooLarge,
)
from dirmat.families import (
    double_sunflower,
    hexwheel,
    parse_generator,
    path,
    star,
    sunflower,
    triangle,
    wheatstone,
)
from dirmat.grovepoly import grove_polys
from dirmat.linrep import min_field_size
from dirmat import network
from dirmat.network import (
    EH,
    Network,
    add_boundary_clique,
    crossing_pair_graph,
    crossings,
    groves,
    identify_boundary,
)
from dirmat.verify import circular_corpus, corpus

from bruteforce import brute_crossings, brute_groves, seeded_random_networks


def test_basic_construction():
    net = path(3)
    assert net.vertices == ("v1", "v2", "v3")
    assert set(net.boundary) == {"v1", "v3"}
    assert net.edges["e1"] == ("v1", "v2")


def test_boundary_must_be_proper_and_big_enough():
    with pytest.raises(BoundaryTooSmall):
        Network(["a", "b"], ["a", "b"], [("e", "a", "b")])
    with pytest.raises(BoundaryTooSmall):
        Network(["a", "b", "c"], ["a"], [("e", "a", "b"), ("f", "b", "c")])


def test_no_boundary_boundary_edges():
    with pytest.raises(BoundaryEdge):
        Network(
            ["a", "b", "c"],
            ["a", "b"],
            [("e", "a", "b"), ("f", "b", "c"), ("g", "a", "c")],
        )


def test_reserved_label_rejected():
    with pytest.raises(BadParameter):
        Network(["a", "b", "c"], ["a", "c"], [(EH, "a", "b"), ("f", "b", "c")])


def test_crossings_match_brute_force():
    for net in [path(3), path(5), triangle(), star(4), hexwheel(3), wheatstone()]:
        assert set(crossings(net)) == brute_crossings(net)


def test_crossings_path():
    assert list(crossings(path(3))) == [frozenset({"e1", "e2"})]


def test_identify_boundary_counts():
    net = star(4)
    og, hub = identify_boundary(net)
    # all four boundary nodes collapse onto the hub
    assert len(og.vertices) == len(net.vertices) - 4 + 1
    assert len(og.edges) == len(net.edges)
    assert hub in og.vertices


def test_add_boundary_clique_sizes():
    net = triangle()
    g = add_boundary_clique(net)
    assert len(g.edges) == len(net.edges) + 3
    assert all(lbl.startswith("+") for lbl in set(g.edges) - set(net.edges))


def test_json_round_trip_plain():
    net = triangle()
    blob = json.dumps(net.to_json())
    back = Network.from_json(json.loads(blob))
    assert back.vertices == net.vertices
    assert set(back.boundary) == set(net.boundary)
    assert back.edges == net.edges


def test_json_round_trip_circular():
    net = wheatstone()
    back = Network.from_json(json.loads(json.dumps(net.to_json())))
    assert hasattr(back, "faces")
    assert back.faces == net.faces
    assert back.boundary_order == net.boundary_order


def test_crossings_seeded_random_nets():
    from dirmat.families import random_network

    rng = random.Random(7)
    for _ in range(10):
        seed = rng.randint(0, 10_000)
        try:
            net = random_network(5, 2, 0.5, seed)
        except BadParameter:
            continue
        assert set(crossings(net)) == brute_crossings(net)


def test_grove_counts_pinned_by_mode():
    for net, counts in [
        (sunflower(5), (722, 2280)),
        (hexwheel(6), (320, 528)),
    ]:
        modes = ("no-crossing", "one-crossing")
        assert tuple(len(groves(net, mode)) for mode in modes) == counts


def _small_networks():
    nets = [net for net in corpus() + circular_corpus() if len(net.edges) <= 16]
    return nets + seeded_random_networks(24)


def test_groves_match_definition():
    """The matroid's bases, split on eh, are the groves of the definition."""
    for net in _small_networks():
        brute = brute_groves(net)
        assert groves(net, "no-crossing") == brute.get(0, ()), net.name
        assert groves(net, "one-crossing") == brute.get(1, ()), net.name


def test_grove_count_predicts_the_listing():
    # P_B(1, ..., 1) from one response call, against the listing it guards
    for net in _small_networks():
        modes = ("no-crossing", "one-crossing")
        assert grove_count(net) == sum(len(groves(net, mode)) for mode in modes), net.name
    for net, count in [(sunflower(5), 3002), (hexwheel(6), 848), (double_sunflower(6), 20760)]:
        assert grove_count(net) == count
    assert grove_count(parse_generator("random:12,3,0.4,1")) == 2663040


def test_grove_count_refuses_a_count_that_is_not_an_integer(monkeypatch):
    # star(3) has det D = 3 at the all-ones point, so one more in the trace
    # of Lambda makes det D * (1 + tr Lambda / 2) = 15/2 groves
    real = electrical.response

    def odd_trace(net, x):
        lam = real(net, x)
        lam.S[0][0] += lam.scale
        return lam

    monkeypatch.setattr(electrical, "response", odd_trace)
    with pytest.raises(ConsistencyError):
        grove_count(star(3))


def test_groves_over_the_limit_are_refused_before_listing(monkeypatch):
    net = sunflower(4)
    monkeypatch.setattr(network, "GROVE_LIMIT", 671)
    with pytest.raises(GraphTooLarge):
        groves(net, "one-crossing")
    assert "groves" not in net._cache and "matroid" not in net._cache
    monkeypatch.setattr(network, "GROVE_LIMIT", 672)
    assert len(groves(net, "one-crossing")) == 480
    monkeypatch.undo()
    with pytest.raises(GraphTooLarge):
        groves(parse_generator("random:12,3,0.4,1"), "no-crossing")


def test_crossing_pair_graph_matches_crossing_ends():
    for net in _small_networks():
        pairs = set()
        for c in brute_crossings(net):
            ends = {v for e in c for v in net.edges[e] if net.is_boundary(v)}
            pairs.add(tuple(sorted(ends)))
        adj = crossing_pair_graph(net)
        assert {(a, b) for a in adj for b in adj[a] if a < b} == pairs, net.name


def test_grove_polys_and_field_size_list_no_crossings():
    net = sunflower(5)
    grove_polys(net)
    min_field_size(net)
    assert "crossings" not in net._cache

