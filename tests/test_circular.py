import pytest

from dirmat import circular
from dirmat.circular import (
    CircularNetwork,
    dual_network,
    duality_theorem_check,
    insulators,
    min_circuit_cover,
    validate_embedding,
)
from dirmat.dirichlet import dirichlet_matroid, network_cocircuits
from dirmat.errors import (
    BoundaryOrderMismatch,
    ConsistencyError,
    DegreeOneVertex,
    DomainError,
    NotACocircuit,
    NotPlanar,
)
from dirmat.families import (
    double_sunflower,
    hexwheel,
    path,
    sunflower,
    wheatstone,
)
from dirmat.network import EH
from dirmat.verify import circular_corpus

from bruteforce import relabel_iso, sphere_dual


def test_wheatstone_faces():
    net = wheatstone()
    assert len(net.faces) == 3
    assert len(net.interior_face_names) == 2
    assert net.arc_names == ("r_b1", "r_b2")


def test_sunflower_face_counts():
    for m in (3, 4, 5):
        net = sunflower(m)
        # m petals plus the inner disk, plus the outer face
        assert len(net.faces) == m + 2
        assert len(net.arc_names) == m


def test_path_has_no_embedding():
    with pytest.raises(DegreeOneVertex):
        validate_embedding(path(3))


def test_hexwheel_pendants_rejected():
    with pytest.raises(DegreeOneVertex):
        validate_embedding(hexwheel(6))


def test_boundary_order_must_match_outer_walk():
    base = sunflower(4)
    order = list(base.boundary_order)
    order[0], order[1] = order[1], order[0]
    # a transposition of four labels is neither a rotation nor a reversal
    with pytest.raises(BoundaryOrderMismatch):
        CircularNetwork(
            base.vertices,
            base.boundary,
            [(e, u, v) for e, (u, v) in sorted(base.edges.items())],
            rotation=base.rotation,
            boundary_order=order,
        )


def test_bad_rotation_is_not_planar():
    base = sunflower(3)
    rot = {v: list(seq) for v, seq in base.rotation.items()}
    # swapping two entries at an interior vertex breaks the face count
    victim = next(v for v in base.vertices if not base.is_boundary(v) and len(rot[v]) >= 3)
    seq = rot[victim]
    seq[0], seq[1] = seq[1], seq[0]
    with pytest.raises((NotPlanar, BoundaryOrderMismatch)):
        CircularNetwork(
            base.vertices,
            base.boundary,
            [(e, u, v) for e, (u, v) in sorted(base.edges.items())],
            rotation=rot,
            boundary_order=base.boundary_order,
        )


def test_dual_of_wheatstone():
    dual = dual_network(wheatstone())
    assert sorted(dual.vertices) == ["f1", "f2", "r_b1", "r_b2"]
    assert len(dual.edges) == 5
    assert isinstance(dual, CircularNetwork)
    assert dual.edge_order == wheatstone().edge_order


def test_dual_involution():
    for net in [wheatstone(), sunflower(3), sunflower(4)]:
        back = dual_network(dual_network(net))
        assert relabel_iso(back, net)


def test_og_dual_euler_and_double_dual():
    from dirmat.network import identify_boundary

    for net in [wheatstone(), sunflower(3)]:
        mg = dual_network(net)
        rot = mg.rotation
        og, _ = identify_boundary(net)
        # V* - E + F* = 2 on the sphere
        assert len(mg.vertices) == len(net.edges) - len(og.vertices) + 2
        double, _ = sphere_dual(mg, rot)
        assert relabel_iso(double, og)


def test_insulators_wheatstone():
    found = insulators(wheatstone())
    assert sorted(sorted(s) for s in found) == [
        ["e1", "e2"],
        ["e1", "e3", "e5"],
        ["e2", "e3", "e4"],
        ["e4", "e5"],
    ]


def test_insulator_exhaustive_route_agrees(monkeypatch):
    # up to 16 edges the cocircuit route must coincide with the brute
    # rim-connection scan over every edge subset; ConsistencyError inside
    # insulators() would signal a mismatch
    nets = [net for net in circular_corpus() if len(net.edges) <= 16]
    assert [net.name for net in nets] == [
        "wheatstone", "sunflower(3)", "sunflower(4)", "sunflower(5)",
    ]
    tested = []
    real = circular._rim_test

    def counted(dual, order):
        connects = real(dual, order)

        def test(mask):
            tested.append(mask)
            return connects(mask)

        return test

    monkeypatch.setattr(circular, "_rim_test", counted)
    for net in nets:
        tested.clear()
        assert insulators(net)
        assert set(range(1 << len(net.edges))) <= set(tested), net.name


def test_min_cover_wheatstone_all_cocircuits():
    net = wheatstone()
    M = dirichlet_matroid(net)
    for z in M.cocircuits():
        if EH not in z:
            continue
        rep = min_circuit_cover(net, z)
        assert rep["size"] == 1
        assert rep["size"] <= rep["greedy"]


def non_cocircuits_refused():
    """Whether min_circuit_cover refuses, as not cocircuits, a target that
    is not one and a cocircuit without the extra element."""
    net = wheatstone()
    for target in ({"e1", EH}, {"e1", "e2"}):
        try:
            min_circuit_cover(net, frozenset(target))
        except NotACocircuit:
            continue
        except DomainError:  # refused for another reason
            pass
        return False
    return True


def test_min_cover_rejects_non_cocircuit():
    assert non_cocircuits_refused()


def test_cover_reuses_matroids_until_redrawn(monkeypatch):
    net = sunflower(3)
    target = next(z for z in network_cocircuits(net) if EH in z)
    built = []

    def counted(kind, build):
        def wrapper(n):
            built.append((kind, n))
            return build(n)

        return wrapper

    monkeypatch.setattr(circular, "dual_network", counted("dual", dual_network))
    monkeypatch.setattr(
        circular, "dirichlet_matroid", counted("matroid", dirichlet_matroid)
    )
    first = min_circuit_cover(net, target)
    for _ in range(3):
        assert min_circuit_cover(net, target) == first
    dual = net._cache["dual_network"]
    assert [(kind, n is net, n is dual) for kind, n in built] == [
        ("matroid", True, False),
        ("dual", True, False),
        ("matroid", False, True),
    ]
    # the dual's matroid is kept on the dual network, never on the primal
    kept = dict(net._cache)
    assert set(kept) == {"matroid", "dual_network", "cocircuit_test"}
    assert set(dual._cache) == {"matroid"}

    again = validate_embedding(net)
    assert again is not net and again._cache == {}
    assert min_circuit_cover(again, target) == first
    assert len(built) == 6
    assert net._cache.keys() == kept.keys()
    assert all(net._cache[key] is obj for key, obj in kept.items())


def test_figure_cover_sizes():
    s5 = sunflower(5)
    target = frozenset({"a2", "b2", "a3", "b3", "a4", "b4", "a5", "b5", EH})
    assert min_circuit_cover(s5, target)["size"] == 3


def test_sunflower5_cover_and_greedy_sizes():
    """Every cover through eh on sunflower(5), by (exact size, greedy size).
    The 16 covers that greedy finds one circuit too large are the ones a
    search that stopped at the greedy size would get wrong."""
    s5 = sunflower(5)
    pairs = {}
    for z in network_cocircuits(s5):
        if EH in z:
            rep = min_circuit_cover(s5, z)
            key = (rep["size"], rep["greedy"])
            pairs[key] = pairs.get(key, 0) + 1
    assert pairs == {(2, 2): 96, (2, 3): 16, (3, 3): 105}


def test_two_terminal_dual_isomorphism():
    rep = duality_theorem_check(wheatstone())
    assert rep["all_ok"]
    assert rep["dual_iso"]


def test_cover_bounds_on_sunflower3():
    rep = duality_theorem_check(sunflower(3))
    assert rep["all_ok"]
    m = 3
    for row in rep["rows"]:
        if row["type"] == "cover":
            k = row["k"]
            assert 4 * k >= m + 2
            assert 2 * k < m + 2


def test_dual_rejects_plain_network():
    from dirmat.errors import BadParameter

    with pytest.raises(BadParameter):
        dual_network(path(3))
