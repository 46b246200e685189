import pytest

from dirmat.circular import (
    _DUALITY_KEYS,
    CircularNetwork,
    dual_network,
    duality_theorem_check,
    insulators,
    min_circuit_cover,
    og_dual,
    relabel_iso,
    sphere_dual,
    validate_embedding,
)
from dirmat.dirichlet import dirichlet_matroid, network_cocircuits
from dirmat.errors import (
    BoundaryOrderMismatch,
    ConsistencyError,
    DegreeOneVertex,
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
    assert dual.edge_bijection == {e: e for e in wheatstone().edge_order}


def test_dual_involution():
    for net in [wheatstone(), sunflower(3), sunflower(4)]:
        back = dual_network(dual_network(net))
        assert relabel_iso(back, net)


def test_og_dual_euler_and_double_dual():
    from dirmat.network import identify_boundary

    for net in [wheatstone(), sunflower(3)]:
        mg, rot = og_dual(net, embedded=True)
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


def test_insulator_exhaustive_route_agrees():
    # the non-exhaustive route must coincide with the brute rim-connection
    # scan; ConsistencyError inside insulators() would signal a mismatch
    for net in [wheatstone(), sunflower(3)]:
        assert insulators(net, exhaustive=True)


def test_min_cover_wheatstone_all_cocircuits():
    net = wheatstone()
    M = dirichlet_matroid(net)
    for z in M.cocircuits():
        if EH not in z:
            continue
        rep = min_circuit_cover(net, z)
        assert rep["size"] == 1
        assert rep["size"] <= rep["greedy"]


def test_min_cover_rejects_non_cocircuit():
    net = wheatstone()
    with pytest.raises(NotACocircuit):
        min_circuit_cover(net, frozenset({"e1", EH}))
    with pytest.raises(NotACocircuit):
        min_circuit_cover(net, frozenset({"e1", "e2"}))


def test_cover_reuses_matroids_until_redrawn():
    net = sunflower(3)
    target = next(z for z in network_cocircuits(net) if EH in z)
    first = min_circuit_cover(net, target)
    built = {key: net._cache[key] for key in _DUALITY_KEYS}
    assert min_circuit_cover(net, target) == first
    assert all(net._cache[key] is obj for key, obj in built.items())
    validate_embedding(net)
    assert not any(key in net._cache for key in _DUALITY_KEYS)
    assert min_circuit_cover(net, target) == first


def test_figure_cover_sizes():
    s5 = sunflower(5)
    target = frozenset({"a2", "b2", "a3", "b3", "a4", "b4", "a5", "b5", EH})
    assert min_circuit_cover(s5, target)["size"] == 3


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
