"""`Matroid.circuits` (the independence-table walk) against the subset scan
it replaced, pinned circuit counts, and the circuit objects it hands out."""

import random

import pytest

from dirmat.circular import dual_network, min_circuit_cover
from dirmat.dirichlet import dirichlet_matroid, network_cocircuits
from dirmat.errors import GroundTooLarge
from dirmat.families import double_sunflower, sunflower, wheatstone
from dirmat.matroid import Matroid
from dirmat.network import EH, derived
from dirmat.verify import circular_corpus, corpus

from bruteforce import circuits_by_scan, seeded_random_networks

# Circuits of the dual network's matroid over its whole ground set.
DUAL_CIRCUIT_COUNTS = {
    "sunflower(5)": 240,
    "sunflower(6)": 457,
    "double_sunflower(6)": 557,
}


def vector_matroid():
    """Columns over GF(2): a loop, a parallel pair a, b, then c, d with
    a + c = d, and a coloop e. Circuits: {loop}, {a, b}, {a, c, d} and
    {b, c, d}."""
    vectors = [0b000, 0b001, 0b001, 0b010, 0b011, 0b100]

    def rank(mask):
        basis = []
        for i, v in enumerate(vectors):
            if mask >> i & 1:
                for w in basis:
                    v = min(v, v ^ w)
                if v:
                    basis.append(v)
        return len(basis)

    return Matroid(["loop", "a", "b", "c", "d", "e"], rank, name="GF(2)")


def differential_cases():
    """(matroid, within) pairs: every corpus matroid, the matroid of every
    circular network's dual, 20 seeded random networks and the GF(2)
    matroid; over the whole ground set up to 16 elements, over the empty
    scope, over two seeded scopes, and over the largest cocircuit through
    eh of at most 14 elements on each dual."""
    rng = random.Random("circuits")
    nets = {net.name: net for net in corpus() + circular_corpus()}
    matroids = [dirichlet_matroid(net) for net in nets.values()]
    matroids += [dirichlet_matroid(net) for net in seeded_random_networks(20)]
    for net in circular_corpus():
        dual = dirichlet_matroid(dual_network(net))
        matroids.append(dual)
        targets = [z for z in network_cocircuits(net) if EH in z and len(z) <= 14]
        yield dual, max(targets, key=len)
    matroids.append(vector_matroid())
    for M in matroids:
        n = len(M.ground)
        if n <= 16:
            yield M, None
        yield M, ()
        for size in (n // 2, min(n, 12)):
            yield M, tuple(rng.sample(M.ground, size))


def circuit_mismatches():
    """The differential cases where `Matroid.circuits` and the scan differ."""
    return [
        (M.name, within)
        for M, within in differential_cases()
        if M.circuits(within) != circuits_by_scan(M, within)
    ]


def dual_circuit_counts():
    nets = [sunflower(5), sunflower(6), double_sunflower(6)]
    return {
        net.name: len(dirichlet_matroid(dual_network(net)).circuits(limit=20))
        for net in nets
    }


def test_circuits_match_the_scan():
    assert circuit_mismatches() == []


def test_dual_circuit_counts_pinned():
    assert dual_circuit_counts() == DUAL_CIRCUIT_COUNTS


def test_vector_matroid_circuits():
    assert vector_matroid().circuits() == (
        frozenset({"loop"}),
        frozenset({"a", "b"}),
        frozenset({"a", "c", "d"}),
        frozenset({"b", "c", "d"}),
    )


def test_rank_asked_only_of_independent_sets_and_circuits():
    for M in (vector_matroid(), dirichlet_matroid(wheatstone())):
        asked = []
        rank = M._rank_mask
        M._rank_mask = lambda mask: asked.append(mask) or rank(mask)
        circuits = {M.mask_of(c) for c in M.circuits()}
        independent = {
            s for s in range(1, M.full_mask + 1) if rank(s) == s.bit_count()
        }
        assert sorted(asked) == sorted(independent | circuits)


def test_scope_guard_at_the_limit():
    M = dirichlet_matroid(sunflower(4))
    n = len(M.ground)
    assert M.circuits(limit=n) == circuits_by_scan(M, limit=n)
    asked = []
    M._rank_mask = asked.append
    for scan in (Matroid.circuits, circuits_by_scan):
        with pytest.raises(GroundTooLarge):
            scan(M, limit=n - 1)
        with pytest.raises(GroundTooLarge):
            scan(M, M.ground[:n - 1], limit=n - 2)
    assert asked == []


def test_scans_hand_out_the_same_objects():
    M = dirichlet_matroid(dual_network(sunflower(4)))
    first = M.circuits()
    again = M.circuits()
    assert first == again
    assert all(a is b for a, b in zip(first, again))
    kept = {c: c for c in first}
    inside = M.circuits(within=M.ground[:9])
    assert inside and all(kept[c] is c for c in inside)


def test_covers_share_their_circuit_objects():
    net = sunflower(4)
    targets = [z for z in network_cocircuits(net) if EH in z][:2]
    covers = [min_circuit_cover(net, z)["cover"] for z in targets + targets[:1]]
    assert covers[0] == covers[2]
    assert all(a is b for a, b in zip(covers[0], covers[2]))
    dual = derived(net, "dual_network", dual_network)
    kept = {c: c for c in derived(dual, "matroid", dirichlet_matroid).circuits()}
    assert all(kept[c] is c for cover in covers for c in cover)
