"""Small definition-level oracles used to cross-check the package.

Everything here is written from the definitions, independent of the package
internals, and only meant for tiny inputs. The one exception is
`recursion_cocircuits`, the earlier route to the cocircuits, which reuses the
package's lift rank and crossing list and is kept as the reference for the
labelling search that replaced it.
"""

from itertools import combinations

from dirmat.dirichlet import _check_cocircuit, _lift_engine
from dirmat.errors import GraphTooLarge
from dirmat.network import EH, crossings, identify_boundary


def brute_crossings(net):
    """Boundary-to-boundary simple paths with interior middles, by DFS."""
    adj = {v: [] for v in net.vertices}
    for e, (u, v) in net.edges.items():
        adj[u].append((e, v))
        adj[v].append((e, u))
    bd = set(net.boundary)
    found = set()

    def walk(v, goal_pool, used_edges, used_verts):
        for e, w in adj[v]:
            if e in used_edges:
                continue
            if w in bd:
                if w in goal_pool:
                    found.add(frozenset(used_edges | {e}))
                continue
            if w in used_verts:
                continue
            walk(w, goal_pool, used_edges | {e}, used_verts | {w})

    for b in bd:
        walk(b, bd - {b}, set(), {b})
    return found


def _acyclic(net, labels):
    parent = {v: v for v in net.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in labels:
        u, v = net.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def brute_independent(net, subset):
    """Independence straight from the grove definition."""
    subset = set(subset)
    edge_part = subset - {EH}
    if not _acyclic(net, edge_part):
        return False
    inside = sum(1 for c in brute_crossings(net) if c <= edge_part)
    budget = 0 if EH in subset else 1
    return inside <= budget


def brute_rank(net, subset):
    subset = list(subset)
    best = 0
    for r in range(len(subset), -1, -1):
        for c in combinations(subset, r):
            if brute_independent(net, c):
                return r
    return best


def brute_color_count(mg, k):
    """Proper colorings of a multigraph with k colors, by enumeration."""
    verts = list(mg.vertices)
    pairs = set()
    for u, v in mg.edges.values():
        if u == v:
            return 0
        pairs.add((u, v))

    def rec(i, coloring):
        if i == len(verts):
            return 1
        total = 0
        v = verts[i]
        for c in range(k):
            coloring[v] = c
            ok = all(
                coloring.get(a) != c if b == v else coloring.get(b) != c
                for a, b in pairs
                if v in (a, b)
            )
            if ok:
                total += rec(i + 1, coloring)
            del coloring[v]
        return total

    return rec(0, {})


def recursion_cocircuits(net, node_limit=4_000_000):
    """All cocircuits of the network matroid, from bonds of the identified
    graph and a recursion over the maximal balanced edge sets: a set holding
    a crossing branches on dropping each edge of its first crossing, and a
    balanced set is kept when every absent edge completes a crossing."""
    og, hub = identify_boundary(net)
    order = net.edge_order
    n = len(order)
    eidx = {e: i for i, e in enumerate(order)}
    eh_bit = 1 << n
    full = (1 << (n + 1)) - 1
    rank = _lift_engine(net)
    r = rank(full)

    out = []

    # bonds: connected vertex bipartitions of the identified graph
    verts = og.vertices
    nv = len(verts)
    vadj = {v: set(w for _, w in og.adj[v]) for v in verts}

    def side_connected(side):
        side = set(side)
        if not side:
            return False
        start = next(iter(side))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in vadj[x]:
                if y in side and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(side)

    for smask in range(1 << (nv - 1)):
        side = {verts[0]} | {verts[i + 1] for i in range(nv - 1) if smask >> i & 1}
        if len(side) == nv:
            continue
        other = set(verts) - side
        if not side_connected(side) or not side_connected(other):
            continue
        zmask = 0
        for e, (a, b) in og.edges.items():
            if (a in side) != (b in side):
                zmask |= 1 << eidx[e]
        if zmask and _check_cocircuit(rank, full, r, zmask):
            out.append(zmask)

    # maximal balanced spanning-connected sets
    cross_masks = []
    for c in crossings(net):
        m = 0
        for e in c:
            m |= 1 << eidx[e]
        cross_masks.append(m)
    full_e = (1 << n) - 1

    seen_sets = set()
    maximal = []
    budget = [node_limit]

    def first_crossing_within(s):
        for cm in cross_masks:
            if cm & s == cm:
                return cm
        return 0

    def rec(s):
        if s in seen_sets:
            return
        if budget[0] <= 0:
            raise GraphTooLarge("cocircuit search exceeded its node budget")
        budget[0] -= 1
        seen_sets.add(s)
        cm = first_crossing_within(s)
        if cm:
            m = cm
            while m:
                b = m & -m
                rec(s & ~b)
                m ^= b
            return
        # balanced; maximal iff every absent edge completes a crossing
        m = full_e & ~s
        while m:
            b = m & -m
            if not any(c & ~(s | b) == 0 for c in cross_masks):
                return
            m ^= b
        maximal.append(s)

    rec(full_e)
    for s in maximal:
        # spanning-connected check via the rank function: balanced with one
        # component means rank nv - 1
        if rank(s) != nv - 1:
            continue
        zmask = (full_e & ~s) | eh_bit
        if _check_cocircuit(rank, full, r, zmask):
            out.append(zmask)

    labels = list(order) + [EH]

    def to_labels(mask):
        return frozenset(labels[i] for i in range(n + 1) if mask >> i & 1)

    uniq = sorted({to_labels(z) for z in out}, key=lambda z: (len(z), sorted(z)))
    return tuple(uniq)
