"""The matroid of a network, by two independent rank engines.

The boundary-identified graph carries a biased structure: a circle is
unbalanced exactly when it is a boundary-to-boundary path of the original
graph (a crossing). The network matroid is the lift of this biased graph by
one extra element; that is the default rank engine. The other engine goes
through groves: bases are the one-crossing groves and the crossing-free
groves with the extra element added. The lift description also gives the
cocircuits directly (`network_cocircuits`), and the module holds the
graph-side connectivity criteria.
"""

from .errors import (
    BadParameter,
    GraphTooLarge,
    GroundTooLarge,
    LoopContraction,
    UnknownLabel,
)
from .matroid import Matroid
from .network import (
    EH,
    MultiGraph,
    add_boundary_clique,
    crossings,
    groves,
    identify_boundary,
    interior_is_connected,
)


class BiasedGraph:
    """A multigraph with its circles split into balanced and unbalanced."""

    def __init__(self, graph, balanced, unbalanced, hub=None):
        self.graph = graph
        self.balanced = frozenset(frozenset(c) for c in balanced)
        self.unbalanced = frozenset(frozenset(c) for c in unbalanced)
        if self.balanced & self.unbalanced:
            raise BadParameter("a circle cannot be both balanced and unbalanced")
        self.hub = hub

    @property
    def circles(self):
        return self.balanced | self.unbalanced

    def vertex_count(self):
        return len(self.graph.vertices)

    def _components(self, edge_labels):
        """Components of the spanning subgraph, as vertex frozensets."""
        return self.graph.restrict(edge_labels).components()

    def balance_of(self, edge_labels):
        s = set(edge_labels)
        return not any(c <= s for c in self.unbalanced)

    def frame_rank(self, edge_labels):
        """Vertices minus the number of balanced components."""
        s = set(edge_labels)
        for e in s:
            if e not in self.graph.edges:
                raise UnknownLabel(f"not an edge: {e!r}")
        comps = self._components(s)
        bal = 0
        for comp in comps:
            inside = {e for e in s if self.graph.edges[e][0] in comp}
            if not any(c <= inside for c in self.unbalanced):
                bal += 1
        return len(self.graph.vertices) - bal

    def lift_rank(self, labels):
        """Rank in the one-element lift; `labels` may include the extra
        element under the reserved name."""
        s = set(labels)
        extra = EH in s
        s.discard(EH)
        for e in s:
            if e not in self.graph.edges:
                raise UnknownLabel(f"not an edge: {e!r}")
        c = len(self._components(s))
        nv = len(self.graph.vertices)
        if extra or not self.balance_of(s):
            return nv + 1 - c
        return nv - c


def circles_of(graph):
    """All circles of a multigraph, as frozensets of edge labels."""
    order = graph.edge_order
    idx = {e: i for i, e in enumerate(order)}
    out = set()
    for e0 in order:
        u, v = graph.edges[e0]
        if u == v:
            out.add(frozenset((e0,)))
            continue
        # simple paths v -> u through edges of larger index
        stack = [(v, (e0,), frozenset((v,)))]
        while stack:
            x, used, seen = stack.pop()
            for f, y in graph.adj[x]:
                if f == e0 or idx[f] < idx[e0] or f in used:
                    continue
                uu, vv = graph.edges[f]
                if uu == vv:
                    continue
                if y == u:
                    out.add(frozenset(used + (f,)))
                    continue
                if y in seen or y == u:
                    continue
                stack.append((y, used + (f,), seen | {y}))
    return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))


def biased_graph(net):
    """The biased structure on the boundary-identified graph: a circle is
    unbalanced exactly when it is a crossing."""
    og, hub = identify_boundary(net)
    cross = set(crossings(net))
    balanced, unbalanced = [], []
    for c in circles_of(og):
        (unbalanced if c in cross else balanced).append(c)
    return BiasedGraph(og, balanced, unbalanced, hub=hub)


def cone(bg, label=EH):
    """Add one unbalanced loop at the hub."""
    if bg.hub is None:
        raise BadParameter("biased graph has no hub vertex")
    g = bg.graph
    edges = [(e, u, v) for e, (u, v) in sorted(g.edges.items())]
    edges.append((label, bg.hub, bg.hub))
    g2 = MultiGraph(g.vertices, edges)
    return BiasedGraph(
        g2,
        bg.balanced,
        set(bg.unbalanced) | {frozenset((label,))},
        hub=bg.hub,
    )


def verify_linear_subclass(bg):
    """Check the theta property: no theta subgraph carries exactly two
    balanced circles. Returns the number of theta triples checked."""
    circles = sorted(bg.circles, key=lambda c: (len(c), sorted(c)))
    byset = set(circles)
    checked = 0
    for i, c1 in enumerate(circles):
        for c2 in circles[i + 1 :]:
            c3 = c1 ^ c2
            if not c3 or c3 not in byset:
                continue
            if not (c1 & c2):
                continue
            checked += 1
            bal = sum(c in bg.balanced for c in (c1, c2, c3))
            if bal == 2:
                raise BadParameter(
                    f"theta with exactly two balanced circles: {sorted(c1)}, "
                    f"{sorted(c2)}"
                )
    return checked


def contract_biased(bg, label):
    """Contract one edge; balanced circles transfer by the rule: a circle of
    the contraction is balanced iff it, or it plus the contracted edge, was
    balanced before."""
    if label not in bg.graph.edges:
        raise UnknownLabel(f"not an edge: {label!r}")
    u, v = bg.graph.edges[label]
    if u == v:
        raise LoopContraction(f"{label!r} is a loop")
    g = bg.graph
    merged = u  # keep the smaller label; hub survives under its own name
    gone = v
    if bg.hub == v:
        merged, gone = v, u
    vertices = [w for w in g.vertices if w != gone]
    edges = []
    for e, (a, b) in sorted(g.edges.items()):
        if e == label:
            continue
        aa = merged if a == gone else a
        bb = merged if b == gone else b
        edges.append((e, aa, bb))
    g2 = MultiGraph(vertices, edges)
    new_circles = circles_of(g2)
    balanced, unbalanced = [], []
    for c in new_circles:
        plus = c | {label}
        if c in bg.balanced or plus in bg.balanced:
            balanced.append(c)
        elif c in bg.unbalanced or plus in bg.unbalanced:
            unbalanced.append(c)
        else:
            raise BadParameter(
                f"circle {sorted(c)} of the contraction comes from no circle"
            )
    return BiasedGraph(g2, balanced, unbalanced, hub=bg.hub if bg.hub != gone else merged)


def delete_biased(bg, labels):
    drop = set(labels)
    for e in drop:
        if e not in bg.graph.edges:
            raise UnknownLabel(f"not an edge: {e!r}")
    g = bg.graph
    edges = [(e, u, v) for e, (u, v) in sorted(g.edges.items()) if e not in drop]
    g2 = MultiGraph(g.vertices, edges)
    keep = lambda c: not (c & drop)
    return BiasedGraph(
        g2,
        [c for c in bg.balanced if keep(c)],
        [c for c in bg.unbalanced if keep(c)],
        hub=bg.hub,
    )


# -- fast rank engines ------------------------------------------------------


def _lift_engine(net):
    og, hub = identify_boundary(net)
    order = net.edge_order
    n = len(order)
    eidx = {e: i for i, e in enumerate(order)}
    vidx = {v: i for i, v in enumerate(og.vertices)}
    nv = len(og.vertices)
    ends = [(vidx[og.edges[e][0]], vidx[og.edges[e][1]]) for e in order]
    eh_bit = 1 << n
    cross_masks = []
    for c in crossings(net):
        m = 0
        for e in c:
            m |= 1 << eidx[e]
        cross_masks.append(m)

    def rank(mask):
        em = mask & (eh_bit - 1)
        parent = list(range(nv))
        merges = 0
        m = em
        while m:
            b = m & -m
            a, c = ends[b.bit_length() - 1]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            if a != c:
                parent[a] = c
                merges += 1
            m ^= b
        if mask & eh_bit or any(cm & em == cm for cm in cross_masks):
            return merges + 1
        return merges

    return rank


def _grove_engine(net):
    order = net.edge_order
    n = len(order)
    eidx = {e: i for i, e in enumerate(order)}

    def mask_of(fs):
        m = 0
        for e in fs:
            m |= 1 << eidx[e]
        return m

    down_with_eh = set()
    for F in groves(net, "no-crossing"):
        full = mask_of(F)
        sub = full
        while True:
            down_with_eh.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & full
    down_plain = set(down_with_eh)
    for F in groves(net, "one-crossing"):
        full = mask_of(F)
        sub = full
        while True:
            down_plain.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & full
    eh_bit = 1 << n

    def indep(mask):
        if mask & eh_bit:
            return (mask ^ eh_bit) in down_with_eh
        return mask in down_plain

    def rank(mask):
        kept = 0
        m = mask
        while m:
            b = m & -m
            if indep(kept | b):
                kept |= b
            m ^= b
        return kept.bit_count()

    return rank


_ENGINES = ("lift", "groves")


def dirichlet_matroid(net, engine="lift"):
    """The network matroid on the edges plus the reserved extra element."""
    if engine not in _ENGINES:
        raise BadParameter(f"engine must be one of {_ENGINES}")
    ground = list(net.edge_order) + [EH]
    fn = _lift_engine(net) if engine == "lift" else _grove_engine(net)
    return Matroid(ground, fn, name=f"M({net.name})")


# -- structural cocircuit enumeration ---------------------------------------


def _check_cocircuit(rank, full_mask, r, zmask):
    hmask = full_mask & ~zmask
    if rank(hmask) != r - 1:
        return False
    m = zmask
    while m:
        b = m & -m
        if rank(hmask | b) != r:
            return False
        m ^= b
    return True


def _rim_order(net):
    """Interior vertices in breadth-first order from the boundary."""
    order = []
    seen = set(net.boundary)
    frontier = list(net.boundary)
    while frontier:
        nxt = []
        for x in frontier:
            for _, y in net.adj[x]:
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return order


def network_cocircuits(net, node_limit=4_000_000):
    """All cocircuits of the network matroid, sorted by size, then labels.

    A hyperplane of the lift either holds the extra element or not.

    - If it does, its edge part has two components in the
      boundary-identified graph, and the cocircuit is a bond of that graph.
      These come from a scan over the connected vertex bipartitions.
    - If it does not, it is a maximal balanced edge set that spans the
      identified graph as one component. In the original graph every
      component of such a set holds exactly one boundary node, so it is
      given by a labelling of the interior vertices by boundary nodes in
      which every label class, together with its boundary node, is
      connected. The set is every edge whose ends carry the same label (a
      boundary node carries itself), and the cocircuit is the extra element
      plus every edge whose ends carry different labels.

    The labellings are found by backtracking over the interior vertices in
    breadth-first order from the rim. A branch is cut as soon as some
    labelled vertex can no longer reach its label's boundary node through
    vertices that carry the same label or none yet, so every leaf is a
    cocircuit. `node_limit` bounds the labellings tried (GraphTooLarge when
    it trips). Every candidate is re-verified against the rank oracle.
    """
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

    # boundary labellings: vertex i < m is boundary node i and labels itself
    bd = net.boundary
    m = len(bd)
    vlist = list(bd) + _rim_order(net)
    vpos = {v: i for i, v in enumerate(vlist)}
    nbr = [0] * len(vlist)
    ends = []
    for i, e in enumerate(order):
        a, b = vpos[net.edges[e][0]], vpos[net.edges[e][1]]
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        ends.append((a, b, 1 << i))
    label = list(range(m)) + [0] * (len(vlist) - m)
    cls = [1 << b for b in range(m)]
    free = (1 << len(vlist)) - (1 << m)
    budget = node_limit

    def reaches(b):
        # every vertex labelled b is joined to b through b's and free vertices
        allowed = cls[b] | free
        seen = front = 1 << b
        while front:
            grow = 0
            while front:
                low = front & -front
                grow |= nbr[low.bit_length() - 1]
                front ^= low
            front = grow & allowed & ~seen
            seen |= front
        return cls[b] & ~seen == 0

    def search(v):
        nonlocal free, budget
        if v == len(vlist):
            zmask = eh_bit
            for a, b, bit in ends:
                if label[a] != label[b]:
                    zmask |= bit
            if _check_cocircuit(rank, full, r, zmask):
                out.append(zmask)
            return
        free ^= 1 << v
        for b in range(m):
            budget -= 1
            if budget < 0:
                raise GraphTooLarge("cocircuit search exceeded its node budget")
            label[v] = b
            cls[b] |= 1 << v
            if all(reaches(c) for c in range(m) if cls[c] != 1 << c):
                search(v + 1)
            cls[b] ^= 1 << v
        free |= 1 << v

    search(m)

    labels = list(order) + [EH]

    def to_labels(mask):
        return frozenset(labels[i] for i in range(n + 1) if mask >> i & 1)

    uniq = sorted({to_labels(z) for z in out}, key=lambda z: (len(z), sorted(z)))
    return tuple(uniq)


# -- separations, balancing sets, connectivity -------------------------------


def vertical_biseparations(net, k, limit=20):
    """Vertical k-biseparations of the coned biased graph.

    Partitions (X, Y) of edges plus the extra element where both sides have
    at least k elements, each side meets a vertex the other misses, and the
    number of shared vertices matches the balance pattern: k+1 when both
    sides are balanced, k when exactly one is, k-1 when neither is.
    """
    order = list(net.edge_order)
    n = len(order)
    if n + 1 > limit:
        raise GroundTooLarge(
            f"biseparation scan over {n + 1} elements (limit {limit})"
        )
    og, hub = identify_boundary(net)
    cross = set(crossings(net))
    elements = order + [EH]

    def vertices_met(side):
        met = set()
        for e in side:
            if e == EH:
                met.add(hub)
            else:
                a, b = og.edges[e]
                met.add(a)
                met.add(b)
        return met

    def balanced(side):
        s = side - {EH}
        if EH in side:
            return False
        return not any(c <= s for c in cross)

    out = []
    for mask in range(1, (1 << (n + 1)) - 1):
        if not mask & 1:
            continue  # fix element 0 on the X side; each split once
        X = {elements[i] for i in range(n + 1) if mask >> i & 1}
        Y = set(elements) - X
        if len(X) < k or len(Y) < k:
            continue
        vx, vy = vertices_met(X), vertices_met(Y)
        if not (vx - vy) or not (vy - vx):
            continue
        shared = len(vx & vy)
        bx, by = balanced(X), balanced(Y)
        nbal = bx + by
        want = {2: k + 1, 1: k, 0: k - 1}[nbal]
        if shared != want:
            continue
        kind = {2: "both-balanced", 1: "one-balanced", 0: "neither-balanced"}[nbal]
        out.append(
            {
                "X": tuple(sorted(X)),
                "Y": tuple(sorted(Y)),
                "shared_vertices": shared,
                "kind": kind,
            }
        )
    out.sort(key=lambda d: (d["X"], d["Y"]))
    return out


def balancing_sets(net):
    """Deletion sets of the two shapes that balance the coned graph: the
    extra element alone, or the extra element plus one edge lying on every
    crossing."""
    cross = crossings(net)
    out = []
    if not cross:
        out.append(frozenset((EH,)))
    else:
        common = set.intersection(*(set(c) for c in cross))
        for e in sorted(common):
            out.append(frozenset((EH, e)))
    return tuple(sorted(out, key=sorted))


def simplicity_report(net):
    """The coned biased graph is always simple; report the particulars."""
    bg = cone(biased_graph(net))
    balanced_loops = sorted(
        c for c in bg.balanced if len(c) == 1
    )
    balanced_digons = sorted(
        sorted(c) for c in bg.balanced if len(c) == 2
    )
    loops_by_vertex = {}
    for e, (u, v) in bg.graph.edges.items():
        if u == v and frozenset((e,)) in bg.unbalanced:
            loops_by_vertex.setdefault(u, []).append(e)
    multiple = {v: es for v, es in loops_by_vertex.items() if len(es) > 1}
    return {
        "balanced_loops": balanced_loops,
        "balanced_digons": balanced_digons,
        "unbalanced_loops": {v: sorted(es) for v, es in loops_by_vertex.items()},
        "simple": not balanced_loops and not balanced_digons and not multiple,
    }


def simplicity_check(net):
    """True when the coned biased graph has no balanced circle of length
    1 or 2 and no repeated unbalanced loop (always, for valid networks)."""
    return simplicity_report(net)["simple"]


def _is_k_connected_graph(mg, k):
    """No vertex cut smaller than k (complete graphs count as connected
    at every order)."""
    verts = list(mg.vertices)
    nv = len(verts)
    pair_adj = {v: set(w for _, w in mg.adj[v] if w != v) for v in verts}
    complete = all(len(pair_adj[v]) == nv - 1 for v in verts)
    if complete:
        return True
    if not mg.is_connected():
        return False

    from itertools import combinations

    for size in range(1, k):
        for cut in combinations(verts, size):
            rest = [v for v in verts if v not in cut]
            if len(rest) <= 1:
                continue
            seen = {rest[0]}
            stack = [rest[0]]
            cutset = set(cut)
            while stack:
                x = stack.pop()
                for y in pair_adj[x]:
                    if y not in cutset and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) != len(rest):
                return False
    return True


def connectivity_criteria(net):
    """Graph-side connectivity data for the two matroid connectivity
    equivalences."""
    nabla = add_boundary_clique(net)
    verts = nabla.vertices
    nv = len(verts)
    pair_adj = {v: set(w for _, w in nabla.adj[v] if w != v) for v in verts}
    complete = all(len(pair_adj[v]) == nv - 1 for v in verts)
    return {
        "interior_connected": interior_is_connected(net),
        "nabla_complete": complete,
        "nabla_2_connected": _is_k_connected_graph(nabla, 2),
        "nabla_3_connected": _is_k_connected_graph(nabla, 3),
        "predicts_2_connected": _is_k_connected_graph(nabla, 2),
        "predicts_3_connected": interior_is_connected(net)
        and (_is_k_connected_graph(nabla, 3) or complete),
        "single_interior_node": len(net.interior) == 1,
    }
