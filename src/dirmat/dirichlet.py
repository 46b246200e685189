"""The matroid of a network, its cocircuits and its connectivity criteria.

The boundary-identified graph carries a biased structure: a circle is
unbalanced exactly when it is a boundary-to-boundary path of the original
graph (a crossing). The network matroid is the lift of this biased graph by
one extra element (Zaslavsky, "Biased graphs II: the three matroids", JCTB
51, 1991): the rank of a set is the graphic rank of its edges in the
identified graph, plus one when it holds the extra element or a crossing.

No crossing is listed to answer a rank query. One union-find pass over
the set's edges in the original graph keeps the m boundary nodes apart; let
c_B be the number of distinct roots among them. The set holds a crossing
exactly when c_B < m (two boundary nodes share a component, and the path
between them starts with a crossing), its graphic rank in the identified
graph is merges - m + c_B, and so its rank is that plus u, where u = 1 when
it holds the extra element or c_B < m. A query is one pass over the set's
edges plus one find per boundary node.

The same pass tests a cocircuit Z. Its complement H is a hyperplane when
its rank is one less than the full rank and every element of Z raises it:
the extra element exactly when u(H) = 0, and an edge exactly when it joins
two components of H's forest, not both holding boundary nodes if u(H) = 1
(those lie in one vertex of the identified graph). `network_cocircuits`
checks every cocircuit it lists this way. The module also holds the
graph-side connectivity criteria.
"""

from itertools import combinations

from .errors import GraphTooLarge
from .matroid import Matroid, union_find
from .network import EH, add_boundary_clique, derived, identify_boundary


# -- the rank oracle ---------------------------------------------------------


def _lift_forest(net):
    """The edge ends over the vertex indexing with the boundary nodes first
    (vertex i < m is boundary node i), and the union-find pass over them."""
    bd = net.boundary
    vidx = {v: i for i, v in enumerate(list(bd) + list(net.interior))}
    ends = [
        (vidx[net.edges[e][0]], vidx[net.edges[e][1]]) for e in net.edge_order
    ]
    return ends, union_find(len(vidx), ends, range(len(bd)))


def _lift_engine(net):
    """The lift rank on bitmasks over the edge order, bit n being `eh`, by
    the c_B rule of the module docstring."""
    m = len(net.boundary)
    _, forest = _lift_forest(net)
    eh_bit = 1 << len(net.edge_order)

    def rank(mask):
        merges, c_b, _ = forest(mask & (eh_bit - 1))
        if mask & eh_bit or c_b < m:
            return merges - m + c_b + 1
        return merges

    return rank


def dirichlet_matroid(net):
    """The network matroid on the edges plus the reserved extra element."""
    ground = list(net.edge_order) + [EH]
    return Matroid(ground, _lift_engine(net), name=f"M({net.name})")


def _cocircuit_test(net):
    """Whether a bitmask (as for `_lift_engine`) is a cocircuit, by one
    pass over its complement and the rule of the module docstring."""
    m = len(net.boundary)
    ends, forest = _lift_forest(net)
    eh_bit = 1 << len(ends)
    merges, c_b, _ = forest(eh_bit - 1)
    hyperplane_rank = merges - m + c_b  # the full rank, less one

    def test(zmask):
        merges, c_b, parent = forest(~zmask & (eh_bit - 1))
        u = c_b < m or not zmask & eh_bit
        if merges - m + c_b + u != hyperplane_rank or u and zmask & eh_bit:
            return False
        held = set()
        for i in range(m if u else 0):
            while parent[i] != i:
                i = parent[i]
            held.add(i)
        z = zmask & (eh_bit - 1)
        while z:
            b = z & -z
            a, c = ends[b.bit_length() - 1]
            while parent[a] != a:
                a = parent[a]
            while parent[c] != c:
                c = parent[c]
            if a == c or a in held and c in held:
                return False
            z ^= b
        return True

    return test


# -- structural cocircuit enumeration ---------------------------------------


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
    cocircuit. Each node keeps, per label, the set that label's boundary
    node reaches: giving v label b leaves b's set as it is, so v must lie in
    it, and only the labels whose sets held v are searched again.

    `node_limit` bounds the bipartitions scanned plus the labellings tried
    (GraphTooLarge, before the scan when the bipartitions alone exceed it).
    Every candidate is checked by the one-pass cocircuit test.
    """
    og, hub = identify_boundary(net)
    order = net.edge_order
    n = len(order)
    eidx = {e: i for i, e in enumerate(order)}
    eh_bit = 1 << n
    is_cocircuit = derived(net, "cocircuit_test", _cocircuit_test)

    out = []

    # bonds: connected vertex bipartitions of the identified graph
    verts = og.vertices
    nv = len(verts)
    scan = 1 << (nv - 1)
    budget = node_limit - scan
    if budget < 0:
        raise GraphTooLarge(
            f"cocircuit search: {scan} vertex bipartitions exceed its node "
            f"budget of {node_limit}"
        )

    def side_connected(side):
        return len(og.reach(next(iter(side)), side)) == len(side)

    for smask in range(scan):
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
        if is_cocircuit(zmask):
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

    def reach(b):
        # the vertices joined to b through b's and free vertices
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
        return seen

    def search(v, seen):
        # seen[c] is reach(c); every class lies inside its own
        nonlocal free, budget
        if v == len(vlist):
            zmask = eh_bit
            for a, b, bit in ends:
                if label[a] != label[b]:
                    zmask |= bit
            if is_cocircuit(zmask):
                out.append(zmask)
            return
        bit = 1 << v
        free ^= bit
        for b in range(m):
            budget -= 1
            if budget < 0:
                raise GraphTooLarge("cocircuit search exceeded its node budget")
            if not seen[b] & bit:
                continue
            label[v] = b
            cls[b] |= bit
            child = seen[:]
            for c in range(m):
                if c != b and seen[c] & bit:
                    child[c] = reach(c)
                    if cls[c] & ~child[c]:
                        break
            else:
                search(v + 1, child)
            cls[b] ^= bit
        free |= bit

    search(m, [reach(b) for b in range(m)])

    labels = list(order) + [EH]

    def to_labels(mask):
        return frozenset(labels[i] for i in range(n + 1) if mask >> i & 1)

    uniq = sorted({to_labels(z) for z in out}, key=lambda z: (len(z), sorted(z)))
    return tuple(uniq)


# -- connectivity -----------------------------------------------------------


def _vertex_connectivity(mg, cap):
    """The size of a smallest vertex cut, or `cap` when every cut has at
    least `cap` vertices (complete graphs have none)."""
    verts = list(mg.vertices)
    nv = len(verts)
    pair_adj = {v: set(w for _, w in mg.adj[v] if w != v) for v in verts}
    if all(len(pair_adj[v]) == nv - 1 for v in verts):
        return cap
    if not mg.is_connected():
        return 0
    for size in range(1, cap):
        for cut in combinations(verts, size):
            rest = set(verts) - set(cut)
            if len(rest) > 1 and len(mg.reach(next(iter(rest)), rest)) != len(rest):
                return size
    return cap


def connectivity_criteria(net):
    """Graph-side connectivity data for the two matroid connectivity
    equivalences."""
    nabla = add_boundary_clique(net)
    nv = len(nabla.vertices)
    kappa = _vertex_connectivity(nabla, 3)
    interior = len(net.components(net.interior)) <= 1
    return {
        "interior_connected": interior,
        # nabla is simple: the network is, and it has no boundary-boundary edge
        "nabla_complete": len(nabla.edges) == nv * (nv - 1) // 2,
        "nabla_2_connected": kappa >= 2,
        "nabla_3_connected": kappa >= 3,
        "predicts_2_connected": kappa >= 2,
        # a complete nabla counts as 3-connected
        "predicts_3_connected": interior and kappa >= 3,
        "single_interior_node": len(net.interior) == 1,
    }
