"""Networks with boundary.

A network is a finite connected simple graph together with a distinguished set
of at least two boundary nodes which spans no edge. A Network is a MultiGraph
that passed those checks, so the one traversal (`MultiGraph.reach`, and
`components` built on it) serves networks, their quotients and their duals
alike. Everything downstream (matroids, polynomials, response matrices,
duals) is built on top of this module: validation, boundary-to-boundary
paths (crossings), interior blocks, groves, and the two derived graphs
(boundary nodes identified to a single node, and the boundary turned into a
clique).

The crossing list is the definition and can be exponential in the size of
the network. Only `verify.triangulate`'s grove route and the girth of
`grovepoly.cpintro_compare` read it. The groves are read off the network
matroid's bases, which its union-find rank oracle finds without the list, and
the boundary pairs joined by a crossing are read off the blocks. The number
of groves can be exponential too; it is counted first, in polynomial time,
and a listing above GROVE_LIMIT groves is refused. What is built once per
network is kept on it by `derived`, the one cache; a network never changes
after construction, so nothing kept goes stale.
"""

import json

from .errors import (
    BadParameter,
    BoundaryEdge,
    BoundaryTooSmall,
    Disconnected,
    GraphTooLarge,
    LoopOrMultiEdge,
    UnknownLabel,
)

EH = "eh"  # reserved label for the extra lift element


class MultiGraph:
    """A labelled multigraph. Loops and parallel edges are allowed.

    Edges are (label, u, v) triples with unique labels. This is the carrier
    for quotients and duals, where parallels naturally appear, and the base
    of Network.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        seen = set()
        norm = {}
        for label, u, v in edges:
            if label in seen:
                raise BadParameter(f"duplicate edge label {label!r}")
            seen.add(label)
            if u not in vset or v not in vset:
                raise UnknownLabel(f"edge {label!r} uses unknown vertex")
            norm[label] = (u, v) if u <= v else (v, u)
        self.edges = norm
        self.edge_order = tuple(sorted(norm))
        adj = {v: [] for v in self.vertices}
        for label in self.edge_order:
            u, v = norm[label]
            adj[u].append((label, v))
            if v != u:
                adj[v].append((label, u))
        self.adj = adj

    def has_loop(self):
        return any(u == v for u, v in self.edges.values())

    def reach(self, start, within=None):
        """The set of vertices joined to `start` by a path whose other
        vertices all lie in the set `within` (any vertex when it is None)."""
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for _, y in self.adj[x]:
                if y not in seen and (within is None or y in within):
                    seen.add(y)
                    stack.append(y)
        return seen

    def components(self, within=None):
        """The connected components of the subgraph induced on `within`
        (the whole graph when it is None), sorted."""
        if within is not None:
            within = frozenset(within)
        seen = set()
        out = []
        for s in self.vertices:
            if s in seen or (within is not None and s not in within):
                continue
            comp = frozenset(self.reach(s, within))
            seen |= comp
            out.append(comp)
        return sorted(out, key=sorted)

    def is_connected(self):
        return len(self.components()) <= 1

    def simplify(self):
        """Simple graph on the same vertices: drop loops, collapse parallels.

        Returns (graph, kept) where kept maps each surviving label to its
        parallel class.
        """
        byends = {}
        for e, (u, v) in sorted(self.edges.items()):
            if u == v:
                continue
            byends.setdefault((u, v), []).append(e)
        edges = []
        kept = {}
        for (u, v), es in sorted(byends.items()):
            edges.append((es[0], u, v))
            kept[es[0]] = tuple(es)
        return MultiGraph(self.vertices, edges), kept


class Network(MultiGraph):
    """A connected simple graph with an independent boundary set: a
    MultiGraph with no loop, no parallel edge and no edge between two
    boundary nodes.

    Validation happens at construction time and raises the taxonomy errors,
    so any Network object in hand is valid.
    """

    def __init__(self, vertices, boundary, edges, name=None):
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise BadParameter("duplicate vertex labels")
        vset = set(vs)
        bd = list(boundary)
        if len(set(bd)) != len(bd):
            raise BadParameter("duplicate boundary labels")
        for b in bd:
            if b not in vset:
                raise UnknownLabel(f"boundary node {b!r} is not a vertex")
        if len(bd) < 2:
            raise BoundaryTooSmall(f"need at least 2 boundary nodes, got {len(bd)}")
        if len(bd) >= len(vs):
            raise BoundaryTooSmall("boundary must be a proper subset of the vertices")
        self._bset = frozenset(bd)

        triples = []
        labels = set()
        ends_seen = set()
        for item in edges:
            if len(item) == 3:
                label, u, v = item
            else:
                u, v = item
                label = f"{min(u, v)}-{max(u, v)}"
            if label == EH:
                raise BadParameter(f"edge label {EH!r} is reserved")
            if label in labels:
                raise BadParameter(f"duplicate edge label {label!r}")
            if u not in vset or v not in vset:
                raise UnknownLabel(f"edge {label!r} joins unknown vertices {u!r},{v!r}")
            if u == v:
                raise LoopOrMultiEdge(f"loop at {u!r}")
            key = (u, v) if u <= v else (v, u)
            if key in ends_seen:
                raise LoopOrMultiEdge(f"parallel edge {u!r}-{v!r}")
            ends_seen.add(key)
            if u in self._bset and v in self._bset:
                raise BoundaryEdge(f"edge {label!r} joins two boundary nodes")
            labels.add(label)
            triples.append((label, u, v))
        super().__init__(vs, triples)
        self.boundary = tuple(sorted(bd))
        self.interior = tuple(v for v in self.vertices if v not in self._bset)
        self.name = name or "network"

        missed = len(self.vertices) - len(self.reach(self.vertices[0]))
        if missed:
            raise Disconnected(f"{missed} vertices unreachable")

        self._cache = {}

    # -- basics ---------------------------------------------------------

    def is_boundary(self, v):
        return v in self._bset

    def require_edges(self, labels):
        for e in labels:
            if e not in self.edges and e != EH:
                raise UnknownLabel(f"unknown edge label {e!r}")

    def __repr__(self):
        return (
            f"Network({self.name}: {len(self.vertices)} vertices, "
            f"{len(self.boundary)} boundary, {len(self.edges)} edges)"
        )

    # -- serialization ----------------------------------------------------

    def to_json(self):
        data = {
            "vertices": list(self.vertices),
            "boundary": list(self.boundary),
            "edges": [[u, v, e] for e, (u, v) in sorted(self.edges.items())],
        }
        emb = getattr(self, "embedding_json", None)
        if emb:
            data["embedding"] = emb()
        return data

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise BadParameter("network JSON must be an object")
        for key in ("vertices", "boundary", "edges"):
            if key not in data:
                raise BadParameter(f"network JSON lacks {key!r}")
        for key in ("rotation", "boundary_order"):
            if key in data:
                raise BadParameter(
                    f"{key!r} belongs inside the network's \"embedding\" object"
                )
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise BadParameter("name must be a string")
        vertices = _labels(data["vertices"], "vertices")
        boundary = _labels(data["boundary"], "boundary")
        if not isinstance(data["edges"], list):
            raise BadParameter("edges must be an array")
        edges = []
        for item in data["edges"]:
            if len(_labels(item, "an edge entry")) not in (2, 3):
                raise BadParameter(f"bad edge entry {item!r}")
            if len(item) == 3:
                edges.append((item[2], item[0], item[1]))
            else:
                edges.append(tuple(item))
        if data.get("embedding"):
            from .circular import CircularNetwork

            emb = data["embedding"]
            if not isinstance(emb, dict):
                raise BadParameter("embedding must be an object")
            if "rotation" not in emb or "boundary_order" not in emb:
                raise BadParameter("embedding needs rotation and boundary_order")
            rotation = emb["rotation"]
            if not isinstance(rotation, dict):
                raise BadParameter("rotation must be an object")
            for v, seq in rotation.items():
                _labels(seq, f"the rotation at {v!r}")
            return CircularNetwork(
                vertices,
                boundary,
                edges,
                rotation=rotation,
                boundary_order=_labels(emb["boundary_order"], "boundary_order"),
                name=name,
            )
        return cls(vertices, boundary, edges, name=name)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise BadParameter(f"invalid JSON: {exc}") from None
        return cls.from_json(data)


def _labels(items, what):
    """A JSON array of string labels, checked."""
    if not isinstance(items, list) or not all(isinstance(x, str) for x in items):
        raise BadParameter(f"{what} must be an array of strings")
    return items


# -- derived graphs -------------------------------------------------------


def identify_boundary(net):
    """Identify all boundary nodes to one node.

    Returns (multigraph, hub) where hub is the new node's label. Edge labels
    are preserved; parallels appear whenever an interior node has several
    boundary neighbours, loops never do (no boundary-boundary edges).
    """
    hub = "*"
    while hub in net.vertices:
        hub += "*"
    vertices = list(net.interior) + [hub]
    edges = []
    for e, (u, v) in sorted(net.edges.items()):
        uu = hub if net.is_boundary(u) else u
        vv = hub if net.is_boundary(v) else v
        edges.append((e, uu, vv))
    return MultiGraph(vertices, edges), hub


def add_boundary_clique(net):
    """The graph plus a complete graph on the boundary nodes.

    Simple by construction since a valid network has no boundary-boundary
    edges. Added edges get labels '+i' in sorted pair order.
    """
    edges = [(e, u, v) for e, (u, v) in sorted(net.edges.items())]
    pairs = []
    bd = net.boundary
    for i in range(len(bd)):
        for j in range(i + 1, len(bd)):
            pairs.append((bd[i], bd[j]))
    for k, (u, v) in enumerate(sorted(pairs)):
        edges.append((f"+{k}", u, v))
    return MultiGraph(net.vertices, edges)


# -- crossings ------------------------------------------------------------


def derived(net, key, build):
    """`build(net)`, built on the first call for this network and key and
    kept on the network from then on; a build that raises keeps nothing."""
    cache = net._cache
    if key not in cache:
        cache[key] = build(net)
    return cache[key]


def crossings(net):
    """All boundary-to-boundary paths with interior middles.

    Each is returned as a frozenset of edge labels (a path's edge set
    determines it). Sorted deterministically. The list can be exponential in
    the size of the network; the rank oracle, the groves and the crossing
    pairs do without it.
    """
    return derived(net, "crossings", _list_crossings)


def _list_crossings(net):
    found = set()
    for b in net.boundary:
        # DFS over simple paths leaving b through interior vertices only
        stack = [(b, [], set())]
        while stack:
            x, path_edges, used = stack.pop()
            for e, y in net.adj[x]:
                if e in path_edges:
                    continue
                if net.is_boundary(y):
                    if y != b and path_edges:
                        found.add(frozenset(path_edges + [e]))
                    continue
                if y in used:
                    continue
                stack.append((y, path_edges + [e], used | {y}))
    return tuple(sorted(found, key=lambda fs: sorted(fs)))


def crossing_masks(net):
    """The crossings as bitmasks over the edge order (not cached)."""
    eidx = {e: i for i, e in enumerate(net.edge_order)}
    out = []
    for c in crossings(net):
        m = 0
        for e in c:
            m |= 1 << eidx[e]
        out.append(m)
    return out


# -- blocks ---------------------------------------------------------------


def block_decomposition(net):
    """Pairs (vertex set, edge set), one per interior component: the
    component plus its adjacent boundary nodes, and every edge with an
    endpoint in the component. The edge sets partition E because
    boundary-boundary edges are forbidden."""
    pairs = []
    for comp in net.components(net.interior):
        bset = {y for v in comp for _, y in net.adj[v] if net.is_boundary(y)}
        eset = {e for v in comp for e, _ in net.adj[v]}
        pairs.append((comp | bset, frozenset(eset)))
    pairs.sort(key=lambda p: sorted(p[1]))
    return tuple(pairs)


def blocks(net):
    """Interior components together with their adjacent boundary nodes."""
    return tuple(p[0] for p in block_decomposition(net))


def crossing_pair_graph(net):
    """The graph on boundary nodes joining each pair that a crossing runs
    between, as an adjacency dict. A crossing's interior middle lies in one
    interior component, so two boundary nodes are joined exactly when they
    share a block."""
    adj = {b: set() for b in net.boundary}
    for blk in blocks(net):
        bd = {v for v in blk if net.is_boundary(v)}
        for b in bd:
            adj[b] |= bd - {b}
    return adj


# -- groves ---------------------------------------------------------------


class RollbackDSU:
    """Union-find with undo; no path compression so undo stays exact."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail = []

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            self.trail.append(None)
            return False
        if self.size[ra] > self.size[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        self.size[rb] += self.size[ra]
        self.trail.append((ra, rb))
        return True

    def undo(self):
        op = self.trail.pop()
        if op is not None:
            ra, rb = op
            self.parent[ra] = ra
            self.size[rb] -= self.size[ra]


_GROVE_MODES = ("no-crossing", "one-crossing")

# The most groves `groves` lists. Listing the 88,469 groves of
# random:11,3,0.4,1 takes 3.2-3.5 s and 97 MB on one Xeon core.
GROVE_LIMIT = 100_000


def groves(net, mode):
    """Groves: forests covering the interior, every tree touching the
    boundary, with no crossing ('no-crossing') or exactly one
    ('one-crossing'). Returns a sorted tuple of frozensets of edge labels.

    These are the bases of the network matroid: the bases without `eh` are
    the one-crossing groves, and the bases with `eh` are the no-crossing
    groves plus `eh`. Both modes come from one basis enumeration of the
    network's derived matroid, and both lists are kept on the network.
    Before it starts, the groves are counted, and more than GROVE_LIMIT of
    them raise GraphTooLarge.
    """
    if mode not in _GROVE_MODES:
        raise BadParameter(f"grove mode must be one of {_GROVE_MODES}")
    return derived(net, "groves", _list_groves)[mode]


def _list_groves(net):
    from .dirichlet import dirichlet_matroid
    from .electrical import grove_count

    count = grove_count(net)
    if count > GROVE_LIMIT:
        raise GraphTooLarge(
            f"{count} groves exceeds the grove limit {GROVE_LIMIT}"
        )
    matroid = derived(net, "matroid", dirichlet_matroid)
    bases = matroid.bases(limit=len(matroid.ground))
    return {
        "one-crossing": tuple(fs for fs in bases if EH not in fs),
        "no-crossing": tuple(
            sorted((fs - {EH} for fs in bases if EH in fs), key=sorted)
        ),
    }


def grove_crossing(net, fs):
    """The pair of boundary nodes that share a tree of a one-crossing grove:
    the endpoints of its crossing."""
    vidx = {v: i for i, v in enumerate(net.vertices)}
    dsu = RollbackDSU(len(vidx))
    for e in fs:
        u, v = net.edges[e]
        if not dsu.union(vidx[u], vidx[v]):
            raise BadParameter("not a one-crossing grove")
    trees = {}
    for b in net.boundary:
        trees.setdefault(dsu.find(vidx[b]), []).append(b)
    shared = [tuple(t) for t in trees.values() if len(t) > 1]
    if len(shared) != 1 or len(shared[0]) != 2:
        raise BadParameter("not a one-crossing grove")
    return shared[0]
