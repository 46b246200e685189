"""Disk-drawn networks and planar duality.

A circular network is a network plus a combinatorial embedding in the
closed disk: a clockwise rotation (cyclic order of incident edges) at every
vertex, and the clockwise order in which the boundary nodes sit on the rim.
Everything downstream of the drawing lives here: the dual network, the dual
of the boundary-identified graph, insulators, and minimum circuit covers of
cocircuits together with their size bounds.

The machinery never distinguishes a drawing from its mirror image, so
boundary orders are matched up to rotation and reversal, and duals are
likewise produced up to that ambiguity.
"""

from .dirichlet import dirichlet_matroid, network_cocircuits
from .errors import (
    BadParameter,
    BoundaryOrderMismatch,
    ConsistencyError,
    DegreeOneVertex,
    GroundTooLarge,
    InteriorDegreeTwo,
    NoCover,
    NotACocircuit,
    NotPlanar,
)
from .matroid import Matroid
from .network import EH, MultiGraph, Network

INSULATOR_LIMIT = 20

# what a circular network caches of its drawing (dropped when it is redrawn)
_DUALITY_KEYS = ("duality:matroid", "duality:dual_network", "duality:dual_matroid")


# -- face tracing ----------------------------------------------------------
#
# A dart is (label, flip): flip 0 walks the stored (u, v) pair from u to v,
# flip 1 walks it backwards. The successor of a dart is found at its head w:
# take the next edge after the dart's own edge in the rotation at w and
# leave w along it. This is a bijection on darts, so the orbits partition
# them; the orbits are the faces of the embedded graph.


def _tail(edges, dart):
    e, flip = dart
    u, v = edges[e]
    return v if flip else u


def _head(edges, dart):
    e, flip = dart
    u, v = edges[e]
    return u if flip else v


def _trace_faces(edges, rotation):
    """Orbits of the face-walk successor, in deterministic order.

    `edges` maps label -> (u, v); `rotation` maps vertex -> edge labels in
    cyclic order. Loops are rejected (no network here can carry one).
    """
    rot = {v: tuple(seq) for v, seq in rotation.items()}
    pos = {}
    for v, seq in rot.items():
        table = {}
        for i, e in enumerate(seq):
            if e in table:
                raise BadParameter(f"edge {e!r} listed twice around {v!r}")
            table[e] = i
        pos[v] = table
    incident = {v: set() for v in rot}
    for e, (u, v) in edges.items():
        if u == v:
            raise BadParameter(f"cannot trace faces past the loop {e!r}")
        for w in (u, v):
            if w not in pos:
                raise BadParameter(f"no rotation at vertex {w!r}")
            incident[w].add(e)
    for v in rot:
        if set(pos[v]) != incident[v]:
            raise BadParameter(f"rotation at {v!r} does not match its edges")

    def successor(dart):
        e, _ = dart
        w = _head(edges, dart)
        seq = rot[w]
        e2 = seq[(pos[w][e] + 1) % len(seq)]
        a, _b = edges[e2]
        return (e2, 0 if a == w else 1)

    darts = sorted((e, f) for e in edges for f in (0, 1))
    unused = set(darts)
    faces = []
    for start in darts:
        if start not in unused:
            continue
        walk = []
        d = start
        while True:
            walk.append(d)
            unused.discard(d)
            d = successor(d)
            if d == start:
                break
            if len(walk) > 2 * len(darts):
                raise ConsistencyError("face walk failed to close")
        faces.append(tuple(walk))
    return faces


def _cyclic_match(seq, ref):
    """True when seq equals ref up to rotation or rotation plus reversal."""
    n = len(ref)
    if len(seq) != n:
        return False
    for cand in (list(ref), list(reversed(ref))):
        doubled = cand + cand
        for i in range(n):
            if list(seq) == doubled[i : i + n]:
                return True
    return False


def _check_degrees(net):
    for v in net.vertices:
        d = len(net.adj[v])
        if d <= 1:
            raise DegreeOneVertex(f"vertex {v!r} has degree {d}")
        if d == 2 and not net.is_boundary(v):
            raise InteriorDegreeTwo(f"interior vertex {v!r} has degree 2")


# -- the class -------------------------------------------------------------


class CircularNetwork(Network):
    """A network drawn once and for all in the closed disk.

    Construction validates the whole embedding contract: minimum degrees,
    planarity of the rotation system, and a face whose walk meets every
    boundary node exactly once, in the declared rim order. The traced faces
    and the rim regions (arcs between consecutive boundary visits) are kept
    on the instance for the dual constructions.
    """

    def __init__(self, vertices, boundary, edges, rotation=None,
                 boundary_order=None, name=None):
        super().__init__(vertices, boundary, edges, name=name)
        if rotation is None or boundary_order is None:
            raise BadParameter(
                "a circular network needs rotation and boundary_order"
            )
        try:
            rot = {v: tuple(rotation[v]) for v in self.vertices}
        except (KeyError, TypeError):
            raise BadParameter("rotation must cover every vertex") from None
        extra = set(rotation) - set(self.vertices)
        if extra:
            raise BadParameter(f"rotation lists unknown vertices {sorted(extra)}")
        self.rotation = rot
        order = tuple(boundary_order)
        if sorted(order) != sorted(self.boundary):
            raise BadParameter(
                "boundary_order must list each boundary node exactly once"
            )
        self.boundary_order = order
        _check_degrees(self)
        self._embed()

    def _dart_tail(self, dart):
        return _tail(self.edges, dart)

    def _embed(self):
        for key in _DUALITY_KEYS:
            self._cache.pop(key, None)
        faces = _trace_faces(self.edges, self.rotation)
        nf = len(faces)
        need = 2 - len(self.vertices) + len(self.edges)
        if nf != need:
            raise NotPlanar(
                f"rotation system yields {nf} faces where a sphere drawing "
                f"needs {need}"
            )
        m = len(self.boundary_order)
        outer = None
        for idx, walk in enumerate(faces):
            vis = [
                self._dart_tail(d)
                for d in walk
                if self.is_boundary(self._dart_tail(d))
            ]
            if (
                len(vis) == m
                and len(set(vis)) == m
                and _cyclic_match(vis, self.boundary_order)
            ):
                outer = idx
                break
        if outer is None:
            raise BoundaryOrderMismatch(
                "no face visits every boundary node exactly once in the "
                "declared rim order"
            )
        self.faces = tuple(faces)
        self.outer_index = outer

        # split the outer walk at its boundary visits into rim arcs
        walk = list(faces[outer])
        starts = [
            i for i, d in enumerate(walk) if self.is_boundary(self._dart_tail(d))
        ]
        k = next(
            j
            for j, i in enumerate(starts)
            if self._dart_tail(walk[i]) == self.boundary_order[0]
        )
        starts = starts[k:] + starts[:k]
        arcs = []
        for j, p in enumerate(starts):
            q = starts[(j + 1) % m]
            seg = walk[p:q] if q > p else walk[p:] + walk[:q]
            arcs.append((self._dart_tail(walk[p]), tuple(seg)))
        self.arcs = tuple(arcs)
        self.arc_names = tuple(f"r_{b}" for b, _ in arcs)

        region_of = {}
        walks = {}
        count = 0
        inner = []
        for idx, face in enumerate(faces):
            if idx == outer:
                continue
            count += 1
            nm = f"f{count}"
            inner.append(nm)
            walks[nm] = face
            for d in face:
                region_of[d] = nm
        for (b, seg), nm in zip(arcs, self.arc_names):
            walks[nm] = seg
            for d in seg:
                region_of[d] = nm
        self.interior_face_names = tuple(inner)
        self.region_names = tuple(inner) + self.arc_names
        self._region_of = region_of
        self._region_walks = walks

    def embedding_json(self):
        return {
            "rotation": {v: list(self.rotation[v]) for v in self.vertices},
            "boundary_order": list(self.boundary_order),
        }

    def __repr__(self):
        return (
            f"CircularNetwork({self.name}: {len(self.vertices)} vertices, "
            f"{len(self.boundary)} boundary, {len(self.edges)} edges, "
            f"{len(self.faces) - 1} inner faces)"
        )


class DualNetwork(CircularNetwork):
    """Dual of a circular network; carries the edge bijection and the name
    of the network it came from."""

    source_name = None
    edge_bijection = None


def validate_embedding(raw, rotation=None, boundary_order=None):
    """Check the disk-embedding contract and hand back a CircularNetwork.

    Accepts a CircularNetwork (re-validated in place) or a plain Network
    plus rotation and boundary-order data. Degree conditions are checked
    before anything else, so degree violations surface even when no
    embedding data is supplied.
    """
    if (
        isinstance(raw, CircularNetwork)
        and rotation is None
        and boundary_order is None
    ):
        _check_degrees(raw)
        raw._embed()
        return raw
    if not isinstance(raw, Network):
        raise BadParameter("validate_embedding wants a network")
    _check_degrees(raw)
    if rotation is None or boundary_order is None:
        raise BadParameter(
            "a plain network needs rotation and boundary_order to validate"
        )
    triples = [(e, u, v) for e, (u, v) in sorted(raw.edges.items())]
    return CircularNetwork(
        raw.vertices,
        raw.boundary,
        triples,
        rotation=rotation,
        boundary_order=boundary_order,
        name=raw.name,
    )


def _as_circular(net):
    if not isinstance(net, CircularNetwork):
        raise BadParameter("this operation needs a circular network")
    return net


# -- duals -----------------------------------------------------------------


def dual_network(cnet):
    """The dual circular network.

    One vertex per region of the drawing (inner faces plus rim arcs), the
    rim arcs forming the new boundary; each edge joins the two regions its
    primal twin separates and keeps its label, so the recorded bijection is
    the identity on labels.
    """
    cn = _as_circular(cnet)
    triples = []
    seen_pairs = {}
    arcset = set(cn.arc_names)
    for e in cn.edge_order:
        r0 = cn._region_of[(e, 0)]
        r1 = cn._region_of[(e, 1)]
        if r0 == r1:
            raise ConsistencyError(f"edge {e!r} bounds the same region twice")
        if r0 in arcset and r1 in arcset:
            raise ConsistencyError(
                f"edge {e!r} would join two rim regions in the dual"
            )
        key = (r0, r1) if r0 <= r1 else (r1, r0)
        if key in seen_pairs:
            raise ConsistencyError(
                f"edges {seen_pairs[key]!r} and {e!r} would be parallel in "
                "the dual"
            )
        seen_pairs[key] = e
        triples.append((e, r0, r1))
    rot = {
        nm: tuple(lbl for lbl, _ in cn._region_walks[nm])
        for nm in cn.region_names
    }
    dual = DualNetwork(
        list(cn.region_names),
        list(cn.arc_names),
        triples,
        rotation=rot,
        boundary_order=list(cn.arc_names),
        name=f"{cn.name}*",
    )
    dual.source_name = cn.name
    dual.edge_bijection = {e: e for e in cn.edge_order}
    return dual


def og_dual(cnet, embedded=False):
    """Planar dual of the boundary-identified graph, as a multigraph.

    Collapsing the rim to a single point turns the rim arcs into honest
    faces, so the dual has one vertex per region of the disk drawing and
    the same edge adjacencies as the dual network. With embedded=True the
    rotation system inherited from the face walks comes along too.
    """
    cn = _as_circular(cnet)
    triples = [
        (e, cn._region_of[(e, 0)], cn._region_of[(e, 1)])
        for e in cn.edge_order
    ]
    mg = MultiGraph(cn.region_names, triples)
    if mg.has_loop():
        raise ConsistencyError("dual of the identified graph grew a loop")
    nv_identified = len(cn.vertices) - len(cn.boundary) + 1
    want = len(cn.edges) - nv_identified + 2
    if len(mg.vertices) != want:
        raise ConsistencyError(
            f"dual has {len(mg.vertices)} vertices where the face count "
            f"says {want}"
        )
    if not embedded:
        return mg
    rot = {
        nm: tuple(lbl for lbl, _ in cn._region_walks[nm])
        for nm in cn.region_names
    }
    return mg, rot


def sphere_dual(mg, rotation):
    """Dual of a loopless multigraph drawn in the sphere by a rotation
    system. Returns (dual multigraph, dual rotation); faces are named F1,
    F2, ... in trace order and every edge keeps its label."""
    faces = _trace_faces(mg.edges, rotation)
    if len(mg.vertices) - len(mg.edges) + len(faces) != 2:
        raise NotPlanar("rotation system is not a sphere drawing")
    region = {}
    walks = {}
    for i, wk in enumerate(faces):
        nm = f"F{i + 1}"
        walks[nm] = wk
        for d in wk:
            region[d] = nm
    triples = [(e, region[(e, 0)], region[(e, 1)]) for e in mg.edge_order]
    dual = MultiGraph(list(walks), triples)
    rot = {nm: tuple(lbl for lbl, _ in wk) for nm, wk in walks.items()}
    return dual, rot


def relabel_iso(a, b):
    """Vertex bijection between two graphs carrying the same edge labels.

    Edges must match label for label, endpoints corresponding; boundaries,
    when both sides have one, must correspond setwise. Works for Networks
    and MultiGraphs alike (graphs must be connected). Returns the mapping,
    or None when there is none.
    """
    if set(a.edges) != set(b.edges) or len(a.vertices) != len(b.vertices):
        return None
    labels = sorted(a.edges)
    if not labels:
        return None
    e0 = labels[0]
    (u0, v0), (p0, q0) = a.edges[e0], b.edges[e0]
    for seed in ({u0: p0, v0: q0}, {u0: q0, v0: p0}):
        mapping = dict(seed)
        pending = list(labels)
        progress = True
        ok = True
        while pending and progress and ok:
            progress = False
            rest = []
            for e in pending:
                (u, v), (p, q) = a.edges[e], b.edges[e]
                if u in mapping and v in mapping:
                    if {mapping[u], mapping[v]} != {p, q}:
                        ok = False
                        break
                    progress = True
                elif u in mapping or v in mapping:
                    x, y = (u, v) if u in mapping else (v, u)
                    if mapping[x] == p:
                        mapping[y] = q
                    elif mapping[x] == q:
                        mapping[y] = p
                    else:
                        ok = False
                        break
                    progress = True
                else:
                    rest.append(e)
            pending = rest
        if not ok or pending:
            continue
        if len(mapping) != len(a.vertices):
            continue
        if len(set(mapping.values())) != len(mapping):
            continue
        ba = getattr(a, "boundary", None)
        bb = getattr(b, "boundary", None)
        if ba is not None and bb is not None:
            if {mapping[x] for x in ba} != set(bb):
                continue
        return mapping
    return None


# -- insulators --------------------------------------------------------------


def _connects_rim(dual, edge_set):
    """True when the given dual edges put every rim region in one piece."""
    parent = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for e in edge_set:
        u, v = dual.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(b) for b in dual.boundary}
    if len(roots) != 1:
        return False
    # every rim region must actually be touched by the edge set
    touched = set()
    for e in edge_set:
        touched.update(dual.edges[e])
    return all(b in touched for b in dual.boundary)


def insulators(cnet, exhaustive=None):
    """Minimal edge sets whose dual twins join every rim region.

    Computed as the cocircuits of the network matroid through the extra
    element, with that element dropped. Every answer is re-checked against
    the connection reading in the dual network, and for small networks the
    whole family is re-derived from that reading by brute force.
    """
    cn = _as_circular(cnet)
    n = len(cn.edge_order)
    if n + 1 > INSULATOR_LIMIT + 1:
        raise GroundTooLarge(
            f"insulator scan over {n} edges (limit {INSULATOR_LIMIT})"
        )
    dual = _derived(cn, "duality:dual_network")
    cocs = network_cocircuits(cn)
    found = sorted(
        (z - {EH} for z in cocs if EH in z), key=lambda z: (len(z), sorted(z))
    )
    for y in found:
        if not _connects_rim(dual, y):
            raise ConsistencyError(
                f"{sorted(y)} does not join every rim region in the dual"
            )
        for e in y:
            if _connects_rim(dual, y - {e}):
                raise ConsistencyError(
                    f"{sorted(y)} is not minimal: {e!r} is redundant"
                )
    if exhaustive is None:
        exhaustive = n <= 16
    if exhaustive:
        order = cn.edge_order
        ends = [dual.edges[e] for e in order]
        vidx = {v: i for i, v in enumerate(dual.vertices)}
        bidx = [vidx[b] for b in dual.boundary]
        nv = len(dual.vertices)
        conn = bytearray(1 << n)
        for mask in range(1 << n):
            parent = list(range(nv))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            t = mask
            touched = 0
            while t:
                bit = t & -t
                u, v = ends[bit.bit_length() - 1]
                iu, iv = vidx[u], vidx[v]
                touched |= (1 << iu) | (1 << iv)
                ru, rv = find(iu), find(iv)
                if ru != rv:
                    parent[ru] = rv
                t ^= bit
            if all(touched >> i & 1 for i in bidx):
                root = find(bidx[0])
                if all(find(i) == root for i in bidx[1:]):
                    conn[mask] = 1
        brute = []
        for mask in range(1, 1 << n):
            if not conn[mask]:
                continue
            t = mask
            minimal = True
            while t:
                bit = t & -t
                if conn[mask ^ bit]:
                    minimal = False
                    break
                t ^= bit
            if minimal:
                brute.append(
                    frozenset(order[i] for i in range(n) if mask >> i & 1)
                )
        if set(brute) != set(found):
            raise ConsistencyError(
                "cocircuit route and connection route disagree on the "
                "insulators"
            )
    return tuple(found)


# -- circuit covers and the duality bounds -----------------------------------


def _is_cocircuit(matroid, labels):
    zmask = matroid.mask_of(labels)
    if zmask == 0:
        return False
    full = matroid.full_mask
    r = matroid.full_rank()
    hmask = full & ~zmask
    if matroid.rank_mask(hmask) != r - 1:
        return False
    t = zmask
    while t:
        bit = t & -t
        if matroid.rank_mask(hmask | bit) != r:
            return False
        t ^= bit
    return True


def _is_circuit(matroid, labels):
    cmask = matroid.mask_of(labels)
    size = cmask.bit_count()
    if size == 0:
        return False
    if matroid.rank_mask(cmask) != size - 1:
        return False
    t = cmask
    while t:
        bit = t & -t
        if matroid.rank_mask(cmask ^ bit) != size - 1:
            return False
        t ^= bit
    return True


def _derived(cn, key):
    """The network's matroid, its dual network or the dual's matroid (one
    key of _DUALITY_KEYS), built once per drawing and kept in the cache."""
    got = cn._cache.get(key)
    if got is None:
        if key == "duality:matroid":
            got = dirichlet_matroid(cn)
        elif key == "duality:dual_network":
            got = dual_network(cn)
        else:
            got = dirichlet_matroid(_derived(cn, "duality:dual_network"))
        cn._cache[key] = got
    return got


def min_circuit_cover(cnet, target):
    """Fewest distinct circuits of the dual matroid covering a cocircuit.

    The target must be a cocircuit of the network matroid containing the
    extra element; the dual matroid is the one of the dual network, edges
    matched by label and the extra element to itself. Returns the minimum
    size together with the first witness in lexicographic order over the
    canonical circuit list; greedy seeds the search with an upper bound.
    """
    cn = _as_circular(cnet)
    tset = frozenset(target)
    cn.require_edges(tset)
    matroid = _derived(cn, "duality:matroid")
    if not _is_cocircuit(matroid, tset):
        raise NotACocircuit(f"{sorted(tset)} is not a cocircuit")
    if EH not in tset:
        raise NotACocircuit("the target must contain the extra element")
    dual_matroid = _derived(cn, "duality:dual_matroid")
    circs = sorted(
        dual_matroid.circuits(within=tset, limit=INSULATOR_LIMIT),
        key=lambda c: sorted(c),
    )
    reach = frozenset().union(*circs) if circs else frozenset()
    if reach != tset:
        raise NoCover(
            f"{sorted(tset - reach)} lie in no circuit inside the target"
        )

    covered = frozenset()
    greedy = 0
    while covered != tset:
        best = None
        gain = 0
        for c in circs:
            g = len(c - covered)
            if g > gain:
                best, gain = c, g
        covered |= best
        greedy += 1

    suffix = [frozenset()] * (len(circs) + 1)
    for i in range(len(circs) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | circs[i]

    def extend(union, start, slots):
        if union == tset:
            return ()
        if slots == 0:
            return None
        if not (tset - union) <= suffix[start]:
            return None
        for i in range(start, len(circs)):
            if circs[i] <= union:
                continue
            tail = extend(union | circs[i], i + 1, slots - 1)
            if tail is not None:
                return (i,) + tail
        return None

    for k in range(1, greedy + 1):
        witness = extend(frozenset(), 0, k)
        if witness is not None:
            return {
                "size": k,
                "cover": tuple(circs[i] for i in witness),
                "greedy": greedy,
                "pool": len(circs),
            }
    raise NoCover("greedy found a cover the exact search lost")


def duality_theorem_check(cnet):
    """Classify every cocircuit of the network matroid and check the bounds.

    A cocircuit without the extra element must be a circuit of the cycle
    matroid of the identified graph's planar dual. One with the extra
    element gets a minimum circuit cover in the dual matroid, whose size k
    must satisfy m + 2 <= 4k and 2k < m + 2 for m boundary nodes. With
    m = 2 the dual matroid must moreover be the dual of the primal one
    under the identity on labels.
    """
    cn = _as_circular(cnet)
    m = len(cn.boundary)
    matroid = _derived(cn, "duality:matroid")
    graph_dual = Matroid.graphic(og_dual(cn))
    rows = []
    ok = True
    for z in network_cocircuits(cn):
        if EH not in z:
            good = _is_circuit(graph_dual, z)
            rows.append(
                {
                    "cocircuit": tuple(sorted(z)),
                    "type": "graphic",
                    "ok": good,
                }
            )
            ok = ok and good
        else:
            res = min_circuit_cover(cn, z)
            k = res["size"]
            good = (4 * k >= m + 2) and (2 * k < m + 2)
            rows.append(
                {
                    "cocircuit": tuple(sorted(z)),
                    "type": "cover",
                    "k": k,
                    "ok": good,
                }
            )
            ok = ok and good
    report = {
        "network": cn.name,
        "m": m,
        "cocircuits": len(rows),
        "rows": rows,
    }
    if m == 2:
        dual_matroid = _derived(cn, "duality:dual_matroid")
        ident = {e: e for e in list(cn.edge_order) + [EH]}
        iso = matroid.dual().iso_check(dual_matroid, mapping=ident)
        if iso is None:
            iso = matroid.dual().iso_check(dual_matroid)
        report["dual_iso"] = iso is not None
        ok = ok and report["dual_iso"]
    report["all_ok"] = ok
    return report
