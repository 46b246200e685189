"""Small definition-level oracles used to cross-check the package.

Everything here is written from the definitions, independent of the package
internals, and only meant for tiny inputs. The exceptions are earlier routes
kept as references for what replaced them: `circuits_by_scan` (for the
independence-table walk of `Matroid.circuits`), `check_cocircuit` (for the
one-pass cocircuit test), |Z| + 1 calls of a rank function,
`recursion_cocircuits` (for the labelling search), which reuses the
package's lift rank and crossing list and checks with `check_cocircuit`,
`crossing_list_rank` (for the union-find lift rank), the graphic rank of the
identified graph plus a scan of the crossing list, and three routes in
Fraction arithmetic (for the integer kernels): `fraction_response`, the
Schur complement by Gauss-Jordan elimination over the package's Laplacian,
and `frac_gcd` and `frac_sturm_chain`, Euclid's remainder sequence; and
two term loops (for the suffix-sharing DAG of MultiAffinePoly): `term_value`,
which skips every term that meets the point's zero mask, and `term_full`,
the value and partials at an integer point by dividing each term's product
by its nonzero factors; and `fraction_point_identities` (for the identity
checks on one shared node table in integers), which evaluates P1 and each
pair polynomial on its own and compares the response's Fraction entries; and
the DAG's own evaluators (for the function compiled from the shared node
table): `dag_values`, every node's value from one loop over the table, and
`dag_value`, a polynomial's value off its own DAG. `hpp_scan_poly` runs the
package's Rayleigh sweep on any polynomial, for its negative control. The
duality tests also use `sphere_dual`, which reuses the package's face
tracing, and `relabel_iso`, a vertex bijection between two graphs with the
same edge labels.
"""

from fractions import Fraction
from itertools import combinations

from dirmat import electrical

from dirmat.circular import _trace_faces
from dirmat.dirichlet import _lift_engine
from dirmat.electrical import laplacian
from dirmat.errors import BadParameter, GraphTooLarge, GroundTooLarge, NotPlanar
from dirmat.families import random_network
from dirmat.matroid import graphic_rank
from dirmat.network import EH, MultiGraph, crossing_masks, identify_boundary


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


def _trees(net, labels):
    """Vertex sets of the trees of an edge set, or None if it holds a cycle."""
    parent = {v: v for v in net.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in labels:
        ru, rv = (find(v) for v in net.edges[e])
        if ru == rv:
            return None
        parent[ru] = rv
    trees = {}
    for v in {v for e in labels for v in net.edges[e]}:
        trees.setdefault(find(v), set()).add(v)
    return list(trees.values())


def brute_groves(net):
    """Groves straight from the definition, by number of crossings: every
    forest that covers the interior and in which every tree holds a
    boundary node, found by scanning the edge subsets of at most |V| - 1
    elements (no larger one is a forest). Maps each crossing count to a
    sorted tuple of frozensets of edge labels."""
    crosses = brute_crossings(net)
    bd = set(net.boundary)
    interior = set(net.vertices) - bd
    found = {}
    for size in range(len(net.vertices)):
        for sub in combinations(sorted(net.edges), size):
            trees = _trees(net, sub)
            if trees is None or not interior <= set().union(*trees):
                continue
            if all(tree & bd for tree in trees):
                fs = frozenset(sub)
                k = sum(1 for c in crosses if c <= fs)
                found.setdefault(k, []).append(fs)
    return {k: tuple(sorted(fam, key=sorted)) for k, fam in found.items()}


def seeded_random_networks(count):
    """The first `count` valid `random_network(7, 3, 0.5, seed)`, seeds 0, 1, ..."""
    nets = []
    seed = 0
    while len(nets) < count:
        try:
            nets.append(random_network(7, 3, 0.5, seed))
        except BadParameter:
            pass
        seed += 1
    return nets


def integer_points(rng, n, bound):
    """Three mixed-sign integer points of length n, entries within bound,
    with 0, 1 and 2 zero coordinates."""
    for zeros in (0, 1, 2):
        vec = [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(n)]
        for i in rng.sample(range(n), min(zeros, n)):
            vec[i] = 0
        yield vec


def brute_independent(net, subset):
    """Independence straight from the grove definition."""
    subset = set(subset)
    edge_part = subset - {EH}
    if _trees(net, edge_part) is None:
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


def crossing_list_rank(net):
    """The lift rank on bitmasks (bit n is `eh`) from the crossing list: the
    graphic rank of the identified graph, plus one when the set holds `eh`
    or contains a crossing."""
    og, _hub = identify_boundary(net)
    order = net.edge_order
    vidx = {v: i for i, v in enumerate(og.vertices)}
    graphic = graphic_rank(
        len(og.vertices),
        [(vidx[og.edges[e][0]], vidx[og.edges[e][1]]) for e in order],
    )
    eh_bit = 1 << len(order)
    cross_masks = crossing_masks(net)

    def rank(mask):
        em = mask & (eh_bit - 1)
        if mask & eh_bit or any(cm & em == cm for cm in cross_masks):
            return graphic(em) + 1
        return graphic(em)

    return rank


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


def circuits_by_scan(matroid, within=None, limit=16):
    """Every circuit inside `within` (default: the ground set), by asking
    `is_circuit_mask` of each of the 2^|scope| subsets; sorted by size,
    then labels, as `Matroid.circuits` returns them."""
    scope = matroid.full_mask if within is None else matroid.mask_of(within)
    if scope.bit_count() > limit:
        raise GroundTooLarge(
            f"circuit scan over {scope.bit_count()} elements (limit {limit})"
        )
    out = []
    sub = scope
    while True:
        if matroid.is_circuit_mask(sub):
            out.append(matroid.labels_of(sub))
        if sub == 0:
            break
        sub = (sub - 1) & scope
    return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))


def check_cocircuit(rank, full_mask, r, zmask):
    """Whether zmask is a cocircuit of the matroid of rank function `rank`
    and full rank r: its complement has rank r - 1, and adding back any one
    of its elements restores rank r (|Z| + 1 rank calls)."""
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
        if zmask and check_cocircuit(rank, full, r, zmask):
            out.append(zmask)

    # maximal balanced spanning-connected sets
    cross_masks = crossing_masks(net)
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
        if check_cocircuit(rank, full, r, zmask):
            out.append(zmask)

    labels = list(order) + [EH]

    def to_labels(mask):
        return frozenset(labels[i] for i in range(n + 1) if mask >> i & 1)

    uniq = sorted({to_labels(z) for z in out}, key=lambda z: (len(z), sorted(z)))
    return tuple(uniq)


def _solve_and_det(D, rhs):
    """Solve D X = rhs exactly; returns (det D, X) or (0, None) if singular.

    rhs is a list of rows (k x m); X comes back the same shape.
    """
    k = len(D)
    m = len(rhs[0]) if k else 0
    aug = [[Fraction(D[i][j]) for j in range(k)] + [Fraction(c) for c in rhs[i]] for i in range(k)]
    det = Fraction(1)
    for col in range(k):
        piv = None
        for r in range(col, k):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0), None
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        row = aug[col]
        for j in range(col, k + m):
            row[j] *= inv
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                other = aug[r]
                for j in range(col, k + m):
                    other[j] -= f * row[j]
    X = [aug[i][k:] for i in range(k)]
    return det, X


def fraction_response(net, x):
    """(response entries, det D) at x by the Schur complement in Fractions,
    or None when the interior block is singular."""
    lap = laplacian(net, {e: Fraction(x[e]) for e in net.edge_order})
    k = len(lap.interior_order)
    m = len(lap.boundary_order)
    bt = [[lap.B[j][i] for j in range(m)] for i in range(k)]
    det, X = _solve_and_det(lap.D, bt) if k else (Fraction(1), [])
    if det == 0:
        return None
    entries = [
        [lap.A[i][j] - sum((lap.B[i][t] * X[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(m)
    ]
    return entries, det


def _frac_rem(a, b):
    """a mod b for Fraction coefficient lists (constant first), b nonzero with
    a nonzero leading coefficient; trailing zeros are stripped."""
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        off = len(r) - len(b)
        for i, bc in enumerate(b):
            r[off + i] -= c * bc
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def frac_gcd(a, b):
    """Monic gcd of two Fraction coefficient lists (constant first)."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b and any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        # a mod b
        r = list(a)
        while len(r) >= len(b) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(b):
                break
            c = r[-1] / b[-1]
            off = len(r) - len(b)
            for i, bc in enumerate(b):
                r[off + i] -= c * bc
            r.pop()
        a, b = b, r
    while a and a[-1] == 0:
        a.pop()
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def frac_sturm_chain(coeffs):
    """Sturm chain of a squarefree polynomial in Fractions: p, p', and then
    each next element minus the remainder of the two before it."""
    chain = [[Fraction(c) for c in coeffs]]
    d = [i * c for i, c in enumerate(chain[0])][1:]
    if any(d):
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _frac_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def term_value(poly, v):
    """A MultiAffinePoly's value at v by a loop over its terms.

    Terms that hold a variable which is zero at v are skipped whole: each
    term's bitmask of positions is tested against the mask of v's zeros.
    """
    masks = [sum(1 << i for i in term) for _, term in poly.terms]
    zero = 0
    for i, x in enumerate(v):
        if not x:
            zero |= 1 << i
    total = 0
    for (c, term), mask in zip(poly.terms, masks):
        if mask & zero:
            continue
        p = c
        for i in term:
            p *= v[i]
        total += p
    return total


def dag_values(nodes, v):
    """Every node's value of a compile_dag table at the point v (a vector in
    variable order): one bottom-up loop, skipping edges whose variable is
    zero."""
    val = []
    for end, edges in nodes:
        s = end
        for i, child in edges:
            x = v[i]
            if x:
                s += x * val[child]
        val.append(s)
    return val


def dag_value(poly, v):
    """A MultiAffinePoly's value at v, off its own DAG (the root is last)."""
    return dag_values(poly.dag(), v)[-1]


def hpp_scan_poly(poly, trials=100, seed=0):
    """The package's Rayleigh sweep for an arbitrary multiaffine polynomial.

    Used to confirm the scanner can actually catch a failure: a polynomial
    without the property must produce a violation witness.
    """
    if trials < 1:
        raise BadParameter("need at least one trial")
    if any(Fraction(c).denominator != 1 for c, _ in poly.terms):
        raise BadParameter("integer coefficients only in the scanner")
    if len({len(term) for _, term in poly.terms}) > 1:
        raise BadParameter("the scanner assumes a homogeneous polynomial")
    return electrical._hpp_core(poly, trials, seed, "hpp-poly")


def term_full(poly, v):
    """(value, first partials list, second partials dict keyed (i, j), i < j).

    One pass over the terms at an integer point: each term contributes
    its product to the value, product-over-the-rest to first partials,
    and so on; zeros are handled by counting zero factors instead of
    multiplying them in.
    """
    value = 0
    first = [0] * len(poly.variables)
    second = {}
    for c, term in poly.terms:
        zs = [i for i in term if not v[i]]
        nz = len(zs)
        if nz == 0:
            p = c
            for i in term:
                p *= v[i]
            value += p
            for i in term:
                first[i] += p // v[i]
            for a in range(len(term)):
                pa = p // v[term[a]]
                for b in range(a + 1, len(term)):
                    key = (term[a], term[b])
                    second[key] = second.get(key, 0) + pa // v[term[b]]
        elif nz == 1:
            z = zs[0]
            p = c
            for i in term:
                if i != z:
                    p *= v[i]
            first[z] += p
            for i in term:
                if i != z:
                    key = (z, i) if z < i else (i, z)
                    second[key] = second.get(key, 0) + p // v[i]
        elif nz == 2:
            p = c
            for i in term:
                if v[i]:
                    p *= v[i]
            second[(zs[0], zs[1])] = second.get((zs[0], zs[1]), 0) + p
    return value, first, second


def fraction_point_identities(net, gp, ints):
    """The response-vs-grove checks at one integer point, in Fractions; None
    if P0 = 0 there.

    Returns (det D = P0, trace(Lambda) * P0 = 2 P1, {pair: -Lambda_ij * P0 =
    P_ij} for each boundary pair a crossing joins, and the pairs no crossing
    joins whose Lambda_ij is not 0). P0, P1 and every pair polynomial are
    evaluated separately; the response is read through electrical.response,
    so that a test's patch of it reaches this route too.
    """
    vec = [ints[e] for e in net.edge_order]
    p0 = dag_value(gp["P0"], vec)
    if p0 == 0:
        return None
    lam = electrical.response(net, ints)
    pairs = {pair: -lam[pair] * p0 == dag_value(poly, vec) for pair, poly in gp["pairs"].items()}
    stray = [
        pair
        for pair in combinations(lam.boundary_order, 2)
        if pair not in gp["pairs"] and lam[pair] != 0
    ]
    trace_ok = lam.trace() * p0 == 2 * dag_value(gp["P1"], vec)
    return lam.det_interior == p0, trace_ok, pairs, stray


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
    when both sides are Networks, must correspond setwise. Works for any
    connected MultiGraph. Returns the mapping, or None when there is none.
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
