"""Answer checkers that share no code path with dirmat's own routes.

Each checker recomputes the quantity it checks from a definition:

* rank: the graphic rank of a subset in the boundary-identified graph, plus
  one when the subset holds the extra element or a crossing.  A crossing is
  present when an interior component of the subset's interior edges reaches
  two distinct boundary nodes through boundary edges of the subset.  No
  crossing is ever listed.
* electrical values: P0 is the determinant of the interior block D of the
  weighted Laplacian, and 2 * P1 is the trace of the response matrix times
  det D, which is the sum over boundary nodes b of the determinant of the
  Laplacian restricted to {b} and the interior (the bordered form of the
  Schur complement, valid where D is singular too).  Determinants come from
  this module's own exact elimination.  Partial derivatives use the
  multiaffine difference rule, d_e f(x) = f(x, x_e = 1) - f(x, x_e = 0).
* covers: the union is the target, every member is a circuit of the dual
  network under the definition-level rank, the size k obeys
  4k >= m + 2 and 2k < m + 2, and on small targets no k - 1 circuits inside
  the target cover it.

Every checker raises CheckFailed with a reason; it returns None when the
answer is right.
"""

from fractions import Fraction
from itertools import combinations

from dirmat.network import EH


class CheckFailed(Exception):
    pass


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# -- rank from the definition --------------------------------------------------


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def has_crossing(net, labels):
    """Does the edge set contain a boundary-to-boundary path with an
    interior middle?"""
    parent = {v: v for v in net.interior}
    spokes = []
    for e in labels:
        if e == EH:
            continue
        u, v = net.edges[e]
        bu, bv = net.is_boundary(u), net.is_boundary(v)
        if bu or bv:
            spokes.append((u, v) if bu else (v, u))
        else:
            parent[_find(parent, u)] = _find(parent, v)
    reached = {}
    for b, w in spokes:
        if reached.setdefault(_find(parent, w), b) != b:
            return True
    return False


def definition_rank(net, labels):
    """Rank of a subset of the edges plus the extra element."""
    labels = set(labels)
    hub = object()
    parent = {v: v for v in net.interior}
    parent[hub] = hub
    merges = 0
    for e in labels:
        if e == EH:
            continue
        u, v = net.edges[e]
        a = _find(parent, hub if net.is_boundary(u) else u)
        c = _find(parent, hub if net.is_boundary(v) else v)
        if a != c:
            parent[a] = c
            merges += 1
    if EH in labels or has_crossing(net, labels):
        return merges + 1
    return merges


def check_rank(net, labels, answer):
    want = definition_rank(net, labels)
    require(answer == want, f"rank of {sorted(labels)} is {want}, got {answer}")


def is_circuit(net, labels):
    size = len(labels)
    if not size or definition_rank(net, labels) != size - 1:
        return False
    return all(definition_rank(net, labels - {e}) == size - 1 for e in labels)


def is_cocircuit(net, labels):
    ground = set(net.edge_order) | {EH}
    full = definition_rank(net, ground)
    rest = ground - set(labels)
    if not labels or definition_rank(net, rest) != full - 1:
        return False
    return all(definition_rank(net, rest | {z}) == full for z in labels)


# -- covers -------------------------------------------------------------------


def circuits_within(net, target):
    """Every circuit of the network matroid inside target, by brute force."""
    items = sorted(target)
    out = []
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            c = frozenset(combo)
            if any(smaller <= c for smaller in out):
                continue
            if definition_rank(net, c) == size - 1:
                out.append(c)
    return out


def check_cover(net, dual, target, answer, brute_limit, expected_k=None):
    """Check a min_circuit_cover answer for target on the primal net.

    dual is the dual network, whose matroid the members must be circuits
    of; minimality is checked by brute force when len(target) <= brute_limit.
    """
    target = frozenset(target)
    require(EH in target and is_cocircuit(net, target),
            f"{sorted(target)} is not a cocircuit through {EH}")
    cover = [frozenset(c) for c in answer["cover"]]
    k = answer["size"]
    m = len(net.boundary)
    require(k == len(cover) == len(set(cover)), f"size {k} but {len(cover)} members")
    require(frozenset().union(*cover) == target, "the members do not cover the target")
    for c in cover:
        require(is_circuit(dual, c), f"{sorted(c)} is not a circuit of the dual")
    require(4 * k >= m + 2 and 2 * k < m + 2, f"k={k} breaks the bounds for m={m}")
    if expected_k is not None:
        require(k == expected_k, f"pinned cover has k={k}, expected {expected_k}")
    if len(target) <= brute_limit and k > 1:
        pool = circuits_within(dual, target)
        for combo in combinations(pool, k - 1):
            require(frozenset().union(*combo) != target,
                    f"{k - 1} circuits already cover {sorted(target)}")


# -- electrical values ----------------------------------------------------------


def determinant(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        p = a[col][col]
        det *= p
        for r in range(col + 1, n):
            f = a[r][col] / p
            if f:
                row, prow = a[r], a[col]
                for j in range(col + 1, n):
                    row[j] -= f * prow[j]
    return det


def _laplacian(net, x):
    """Weighted Laplacian at x, interior nodes first, and the row of each
    boundary node."""
    k = len(net.interior)
    pos = {v: i for i, v in enumerate(net.interior)}
    pos.update((b, k + i) for i, b in enumerate(net.boundary))
    lap = [[Fraction(0)] * len(pos) for _ in pos]
    for e, (u, v) in net.edges.items():
        w = Fraction(x[e])
        iu, iv = pos[u], pos[v]
        lap[iu][iu] += w
        lap[iv][iv] += w
        lap[iu][iv] -= w
        lap[iv][iu] -= w
    return lap, [pos[b] for b in net.boundary]


def p0_value(net, x):
    """P0 at x: the determinant of the interior block."""
    lap, _ = _laplacian(net, x)
    k = len(net.interior)
    return determinant([row[:k] for row in lap[:k]])


def grove_values(net, x):
    """(P0, P1) at the conductance point x, from Laplacian minors."""
    lap, brows = _laplacian(net, x)
    k = len(net.interior)
    p0 = determinant([row[:k] for row in lap[:k]])
    twice_p1 = Fraction(0)
    for b in brows:
        idx = list(range(k)) + [b]
        twice_p1 += determinant([[lap[i][j] for j in idx] for i in idx])
    return p0, twice_p1 / 2


def basis_value(net, x):
    """The basis polynomial P1 + x_eh * P0 at x (x includes the extra element)."""
    p0, p1 = grove_values(net, x)
    return p1 + Fraction(x[EH]) * p0


def rayleigh_difference(f, x, e1, e2):
    """d_e1 f * d_e2 f - f * d_e1 d_e2 f for a multiaffine f given as a
    function of a point, by the difference rule."""
    def at(fixed):
        y = dict(x)
        y.update(fixed)
        return f(y)

    d1 = at({e1: 1}) - at({e1: 0})
    d2 = at({e2: 1}) - at({e2: 0})
    d12 = (at({e1: 1, e2: 1}) - at({e1: 1, e2: 0})
           - at({e1: 0, e2: 1}) + at({e1: 0, e2: 0}))
    return d1 * d2 - f(x) * d12


def check_rayleigh_witness(net, answer):
    """hpp_sample's reported minimum is the Rayleigh difference of the basis
    polynomial at its witness, and no difference was negative."""
    require(answer["all_nonnegative"] and not answer["violations"],
            "a Rayleigh difference is negative")
    (e1, e2), point = answer["min_witness"]
    want = rayleigh_difference(lambda y: basis_value(net, y), point, e1, e2)
    require(answer["min"] == want, f"Rayleigh difference at the witness is {want}, got {answer['min']}")
    require(want >= 0, "negative Rayleigh difference")


def check_line(net, base, direction, p0_coeffs, p1_coeffs):
    """The restrictions of P0 and P1 to base + t * direction, compared with
    the Laplacian minors at k + 2 values of t (k interior nodes; P0 has
    degree k and P1 degree k + 1)."""
    k = len(net.interior)
    require(len(p0_coeffs) <= k + 1, f"P0 restriction has degree above {k}")
    require(len(p1_coeffs) <= k + 2, f"P1 restriction has degree above {k + 1}")
    for t in range(k + 2):
        x = {e: Fraction(base[e]) + t * Fraction(direction[e]) for e in net.edge_order}
        for name, coeffs, want in zip(("P0", "P1"), (p0_coeffs, p1_coeffs), grove_values(net, x)):
            got = sum(Fraction(c) * t**i for i, c in enumerate(coeffs))
            require(got == want, f"{name} restriction is {got} at t={t}, expected {want}")
