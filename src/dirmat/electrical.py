"""Weighted Laplacians, response matrices, and stability evidence.

The response matrix is an exact Schur complement, computed in integers by
fraction-free elimination once the point is cleared of denominators, and
kept in integers: S = scale * Lambda, with Fractions built from it only for
reports. response is the one Schur entry point. The sweeps (grove
identities, Rayleigh differences, proper position, monotonicity, the lower
bound) evaluate the grove polynomials that grovepoly.grove_polys caches, one
MultiAffinePoly each, at seeded rational points. The identity checks read
P0 and every pair polynomial off one call of the straight-line function
compiled from their shared node table, kept on the network, and compare
both sides of each identity in integers; the Rayleigh difference,
the mixed form E_ij and the Wronskian are read off one value-and-partials
pass over each polynomial's suffix-sharing DAG per point (the basis
polynomial P_B = P1 + x_eh * P0's off those of P0 and P1), and line
restrictions read the same polynomials' terms.
Points are cleared to integers first: the grove polynomials are homogeneous,
so scaling by the positive lcm of the denominators never changes a sign or
an identity, and integer arithmetic is much faster than Fractions. Within
one point every difference shares the same positive scale, so they are
compared as integers; only each point's smallest value and the violations
are scaled back to Fractions for the report.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import (
    BadParameter,
    ConsistencyError,
    MissingWeight,
    SingularInterior,
    ZeroRestriction,
)
from .grovepoly import grove_polys
from .network import EH, derived
from .polynomials import IntPoly, table_program
from .sturm import DEFAULT_WIDTH, interlace_check


class WeightedLaplacian:
    """Block decomposition of the weighted Laplacian at a conductance point.

    A is boundary x boundary, B is boundary x interior, D is interior x
    interior. Entries have the exact type of the weights.
    """

    __slots__ = ("boundary_order", "interior_order", "A", "B", "D")

    def __init__(self, boundary_order, interior_order, A, B, D):
        self.boundary_order = boundary_order
        self.interior_order = interior_order
        self.A = A
        self.B = B
        self.D = D

class ResponseMatrix:
    """The response matrix Lambda at a point, kept in integers.

    S is the integer matrix scale * Lambda, over boundary_order, with scale
    a nonzero integer, and det D = det / det_scale. The exact checks compare
    these integers; entries, det_interior, trace() and indexing give
    Fractions, for reports.
    """

    __slots__ = ("boundary_order", "S", "scale", "det", "det_scale")

    def __init__(self, boundary_order, S, scale, det, det_scale):
        self.boundary_order = boundary_order
        self.S = S
        self.scale = scale
        self.det = det
        self.det_scale = det_scale

    @property
    def entries(self):
        return [[Fraction(v, self.scale) for v in row] for row in self.S]

    @property
    def det_interior(self):
        return Fraction(self.det, self.det_scale)

    def trace_S(self):
        """The trace of S, scale * tr Lambda, an integer."""
        return sum(self.S[i][i] for i in range(len(self.S)))

    def trace(self):
        return Fraction(self.trace_S(), self.scale)

    def __getitem__(self, pair):
        i = self.boundary_order.index(pair[0])
        j = self.boundary_order.index(pair[1])
        return Fraction(self.S[i][j], self.scale)


def laplacian(net, x):
    """Weighted Laplacian blocks at the conductance point x (label -> value).

    Entries keep the exact type of the weights: integers stay integers.
    """
    for e in net.edge_order:
        if e not in x:
            raise MissingWeight(f"no weight for edge {e!r}")
    bd, interior, ends = derived(net, "laplacian_order", _laplacian_order)
    n = len(bd) + len(interior)
    full = [[0] * n for _ in range(n)]
    for e, iu, iv in ends:
        w = x[e]
        full[iu][iu] += w
        full[iv][iv] += w
        full[iu][iv] -= w
        full[iv][iu] -= w
    m = len(bd)
    A = [row[:m] for row in full[:m]]
    B = [row[m:] for row in full[:m]]
    D = [row[m:] for row in full[m:]]
    return WeightedLaplacian(bd, interior, A, B, D)


def _laplacian_order(net):
    """(sorted boundary, sorted interior, [(edge, row of u, row of v)]) for
    the Laplacian's rows, boundary first."""
    bd = tuple(sorted(net.boundary))
    interior = tuple(sorted(v for v in net.vertices if v not in net.boundary))
    pos = {v: i for i, v in enumerate(bd + interior)}
    return bd, interior, [(e, pos[u], pos[v]) for e, (u, v) in net.edges.items()]


def _bareiss(rows, k):
    """Fraction-free Gauss-Jordan elimination of the first k columns, in place.

    rows is an integer k x (k + m) matrix [D | R]. Every division is exact
    (Bareiss, Math. Comp. 22, 1968), and each step leaves every pivot so far
    equal to the current one, so the elimination ends with D turned into
    p * I and R into p * D^-1 R, where p = +-det D. Returns (det D, p);
    (0, 0) if D is singular.
    """
    width = len(rows[0]) if rows else 0
    prev = 1
    sign = 1
    for col in range(k):
        piv_row = next((r for r in range(col, k) if rows[r][col]), None)
        if piv_row is None:
            return 0, 0
        if piv_row != col:
            rows[col], rows[piv_row] = rows[piv_row], rows[col]
            sign = -sign
        top = rows[col]
        piv = top[col]
        for r in range(k):
            if r == col:
                continue
            row = rows[r]
            f = row[col]
            row[col] = 0
            if f:
                for j in range(col + 1, width):
                    row[j] = (piv * row[j] - f * top[j]) // prev
            else:  # the common case in a sparse D: a rescale only
                for j in range(col + 1, width):
                    row[j] = piv * row[j] // prev
        prev = piv
    return sign * prev, prev


def response(net, x):
    """Response matrix by exact Schur complement; SingularInterior if det D = 0.

    The point is cleared to integers first: with ints = c * x, the Laplacian
    at ints is c times the one at x, so the Schur complement is computed in
    integers, S = p * Lambda(ints) = p * c * Lambda(x), and kept so; det D
    at x is the integer det D(ints) over c^k.
    """
    ints, c = scale_to_integers(x)
    lap = laplacian(net, ints)
    k = len(lap.interior_order)
    m = len(lap.boundary_order)
    rows = [lap.D[i] + [lap.B[j][i] for j in range(m)] for i in range(k)]
    det, p = _bareiss(rows, k)
    if det == 0:
        raise SingularInterior("interior block is singular at this point")
    # S = p * A - B * (p * D^-1 B^T) = p * Lambda(ints), an integer matrix,
    # summed over the nonzeros of B's row
    S = []
    for a_row, b_row in zip(lap.A, lap.B):
        nz = [(b, rows[t]) for t, b in enumerate(b_row) if b]
        S.append([p * a - sum(b * row[k + j] for b, row in nz) for j, a in enumerate(a_row)])
    for i in range(m):
        if sum(S[i]) != 0:
            raise ConsistencyError("response row sum is nonzero")
        for j in range(i):
            if S[i][j] != S[j][i]:
                raise ConsistencyError("response matrix is not symmetric")
    return ResponseMatrix(lap.boundary_order, S, p * c, det, c**k)


def grove_count(net):
    """The number of groves: P_B(1, ..., 1) = det D * (1 + tr Lambda / 2).

    One response call at the all-ones point, since P0 = det D (Kirchhoff)
    and 2 P1 = tr Lambda * P0 (Kenyon & Wilson, Trans. AMS 363, 2011). D is
    nonsingular there because a network is connected. The count only
    guards the listing in network.groves; no check compares it. A count
    that is not an integer raises ConsistencyError.
    """
    lam = response(net, {e: 1 for e in net.edge_order})
    count, rest = divmod(lam.det * (2 * lam.scale + lam.trace_S()), 2 * lam.scale * lam.det_scale)
    if rest:
        raise ConsistencyError("the grove count from the response is not an integer")
    return count


# -- sampled checks of the grove polynomials --------------------------------


def sample_point(rng, labels, zero_rate=Fraction(1, 8), positive=False):
    """A seeded rational point: numerators in [-100, 100], denominators in [1, 20].

    Mixed-sign by default with a deliberate chance of exact zeros per
    coordinate; positive=True draws from [1, 100] with no zeros.
    """
    out = {}
    for lab in sorted(labels):
        if not positive and rng.random() < zero_rate:
            out[lab] = Fraction(0)
        else:
            lo = 1 if positive else -100
            out[lab] = Fraction(rng.randint(lo, 100), rng.randint(1, 20))
    return out


def scale_to_integers(point):
    """(integer point dict, positive multiplier c) with ints = c * point.

    Coordinates are ints or Fractions, read through their numerator and
    denominator; a point of ints alone is returned as it is.
    """
    if all(type(v) is int for v in point.values()):
        return point, 1
    c = 1
    for val in point.values():
        c = lcm(c, val.denominator)
    return {k: v.numerator * (c // v.denominator) for k, v in point.items()}, c


def _point_identities(net, gp, ints):
    """The response-vs-grove checks at one integer point; None if P0 = 0 there.

    Returns (det D = P0, trace(Lambda) * P0 = 2 P1, {pair: -Lambda_ij * P0 =
    P_ij} for each boundary pair a crossing joins, and the pairs no crossing
    joins whose Lambda_ij is not 0). The response's symmetry and zero row
    sums are checked inside response().

    The grove side is one call of the function compiled from the node table
    of P0 and the pair polynomials, with P1 the sum of the pairs; the Schur
    side is response's integer S = scale * Lambda. So every identity is
    compared in integers, with both of its sides multiplied by the scale.
    """
    values = derived(net, "grove_program", _grove_program)(*[ints[e] for e in net.edge_order])
    p0 = values[0]
    if p0 == 0:
        return None
    lam = response(net, ints)
    S, scale = lam.S, lam.scale
    pos = {b: i for i, b in enumerate(lam.boundary_order)}
    pairs = {}
    p1 = 0
    for pair, value in zip(gp["pairs"], values[1:]):
        p1 += value
        pairs[pair] = -S[pos[pair[0]]][pos[pair[1]]] * p0 == value * scale
    stray = [
        (a, b)
        for (i, a), (j, b) in combinations(enumerate(lam.boundary_order), 2)
        if S[i][j] and (a, b) not in gp["pairs"]
    ]
    trace_ok = lam.trace_S() * p0 == 2 * p1 * scale
    return lam.det == p0 * lam.det_scale, trace_ok, pairs, stray


def _grove_program(net):
    """grove_polys' node table of P0 and the pairs as one function of the
    edge weights (polynomials.table_program), compiled on first use."""
    nodes, roots = grove_polys(net)["table"]
    return table_program(nodes, roots, len(net.edge_order))


def identity_sweep(net, trials=200, seed=0):
    """Exact response-vs-grove identity checks at seeded nonsingular points.

    At each point: det D = P0, response symmetric with zero row sums (checked
    inside response()), -Lambda_ij * P0 = P_ij for every boundary pair a
    crossing joins, Lambda_ij = 0 for every other pair, and trace(Lambda) *
    P0 = 2 P1. Singular draws are skipped and resampled.
    """
    if trials < 1:
        raise BadParameter("need at least one trial")
    rng = random.Random(f"identities:{seed}")
    gp = grove_polys(net)
    failures = []
    skipped = 0
    done = 0
    while done < trials:
        ints, _ = scale_to_integers(sample_point(rng, net.edge_order))
        got = _point_identities(net, gp, ints)
        if got is None:
            skipped += 1
            continue
        det_ok, trace_ok, pairs, stray = got
        if not det_ok:
            failures.append(("detD", dict(ints)))
        if not trace_ok:
            failures.append(("trace", dict(ints)))
        failures += [("offdiag", pair, dict(ints)) for pair, good in pairs.items() if not good]
        failures += [("offdiag-zero", pair, dict(ints)) for pair in stray]
        done += 1
    return {
        "network": net.name,
        "points": done,
        "skipped_singular": skipped,
        "pairs": len(gp["pairs"]),
        "failures": failures,
        "all_ok": not failures,
    }


def grove_identities(net, x):
    """The identity report at one explicit point (SingularInterior if P0 = 0).

    The same checks as identity_sweep: all_ok also needs Lambda_ij = 0 for
    every boundary pair no crossing joins.
    """
    ints, _ = scale_to_integers(x)
    got = _point_identities(net, grove_polys(net), ints)
    if got is None:
        raise SingularInterior("P0 vanishes at this point")
    det_ok, trace_ok, pairs, stray = got
    return {
        "point": {k: ints[k] for k in sorted(ints)},
        "det_ok": det_ok,
        "trace_ok": trace_ok,
        "pairs": pairs,
        "all_ok": det_ok and trace_ok and all(pairs.values()) and not stray,
    }


def _delta(f, i, j):
    """Rayleigh difference d_i f * d_j f - f * d_ij f from a full() output, i < j."""
    value, first, second = f
    return first[i] * first[j] - value * second.get((i, j), 0)


def _mixed(f, g, i, j):
    """E_ij(f, g) = d_i f d_j g + d_j f d_i g - f d_ij g - g d_ij f, i < j."""
    (vf, ff, sf), (vg, fg, sg) = f, g
    return ff[i] * fg[j] + ff[j] * fg[i] - vf * sg.get((i, j), 0) - vg * sf.get((i, j), 0)


def _wronskian(f, g, i):
    """W_i(f, g) = f * d_i g - d_i f * g from two full() outputs."""
    return f[0] * g[1][i] - f[1][i] * g[0]


def _basis_differences(g0, g1, y):
    """Rayleigh differences of P_B = P1 + y * P0, y = x_eh, from full()
    outputs of P0 and P1 at the edges: one per pair i < j of edge_order +
    (eh,), in the order of combinations. P_B's full() output is read off
    theirs: the value is P1 + y * P0, d_e is d_e P1 + y * d_e P0, d_eh is
    P0, d_ef is d_ef P1 + y * d_ef P0 and d_(e,eh) is d_e P0. So a
    difference is delta_ef(P1) + y * E_ef(P0, P1) + y^2 * delta_ef(P0) for
    two edges, and W_e(P0, P1) for an edge and eh.
    """
    (v0, f0, s0), (v1, f1, s1) = g0, g1
    n = len(f0)
    second = {k: s1.get(k, 0) + y * s0.get(k, 0) for k in s0.keys() | s1.keys()}
    second.update(((i, n), d) for i, d in enumerate(f0))
    f = (v1 + y * v0, [a + y * b for a, b in zip(f1, f0)] + [v0], second)
    return [_delta(f, i, j) for i, j in combinations(range(n + 1), 2)]


def _hpp_core(var_order, degree, differences, trials, seed, salt):
    """Rayleigh differences of a polynomial, homogeneous of the given degree
    over var_order, at seeded rational points: differences(vec) gives them at
    an integer point, in var_order, one per pair i < j as combinations."""
    rng = random.Random(f"{salt}:{seed}")
    pairs = list(combinations(range(len(var_order)), 2))
    rescale = 2 * degree - 2
    min_val = None
    min_at = None
    violations = []
    checks = 0
    for _ in range(trials):
        pt = sample_point(rng, var_order)
        ints, c = scale_to_integers(pt)
        # one point's differences share the scale c^rescale: compare them as
        # integers, and scale back its first smallest one and the violations
        ds = differences([ints[v] for v in var_order])
        checks += len(ds)
        violations += [
            ((var_order[i], var_order[j]), dict(pt), Fraction(d, c**rescale))
            for (i, j), d in zip(pairs, ds)
            if d < 0
        ]
        if ds:
            low = min(ds)
            orig = Fraction(low, c**rescale)
            if min_val is None or orig < min_val:
                i, j = pairs[ds.index(low)]
                min_val = orig
                min_at = ((var_order[i], var_order[j]), dict(pt))
    return {
        "trials": trials,
        "checks": checks,
        "min": min_val,
        "min_witness": min_at,
        "violations": violations,
        "all_nonnegative": not violations,
    }


def hpp_sample(net, trials=100, seed=0):
    """Rayleigh differences of the basis polynomial at mixed-sign points.

    Samples seeded rational points over the edges plus the lift element and
    checks delta >= 0 for every unordered variable pair. P_B = P1 + x_eh *
    P0, homogeneous of P1's degree, is read off one full() pass over each
    of P0 and P1 (_basis_differences). A negative value is reported (with
    its witness), not raised.
    """
    if trials < 1:
        raise BadParameter("need at least one trial")
    gp = grove_polys(net)
    p0, p1 = gp["P0"], gp["P1"]

    def differences(vec):
        return _basis_differences(p0.full(vec[:-1]), p1.full(vec[:-1]), vec[-1])

    salt = f"hpp:{net.name}"
    report = _hpp_core(net.edge_order + (EH,), p1.degree, differences, trials, seed, salt)
    report["network"] = net.name
    return report


def proper_position_checks(net, trials=100, seed=0):
    """Wronskian sign and Cauchy-Schwarz sweep for the grove pair (P0, P1).

    W_e(P0, P1) = P0 * d_e P1 - d_e P0 * P1 is checked nonnegative for every
    edge (the sign orientation is pinned by the two-edge path network, where
    it comes out as x2^2 and x1^2), and E_ef(P0,P1)^2 <= E_ef(P0,P0) *
    E_ef(P1,P1) for every pair.
    """
    if trials < 1:
        raise BadParameter("need at least one trial")
    gp = grove_polys(net)
    var_order = net.edge_order
    rng = random.Random(f"proper:{net.name}:{seed}")
    pairs = list(combinations(range(len(var_order)), 2))
    r = gp["P1"].degree
    min_w = None
    min_margin = None
    violations = []
    checks = 0
    for _ in range(trials):
        pt = sample_point(rng, var_order)
        ints, c = scale_to_integers(pt)
        vec = [ints[v] for v in var_order]
        g0 = gp["P0"].full(vec)
        g1 = gp["P1"].full(vec)
        # compared as integers within the point, as in _hpp_core
        w_scale = c ** (2 * r - 2)
        ws = [_wronskian(g0, g1, i) for i in range(len(var_order))]
        violations += [
            ("wronskian", e, dict(pt), Fraction(w, w_scale))
            for e, w in zip(var_order, ws)
            if w < 0
        ]
        low = Fraction(min(ws), w_scale)
        min_w = low if min_w is None else min(min_w, low)
        m_scale = c ** (4 * r - 6)
        margins = []
        for i, j in pairs:
            e01 = _mixed(g0, g1, i, j)
            margins.append(4 * _delta(g0, i, j) * _delta(g1, i, j) - e01 * e01)
        violations += [
            ("cauchy-schwarz", (var_order[i], var_order[j]), dict(pt), Fraction(m, m_scale))
            for (i, j), m in zip(pairs, margins)
            if m < 0
        ]
        low = Fraction(min(margins), m_scale)
        min_margin = low if min_margin is None else min(min_margin, low)
        checks += len(ws) + len(margins)
    return {
        "network": net.name,
        "trials": trials,
        "checks": checks,
        "min_wronskian": min_w,
        "min_cs_margin": min_margin,
        "violations": violations,
        "all_ok": not violations,
    }


def line_restriction(net, base, direction):
    """Univariate restrictions of P0 and P1 to a positive-direction line."""
    for e in net.edge_order:
        if e not in base or e not in direction:
            raise BadParameter(f"line misses edge {e!r}")
        if Fraction(direction[e]) <= 0:
            raise BadParameter("direction must be strictly positive")
    gp = grove_polys(net)
    bvec = [base[e] for e in net.edge_order]
    dvec = [direction[e] for e in net.edge_order]
    low = IntPoly(gp["P0"].restrict_line(bvec, dvec))
    high = IntPoly(gp["P1"].restrict_line(bvec, dvec))
    if low.is_zero() or high.is_zero():
        raise ZeroRestriction("a grove polynomial restricted to zero")
    return {"base": dict(base), "direction": dict(direction), "P0": low, "P1": high}


def interlacing(net, base, direction, width=DEFAULT_WIDTH):
    """Interlacing report for the grove polynomials along a positive line."""
    line = line_restriction(net, base, direction)
    rep = interlace_check(line["P0"], line["P1"], width)
    rep["network"] = net.name
    rep["P0"] = line["P0"]
    rep["P1"] = line["P1"]
    return rep


def interlacing_sweep(net, lines=20, seed=0, width=DEFAULT_WIDTH):
    """Seeded sweep of positive-direction lines; every one must interlace."""
    if lines < 1:
        raise BadParameter("need at least one line")
    rng = random.Random(f"interlace:{net.name}:{seed}")
    failures = []
    for _ in range(lines):
        base = sample_point(rng, net.edge_order)
        direction = sample_point(rng, net.edge_order, positive=True)
        rep = interlacing(net, base, direction, width)
        if not rep["interlaced"]:
            failures.append((base, direction, rep))
    return {
        "network": net.name,
        "lines": lines,
        "failures": failures,
        "all_ok": not failures,
    }


def monotonicity_and_bound(net, trials=100, seed=0):
    """Trace monotonicity and the Rayleigh lower bound, sampled.

    Checks three things at seeded points over the edges and eh. First, the
    sign behind monotonicity: the Wronskian W_f(P0, P1), which is
    delta_(eh,f)(P_B) since P_B = P1 + x_eh * P0, is nonnegative for every
    edge f (counted as identity_checks). Second, at
    strictly positive points, a finite increase of one conductance never
    decreases the response trace (both traces via the Schur route). Third,
    the bound chain 4 * delta_ef(P0) * delta_ef(P1) >= E_ef(P0,P1)^2 with
    delta_ef(P1) > 0 wherever delta_ef(P1) != 0; points where it vanishes
    are skipped for the quotient form, counted, and checked for the
    degenerate consequence E_ef(P0,P1) = 0.
    """
    if trials < 1:
        raise BadParameter("need at least one trial")
    gp = grove_polys(net)
    edges = net.edge_order
    rng = random.Random(f"monotone:{net.name}:{seed}")
    failures = []
    skipped_pairs = 0
    bound_checks = 0
    identity_checks = 0
    for _ in range(trials):
        # eh is drawn too, so that the seeded stream stays as it was
        pt = sample_point(rng, edges + (EH,))
        ints, _ = scale_to_integers(pt)
        vec = [ints[v] for v in edges]
        g0 = gp["P0"].full(vec)
        g1 = gp["P1"].full(vec)
        for i, e in enumerate(edges):
            identity_checks += 1
            if _wronskian(g0, g1, i) < 0:
                failures.append(("negative", e, dict(pt)))
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                d0 = _delta(g0, i, j)
                d1 = _delta(g1, i, j)
                e01 = _mixed(g0, g1, i, j)
                if d1 == 0:
                    skipped_pairs += 1
                    if e01 != 0:
                        failures.append(("degenerate", (edges[i], edges[j]), dict(pt)))
                    continue
                bound_checks += 1
                if d1 < 0 or 4 * d0 * d1 < e01 * e01 or d0 < 0:
                    failures.append(("bound", (edges[i], edges[j]), dict(pt)))
    ray_checks = 0
    for _ in range(max(1, trials // 4)):
        pt = sample_point(rng, edges, positive=True)
        before = response(net, pt).trace()
        f = rng.choice(edges)
        bumped = dict(pt)
        bumped[f] = bumped[f] + rng.randint(1, 5)
        after = response(net, bumped).trace()
        ray_checks += 1
        if after < before:
            failures.append(("rayleigh", f, dict(pt)))
    return {
        "network": net.name,
        "trials": trials,
        "identity_checks": identity_checks,
        "bound_checks": bound_checks,
        "skipped_degenerate_pairs": skipped_pairs,
        "rayleigh_checks": ray_checks,
        "failures": failures,
        "all_ok": not failures,
    }
