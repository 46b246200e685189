"""Grove generating polynomials and chromatic-style invariants.

The weighted grove counts of a network live in MultiAffinePoly, one variable
per edge; the basis polynomial P_B = P1 + x_eh * P0 has none of its own, and
its callers read it off P0 and P1. grove_polys builds them once per network
and keeps them on it (network.derived); every evaluation,
partial and line restriction of a grove polynomial reads them there, and
each polynomial compiles its terms into a suffix-sharing DAG the first time
it is evaluated. Next to them it keeps one node table shared by P0 and the
pair polynomials, which the identity checks compile into one function that
gives all their values at a point (they read P1 as the sum of the pairs).
They are built from the listed groves alone, so they share no code with the
Schur-complement route they are checked against (the grove count that guards
the listing only decides whether to list). The chromatic side works
with IntPoly: chromatic polynomial of a multigraph by counting partitions
into independent sets, the boundary-clique variant, and the precoloring
polynomial obtained from it by exact division by a falling factorial.
"""

from .errors import BadParameter, GraphTooLarge
from .network import add_boundary_clique, derived, grove_crossing, groves
from .polynomials import IntPoly, MultiAffinePoly, compile_dag


def grove_polys(net):
    """Grove generating polynomials of a network, over edge_order.

    Returns a dict with keys "P0" (groves with no crossing), "P1" (groves
    with exactly one crossing), and "pairs", a dict mapping each unordered
    boundary pair (i, j), as a sorted tuple, to the generating polynomial of
    the one-crossing groves whose crossing joins i and j. Pairs never hit by
    a crossing are absent. Each one-crossing grove falls in exactly one
    pair's bucket, so the pairs' terms, taken together, are P1's. "table" is
    compile_dag's (nodes, roots) for P0 and the pair polynomials: roots[0]
    is P0's and roots[1:] the pairs', in the order of "pairs". Results are
    kept on the network.
    """
    return derived(net, "grove_polys", _build_grove_polys)


def _build_grove_polys(net):
    edges = net.edge_order
    p0 = MultiAffinePoly(edges, groves(net, "no-crossing"))
    ones = groves(net, "one-crossing")
    buckets = {}
    for fs in ones:
        buckets.setdefault(grove_crossing(net, fs), []).append(fs)
    pairs = {pair: MultiAffinePoly(edges, fam) for pair, fam in sorted(buckets.items())}
    return {
        "P0": p0,
        "P1": MultiAffinePoly(edges, ones),
        "pairs": pairs,
        "table": compile_dag([p0.terms] + [poly.terms for poly in pairs.values()]),
    }


def chromatic_poly(mg, limit=14):
    """Chromatic polynomial of a multigraph, exact.

    A loop forces the zero polynomial. Parallel edges are collapsed first.
    The computation counts, for each j, the partitions of the vertex set
    into j nonempty independent sets, and sums those counts against falling
    factorials. Graphs with more than `limit` vertices are refused
    (GraphTooLarge) because the partition sweep is exponential.
    """
    if mg.has_loop():
        return IntPoly()
    simple, _ = mg.simplify()
    verts = simple.vertices
    n = len(verts)
    if n > limit:
        raise GraphTooLarge(f"{n} vertices exceeds the chromatic limit {limit}")
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    for u, v in simple.edges.values():
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    full = 1 << n
    independent = bytearray(full)
    independent[0] = 1
    for s in range(1, full):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        independent[s] = independent[rest] and not (adj[low] & rest)
    # parts[s][j] = number of partitions of vertex set s into j independent blocks
    parts = [None] * full
    parts[0] = [1]
    for s in range(1, full):
        lowbit = s & -s
        rest = s ^ lowbit
        acc = [0] * (bin(s).count("1") + 1)
        # enumerate the block containing the lowest vertex of s
        t = rest
        while True:
            block = t | lowbit
            if independent[block]:
                prev = parts[s ^ block]
                for j, c in enumerate(prev):
                    if c:
                        acc[j + 1] += c
            if t == 0:
                break
            t = (t - 1) & rest
        parts[s] = acc
    out = IntPoly()
    for j, c in enumerate(parts[full - 1]):
        if c:
            out = out + c * IntPoly.falling_factorial(j)
    return out


def precoloring_poly(net, limit=14):
    """Precoloring polynomial: extensions of a rainbow boundary coloring.

    With the m boundary nodes pinned to m distinct colors, the number of
    proper colorings of the whole network with k >= m colors is a polynomial
    in k. It equals the chromatic polynomial of the boundary-clique graph
    divided, exactly, by the falling factorial k(k-1)...(k-m+1); the division
    leaving a remainder would mean the clique construction is broken, so
    NotDivisible is allowed to escape.
    """
    clique = add_boundary_clique(net)
    m = len(net.boundary)
    return chromatic_poly(clique, limit).divide_exact(IntPoly.falling_factorial(m))


def count_precolorings(net, k):
    """Brute-force count of proper colorings extending a fixed rainbow boundary.

    Boundary nodes get colors 0..m-1 in sorted label order; interior nodes
    range over all k colors. Backtracking over interior vertices, nothing
    clever. Intended as an oracle for precoloring_poly at small k.
    """
    m = len(net.boundary)
    if k < 0:
        raise BadParameter("color count must be nonnegative")
    color = {b: i for i, b in enumerate(sorted(net.boundary))}
    interior = sorted(v for v in net.vertices if v not in net.boundary)
    neighbors = {v: sorted(w for _, w in net.adj[v]) for v in interior}
    def extend(i):
        if i == len(interior):
            return 1
        v = interior[i]
        total = 0
        for c in range(k):
            if all(color.get(w) != c for w in neighbors[v]):
                color[v] = c
                total += extend(i + 1)
                del color[v]
        return total

    if m > k:
        return 0
    return extend(0)


def cpintro_compare(net, limit=14):
    """Coefficient comparison between the graph and matroid chromatic data.

    a_i is the absolute coefficient of lambda^(n-i) in the chromatic
    polynomial of the underlying graph (n vertices); b_i is the absolute
    coefficient of lambda^(d-i) in the precoloring polynomial of degree d.
    Returns the two sequences over i = 0..d, the verdict a_i >= b_i for all
    those i, and the index range where equality is certain: strictly below
    the smallest crossing edge count.
    """
    from .network import crossings

    chi = chromatic_poly(net, limit)
    phi = precoloring_poly(net, limit)
    n = len(net.vertices)
    d = phi.degree()
    a = [abs(chi[n - i]) for i in range(d + 1)]
    b = [abs(phi[d - i]) for i in range(d + 1)]
    girth = min(len(c) for c in crossings(net))
    return {
        "a": a,
        "b": b,
        "dominates": all(a[i] >= b[i] for i in range(d + 1)),
        "equal_below": girth,
        "equal_ok": all(a[i] == b[i] for i in range(min(girth, d + 1))),
    }


def _wheel_closed_form(m):
    """Candidate closed form for the hexwheel precoloring polynomial.

    Build T = sum over j of C(m, 2j) (x-2)^(m-2j) (x^2+4)^j, check that
    every coefficient is divisible by 2^(m-1), and return the polynomial p
    with p(x+1) = T/2^(m-1) + (-1)^m (x-m-1), i.e. the shift back by one.
    Returns None when the divisibility fails.
    """
    from math import comb

    xm2 = IntPoly((-2, 1))
    xsq4 = IntPoly((4, 0, 1))
    total = IntPoly()
    for j in range(m // 2 + 1):
        total = total + comb(m, 2 * j) * xm2 ** (m - 2 * j) * xsq4**j
    scale = 1 << (m - 1)
    if any(c % scale for c in total.coeffs):
        return None
    halved = IntPoly([c // scale for c in total.coeffs])
    sign = -1 if m % 2 else 1
    shifted = halved + sign * IntPoly((-m - 1, 1))
    return shifted.shift(-1)


def hexwheel_scan(m_max):
    """Scan hexwheel networks, comparing three routes to the same polynomial.

    For each m from 3 to m_max: the precoloring polynomial via the chromatic
    route, the reduced characteristic polynomial of the network matroid, a
    two-step linear recurrence prediction (for m >= 5), and a shifted closed
    form. Disagreements are reported, not raised; the scan is exploratory.
    Chromatic values stop being computed once the boundary-clique graph
    outgrows the vertex limit, but the matroid route keeps going.
    """
    from .dirichlet import dirichlet_matroid
    from .families import hexwheel

    if m_max < 3:
        raise BadParameter("the scan starts at m = 3")
    rows = []
    phis = {}
    for m in range(3, m_max + 1):
        net = hexwheel(m)
        matroid_phi = dirichlet_matroid(net).reduced_char_poly()
        phis[m] = matroid_phi
        row = {"m": m, "poly": matroid_phi, "agreements": {}, "mismatches": {}}
        try:
            chrom_phi = precoloring_poly(net)
        except GraphTooLarge:
            pass
        else:
            _record(row, "chromatic", chrom_phi)
        if m >= 5:
            base = m - 2
            sign = -1 if base % 2 else 1
            lam = IntPoly.x()
            # the recurrence in the working variable: p_{m} = (x-3) p_{m-1}
            # + (x-1) p_{m-2} + s (-2x + m + 1); it is the shift by two of
            # the classical display, which only closes up in the shifted
            # variable x+2
            predicted = (
                (lam - 3) * phis[m - 1]
                + (lam - 1) * phis[m - 2]
                + sign * IntPoly((base + 3, -2))
            )
            _record(row, "recurrence", predicted)
            verbatim = (
                (lam - 1) * phis[m - 1]
                + (lam + 1) * phis[m - 2]
                + sign * IntPoly((base - 1, -2))
            )
            _record(row, "recurrence-unshifted", verbatim)
        _record(row, "closed-form", _wheel_closed_form(m))
        rows.append(row)
    return rows


def _record(row, key, value):
    """File one route's polynomial under the row's agreements or mismatches
    (None, a failed division, never agrees)."""
    row["agreements" if value == row["poly"] else "mismatches"][key] = value


def hexwheel_report(rows):
    """Plain-text rendering of a hexwheel scan."""
    lines = []
    for row in rows:
        lines.append(f"m={row['m']}: {row['poly'].pretty('x')}")
        for key in sorted(row["agreements"]):
            lines.append(f"  {key}: agrees")
        for key, val in sorted(row["mismatches"].items()):
            got = "divisibility failed" if val is None else val.pretty("x")
            lines.append(f"  {key}: MISMATCH ({got})")
    return "\n".join(lines)
