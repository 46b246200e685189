"""One-shot verification suites over a fixed desk-scale corpus.

Everything here is deterministic: the corpus is pinned (the random members
come from fixed seeds), sampling suites take an explicit seed, and every
suite returns a plain report dict with an `all_ok` flag. The point of the
module is triangulation: each property is computed by at least two
independent routes that must agree exactly, with no tolerances anywhere.
"""

import random as _random
from fractions import Fraction
from math import gcd, lcm

from .circular import (
    duality_theorem_check,
    dual_network,
    insulators,
    min_circuit_cover,
)
from .dirichlet import connectivity_criteria, dirichlet_matroid
from .electrical import (
    identity_sweep,
    interlacing_sweep,
    proper_position_checks,
    hpp_sample,
    response,
)
from .errors import BadParameter, ConsistencyError, GroundTooLarge
from .families import (
    double_path,
    double_sunflower,
    hexwheel,
    path,
    random_network,
    star,
    sunflower,
    triangle,
    wheatstone,
)
from .grovepoly import (
    chromatic_poly,
    count_precolorings,
    cpintro_compare,
    hexwheel_scan,
    precoloring_poly,
)
from .linrep import (
    block_injective_u,
    max_block_boundary,
    min_field_size,
    representability,
    representation_matrix,
)
from .matroid import Matroid, beta_from_char_poly
from .network import (
    EH,
    RollbackDSU,
    add_boundary_clique,
    crossing_masks,
    identify_boundary,
)
from .polynomials import IntPoly


def random_corpus(count=25, max_edges=8):
    """Deterministic list of small random networks, at most max_edges each."""
    combos = [(4, 2, 0.6), (5, 2, 0.5), (5, 3, 0.5), (6, 2, 0.45), (6, 3, 0.45)]
    out = []
    seed = 0
    while len(out) < count:
        n, m, dens = combos[seed % len(combos)]
        try:
            net = random_network(n, m, dens, seed)
        except BadParameter:
            seed += 1
            continue
        if len(net.edges) <= max_edges:
            out.append(net)
        seed += 1
    return out


def corpus():
    """The fixed verification corpus of plain networks."""
    nets = [
        star(3),
        star(4),
        star(5),
        path(3),
        path(4),
        path(5),
        triangle(),
        hexwheel(3),
        hexwheel(4),
        hexwheel(5),
        hexwheel(6),
        sunflower(3),
        sunflower(4),
        sunflower(5),
        double_path(),
    ]
    nets.extend(random_corpus())
    return nets


def circular_corpus():
    """The circular networks used for the duality suite."""
    return [wheatstone(), sunflower(3), sunflower(4), sunflower(5),
            double_sunflower(6)]


# -- oracle triangulation ----------------------------------------------------


def _integer_columns(net):
    """Representation columns over the rationals, scaled to integers."""
    u = block_injective_u(net)
    rep = representation_matrix(net, u)
    cols = []
    for j in range(len(rep.cols)):
        col = [Fraction(rep.entries[i][j]) for i in range(len(rep.rows))]
        mult = 1
        for x in col:
            mult = lcm(mult, x.denominator)
        cols.append(tuple(int(x * mult) for x in col))
    return cols


def _reduce_column(basis, vec):
    """Fraction-free reduction of vec against the echelon basis; returns the
    pivot index and reduced vector, or (None, None) when dependent."""
    v = list(vec)
    for pivot, pv in basis:
        if v[pivot]:
            a, b = pv[pivot], v[pivot]
            g = gcd(a, b)
            fa, fb = a // g, b // g
            v = [fa * x - fb * y for x, y in zip(v, pv)]
    for i, x in enumerate(v):
        if x:
            content = 0
            for y in v:
                content = gcd(content, y)
            if content > 1:
                v = [y // content for y in v]
            return i, v
    return None, None


def triangulate(net, limit=17):
    """Independence by three routes on every subset of the ground set.

    Route one evaluates the grove definition directly (forest plus a
    crossing budget), the one route that reads the crossing list. Route two
    is the lift rank formula over the boundary-identified graph, where a set
    is unbalanced when its graphic rank drops under the identification.
    Route three is column rank of the rational representation under a
    block-injective boundary assignment. All three must agree on
    independence, and the two rank functions must agree everywhere, with
    each other and with the rank oracle every other computation uses
    (`dirichlet_matroid`), asked of each subset's bitmask. One shared
    depth-first walk maintains the three routes incrementally with rollback.
    """
    order = list(net.edge_order)
    n = len(order)
    if n + 1 > limit:
        raise GroundTooLarge(f"subset sweep over {n + 1} elements (limit {limit})")

    og, _hub = identify_boundary(net)
    overts = list(og.vertices)
    ovidx = {v: i for i, v in enumerate(overts)}
    o_ends = [
        (ovidx[og.edges[e][0]], ovidx[og.edges[e][1]]) for e in order
    ]
    gvidx = {v: i for i, v in enumerate(net.vertices)}
    g_ends = [
        (gvidx[net.edges[e][0]], gvidx[net.edges[e][1]]) for e in order
    ]

    cross_with = [[] for _ in order]
    remaining = []
    for ci, cm in enumerate(crossing_masks(net)):
        remaining.append(cm.bit_count())
        for i in range(n):
            if cm >> i & 1:
                cross_with[i].append(ci)

    cols = _integer_columns(net)
    oracle = dirichlet_matroid(net).rank_mask

    g_dsu = RollbackDSU(len(net.vertices))
    o_dsu = RollbackDSU(len(overts))
    basis = []
    state = {"cycles": 0, "contained": 0, "merges": 0, "size": 0}
    mismatches = []
    checked = [0]

    def check(size, grove_ind, lift_rank, rep_rank, mask, members):
        checked[0] += 1
        oracle_rank = oracle(mask)
        ok = (
            lift_rank == rep_rank == oracle_rank
            and grove_ind == (lift_rank == size)
        )
        if not ok and len(mismatches) < 5:
            labels = sorted(members)
            if mask >> n & 1:
                labels.append(EH)
            mismatches.append(
                {
                    "subset": labels,
                    "grove_independent": grove_ind,
                    "lift_rank": lift_rank,
                    "rep_rank": rep_rank,
                    "oracle_rank": oracle_rank,
                }
            )

    members = []

    def leaves(mask):
        # a crossing joins two boundary nodes, so identifying them loses a
        # merge: the lift route never looks at the crossing list
        unbalanced = state["merges"] < state["size"] - state["cycles"]
        size = state["size"]
        lift = state["merges"] + (1 if unbalanced else 0)
        grove = state["cycles"] == 0 and state["contained"] <= 1
        check(size, grove, lift, len(basis), mask, members)
        pivot, vec = _reduce_column(basis, cols[n])
        if pivot is not None:
            basis.append((pivot, vec))
        lift = state["merges"] + 1
        grove = state["cycles"] == 0 and state["contained"] == 0
        check(size + 1, grove, lift, len(basis), mask | 1 << n, members)
        if pivot is not None:
            basis.pop()

    def rec(i, mask):
        if i == n:
            leaves(mask)
            return
        rec(i + 1, mask)
        merged_g = g_dsu.union(*g_ends[i])
        if not merged_g:
            state["cycles"] += 1
        merged_o = o_dsu.union(*o_ends[i])
        if merged_o:
            state["merges"] += 1
        newly = 0
        for ci in cross_with[i]:
            remaining[ci] -= 1
            if remaining[ci] == 0:
                newly += 1
        state["contained"] += newly
        pivot, vec = _reduce_column(basis, cols[i])
        if pivot is not None:
            basis.append((pivot, vec))
        state["size"] += 1
        members.append(order[i])

        rec(i + 1, mask | 1 << i)

        members.pop()
        state["size"] -= 1
        if pivot is not None:
            basis.pop()
        state["contained"] -= newly
        for ci in cross_with[i]:
            remaining[ci] += 1
        if merged_o:
            state["merges"] -= 1
        o_dsu.undo()
        if not merged_g:
            state["cycles"] -= 1
        g_dsu.undo()

    rec(0, 0)
    return {
        "network": net.name,
        "subsets": checked[0],
        "mismatches": mismatches,
        "all_ok": not mismatches,
    }


def oracle_suite(nets=None):
    """Three-route independence agreement over the whole corpus."""
    nets = corpus() if nets is None else nets
    rows = []
    ok = True
    for net in nets:
        rep = triangulate(net)
        rows.append(
            {
                "network": net.name,
                "subsets": rep["subsets"],
                "ok": rep["all_ok"],
            }
        )
        ok = ok and rep["all_ok"]
    return {"suite": "oracles", "rows": rows, "all_ok": ok}


# -- polynomial identities ----------------------------------------------------


def _chi_identity(net):
    """chi of the matroid times the falling factorial against (x-1) times
    the chromatic polynomial of the boundary-clique graph."""
    m = len(net.boundary)
    matroid = dirichlet_matroid(net)
    chi = matroid.char_poly()
    lhs = chi * IntPoly.falling_factorial(m)
    clique = chromatic_poly(add_boundary_clique(net))
    rhs = clique * IntPoly((-1, 1))
    return lhs == rhs, chi


def _whitney_counts(matroid, chi, order):
    """Broken-circuit counts against the chi coefficients for one order."""
    counts = matroid.nbc_counts(order=order)
    r = matroid.full_rank()
    for i in range(max(r + 1, len(counts))):
        w = counts[i] if i < len(counts) else 0
        want = (-1) ** i * w
        have = chi[r - i] if i <= r else 0
        if have != want:
            return False
    return True


def polynomial_suite(nets=None, seed=0, orders=3):
    """Chromatic-style identities: the factorization through the boundary
    clique, brute-force precoloring counts, broken-circuit counts for
    several random orders, and coefficient domination."""
    nets = corpus() if nets is None else nets
    rng = _random.Random(f"poly-suite:{seed}")
    rows = []
    ok = True
    for net in nets:
        m = len(net.boundary)
        good, chi = _chi_identity(net)

        pre = precoloring_poly(net)
        counts_ok = True
        for k in range(m, 6):
            if pre(k) != count_precolorings(net, k):
                counts_ok = False

        matroid = dirichlet_matroid(net)
        ground = list(matroid.ground)
        whitney_ok = True
        for _ in range(orders):
            perm = ground[:]
            rng.shuffle(perm)
            if not _whitney_counts(matroid, chi, perm):
                whitney_ok = False

        compare = cpintro_compare(net)
        dom_ok = compare["dominates"] and compare["equal_ok"]

        row_ok = good and counts_ok and whitney_ok and dom_ok
        rows.append(
            {
                "network": net.name,
                "factorization": good,
                "precoloring_counts": counts_ok,
                "whitney": whitney_ok,
                "domination": dom_ok,
            }
        )
        ok = ok and row_ok
    return {"suite": "polynomials", "rows": rows, "all_ok": ok}


# -- electrical ---------------------------------------------------------------


def _p3_closed_form(seed=0):
    """The two-terminal series network's response, against the closed form."""
    net = path(3)
    rng = _random.Random(f"p3:{seed}")
    for _ in range(25):
        x1 = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        x2 = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        lam = response(net, {"e1": x1, "e2": x2})
        want = x1 * x2 / (x1 + x2)
        a, b = net.boundary
        if lam[a, a] != want or lam[b, b] != want:
            return False
        if lam[a, b] != -want or lam[b, a] != -want:
            return False
    return True


def electrical_suite(nets=None, seed=0, trials=200):
    """Exact response-matrix identities at seeded rational points."""
    nets = corpus() if nets is None else nets
    rows = []
    ok = True
    for net in nets:
        rep = identity_sweep(net, trials=trials, seed=seed)
        rows.append(
            {
                "network": net.name,
                "points": rep["points"],
                "skipped_singular": rep["skipped_singular"],
                "ok": rep["all_ok"],
            }
        )
        ok = ok and rep["all_ok"]
    closed = _p3_closed_form(seed)
    return {
        "suite": "electrical",
        "rows": rows,
        "p3_closed_form": closed,
        "all_ok": ok and closed,
    }


def hpp_suite(nets=None, seed=0, trials=500, lines=20):
    """Rayleigh-difference nonnegativity, Cauchy-Schwarz, and interlacing."""
    nets = corpus() if nets is None else nets
    rows = []
    ok = True
    for net in nets:
        hpp = hpp_sample(net, trials=trials, seed=seed)
        proper = proper_position_checks(net, trials=min(trials, 100), seed=seed)
        inter = interlacing_sweep(net, lines=lines, seed=seed)
        row_ok = (
            hpp["all_nonnegative"] and proper["all_ok"] and inter["all_ok"]
        )
        rows.append(
            {
                "network": net.name,
                "hpp": hpp["all_nonnegative"],
                "proper_position": proper["all_ok"],
                "interlacing": inter["all_ok"],
            }
        )
        ok = ok and row_ok
    return {"suite": "hpp", "rows": rows, "all_ok": ok}


# -- connectivity --------------------------------------------------------------


def connectivity_suite(nets=None):
    """The 3-connectivity criterion against brute Tutte connectivity, plus
    the beta-invariant factorial identity."""
    nets = corpus() if nets is None else nets
    rows = []
    ok = True
    for net in nets:
        m = len(net.boundary)
        matroid = dirichlet_matroid(net)
        n_ground = len(matroid.ground)
        crit = connectivity_criteria(net)

        tutte_ok = True
        if n_ground <= 10:
            tc = matroid.tutte_connectivity()
            is3 = tc >= 3
            tutte_ok = is3 == crit["predicts_3_connected"]

        beta_net = matroid.beta()
        clique = add_boundary_clique(net)
        # chromatic polynomial of the connected clique graph = lambda * chi
        # of its cycle matroid, so strip one factor of lambda
        chi_clique = chromatic_poly(clique).divide_exact(IntPoly((0, 1)))
        beta_clique = beta_from_char_poly(chi_clique, len(clique.vertices) - 1)
        fact = 1
        for i in range(1, m - 1):
            fact *= i
        beta_ok = beta_net * fact == beta_clique

        rows.append(
            {
                "network": net.name,
                "criterion_vs_tutte": tutte_ok,
                "beta_identity": beta_ok,
            }
        )
        ok = ok and tutte_ok and beta_ok
    return {"suite": "connectivity", "rows": rows, "all_ok": ok}


# -- duality -------------------------------------------------------------------

SUNFLOWER5_INSULATOR = frozenset(
    {"a2", "b2", "a3", "b3", "a4", "b4", "a5", "b5"}
)
DOUBLE6_INSULATOR = frozenset(
    {"x", "g1", "g2", "g3", "g4", "g5", "g6", "b1", "b2", "b3", "b4", "b5", "b6"}
)


def duality_suite(nets=None):
    """Cocircuit dichotomy and cover bounds over the circular corpus, plus
    (on the full corpus run) the two pinned cover sizes and the
    two-terminal isomorphism.

    The cocircuit list is checked for completeness by two other routes: its
    cocircuits without the extra element must be every circuit of the dual
    network's cycle matroid, and, on networks of at most 16 edges,
    `insulators` re-derives the ones through it by brute force."""
    full = nets is None
    rows = []
    ok = True
    for net in (circular_corpus() if full else nets):
        rep = duality_theorem_check(net)
        bonds = {
            frozenset(r["cocircuit"]) for r in rep["rows"] if r["type"] == "graphic"
        }
        cycles = Matroid.graphic(dual_network(net)).circuits(limit=20)
        complete = bonds == set(cycles)
        insulated = None
        if len(net.edges) <= 16:
            try:
                insulators(net)
                insulated = True
            except ConsistencyError:
                insulated = False
        rows.append(
            {
                "network": net.name,
                "cocircuits": rep["cocircuits"],
                "ok": rep["all_ok"],
                "dual_iso": rep.get("dual_iso"),
                "bonds_complete": complete,
                "insulators": insulated,
            }
        )
        ok = ok and rep["all_ok"] and complete and insulated is not False

    report = {"suite": "duality", "rows": rows, "all_ok": ok}
    if full:
        s5 = sunflower(5)
        in5 = set(insulators(s5))
        k5 = min_circuit_cover(s5, SUNFLOWER5_INSULATOR | {EH})["size"]
        ds6 = double_sunflower(6)
        k6 = min_circuit_cover(ds6, DOUBLE6_INSULATOR | {EH})["size"]
        pinned = SUNFLOWER5_INSULATOR in in5 and k5 == 3 and k6 == 2
        report["sunflower5_k"] = k5
        report["double_sunflower6_k"] = k6
        report["all_ok"] = ok and pinned
    return report


# -- representability -----------------------------------------------------------


def representability_suite(nets=None):
    """Field thresholds: representable over GF(q) exactly when q reaches the
    largest block boundary count; binary exactly when every block has at
    most two boundary nodes."""
    nets = corpus() if nets is None else nets
    rows = []
    ok = True
    for net in nets:
        s = max_block_boundary(net)
        sizes = min_field_size(net, strict=False)
        row_ok = sizes["min_field_size"] == s
        for q in (2, 3, 4, 5):
            rep = representability(net, q)
            if rep["representable"] != (q >= s):
                row_ok = False
        binary = representability(net, 2)["representable"]
        if binary != (s <= 2):
            row_ok = False
        rows.append({"network": net.name, "threshold": s, "ok": row_ok})
        ok = ok and row_ok
    return {"suite": "representability", "rows": rows, "all_ok": ok}


def hexwheel_suite(m_max=8):
    """Exploratory recurrence scan; mismatches are reported, never raised."""
    rows = hexwheel_scan(m_max)
    agree = all(not r["mismatches"] for r in rows)
    return {
        "suite": "hexwheel",
        "rows": [
            {
                "m": r["m"],
                "agreements": sorted(r["agreements"]),
                "mismatches": sorted(r["mismatches"]),
            }
            for r in rows
        ],
        "conjecture_agrees": agree,
        "all_ok": True,
    }


# -- dispatch -------------------------------------------------------------------

SUITES = {
    "oracles": lambda seed, nets: oracle_suite(nets),
    "polynomials": lambda seed, nets: polynomial_suite(nets, seed=seed),
    "electrical": lambda seed, nets: electrical_suite(nets, seed=seed),
    "hpp": lambda seed, nets: hpp_suite(nets, seed=seed),
    "connectivity": lambda seed, nets: connectivity_suite(nets),
    "duality": lambda seed, nets: duality_suite(nets),
    "representability": lambda seed, nets: representability_suite(nets),
    "hexwheel": lambda seed, nets: hexwheel_suite(),
}


def run_suite(name, seed=0, nets=None):
    """Run one suite (or 'all') and return its report; nets restricts the
    corpus-driven suites to an explicit list of networks."""
    if name == "all":
        reports = []
        ok = True
        for key in sorted(SUITES):
            use = nets
            if nets is not None and key == "duality":
                use = [n for n in nets if hasattr(n, "faces")]
                if not use:
                    continue
            rep = SUITES[key](seed, use)
            reports.append(rep)
            ok = ok and rep["all_ok"]
        return {"suite": "all", "reports": reports, "all_ok": ok}
    if name not in SUITES:
        raise BadParameter(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return SUITES[name](seed, nets)
