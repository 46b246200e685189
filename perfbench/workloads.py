"""The benchmark's three workloads.

A workload's setup(seed) builds its networks and matroids, draws its inputs
from the seed and returns the list of operations one round runs.  Every
round runs the same operations in the same order.  The mix of operation
kinds is fixed per round, so p50 and p90 fall at fixed ranks of the cost
order whatever the seed draws; the counts below are chosen so that each of
those ranks sits well inside one cluster of similar costs (README.md lists
which).  Each operation carries the check its answer gets after the timed
phase; a check may cache the independent computation for its input, since
every round repeats the input.

Calls go through module attributes (circular.min_circuit_cover, not a name
imported here), so the tracer's wrappers see them.
"""

import random
from fractions import Fraction

import checkers
from dirmat import circular, dirichlet, electrical, families
from dirmat.network import EH


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _memo(compute):
    """A check that runs compute(answer) once per distinct answer."""
    seen = []

    def check(answer):
        for old in seen:
            if old == answer:
                return
        compute(answer)
        seen.append(answer)

    return check


# -- cover: minimum circuit covers of cocircuits through eh ---------------------

COVER_NETWORKS = (
    families.wheatstone,
    lambda: families.sunflower(3),
    lambda: families.sunflower(4),
    lambda: families.sunflower(5),
    lambda: families.double_sunflower(6),
)

# Targets per round, by (network, number of elements).  Cost rises with the
# network and, on one network, doubles with each element of the target.
# Sorted by cost, the 40 targets below sunflower(5)/10 (with the pinned
# sunflower(5) insulator) come first, the 20 sunflower(5)/10 targets hold
# the p50 rank, 20 mid-cost targets follow, and the 20 double_sunflower(6)
# targets of 14 elements (with its pinned insulator) hold the p90 rank.
COVER_MIX = {
    ("wheatstone", 3): 2,
    ("wheatstone", 4): 2,
    ("sunflower(3)", 5): 2,
    ("sunflower(3)", 6): 3,
    ("sunflower(3)", 7): 3,
    ("sunflower(4)", 7): 4,
    ("sunflower(4)", 8): 10,
    ("sunflower(4)", 9): 6,
    ("sunflower(5)", 9): 7,
    ("sunflower(5)", 10): 20,
    ("sunflower(5)", 11): 6,
    ("double_sunflower(6)", 11): 4,
    ("double_sunflower(6)", 12): 6,
    ("double_sunflower(6)", 13): 4,
    ("double_sunflower(6)", 14): 19,
}

# The insulators drawn in the paper, with the cover sizes it proves for them.
PINNED = (
    ("sunflower(5)", frozenset({"a2", "b2", "a3", "b3", "a4", "b4", "a5", "b5"}), 3),
    ("double_sunflower(6)",
     frozenset({"x", "g1", "g2", "g3", "g4", "g5", "g6",
                "b1", "b2", "b3", "b4", "b5", "b6"}), 2),
)

# Targets up to this size get the brute-force minimality check.
BRUTE_LIMIT = 11


def cover_setup(seed):
    rng = random.Random(f"cover:{seed}")
    nets = {}
    strata = {}
    for build in COVER_NETWORKS:
        net = build()
        nets[net.name] = net
        for z in dirichlet.network_cocircuits(net):
            if EH in z:
                strata.setdefault((net.name, len(z)), []).append(z)
    jobs = []
    for key, count in COVER_MIX.items():
        jobs += [(key[0], z, None) for z in rng.sample(strata[key], count)]
    jobs += [(name, insulator | {EH}, k) for name, insulator, k in PINNED]
    rng.shuffle(jobs)

    duals = {}

    def make(name, target, expected_k):
        net = nets[name]

        def call():
            return circular.min_circuit_cover(net, target)

        def compute(answer):
            if name not in duals:
                duals[name] = circular.dual_network(net)
            checkers.check_cover(net, duals[name], target, answer, BRUTE_LIMIT, expected_k)

        kind = f"{name}/{len(target)}" + (" pinned" if expected_k else "")
        return Op(kind, call, _memo(compute))

    return [make(*job) for job in jobs]


# -- oracle: rank queries on networks with long crossing lists -------------------

ORACLE_BIG = "random:20,4,0.3,1"
ORACLE_SMALL = ("random:12,3,0.5,1", "random:15,3,0.4,3", "random:14,4,0.4,2")

# Queries per round, by kind.  "free": no eh and no crossing, so the oracle
# scans its whole crossing list; "eh": holds eh, answered without a scan;
# "cross": no eh but a crossing, so the scan stops at the first crossing the
# subset holds.  The 44 full scans of the big network are the costliest
# fifth and hold p90; the cheap eh and crossing queries hold p50.
ORACLE_MIX_BIG = {"free": 44, "eh": 42, "cross": 30}
ORACLE_MIX_SMALL = {"free": 4, "eh": 12, "cross": 12}


def _crossing_free_subset(rng, net):
    """A random maximal subset of edges holding no crossing."""
    order = list(net.edge_order)
    rng.shuffle(order)
    chosen = []
    for e in order:
        if not checkers.has_crossing(net, chosen + [e]):
            chosen.append(e)
    return chosen


def _subset(rng, net, kind):
    edges = net.edge_order
    if kind == "free":
        return sorted(_crossing_free_subset(rng, net))
    if kind == "eh":
        return sorted(rng.sample(edges, len(edges) // 2)) + [EH]
    while True:
        subset = rng.sample(edges, (4 * len(edges)) // 5)
        if checkers.has_crossing(net, subset):
            return sorted(subset)


def oracle_setup(seed):
    rng = random.Random(f"oracle:{seed}")
    jobs = []
    for spec in (ORACLE_BIG,) + ORACLE_SMALL:
        net = families.parse_generator(spec)
        matroid = dirichlet.dirichlet_matroid(net)
        mix = ORACLE_MIX_BIG if spec == ORACLE_BIG else ORACLE_MIX_SMALL
        for kind, count in mix.items():
            jobs += [(spec, net, matroid, kind, _subset(rng, net, kind)) for _ in range(count)]
    rng.shuffle(jobs)

    def make(spec, net, matroid, kind, labels):
        def call():
            return matroid.rank(labels)

        return Op(f"{spec}/{kind}", call, _memo(lambda answer: checkers.check_rank(net, labels, answer)))

    return [make(*job) for job in jobs]


# -- sweep: point and line checks of the grove polynomials -------------------------

# Denominators of the coordinates of one point, shuffled by the seed.  A
# fixed multiset keeps the size of the numbers, and so the cost of exact
# arithmetic, alike from point to point; ranges match the verify suites'
# sampler (numerators up to 100, denominators up to 20).
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20)
ZEROS_PER_POINT = 2

# Operations per round, by (kind, network).  The 60 identity points are the
# cheapest three fifths and hold p50; the Rayleigh and proper-position points
# follow; the 20 hexwheel(6) lines hold p90, below the 4 sunflower(5) lines.
SWEEP_MIX = {
    ("identities", "sunflower(5)"): 30,
    ("identities", "hexwheel(6)"): 30,
    ("hpp", "sunflower(5)"): 4,
    ("hpp", "hexwheel(6)"): 4,
    ("proper", "sunflower(5)"): 4,
    ("proper", "hexwheel(6)"): 4,
    ("line", "hexwheel(6)"): 20,
    ("line", "sunflower(5)"): 4,
}


def _point(rng, labels, positive):
    """Seeded rational point: nonzero numerators in [-100, 100] (in [1, 100]
    when positive), ZEROS_PER_POINT exact zeros unless positive."""
    labels = sorted(labels)
    dens = list(DENOMINATORS[: len(labels)])
    rng.shuffle(dens)
    zeros = set() if positive else set(rng.sample(range(len(labels)), ZEROS_PER_POINT))
    out = {}
    for i, lab in enumerate(labels):
        if i in zeros:
            out[lab] = Fraction(0)
            continue
        num = 0
        while num == 0:
            num = rng.randint(1 if positive else -100, 100)
        out[lab] = Fraction(num, dens[i])
    return out


def sweep_setup(seed):
    rng = random.Random(f"sweep:{seed}")
    nets = {net.name: net for net in (families.sunflower(5), families.hexwheel(6))}
    jobs = []
    for (kind, name), count in SWEEP_MIX.items():
        net = nets[name]
        for _ in range(count):
            if kind == "identities":
                x = _point(rng, net.edge_order, positive=False)
                while checkers.p0_value(net, x) == 0:
                    x = _point(rng, net.edge_order, positive=False)
                jobs.append((kind, net, (x,)))
            elif kind == "line":
                base = _point(rng, net.edge_order, positive=False)
                direction = _point(rng, net.edge_order, positive=True)
                jobs.append((kind, net, (base, direction)))
            else:
                jobs.append((kind, net, (rng.randrange(1 << 30),)))
    rng.shuffle(jobs)
    return [_sweep_op(*job) for job in jobs]


def _check_identities(x, answer):
    checkers.require(answer["all_ok"] and answer["det_ok"] and answer["trace_ok"],
                     "a response identity failed")
    checkers.require(answer["pairs"] and all(answer["pairs"].values()),
                     "a pair identity failed")
    scale = {Fraction(answer["point"][e]) / x[e] for e in x if x[e]}
    checkers.require(len(scale) == 1 and scale.pop() > 0 and
                     all(answer["point"][e] == 0 for e in x if not x[e]),
                     "the reported point is not a positive multiple of the input")


def _check_proper(answer):
    checkers.require(answer["all_ok"] and not answer["violations"], "proper position failed")
    checkers.require(answer["min_wronskian"] >= 0 and answer["min_cs_margin"] >= 0,
                     "negative Wronskian or Cauchy-Schwarz margin")


def _sweep_op(kind, net, args):
    if kind == "identities":
        (x,) = args

        def call():
            return electrical.grove_identities(net, x)

        check = lambda answer: _check_identities(x, answer)  # noqa: E731
    elif kind == "hpp":
        (op_seed,) = args

        def call():
            return electrical.hpp_sample(net, trials=1, seed=op_seed)

        check = _memo(lambda answer: checkers.check_rayleigh_witness(net, answer))
    elif kind == "proper":
        (op_seed,) = args

        def call():
            return electrical.proper_position_checks(net, trials=1, seed=op_seed)

        check = _check_proper
    else:
        base, direction = args

        def call():
            return electrical.interlacing(net, base, direction)

        def compute(answer):
            checkers.require(answer["interlaced"] and answer["real_rooted"],
                             "the restricted grove polynomials do not interlace")
            checkers.check_line(net, base, direction, answer["P0"].coeffs, answer["P1"].coeffs)

        check = _memo(compute)
    return Op(f"{kind}:{net.name}", call, check)


WORKLOADS = {"cover": cover_setup, "oracle": oracle_setup, "sweep": sweep_setup}
