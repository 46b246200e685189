"""Built-in network families and the generator mini-language.

Generators return plain Networks, or CircularNetworks (with a disk embedding)
for the families that are drawn once and for all in the disk: the sunflowers,
their chorded variants, and the classic bridge circuit.
"""

import math
import random as _random

from .errors import BadParameter, DomainError
from .network import Network


def _rotation_from_coords(coords, edges):
    """Clockwise rotation at every vertex from plane coordinates."""
    incident = {}
    for label, u, v in edges:
        incident.setdefault(u, []).append((label, v))
        incident.setdefault(v, []).append((label, u))
    rot = {}
    for v, inc in incident.items():
        x0, y0 = coords[v]

        def angle(item):
            _, w = item
            x1, y1 = coords[w]
            return -math.atan2(y1 - y0, x1 - x0)

        rot[v] = tuple(label for label, _ in sorted(inc, key=angle))
    return rot


def star(m):
    """One interior hub joined to m boundary nodes."""
    if m < 2:
        raise BadParameter("star needs m >= 2")
    vertices = ["c"] + [f"w{s}" for s in range(1, m + 1)]
    edges = [(f"f{s}", "c", f"w{s}") for s in range(1, m + 1)]
    return Network(vertices, vertices[1:], edges, name=f"star({m})")


def path(d):
    """A path on d vertices whose two ends form the boundary."""
    if d < 3:
        raise BadParameter("path needs d >= 3")
    vertices = [f"v{s}" for s in range(1, d + 1)]
    edges = [(f"e{s}", f"v{s}", f"v{s+1}") for s in range(1, d)]
    return Network(vertices, [vertices[0], vertices[-1]], edges, name=f"path({d})")


def triangle():
    """Three boundary nodes alternating with two interior nodes around a
    triangle with one subdivided corner; the worked 3-boundary example."""
    vertices = ["t1", "t2", "t3", "t4", "t5"]
    boundary = ["t1", "t3", "t5"]
    edges = [
        ("e1", "t1", "t2"),
        ("e2", "t2", "t3"),
        ("e3", "t3", "t4"),
        ("e4", "t4", "t5"),
        ("e5", "t2", "t4"),
    ]
    return Network(vertices, boundary, edges, name="triangle")


def double_path():
    """Two length-two paths glued at both boundary ends (a 4-cycle)."""
    vertices = ["b1", "b2", "i1", "i2"]
    edges = [
        ("g1", "b1", "i1"),
        ("g2", "i1", "b2"),
        ("g3", "b1", "i2"),
        ("g4", "i2", "b2"),
    ]
    return Network(vertices, ["b1", "b2"], edges, name="double_path")


def hexwheel(m):
    """An interior m-cycle with one boundary pendant per cycle node."""
    if m < 3:
        raise BadParameter("hexwheel needs m >= 3")
    interior = [f"u{s}" for s in range(1, m + 1)]
    boundary = [f"w{s}" for s in range(1, m + 1)]
    edges = []
    for s in range(1, m + 1):
        t = s % m + 1
        edges.append((f"c{s}", f"u{s}", f"u{t}"))
        edges.append((f"p{s}", f"u{s}", f"w{s}"))
    return Network(interior + boundary, boundary, edges, name=f"hexwheel({m})")


def wheatstone():
    """The bridge circuit: two boundary terminals, two interior nodes,
    five edges including the bridge."""
    from .circular import CircularNetwork

    coords = {"b1": (-1, 0), "b2": (1, 0), "i1": (0, 1), "i2": (0, -1)}
    edges = [
        ("e1", "b1", "i1"),
        ("e2", "b1", "i2"),
        ("e3", "i1", "i2"),
        ("e4", "i1", "b2"),
        ("e5", "i2", "b2"),
    ]
    rot = _rotation_from_coords(coords, edges)
    return CircularNetwork(
        list(coords),
        ["b1", "b2"],
        edges,
        rotation=rot,
        boundary_order=["b1", "b2"],
        name="wheatstone",
    )


def _flower_parts(m, chord):
    interior = [f"c{s}" for s in range(1, m + 1)]
    boundary = [f"d{s}" for s in range(1, m + 1)]
    coords = {}
    for s in range(1, m + 1):
        th = 2 * math.pi * s / m
        coords[f"c{s}"] = (math.cos(th), math.sin(th))
        th2 = 2 * math.pi * (s - 0.5) / m
        coords[f"d{s}"] = (1.6 * math.cos(th2), 1.6 * math.sin(th2))
    edges = []
    for s in range(1, m + 1):
        t = s % m + 1
        prev = m if s == 1 else s - 1
        edges.append((f"g{s}", f"c{s}", f"c{t}"))
        edges.append((f"a{s}", f"d{s}", f"c{prev}"))
        edges.append((f"b{s}", f"d{s}", f"c{s}"))
    if chord:
        edges.append(("x", f"c{m // 2}", f"c{m}"))
    return interior, boundary, coords, edges


def _clockwise_boundary(boundary):
    # the d-nodes sit at increasing angles, so clockwise order reverses
    # everything after the starting node
    return boundary[:1] + boundary[:0:-1]


def sunflower(m):
    """An interior m-cycle c1..cm with a boundary node d_s joined to
    c_{s-1} and c_s; drawn in the disk."""
    from .circular import CircularNetwork

    if m < 3:
        raise BadParameter("sunflower needs m >= 3")
    interior, boundary, coords, edges = _flower_parts(m, chord=False)
    rot = _rotation_from_coords(coords, edges)
    return CircularNetwork(
        interior + boundary,
        boundary,
        edges,
        rotation=rot,
        boundary_order=_clockwise_boundary(boundary),
        name=f"sunflower({m})",
    )


def double_sunflower(m):
    """The sunflower plus the chord c_{m/2}..c_m splitting the interior
    cycle into two equal arcs (even m only; the chord choice for other m
    is not settled, so they are rejected)."""
    from .circular import CircularNetwork

    if m < 4 or m % 2:
        raise BadParameter("double_sunflower needs even m >= 4")
    interior, boundary, coords, edges = _flower_parts(m, chord=True)
    # the chord is a straight diameter, so geometric rotation still works
    rot = _rotation_from_coords(coords, edges)
    return CircularNetwork(
        interior + boundary,
        boundary,
        edges,
        rotation=rot,
        boundary_order=_clockwise_boundary(boundary),
        name=f"double_sunflower({m})",
    )


def poset_network(elements, covers, name="poset"):
    """Hasse diagram plus a source below the minima and a sink above the
    maxima; source and sink are the boundary."""
    elements = list(elements)
    if len(set(elements)) != len(elements):
        raise BadParameter("duplicate poset elements")
    eset = set(elements)
    for a, b in covers:
        if a not in eset or b not in eset:
            raise BadParameter(f"cover ({a!r},{b!r}) uses unknown element")
    if "src" in eset or "snk" in eset:
        raise BadParameter("elements 'src' and 'snk' are reserved")
    has_below = {b for _, b in covers}
    has_above = {a for a, _ in covers}
    minima = [p for p in elements if p not in has_below]
    maxima = [p for p in elements if p not in has_above]
    edges = [(f"h:{a}<{b}", a, b) for a, b in covers]
    edges += [(f"s:{p}", "src", p) for p in minima]
    edges += [(f"t:{p}", p, "snk") for p in maxima]
    return Network(
        elements + ["src", "snk"], ["src", "snk"], edges, name=name
    )


def poset(kind):
    """Named small posets: chain-k, antichain-k, diamond."""
    if kind == "diamond":
        els = ["p1", "p2", "p3", "p4"]
        covers = [("p1", "p2"), ("p1", "p3"), ("p2", "p4"), ("p3", "p4")]
        return poset_network(els, covers, name="poset(diamond)")
    try:
        shape, k = kind.rsplit("-", 1)
        k = int(k)
    except ValueError:
        raise BadParameter(f"unknown poset {kind!r}") from None
    if k < 1:
        raise BadParameter("poset size must be >= 1")
    els = [f"p{s}" for s in range(1, k + 1)]
    if shape == "chain":
        covers = [(f"p{s}", f"p{s+1}") for s in range(1, k)]
    elif shape == "antichain":
        covers = []
    else:
        raise BadParameter(f"unknown poset {kind!r}")
    return poset_network(els, covers, name=f"poset({kind})")


def random_network(n, m, density=0.5, seed=0):
    """A random valid network on n vertices with m boundary nodes.

    Deterministic in (n, m, density, seed); resamples until the edge set is
    connected (boundary independence holds by construction).
    """
    if n < 3 or m < 2 or m >= n:
        raise BadParameter("random network needs n >= 3 and 2 <= m < n")
    try:
        dens = float(density)
    except (TypeError, ValueError):
        raise BadParameter(f"bad density {density!r}") from None
    if not 0 < dens <= 1:
        raise BadParameter("density must be in (0, 1]")
    width = len(str(n))
    vertices = [f"r{s:0{width}d}" for s in range(1, n + 1)]
    boundary = vertices[:m]
    bset = set(boundary)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if vertices[i] in bset and vertices[j] in bset:
                continue
            pairs.append((vertices[i], vertices[j]))
    rng = _random.Random(f"random:{n}:{m}:{dens!r}:{seed}")
    for _ in range(4000):
        chosen = [(f"{u}-{v}", u, v) for u, v in pairs if rng.random() < dens]
        try:
            net = Network(
                vertices,
                boundary,
                chosen,
                name=f"random({n},{m},{dens},{seed})",
            )
        except DomainError:
            continue
        return net
    raise BadParameter(
        f"could not sample a valid network for n={n} m={m} density={dens}"
    )


FAMILIES = {
    "star": (star, "star:m"),
    "path": (path, "path:d"),
    "triangle": (triangle, "triangle"),
    "double_path": (double_path, "double_path"),
    "hexwheel": (hexwheel, "hexwheel:m"),
    "wheatstone": (wheatstone, "wheatstone"),
    "sunflower": (sunflower, "sunflower:m"),
    "double_sunflower": (double_sunflower, "double_sunflower:m"),
    "poset": (poset, "poset:chain-k|antichain-k|diamond"),
    "random": (random_network, "random:n,m,density,seed"),
}


def parse_generator(text):
    """Build a network from 'name' or 'name:arg,arg,...'."""
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in FAMILIES:
        raise BadParameter(
            f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}"
        )
    fn = FAMILIES[name][0]
    args = [a.strip() for a in rest.split(",")] if rest else []
    if name == "poset":
        if len(args) != 1:
            raise BadParameter("poset takes one argument, e.g. poset:chain-3")
        return fn(args[0])
    if name == "random":
        if len(args) not in (2, 3, 4):
            raise BadParameter("random takes n,m[,density[,seed]]")
        try:
            n, m = int(args[0]), int(args[1])
            dens = float(args[2]) if len(args) > 2 else 0.5
        except ValueError:
            raise BadParameter(
                "n and m must be integers and density a number "
                "(usage random:n,m[,density[,seed]])"
            ) from None
        seed = args[3] if len(args) > 3 else 0
        return fn(n, m, dens, seed)
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise BadParameter(f"arguments to {name} must be integers") from None
    try:
        return fn(*nums)
    except TypeError:
        raise BadParameter(
            f"wrong number of arguments for {name} (usage {FAMILIES[name][1]})"
        ) from None
