"""Linear representations of network matroids.

Columns live in K^(interior + one extra coordinate). An interior edge gets
the difference of its endpoint indicators; a boundary edge gets its interior
indicator minus a scalar times the extra coordinate's indicator; the extra
element is the extra coordinate itself. With scalars injective on each
block's boundary nodes this represents the network matroid; the smallest
usable field size is the largest number of boundary nodes in one block.
"""

from .errors import (
    BadParameter,
    ConsistencyError,
    FieldTooSmall,
    UnknownLabel,
)
from .fields import FieldQ, make_field
from .matroid import Matroid
from .network import EH, block_decomposition, blocks, crossing_pair_graph


def _hub_row(net):
    h = "h"
    while h in net.interior:
        h += "'"
    return h


class RepMatrix:
    """A representation attempt: field, labelled rows and columns, entries."""

    def __init__(self, field, rows, cols, entries, scalars=None, note=""):
        self.field = field
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.entries = [list(r) for r in entries]
        self.scalars = scalars
        self.note = note

    def submatrix_rank(self, col_indices):
        F = self.field
        mat = [[self.entries[i][j] for j in col_indices] for i in range(len(self.rows))]
        return rank_over_field(F, mat)

    def column_matroid(self, name="M[A]"):
        cols = list(range(len(self.cols)))

        def rank(mask):
            chosen = [j for j in cols if mask >> j & 1]
            return self.submatrix_rank(chosen)

        return Matroid(self.cols, rank, name=name)

def rank_over_field(field, mat):
    """Row rank by straightforward elimination; mat is consumed-safe."""
    F = field
    rows = [list(r) for r in mat]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = None
        for r in range(rank, nr):
            if rows[r][c] != F.zero:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = F.inv(rows[rank][c])
        rows[rank] = [F.mul(inv, x) for x in rows[rank]]
        for r in range(nr):
            if r != rank and rows[r][c] != F.zero:
                f = rows[r][c]
                rows[r] = [
                    F.sub(x, F.mul(f, y)) for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
        if rank == nr:
            break
    return rank


def _edge_block_scalars(net, coloring_by_block):
    """Scalar for each boundary edge from per-block boundary colorings."""
    edge_scalar = {}
    for blk, tedges in block_decomposition(net):
        col = coloring_by_block[blk]
        for e in tedges:
            u, v = net.edges[e]
            for w in (u, v):
                if net.is_boundary(w):
                    edge_scalar[e] = col[w]
    return edge_scalar


def _matrix_entries(net, F, edge_scalar):
    """Rows (interior nodes, then the hub), columns (edges, then eh) and
    entries; edge_scalar maps each boundary edge to its scalar."""
    rows = list(net.interior) + [_hub_row(net)]
    cols = list(net.edge_order) + [EH]
    ridx = {v: i for i, v in enumerate(rows)}
    entries = [[F.zero] * len(cols) for _ in rows]
    for j, e in enumerate(net.edge_order):
        a, b = net.edges[e]
        if not net.is_boundary(a) and not net.is_boundary(b):
            entries[ridx[a]][j] = F.one
            entries[ridx[b]][j] = F.neg(F.one)
        else:
            entries[ridx[a if net.is_boundary(b) else b]][j] = F.one
            entries[-1][j] = F.neg(edge_scalar[e])
    entries[-1][-1] = F.one
    return rows, cols, entries


def representation_matrix(net, u, field=None):
    """The matrix for a single boundary scalar assignment u."""
    F = field or FieldQ()
    uu = {}
    for b in net.boundary:
        if b not in u:
            raise BadParameter(f"u must assign every boundary node; missing {b!r}")
        uu[b] = F.coerce(u[b])
    for k in u:
        if k not in net._bset:
            raise UnknownLabel(f"u assigns non-boundary node {k!r}")
    edge_scalar = {e: uu[w] for e, ends in net.edges.items() for w in ends if w in uu}
    rows, cols, entries = _matrix_entries(net, F, edge_scalar)
    note = "single-u"
    if not is_block_injective(net, uu):
        note = (
            "single-u, NOT block-injective: columns describe this "
            "assignment's arrangement, not the network matroid"
        )
    return RepMatrix(F, rows, cols, entries, scalars={"u": uu}, note=note)


def gain_representation_matrix(net, coloring_by_block, field):
    """The matrix for per-block boundary colorings (the general form)."""
    rows, cols, entries = _matrix_entries(
        net, field, _edge_block_scalars(net, coloring_by_block)
    )
    return RepMatrix(
        field,
        rows,
        cols,
        entries,
        scalars={"per_block": coloring_by_block},
        note="per-block",
    )


def is_block_injective(net, u):
    for blk in blocks(net):
        seen = {}
        for v in sorted(blk):
            if net.is_boundary(v):
                val = u[v]
                if val in seen.values():
                    return False
                seen[v] = val
    return True


def _colour(adj, nodes, palette):
    """The first proper colouring of `nodes` (adjacency `adj`) from
    `palette` in backtracking order, as a dict, or None when there is none.

    Colours no node holds yet are interchangeable, so when one of them
    fails at a node the others are not tried there.
    """
    col = {}

    def go(i):
        if i == len(nodes):
            return True
        v = nodes[i]
        used = {col[w] for w in adj[v] if w in col}
        for c in palette:
            if c in used:
                continue
            fresh = c not in col.values()
            col[v] = c
            if go(i + 1):
                return True
            del col[v]
            if fresh:
                break
        return False

    return col if go(0) else None


def block_injective_u(net, field=None):
    """A single scalar assignment injective on every block's boundary.

    Found by properly colouring the crossing-pair graph with the field's
    elements; FieldTooSmall when impossible.
    """
    F = field or FieldQ()
    nodes = list(net.boundary)
    palette = []
    stream = F.element_stream()
    cap = F.size if F.size is not None else len(nodes)
    for _ in range(cap):
        try:
            palette.append(next(stream))
        except StopIteration:
            break
    u = _colour(crossing_pair_graph(net), nodes, palette)
    if u is None:
        raise FieldTooSmall(
            f"no assignment over {F.name} is injective on every block"
        )
    return u


def per_block_colorings(net, field):
    """Boundary colorings chosen independently per block; needs only
    |K| >= (largest block boundary count)."""
    F = field
    out = {}
    for blk in blocks(net):
        bd = sorted(v for v in blk if net.is_boundary(v))
        palette = []
        stream = F.element_stream()
        while len(palette) < len(bd):
            try:
                palette.append(next(stream))
            except StopIteration:
                raise FieldTooSmall(
                    f"block with {len(bd)} boundary nodes over {F.name}"
                ) from None
        out[blk] = dict(zip(bd, palette))
    return out


def max_block_boundary(net):
    """The most boundary nodes any one block holds."""
    return max(sum(1 for v in blk if net.is_boundary(v)) for blk in blocks(net))


def chromatic_number_of_pairs(net):
    """Exact chromatic number of the crossing-pair graph on boundary nodes."""
    adj = crossing_pair_graph(net)
    nodes = list(net.boundary)
    for k in range(1, len(nodes) + 1):
        if _colour(adj, nodes, range(k)) is not None:
            return k
    return len(nodes)


def min_field_size(net, strict=True):
    """Largest block boundary count, cross-checked against the chromatic
    number of the crossing-pair graph.

    The two can genuinely differ (see the alternating six-cycle in
    tests/test_linrep.py::test_six_cycle_separates_the_two_notions), in
    which case the block count is the one the
    representability threshold obeys. strict=True raises ConsistencyError
    on a mismatch; strict=False reports both numbers.
    """
    s = max_block_boundary(net)
    chi = chromatic_number_of_pairs(net)
    if strict and chi != s:
        raise ConsistencyError(
            f"crossing-pair chromatic number {chi} != max block boundary {s}"
        )
    return {
        "min_field_size": s,
        "chromatic_number": chi,
        "consistent": chi == s,
    }


def representability(net, field_spec, verify_limit=14):
    """Decide representability over the given field and build a witness.

    Positive: a representing matrix (single-u when possible, per-block
    otherwise), with the column matroid fully checked against the network
    matroid when the ground is small enough. Negative: a uniform minor on
    s+1 elements exhibited inside the matroid with rank checks.
    """
    from .dirichlet import dirichlet_matroid

    F = make_field(field_spec) if not hasattr(field_spec, "coerce") else field_spec
    s = max_block_boundary(net)
    size = F.size
    record = {
        "field": F.name,
        "max_block_boundary": s,
        "representable": size is None or size >= s,
    }
    n1 = len(net.edge_order) + 1
    if record["representable"]:
        try:
            u = block_injective_u(net, F)
            rep = representation_matrix(net, u, F)
        except FieldTooSmall:
            coloring = per_block_colorings(net, F)
            rep = gain_representation_matrix(net, coloring, F)
        record["witness"] = rep
        if n1 <= verify_limit:
            M = dirichlet_matroid(net)
            A = rep.column_matroid()
            ok = all(
                M.rank_mask(m) == A.rank_mask(m) for m in range(1 << n1)
            )
            if not ok:
                raise ConsistencyError("witness matrix has the wrong matroid")
            record["verified"] = True
        else:
            record["verified"] = False
        return record

    # negative: find a uniform minor too big for the field
    target = None
    for blk, tr in block_decomposition(net):
        bd = sorted(v for v in blk if net.is_boundary(v))
        if len(bd) == s:
            target = (blk, tr, bd)
            break
    blk, tr, bd = target
    boundary_edges = sorted(
        e
        for e in tr
        if any(net.is_boundary(w) for w in net.edges[e])
    )
    pick = []
    for b in bd:
        for e in boundary_edges:
            if b in net.edges[e]:
                pick.append(e)
                break
    M = dirichlet_matroid(net)
    contract = sorted(set(tr) - set(boundary_edges))
    delete = sorted(set(net.edge_order) - set(tr))
    minor = M.minor(contract=contract, delete=delete)
    keep = pick + [EH]
    umin = minor.restrict(keep)
    nn = len(keep)
    for mask in range(1 << nn):
        want = min(2, mask.bit_count())
        if umin.rank_mask(mask) != want:
            raise ConsistencyError("expected uniform minor does not check out")
    record["witness"] = {
        "uniform_minor_on": tuple(sorted(keep)),
        "contract": tuple(contract),
        "delete": tuple(delete),
        "block_boundary": tuple(bd),
    }
    record["verified"] = True
    return record
