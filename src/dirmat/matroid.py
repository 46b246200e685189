"""Matroids as rank oracles over labelled ground sets.

A Matroid wraps a rank function on bitmasks. Everything else (bases,
circuits, duality, minors, connectivity, characteristic polynomials, broken
circuit complexes) is derived from the oracle, with explicit size guards on
the exponential scans. Circuits come from one walk over the subsets of the
scope, filling an independence table: the rank is asked only of a set whose
one-smaller subsets are all independent, and tells independent from circuit.
"""

from .errors import (
    BadParameter,
    GroundTooLarge,
    OverlappingSets,
    UnknownLabel,
)
from .polynomials import IntPoly


class Matroid:
    def __init__(self, ground, rank_of_mask, name="M"):
        self.ground = tuple(ground)
        if len(set(self.ground)) != len(self.ground):
            raise BadParameter("duplicate ground labels")
        self.index = {e: i for i, e in enumerate(self.ground)}
        self._rank_mask = rank_of_mask
        self.name = name
        self.full_mask = (1 << len(self.ground)) - 1
        self._full_rank = None
        self._circuit_sets = {}  # circuit mask -> frozenset, filled by circuits

    # -- label/mask plumbing ---------------------------------------------

    def mask_of(self, labels):
        m = 0
        for e in labels:
            i = self.index.get(e)
            if i is None:
                raise UnknownLabel(f"not a ground element: {e!r}")
            m |= 1 << i
        return m

    def labels_of(self, mask):
        return frozenset(
            e for e, i in self.index.items() if mask >> i & 1
        )

    def _guard(self, limit, what):
        if len(self.ground) > limit:
            raise GroundTooLarge(
                f"{what} scans subsets of {len(self.ground)} elements "
                f"(limit {limit}); raise the limit to force it"
            )

    # -- rank and friends --------------------------------------------------

    def rank(self, labels=None):
        if labels is None:
            return self.full_rank()
        return self._rank_mask(self.mask_of(labels))

    def rank_mask(self, mask):
        return self._rank_mask(mask)

    def full_rank(self):
        if self._full_rank is None:
            self._full_rank = self._rank_mask(self.full_mask)
        return self._full_rank

    # -- enumerations -------------------------------------------------------

    def bases(self, limit=20):
        """All bases, as a sorted tuple of frozensets."""
        self._guard(limit, "basis enumeration")
        n = len(self.ground)
        r = self.full_rank()
        out = []
        rk = self._rank_mask

        def grow(start, mask, size):
            if size == r:
                out.append(self.labels_of(mask))
                return
            for i in range(start, n - (r - size) + 1):
                m2 = mask | 1 << i
                if rk(m2) == size + 1:
                    grow(i + 1, m2, size + 1)

        grow(0, 0, 0)
        return tuple(sorted(out, key=sorted))

    def circuits(self, within=None, limit=16):
        """All circuits (minimal dependent sets), optionally inside `within`,
        sorted by size, then labels. Each circuit is one frozenset, kept on
        the matroid and handed out again by later scans."""
        scope = self.full_mask if within is None else self.mask_of(within)
        t = scope.bit_count()
        if t > limit:
            raise GroundTooLarge(f"circuit scan over {t} elements (limit {limit})")
        # local index s -> global mask lo[s & low] | hi[s >> h]
        h = t // 2
        low = (1 << h) - 1
        lo, hi = [0], [0]
        m = scope
        while m:
            b = m & -m
            half = lo if len(lo) <= low else hi
            half += [x | b for x in half]
            m ^= b
        rk = self._rank_mask
        dep = bytearray(1 << t)
        found = []
        for k in range(t):
            # the sets with top bit k: s = r | top is dependent when r is
            # (copied over) or when a dependent one-smaller set marked it;
            # only an unmarked s is asked, and its rank tells independent
            # from circuit
            top = 1 << k
            dep[top : top << 1] = dep[:top]
            r = dep.find(0, 0, top)
            while r >= 0:
                s = r | top
                if not dep[s]:
                    g = lo[s & low] | hi[s >> h]
                    if rk(g) <= r.bit_count():
                        dep[s] = 1
                        found.append(g)
                if dep[s]:
                    free = (top - 1) & ~r
                    while free:
                        b = free & -free
                        dep[s | b] = 1
                        free ^= b
                r = dep.find(0, r + 1, top)
        kept = self._circuit_sets
        out = []
        for g in found:
            c = kept.get(g)
            if c is None:
                c = kept[g] = self.labels_of(g)
            out.append(c)
        return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))

    def is_circuit_mask(self, mask):
        """Whether a mask is a circuit: of rank one less than its size, and
        of the same rank after dropping any one element."""
        size = mask.bit_count()
        rk = self._rank_mask
        if size == 0 or rk(mask) != size - 1:
            return False
        m = mask
        while m:
            b = m & -m
            if rk(mask ^ b) != size - 1:
                return False
            m ^= b
        return True

    def cocircuits(self, limit=16):
        return self.dual().circuits(limit=limit)

    # -- constructions ------------------------------------------------------

    def dual(self):
        full = self.full_mask
        r = self.full_rank()
        rk = self._rank_mask

        def dual_rank(mask):
            return mask.bit_count() + rk(full & ~mask) - r

        return Matroid(self.ground, dual_rank, name=f"{self.name}*")

    def minor(self, contract=(), delete=()):
        cset, dset = set(contract), set(delete)
        if cset & dset:
            raise OverlappingSets(
                f"contract and delete overlap: {sorted(cset & dset)}"
            )
        cm = self.mask_of(cset)
        dm = self.mask_of(dset)
        keep = [e for e in self.ground if e not in cset and e not in dset]
        old_bits = [self.index[e] for e in keep]
        rc = self._rank_mask(cm)
        rk = self._rank_mask

        def minor_rank(mask):
            old = cm
            m = mask
            while m:
                b = m & -m
                old |= 1 << old_bits[b.bit_length() - 1]
                m ^= b
            return rk(old) - rc

        tag = ""
        if cset:
            tag += f"/{sorted(cset)}"
        if dset:
            tag += f"\\{sorted(dset)}"
        return Matroid(keep, minor_rank, name=self.name + tag)

    def restrict(self, labels):
        drop = [e for e in self.ground if e not in set(labels)]
        return self.minor(delete=drop)

    @classmethod
    def graphic(cls, mg):
        """Cycle matroid of a multigraph."""
        vidx = {v: i for i, v in enumerate(mg.vertices)}
        ends = [
            (vidx[mg.edges[e][0]], vidx[mg.edges[e][1]]) for e in mg.edge_order
        ]
        return cls(mg.edge_order, graphic_rank(len(vidx), ends), name="M(graph)")

    # -- invariants ---------------------------------------------------------

    def char_poly(self, limit=20):
        """Characteristic polynomial by signed subset expansion."""
        self._guard(limit, "characteristic polynomial")
        r = self.full_rank()
        rk = self._rank_mask
        acc = [0] * (r + 1)
        for mask in range(self.full_mask + 1):
            k = r - rk(mask)
            if mask.bit_count() & 1:
                acc[k] -= 1
            else:
                acc[k] += 1
        return IntPoly(acc)

    def reduced_char_poly(self, limit=20):
        return self.char_poly(limit=limit).divide_exact(IntPoly((-1, 1)))

    def beta(self, limit=20):
        """Crapo beta invariant via the signed rank sum."""
        self._guard(limit, "beta invariant")
        rk = self._rank_mask
        total = 0
        for mask in range(self.full_mask + 1):
            if mask.bit_count() & 1:
                total -= rk(mask)
            else:
                total += rk(mask)
        return total if self.full_rank() % 2 == 0 else -total

    def tutte_connectivity(self, limit=20):
        """Smallest k admitting a k-separation; ground size when none exists."""
        self._guard(limit, "connectivity scan")
        n = len(self.ground)
        r = self.full_rank()
        rk = self._rank_mask
        best = None
        for mask in range(1, self.full_mask):
            if mask > (self.full_mask & ~mask):
                continue  # each split once
            a = mask.bit_count()
            mu = min(a, n - a)
            con = rk(mask) + rk(self.full_mask & ~mask) - r
            k = con + 1
            if k <= mu and (best is None or k < best):
                best = k
                if best == 1:
                    break
        return best if best is not None else n

    # -- broken circuits ----------------------------------------------------

    def nbc_counts(self, order=None, limit=16):
        """Sizes vector of the broken-circuit complex: entry i counts the
        i-element subsets that contain no broken circuit w.r.t. the order."""
        order = list(order) if order is not None else sorted(self.ground)
        if sorted(order) != sorted(self.ground):
            raise BadParameter("order must list the ground set exactly")
        pos = {e: i for i, e in enumerate(order)}
        broken = []
        for c in self.circuits(limit=limit):
            least = min(c, key=pos.__getitem__)
            broken.append(self.mask_of(c - {least}))
        bits = [self.index[e] for e in order]
        counts = []

        def grow(start, mask, size):
            if size == len(counts):
                counts.append(0)
            counts[size] += 1
            for i in range(start, len(bits)):
                m2 = mask | 1 << bits[i]
                if not any(bm & m2 == bm for bm in broken):
                    grow(i + 1, m2, size + 1)

        # a loop breaks the empty set, and then no subset counts
        if 0 not in broken:
            grow(0, 0, 0)
        return counts

    # -- isomorphism ----------------------------------------------------------

    def iso_check(self, other, mapping, limit=12):
        """Whether `mapping` (each ground label to a label of `other`) is a
        rank-preserving bijection: the mapping as a dict, or None."""
        n = len(self.ground)
        if n != len(other.ground) or self.full_rank() != other.full_rank():
            return None
        self._guard(limit, "isomorphism scan")
        img = [other.index[mapping[e]] for e in self.ground]
        if len(set(img)) != n:
            return None
        for m in range(1 << n):
            mm = 0
            t = m
            while t:
                b = t & -t
                mm |= 1 << img[b.bit_length() - 1]
                t ^= b
            if self._rank_mask(m) != other._rank_mask(mm):
                return None
        return dict(mapping)


def union_find(nv, ends, terminals=()):
    """One union-find pass over the edges of a bitmask.

    Bit i of a mask is the edge joining the vertex indices ends[i] (of nv
    vertices). The returned function gives, for a mask, the number of
    merges a union-find with path halving makes over the set edges (the
    graphic rank of the set), the number of distinct roots among the
    vertex indices `terminals` (how many components they fall into) and
    the parent list the pass leaves, whose root walks name the components.
    """

    def run(mask):
        parent = list(range(nv))
        merges = 0
        while mask:
            b = mask & -mask
            a, c = ends[b.bit_length() - 1]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            if a != c:
                parent[a] = c
                merges += 1
            mask ^= b
        roots = set()
        for t in terminals:
            while parent[t] != t:
                t = parent[t]
            roots.add(t)
        return merges, len(roots), parent

    return run


def graphic_rank(nv, ends):
    """Rank function of a cycle matroid on bitmasks (see `union_find`)."""
    run = union_find(nv, ends)
    return lambda mask: run(mask)[0]


def beta_from_char_poly(chi, rank):
    """Beta invariant from the characteristic polynomial: up to sign, its
    derivative at 1."""
    d = chi.derivative()(1)
    return d if (rank - 1) % 2 == 0 else -d
