"""Exact polynomial types.

IntPoly: dense univariate polynomials over the rationals (usually integers),
coefficients stored constant term first.

MultiAffinePoly: multivariate polynomials of degree at most one in each
variable, over an ordered tuple of variables, stored as (coefficient,
variable positions) terms. The grove generating polynomials live here, and
it gives their values with partials and their restrictions to lines. full()
reads the terms compiled once into a DAG that shares equal suffixes
(sunflower(5)'s P1: 2,280 terms, 243 nodes, 1,058 edges);
restrictions to lines still loop over the terms.

compile_dag is the one DAG compiler: it takes several term lists and
returns one hash-consed node table with a root per polynomial; a
polynomial's own DAG is its one-root case. table_program compiles a table
into straight-line code.
"""

from fractions import Fraction

from .errors import BadParameter, MissingVariable, NotDivisible


def _num(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise BadParameter(f"not an exact number: {x!r}")


class IntPoly:
    """Univariate polynomial, exact coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_num(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def falling_factorial(cls, m):
        """x(x-1)...(x-m+1); the empty product for m == 0."""
        p = cls.const(1)
        for i in range(m):
            p = p * cls((-i, 1))
        return p

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise BadParameter("polynomial powers take nonnegative integers")
        out = IntPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, a):
        """The polynomial p(x + a)."""
        out = IntPoly()
        for c in reversed(self.coeffs):
            out = out * IntPoly((a, 1)) + c
        return out

    def divide_exact(self, other):
        """Exact polynomial division; NotDivisible if a remainder is left."""
        if other.is_zero():
            raise BadParameter("division by the zero polynomial")
        rem = [Fraction(c) for c in self.coeffs]
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        lead = Fraction(d[-1])
        for i in range(len(rem) - len(d), -1, -1):
            c = rem[i + len(d) - 1] / lead
            q[i] = c
            if c:
                for j, dc in enumerate(d):
                    rem[i + j] -= c * dc
        if any(rem):
            raise NotDivisible(
                f"remainder {[str(r) for r in rem if r]} in exact division"
            )
        return IntPoly(q)

    def pretty(self, var="t"):
        if not self.coeffs:
            return "0"
        bits = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = f"{mag}"
            else:
                head = "" if mag == 1 else f"{mag}"
                body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
            bits.append((sign, body))
        first_sign, first_body = bits[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in bits[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPoly({self.pretty()})"


def compile_dag(term_lists):
    """Several polynomials' terms as one minimal DAG: (nodes, roots).

    Each list holds (coefficient, increasing position tuple) terms. Read as
    position tuples, a list's terms form a trie; merging every two nodes
    whose suffix sets, with coefficients, are equal leaves a zero-suppressed
    decision diagram (Minato, DAC 1993), and one hash-consing table for all
    the lists lets the polynomials share their equal suffixes too. A node is
    (end, edges): `end` is the summed coefficient of the terms that end
    there, and `edges` lists (position, child) by increasing position, every
    position below a node being larger than the one on the edge into it. So
    the node's value is end + sum of x_i * value(child). Nodes come children
    before parents, and roots[k] is the node whose value is the k-th
    polynomial's; with one list every node lies below the root, so the root
    is the last node.
    """
    nodes = []
    ids = {}

    def build(group, depth):  # the terms that share a prefix of length depth
        end = 0
        heads = {}
        for item in group:
            term = item[1]
            if len(term) > depth:
                heads.setdefault(term[depth], []).append(item)
            else:
                end += item[0]
        key = (end, tuple((i, build(heads[i], depth + 1)) for i in sorted(heads)))
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
        return ids[key]

    roots = [build(terms, 0) for terms in term_lists]
    return nodes, roots


# Nodes per compiled piece: compiling peaks at about 3.6 KB a line.
TABLE_CHUNK = 64


def table_sources(nodes, roots, nvars):
    """Sources of straight-line functions for a compile_dag table.

    piece<lo>(x, v) unpacks the point x, gives each of its TABLE_CHUNK
    nodes a line, v12 = 3 + x4*v7 + x9*v[2] (earlier pieces' values read
    off v), and appends their values to v; table(*x) runs the pieces and
    returns the roots' values. Only ints and generated names get in.
    """
    unpack = "    (%s) = x" % "".join("x%d, " % i for i in range(nvars))
    sources = []
    calls = []
    for lo in range(0, len(nodes), TABLE_CHUNK):
        hi = min(lo + TABLE_CHUNK, len(nodes))
        lines = ["def piece%d(x, v):" % lo, unpack]
        for k in range(lo, hi):
            end, edges = nodes[k]
            if type(end) is not int:
                raise BadParameter(f"not an integer coefficient: {end!r}")
            parts = [("x%d*v%d" if child >= lo else "x%d*v[%d]") % (i, child) for i, child in edges]
            if end or not parts:
                parts.insert(0, "%d" % end)
            lines.append("    v%d = %s" % (k, " + ".join(parts)))
        lines.append("    v += (%s)" % "".join("v%d, " % k for k in range(lo, hi)))
        sources.append("\n".join(lines) + "\n")
        calls.append("    piece%d(x, v)\n" % lo)
    roots = "".join("v[%d], " % r for r in roots)
    sources.append("def table(*x):\n    v = []\n%s    return (%s)\n" % ("".join(calls), roots))
    return sources


def table_program(nodes, roots, nvars):
    """table_sources compiled one at a time: table(*point) gives the
    roots' values."""
    scope = {}
    for source in table_sources(nodes, roots, nvars):
        exec(compile(source, "<node table>", "exec"), scope)
    return scope["table"]


class MultiAffinePoly:
    """Multiaffine polynomial over an ordered tuple of variables.

    Each term is a coefficient and a tuple of variable positions in
    increasing order; `family` lists each term's set of variables and
    `coeffs`, when given, their coefficients (1 throughout otherwise). The
    variables keep the caller's order, because positions index the point
    vectors every method takes and the order of reported variable pairs.
    """

    __slots__ = ("variables", "terms", "degree", "_dag")

    def __init__(self, variables, family, coeffs=None):
        self.variables = tuple(variables)
        idx = {v: i for i, v in enumerate(self.variables)}
        self.terms = []
        deg = 0
        for k, s in enumerate(family):
            c = 1 if coeffs is None else coeffs[k]
            try:
                self.terms.append((c, tuple(sorted(idx[v] for v in s))))
            except KeyError as exc:
                raise MissingVariable(f"term uses unknown variable {exc.args[0]!r}") from None
            deg = max(deg, len(s))
        self.degree = deg
        self._dag = None

    def dag(self):
        """The terms compiled into a node table on first use, the root last:
        compile_dag's one-root case."""
        if self._dag is None:
            self._dag = compile_dag([self.terms])[0]
        return self._dag

    def full(self, v):
        """(value, first partials list, second partials dict keyed (i, j), i < j).

        The bottom-up pass also keeps each node's gradient over the
        variables below it, a dict; then a top-down pass carries each node's
        prefix weight fwd(u), the sum over root paths of their products. A
        term holding x_i passes one edge (u, i, w), so d_i p is the sum of
        fwd(u) * value(w) over the edges labelled i, and d_i d_j p (i < j)
        the sum of fwd(u) * d_j value(w). Any exact number type works, and
        a zero coordinate needs no special case.
        """
        nodes = self.dag()
        val = []
        grads = []
        for end, edges in nodes:
            s = end
            g = {}
            # by decreasing position, so g holds no key i when edge i is reached
            for i, child in reversed(edges):
                w = val[child]
                g[i] = w
                x = v[i]
                if x:
                    s += x * w
                    for j, d in grads[child].items():
                        g[j] = g.get(j, 0) + x * d
            val.append(s)
            grads.append(g)
        fwd = [0] * len(nodes)
        fwd[-1] = 1
        first = [0] * len(self.variables)
        rows = [{} for _ in self.variables]
        for u in range(len(nodes) - 1, -1, -1):
            f = fwd[u]
            if not f:
                continue
            for i, child in nodes[u][1]:
                x = v[i]
                if x:
                    fwd[child] += f * x
                first[i] += f * val[child]
                row = rows[i]
                for j, d in grads[child].items():
                    row[j] = row.get(j, 0) + f * d
        second = {(i, j): d for i, row in enumerate(rows) for j, d in row.items()}
        return val[-1], first, second

    def restrict_line(self, base, direction):
        """Coefficients (constant first) of t -> p(base + t*direction).

        base and direction are vectors in variable order.
        """
        out = [0] * (self.degree + 1)
        for c, term in self.terms:
            prod = [c]
            for i in term:
                b, d = base[i], direction[i]
                nxt = [0] * (len(prod) + 1)
                for k, pc in enumerate(prod):
                    if pc:
                        nxt[k] += pc * b
                        nxt[k + 1] += pc * d
                prod = nxt
            for k, pc in enumerate(prod):
                out[k] += pc
        return out

    def __repr__(self):
        return f"MultiAffinePoly({len(self.terms)} terms on {len(self.variables)} vars)"
