"""Exact polynomial types.

IntPoly: dense univariate polynomials over the rationals (usually integers),
coefficients stored constant term first.

MultiAffinePoly: multivariate polynomials of degree at most one in each
variable, stored as a map from variable subsets to coefficients. Generating
polynomials of set families live here.
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


class MultiAffinePoly:
    """Multiaffine polynomial: sum of coeff * prod of distinct variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(sorted(set(variables)))
        vset = frozenset(self.variables)
        clean = {}
        for mono, c in (terms or {}).items():
            fs = frozenset(mono)
            if not fs <= vset:
                raise MissingVariable(
                    f"term uses variables outside {sorted(vset)}: {sorted(fs)}"
                )
            c = _num(c) if not isinstance(c, Fraction) else c
            if c:
                clean[fs] = clean.get(fs, 0) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def from_set_family(cls, family, variables):
        terms = {}
        for fs in family:
            key = frozenset(fs)
            terms[key] = terms.get(key, 0) + 1
        return cls(variables, terms)

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((len(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {len(m) for m in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, MultiAffinePoly)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiAffinePoly(self.variables, {frozenset(): other})
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiAffinePoly(
            set(self.variables) | set(other.variables), out
        )

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            raise BadParameter("multiaffine polynomials only scale by numbers")
        return MultiAffinePoly(
            self.variables, {m: c * scalar for m, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def restrict_line(self, base, direction):
        """Coefficients (constant first) of t -> p(base + t*direction)."""
        for v in self.variables:
            if v not in base or v not in direction:
                raise MissingVariable(f"line misses variable {v!r}")
        deg = self.degree()
        out = [0] * (max(deg, 0) + 1)
        for m, c in self.terms.items():
            prod = [c]
            for v in m:
                b, d = base[v], direction[v]
                nxt = [0] * (len(prod) + 1)
                for i, pc in enumerate(prod):
                    if pc:
                        nxt[i] += pc * b
                        nxt[i + 1] += pc * d
                prod = nxt
            for i, pc in enumerate(prod):
                out[i] += pc
        return out

    def __repr__(self):
        return f"MultiAffinePoly({len(self.terms)} terms on {len(self.variables)} vars)"
