"""Small exact fields: the rationals, prime fields, and GF(4).

Field objects expose a tiny uniform protocol (zero/one/add/mul/neg/inv/
coerce/element_stream) so elimination code is field-agnostic. GF(4) is
the one non-prime field required; its elements are 0, 1, w, w+1 coded as
0..3 with xor addition.
"""

from fractions import Fraction
from itertools import count

from .errors import BadParameter


class FieldQ:
    name = "Q"
    size = None

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        try:
            return Fraction(x)
        except (TypeError, ValueError):
            raise BadParameter(f"not a rational: {x!r}") from None

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise BadParameter("inverting zero")
        return 1 / Fraction(a)

    def element_stream(self):
        return (Fraction(k) for k in count())


class FieldGFp:
    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise BadParameter(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.size = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadParameter(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if not isinstance(x, int):
            raise BadParameter(f"not a field element: {x!r}")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise BadParameter("inverting zero")
        return pow(a, -1, self.p)

    def element_stream(self):
        return iter(range(self.p))


class FieldGF4:
    """GF(4) = GF(2)[w]/(w^2+w+1); elements 0,1,w,w+1 coded 0..3."""

    name = "GF(4)"
    size = 4
    zero = 0
    one = 1

    _MUL = (
        (0, 0, 0, 0),
        (0, 1, 2, 3),
        (0, 2, 3, 1),
        (0, 3, 1, 2),
    )
    _INV = {1: 1, 2: 3, 3: 2}
    _NAMES = ("0", "1", "w", "w+1")

    def coerce(self, x):
        if isinstance(x, str):
            try:
                return self._NAMES.index(x)
            except ValueError:
                raise BadParameter(f"not a GF(4) element: {x!r}") from None
        if isinstance(x, int) and 0 <= x <= 3:
            return x
        if isinstance(x, int):
            return x % 2  # integers land in the prime subfield
        raise BadParameter(f"not a GF(4) element: {x!r}")

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        return self._MUL[a][b]

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise BadParameter("inverting zero")
        return self._INV[a]

    def element_stream(self):
        return iter(range(4))


def make_field(spec):
    """'Q', 4, or a prime; accepts ints or strings."""
    if isinstance(spec, str):
        s = spec.strip()
        if s.upper() == "Q":
            return FieldQ()
        try:
            spec = int(s)
        except ValueError:
            raise BadParameter(f"unknown field {spec!r}") from None
    if spec == 4:
        return FieldGF4()
    if isinstance(spec, int) and spec >= 2:
        try:
            return FieldGFp(spec)
        except BadParameter:
            raise BadParameter(
                f"field size {spec} unsupported (use Q, a prime, or 4)"
            ) from None
    raise BadParameter(f"unknown field {spec!r}")
