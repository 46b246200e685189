"""Exact real-root isolation and interlacing checks.

Inputs have rational coefficients; they are cleared to primitive integer
forms first, and the remainder sequences stay in integers: gcds and Sturm
chains are primitive pseudo-remainder sequences (Collins, J. ACM 14, 1967;
Brown & Traub, J. ACM 18, 1971) scaled by positive factors only, so every
sign survives. On top of them: squarefree decomposition by Yun's algorithm,
bisection down to a requested interval width, and a multiplicity-aware
interlacing test for a pair of univariate polynomials. No floating point
anywhere, so the verdicts are rigorous for the given inputs.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import BadParameter, ZeroRestriction
from .polynomials import IntPoly

DEFAULT_WIDTH = Fraction(1, 1 << 40)


def _primitive(coeffs):
    """Integer coefficient list (constant first) with the denominators cleared
    and the positive content divided out, so the sign is kept. Coefficients
    are ints or Fractions."""
    if not coeffs:
        return []
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def _int_coeffs(p):
    """Primitive integer coefficient list (constant first), positive leading."""
    ints = _primitive(p.coeffs)
    return [-c for c in ints] if ints and ints[-1] < 0 else ints


def _sign_at(coeffs, point):
    """Sign of the polynomial at a rational point, via integer arithmetic."""
    num, den = point.numerator, point.denominator
    acc = coeffs[-1]
    pw = 1
    for i in range(len(coeffs) - 2, -1, -1):
        pw *= den
        acc = acc * num + coeffs[i] * pw
    return (acc > 0) - (acc < 0)


def _prem(a, b):
    """Remainder of a by b (integer lists, constant first, b nonzero), scaled
    by a positive integer: each step multiplies by |lead(b)| / gcd(top,
    lead(b)), never by a negative number, so the result has the signs of
    a mod b."""
    r = list(a)
    lead = b[-1]
    n = len(b)
    while len(r) >= n:
        top = r.pop()
        g = gcd(top, lead)
        mult, f = abs(lead) // g, top // g
        if lead < 0:
            f = -f
        off = len(r) - n + 1
        if mult != 1:
            r = [mult * c for c in r]
        for i in range(n - 1):
            r[off + i] -= f * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def poly_gcd(p, q):
    """Gcd of two IntPoly, returned primitive with positive leading term.

    A primitive pseudo-remainder sequence: each remainder's content is
    divided out before the next step.
    """
    a, b = _primitive(p.coeffs), _primitive(q.coeffs)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return IntPoly(_int_coeffs(IntPoly(a)))


def squarefree_part(p):
    if p.is_zero():
        raise BadParameter("squarefree part of the zero polynomial")
    d = p.derivative()
    if d.is_zero():
        return IntPoly.const(1)
    g = poly_gcd(p, d)
    return IntPoly(_int_coeffs(p.divide_exact(g)))


def yun_decomposition(p):
    """Squarefree factors with multiplicities: [(factor, k), ...].

    The product of factor**k recovers p up to a rational constant. Constant
    factors are dropped.
    """
    if p.is_zero():
        raise BadParameter("factoring the zero polynomial")
    p = IntPoly(_int_coeffs(p))
    if p.degree() < 1:
        return []
    d = p.derivative()
    g = poly_gcd(p, d)
    out = []
    c = p.divide_exact(g)
    w = d.divide_exact(g) - c.derivative()
    k = 1
    while c.degree() > 0:
        a = poly_gcd(c, IntPoly(_int_coeffs(w)) if not w.is_zero() else c)
        if a.degree() > 0:
            out.append((IntPoly(_int_coeffs(a)), k))
        c = c.divide_exact(a)
        w = w.divide_exact(a) - c.derivative()
        k += 1
    return out


def sturm_chain(s):
    """Sturm chain of a squarefree polynomial, integer-normalized.

    Chain elements are scaled by positive constants only; the sign structure
    is what makes the variation count work.
    """
    chain = [_primitive(s.coeffs)]
    d = s.derivative()
    if not d.is_zero():
        chain.append(_primitive(d.coeffs))
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(chain, point):
    prev = 0
    flips = 0
    for coeffs in chain:
        sg = _sign_at(coeffs, point)
        if sg == 0:
            continue
        if prev and sg != prev:
            flips += 1
        prev = sg
    return flips


def cauchy_bound(coeffs):
    """A power of two strictly beyond every real root."""
    lead = abs(coeffs[-1])
    top = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    bound = Fraction(top, lead) + 1
    m = 1
    while m < bound:
        m <<= 1
    return Fraction(m)


def _nonroot_between(coeffs, a, b, degree):
    """A point strictly between a and b where the polynomial is nonzero."""
    n = degree + 2
    order = []
    lo, hi = n // 2, n // 2 + 1
    while lo >= 1 or hi <= n - 1:
        if lo >= 1:
            order.append(lo)
            lo -= 1
        if hi <= n - 1:
            order.append(hi)
            hi += 1
    for j in order:
        m = a + (b - a) * Fraction(j, n)
        if _sign_at(coeffs, m) != 0:
            return m
    raise BadParameter("no nonroot point found; polynomial not squarefree?")


def isolate_squarefree(s, width=DEFAULT_WIDTH):
    """Disjoint isolating intervals for all real roots of a squarefree s.

    Returns a sorted list of (lo, hi) Fraction pairs, each containing exactly
    one real root, of width at most `width`. An exact rational root comes
    back as a zero-width pair (r, r); otherwise the endpoints are nonroots
    and s changes sign across the interval.
    """
    coeffs = _int_coeffs(s)
    if len(coeffs) <= 1:
        return []
    chain = sturm_chain(s)
    m = cauchy_bound(coeffs)
    va, vb = _variations(chain, -m), _variations(chain, m)
    stack = [(-m, m, va, vb)]
    raw = []
    while stack:
        a, b, ca, cb = stack.pop()
        n = ca - cb
        if n <= 0:
            continue
        if n == 1:
            raw.append((a, b))
            continue
        mid = _nonroot_between(coeffs, a, b, len(coeffs) - 1)
        cm = _variations(chain, mid)
        stack.append((a, mid, ca, cm))
        stack.append((mid, b, cm, cb))
    out = []
    for a, b in raw:
        sa = _sign_at(coeffs, a)
        exact = None
        while b - a > width:
            mid = (a + b) / 2
            sm = _sign_at(coeffs, mid)
            if sm == 0:
                exact = mid
                break
            if sm == sa:
                a = mid
            else:
                b = mid
        if exact is not None:
            out.append((exact, exact))
        else:
            out.append((a, b))
    out.sort()
    return out


def _multiplicity_in(factors, lo, hi):
    """Multiplicity of the root isolated by (lo, hi) in a Yun decomposition."""
    for coeffs, k in factors:
        if lo == hi:
            if _sign_at(coeffs, lo) == 0:
                return k
        elif _sign_at(coeffs, lo) * _sign_at(coeffs, hi) < 0:
            return k
    return 0


def interlace_check(low, high, width=DEFAULT_WIDTH):
    """Do the real roots of `low` interlace those of `high`?

    `high` is expected to have degree one more than `low` (the generic shape
    for the restricted grove polynomials). Shared roots are fine; so are
    repeated ones. The roots of the product are isolated once, each root is
    attributed its multiplicity in both inputs, and the verdict checks
    high_1 <= low_1 <= high_2 <= ... on the resulting multisets. Both inputs
    must also be real-rooted for the verdict to pass; the report says which
    part failed.
    """
    if low.is_zero() or high.is_zero():
        raise ZeroRestriction("interlacing needs two nonzero polynomials")
    # positive scalings move no root and change no multiplicity
    low = IntPoly(_primitive(low.coeffs))
    high = IntPoly(_primitive(high.coeffs))
    product = low * high
    s = squarefree_part(product)
    fac_low = [(_int_coeffs(f), k) for f, k in yun_decomposition(low)] if low.degree() else []
    fac_high = [(_int_coeffs(f), k) for f, k in yun_decomposition(high)] if high.degree() else []
    roots = []
    for lo, hi in isolate_squarefree(s, width):
        ml = _multiplicity_in(fac_low, lo, hi)
        mh = _multiplicity_in(fac_high, lo, hi)
        roots.append((lo, hi, ml, mh))
    real_low = sum(r[2] for r in roots) == low.degree()
    real_high = sum(r[3] for r in roots) == high.degree()
    seq_low = []
    seq_high = []
    for idx, (_, _, ml, mh) in enumerate(roots):
        seq_low.extend([idx] * ml)
        seq_high.extend([idx] * mh)
    interlaced = real_low and real_high and len(seq_high) == len(seq_low) + 1
    if interlaced:
        for i, v in enumerate(seq_low):
            if not (seq_high[i] <= v <= seq_high[i + 1]):
                interlaced = False
                break
    return {
        "real_rooted": real_low and real_high,
        "interlaced": interlaced,
        "roots": roots,
        "degree_low": low.degree(),
        "degree_high": high.degree(),
    }
