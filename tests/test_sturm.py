import random
from fractions import Fraction

import pytest

from dirmat import sturm
from dirmat.electrical import line_restriction, sample_point
from dirmat.errors import ZeroRestriction
from dirmat.polynomials import IntPoly
from dirmat.sturm import (
    _int_coeffs,
    _variations,
    interlace_check,
    isolate_roots,
    poly_gcd,
    squarefree_part,
    sturm_chain,
    yun_decomposition,
)
from dirmat.verify import corpus

from bruteforce import frac_gcd, frac_sturm_chain


def poly_from_roots(roots):
    out = IntPoly((1,))
    for r in roots:
        out = out * IntPoly((-r, 1))
    return out


def test_isolate_simple_roots():
    p = poly_from_roots([1, 2, 3])
    intervals = isolate_roots(p)
    assert len(intervals) == 3
    for (lo, hi, mult), want in zip(intervals, [1, 2, 3]):
        assert lo <= want <= hi
        assert mult == 1


def test_isolate_with_multiplicity():
    p = poly_from_roots([1, 1, 4])
    intervals = isolate_roots(p)
    # two distinct roots, the first one doubled
    assert len(intervals) == 2
    assert sorted(mult for _, _, mult in intervals) == [1, 2]


def test_yun_splits_by_multiplicity():
    p = poly_from_roots([2, 2, 5])
    fac = yun_decomposition(p)
    degrees = sorted((f.degree(), k) for f, k in fac if f.degree() > 0)
    assert degrees == [(1, 1), (1, 2)]


def test_squarefree_part():
    p = poly_from_roots([1, 1, 1, 7])
    s = squarefree_part(p)
    assert s.degree() == 2


def test_interlace_shared_root():
    low = IntPoly((0, 2))            # 2t
    high = IntPoly((0, 0, 1))        # t^2
    rep = interlace_check(low, high)
    assert rep["real_rooted"]
    assert rep["interlaced"]


def test_interlace_strict():
    low = IntPoly((-2, 2))                       # 2t - 2, root 1
    high = IntPoly((-3, 1)) * IntPoly((1, 1))    # roots 3 and -1
    rep = interlace_check(low, high)
    assert rep["interlaced"]


def test_interlace_failure():
    low = IntPoly((-5, 1))                       # root 5
    high = IntPoly((-1, 1)) * IntPoly((-2, 1))   # roots 1 and 2
    rep = interlace_check(low, high)
    assert not rep["interlaced"]


def test_interlace_rejects_zero():
    with pytest.raises(ZeroRestriction):
        interlace_check(IntPoly(()), IntPoly((1, 1)))


def test_not_real_rooted_detected():
    low = IntPoly((1, 1))
    high = IntPoly((1, 0, 1))  # t^2 + 1 has no real roots
    rep = interlace_check(low, high)
    assert not rep["real_rooted"]
    assert not rep["interlaced"]


def test_isolating_intervals_are_disjoint_and_ordered():
    p = poly_from_roots([-3, 0, 1, 2, 9])
    intervals = isolate_roots(p)
    assert len(intervals) == 5
    for i in range(len(intervals) - 1):
        assert intervals[i][1] <= intervals[i + 1][0]
    # every interval is narrow
    for lo, hi, _ in intervals:
        assert hi - lo <= Fraction(1, 32)


def _random_factors(rng, count):
    # linear factors q x - p with repeats, so roots repeat and are shared
    pool = [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
    return [rng.choice(pool) for _ in range(count)]


def _product(factors, scale=1):
    out = IntPoly.const(scale)
    for p, q in factors:
        out = out * IntPoly((-p, q))
    return out


def test_poly_gcd_matches_fraction_euclid():
    rng = random.Random("poly-gcd")
    for _ in range(200):
        shared = _random_factors(rng, rng.randint(0, 3))
        a = _product(shared + _random_factors(rng, rng.randint(0, 4)), rng.choice([-3, -1, 2]))
        b = _product(shared + _random_factors(rng, rng.randint(1, 4)), Fraction(rng.choice([-5, 1, 7]), 3))
        want = IntPoly(_int_coeffs(IntPoly(frac_gcd(a.coeffs, b.coeffs))))
        assert poly_gcd(a, b) == want
        assert poly_gcd(a, IntPoly()) == IntPoly(_int_coeffs(a))


def _frac_variations(chain, x):
    signs = [s for s in (sum(c * x**i for i, c in enumerate(p)) for p in chain) if s]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))


def test_sturm_variations_match_fraction_chain():
    rng = random.Random("sturm-chain")
    for _ in range(60):
        roots = {Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))}
        p = _product([(r.numerator, r.denominator) for r in roots], rng.choice([-2, 3]))
        p = p + IntPoly.const(rng.choice([0, 0, 1, -1]))  # some lose real roots
        s = squarefree_part(p)
        chain, oracle = sturm_chain(s), frac_sturm_chain(s.coeffs)
        assert len(chain) == len(oracle)
        for _ in range(10):
            x = Fraction(rng.randint(-60, 60), rng.randint(1, 8))
            assert _variations(chain, x) == _frac_variations(oracle, x)


def _fraction_gcd(p, q):
    return IntPoly(_int_coeffs(IntPoly(frac_gcd(p.coeffs, q.coeffs))))


def _fraction_chain(s):
    # the oracle chain, brought to the integer form _variations reads
    return [sturm._primitive(c) for c in frac_sturm_chain(s.coeffs)]


def test_interlace_reports_match_fraction_route(monkeypatch):
    # interlacing_sweep's lines, three per corpus network, through the
    # integer code and again with the gcds and Sturm chains in Fractions
    lines = []
    for net in corpus():
        rng = random.Random(f"interlace:{net.name}:0")
        for _ in range(3):
            base = sample_point(rng, net.edge_order)
            direction = sample_point(rng, net.edge_order, positive=True)
            line = line_restriction(net, base, direction)
            lines.append((line["P0"], line["P1"]))
    got = [interlace_check(low, high) for low, high in lines]
    monkeypatch.setattr(sturm, "poly_gcd", _fraction_gcd)
    monkeypatch.setattr(sturm, "sturm_chain", _fraction_chain)
    assert got == [interlace_check(low, high) for low, high in lines]
    assert all(rep["interlaced"] for rep in got)
