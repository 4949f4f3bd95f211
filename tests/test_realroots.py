import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trajspace import realroots
from trajspace.bivar import SPoly, SturmHabicht, sylvester_resultant
from trajspace.polys import (
    zp,
    zp_add,
    zp_degree,
    zp_eval_fr,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_rem,
    zp_scale,
    zp_squarefree_part,
)
from trajspace.realroots import (
    AlgebraicNumber,
    isolate_real_roots,
    real_root_multiplicities,
    real_roots_with_multiplicities,
    root_bound,
    separate,
    sturm_chain,
    window_counts,
)

from conftest import cleared, qq_poly_range, subresultant, zp_pow


def poly_from_roots(roots):
    p = (1,)
    for r in roots:
        p = zp_mul(p, zp([-r.numerator, r.denominator]))
    return p


def test_isolation_simple_integer_roots():
    p = poly_from_roots([Fraction(r) for r in (-3, 1, 4)])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for (lo, hi), root in zip(ivs, (-3, 1, 4)):
        assert lo <= root <= hi


@given(st.lists(st.integers(-8, 8).map(Fraction), min_size=1, max_size=5, unique=True))
@settings(max_examples=60, deadline=None)
def test_isolation_counts_and_brackets(roots):
    p = poly_from_roots(sorted(roots))
    ivs = isolate_real_roots(p)
    assert len(ivs) == len(roots)
    for (lo, hi), root in zip(ivs, sorted(roots)):
        assert lo <= root <= hi


def test_adjacent_rational_roots_isolated():
    # regression: an exact midpoint hit must not swallow neighbors
    p = zp([15, -16, 4])  # (2x - 3)(2x - 5)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 2


def _qq_value(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _qq_sign(p, x):
    acc = _qq_value(p, x)
    return (acc > 0) - (acc < 0)


def qq_isolate(p):
    """Reference: Sturm bisection of a square-free p on Fraction endpoints,
    with Fraction Horner for every sign."""
    chain = sturm_chain(p)

    def var(x):
        signs = [s for s in (_qq_sign(q, x) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    out = []

    def recurse(lo, hi, nlo, nhi):
        if nlo - nhi == 0:
            return
        if nlo - nhi == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if _qq_sign(p, mid) == 0:
            out.append((mid, mid))
            eps = (hi - lo) / 4
            while True:
                if _qq_sign(p, mid - eps) != 0 and _qq_sign(p, mid + eps) != 0:
                    nml, nmr = var(mid - eps), var(mid + eps)
                    if nml - nmr == 1:
                        break
                eps /= 2
            recurse(lo, mid - eps, nlo, nml)
            recurse(mid + eps, hi, nmr, nhi)
        else:
            nm = var(mid)
            recurse(lo, mid, nlo, nm)
            recurse(mid, hi, nm, nhi)

    b = root_bound(p)
    recurse(-b, b, var(-b), var(b))
    return sorted(out)


@st.composite
def midpoint_root_polys(draw):
    """Square-free products of integer roots, rational linear factors and
    small quadratics.  Integer roots often fall on bisection midpoints (0,
    the first one, always does); roots close to them, down to 1/1000 away,
    make the search for a bracket around such a root halve it many times."""
    p = (draw(st.sampled_from([1, -1, 3])),)
    for r in draw(st.lists(st.integers(-6, 6), max_size=4, unique=True)):
        p = zp_mul(p, (-r, 1))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            f = zp([-draw(st.integers(-12, 12)), draw(st.sampled_from([2, 3, 4, 8, 16, 1000]))])
        else:
            f = zp(draw(st.lists(st.integers(-30, 30), min_size=3, max_size=3)))
        if len(f) >= 2:
            p = zp_mul(p, f)
    return zp_squarefree_part(p)


@given(midpoint_root_polys())
@settings(max_examples=200, deadline=None)
def test_isolation_matches_fraction_bisection(p):
    assert isolate_real_roots(p) == qq_isolate(p)


def test_isolation_matches_fraction_bisection_on_midpoint_roots():
    cases = [
        ([0, Fraction(1, 1000)], 0),
        ([Fraction(-1, 1000), 0, Fraction(1, 1000)], 0),
        ([1, 2, 3], 3),  # bound 12: midpoints 0, 6, then 3
        ([-2, Fraction(1998, 1000), 2, 5], 2),
    ]
    polys = [(poly_from_roots([Fraction(r) for r in roots]), root) for roots, root in cases]
    polys.append((zp_mul(zp([0, 1]), zp([-5, 0, 1])), 0))  # 0 and +-sqrt(5)
    for p, root in polys:
        ivs = isolate_real_roots(p)
        assert (Fraction(root), Fraction(root)) in ivs
        assert ivs == qq_isolate(p)


def qq_bisect(p, lo, hi, steps, lo_sign=None):
    """Reference: ``steps`` bisection steps on Fraction ends, stopping on a
    midpoint that is a root.  Returns (lo, hi, the sign of p at lo, steps
    taken)."""
    if lo == hi or steps < 1:
        return lo, hi, lo_sign, 0
    if lo_sign is None:
        lo_sign = _qq_sign(p, lo)
    for taken in range(1, steps + 1):
        mid = (lo + hi) / 2
        v = _qq_sign(p, mid)
        if v == 0:
            return mid, mid, lo_sign, taken
        if lo_sign * v < 0:
            hi = mid
        else:
            lo, lo_sign = mid, v
    return lo, hi, lo_sign, steps


def _count_evaluations(monkeypatch):
    calls = []
    sign_at, eval_hom = realroots.zp_sign_at, realroots.zp_eval_hom
    monkeypatch.setattr(realroots, "zp_sign_at", lambda p, x: calls.append(x) or sign_at(p, x))
    monkeypatch.setattr(realroots, "zp_eval_hom",
                        lambda p, n, d: calls.append(n) or eval_hom(p, n, d))
    return calls


def test_refine_evaluates_once_per_step(monkeypatch):
    # below realroots.JUMP_STEPS, refine bisects step by step
    alpha = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    calls = _count_evaluations(monkeypatch)
    alpha.refine(realroots.JUMP_STEPS - 1)
    ref_lo, ref_hi, _, _ = qq_bisect(alpha.poly, Fraction(1), Fraction(2), realroots.JUMP_STEPS - 1)
    assert (alpha.lo, alpha.hi) == (ref_lo, ref_hi)
    assert len(calls) == realroots.JUMP_STEPS  # the sign at the first lo, then one per step


def test_long_refine_jumps_to_the_bisection_cell(monkeypatch):
    alpha = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    calls = _count_evaluations(monkeypatch)
    alpha.refine(40)
    ref_lo, ref_hi, _, _ = qq_bisect(alpha.poly, Fraction(1), Fraction(2), 40)
    assert (alpha.lo, alpha.hi, alpha._lo_sign, alpha._d) == (ref_lo, ref_hi, -1, 2**40)
    assert len(calls) <= 4  # the sign at lo and the certified cell's ends


def test_long_refine_stops_where_bisection_hits_the_root(monkeypatch):
    # 5 / 2^20 is a midpoint first at level 20 of [0, 1]
    alpha = AlgebraicNumber(zp([-5, 2**20]), Fraction(0), Fraction(1))
    calls = _count_evaluations(monkeypatch)
    alpha.refine(40)
    assert alpha.is_rational and (alpha.lo, alpha._d) == (Fraction(5, 2**20), 2**20)
    assert len(calls) <= 4


@st.composite
def refine_cases(draw, kinds=("rational", "dyadic", "quadratic", "huge", "cluster")):
    """(poly, lo, hi, prior refine steps, width) for an isolating interval.

    The kinds of root, any of them negative:
    - r = n/2^j of a linear polynomial, with lo and hi at r - a/2^e and
      r + b/2^e, so that a bisection midpoint hits r exactly when a + b is a
      power of two;
    - a dyadic n/2^j with j in 8..45, inside integer ends 2^t apart, so that
      bisection hits it at step j + t, past realroots.JUMP_STEPS;
    - a quadratic irrational, at times with its coefficients scaled above
      2^1100;
    - +-2^550 sqrt(d), where the square overflows the floats;
    - one of 1/3 and 1/3 + 2^-e, e in 50..90, closer than floats tell apart.
    The width is fixed, down to 2^-100, or a multiple of hi - lo, at times
    wider than the interval."""
    kind = draw(st.sampled_from(kinds))
    if kind == "rational":
        r = Fraction(draw(st.integers(-40, 40)), 2 ** draw(st.integers(0, 3)))
        p = zp([-r.numerator, r.denominator])
        e = 2 ** draw(st.integers(0, 4))
        lo = r - Fraction(draw(st.integers(1, 16)), e)
        hi = r + Fraction(draw(st.integers(1, 16)), e)
    elif kind == "dyadic":
        j = draw(st.integers(8, 45))
        r = Fraction(2 * draw(st.integers(-2**(j + 1), 2**(j + 1))) + 1, 2**j)
        p = zp([-r.numerator, r.denominator])
        lo = Fraction(math.floor(r) - draw(st.integers(0, 2)))
        hi = lo + 2 ** draw(st.integers(2, 4))
    elif kind == "quadratic":
        b, d = draw(st.integers(-2, 2)), draw(st.sampled_from([2, 3, 5, 7, 10]))
        p = zp([b * b - d, -2 * b, 1])              # roots b +- sqrt(d)
        lo, hi = draw(st.sampled_from(isolate_real_roots(p)))
        if draw(st.booleans()):
            p = zp_scale(p, 2**1101 + draw(st.integers(0, 2**64)))
    elif kind == "huge":
        p = zp([-draw(st.sampled_from([2, 3, 5, 7])) << 1100, 0, 1])
        lo, hi = draw(st.sampled_from(isolate_real_roots(p)))
    else:
        e = draw(st.integers(50, 90))
        p = zp_mul(zp([-1, 3]), zp([-(2**e + 3), 3 * 2**e]))
        lo, hi = draw(st.sampled_from(isolate_real_roots(p)))
    if draw(st.booleans()):
        p = zp_neg(p)
    width = draw(st.one_of(
        st.sampled_from([Fraction(1, 2**100), Fraction(1, 10**12), Fraction(1, 1024),
                         Fraction(1, 3)]),
        st.fractions(min_value=Fraction(1, 64), max_value=3, max_denominator=64)
          .map(lambda k: k * (hi - lo))))
    return p, lo, hi, draw(st.integers(0, 3)), width


@given(refine_cases())
@example(((-3, 2), Fraction(1), Fraction(2), 0, Fraction(1, 1024)))    # hits 3/2 at once
@example(((-3, 4), Fraction(1, 2), Fraction(1), 1, Fraction(1, 1024)))  # hits 3/4, _lo_sign set
@example(((-2, 0, 1), Fraction(1), Fraction(2), 2, Fraction(1)))       # already narrower
@settings(max_examples=200, deadline=None)
def test_refine_below_matches_repeated_refine(case):
    p, lo, hi, steps, width = case
    alpha = AlgebraicNumber(p, lo, hi)
    alpha.refine(steps)      # steps > 0 presets _lo_sign
    assert alpha.lo <= alpha.hi   # builds the Fractions, which refine must drop
    alpha.refine_below(width)
    ref_lo, ref_hi, ref_sign, taken = qq_bisect(p, lo, hi, steps)
    while ref_lo != ref_hi and ref_hi - ref_lo >= width:   # the reference
        ref_lo, ref_hi, ref_sign, more = qq_bisect(p, ref_lo, ref_hi, 1, ref_sign)
        taken += more
    # refine doubles the denominator of the ends once per step it takes
    d = math.lcm(lo.denominator, hi.denominator) << taken
    assert (alpha.lo, alpha.hi, alpha._lo_sign, alpha._d) == (ref_lo, ref_hi, ref_sign, d)


def qq_sign_of(p, lo, hi, lo_sign, q):
    """Reference: ``AlgebraicNumber.sign_of`` on Fraction ends, with
    ``qq_poly_range`` as the range.  Returns the sign and the interval and
    lo sign it leaves."""
    if lo != hi:
        q = zp_rem(q, p)
        if not q:
            return 0, lo, hi, lo_sign
        for step in range(realroots.REFINE_BUDGET):
            a, b = qq_poly_range(q, lo, hi)
            if a > 0 or b < 0:
                return (1 if a > 0 else -1), lo, hi, lo_sign
            if step == 32:
                g = zp_gcd(p, q)
                if _qq_sign(g, lo) * _qq_sign(g, hi) < 0:
                    return 0, lo, hi, lo_sign
            lo, hi, lo_sign, _ = qq_bisect(p, lo, hi, 1, lo_sign)
            if lo == hi:
                break
    return _qq_sign(q, lo), lo, hi, lo_sign


def qq_ratio_interval(p, lo, hi, lo_sign, num, den, width):
    """Reference: ``AlgebraicNumber.ratio_interval`` on Fraction ends: the
    four quotients of the ends of ``qq_poly_range`` of num and den, once
    den's range excludes 0.  Returns the pair and the interval and lo sign
    it leaves."""
    while lo != hi:
        nlo, nhi = qq_poly_range(num, lo, hi)
        dlo, dhi = qq_poly_range(den, lo, hi)
        if dlo > 0 or dhi < 0:
            cands = [n / e for n in (nlo, nhi) for e in (dlo, dhi)]
            if max(cands) - min(cands) <= width:
                return (min(cands), max(cands)), lo, hi, lo_sign
        lo, hi, lo_sign, _ = qq_bisect(p, lo, hi, 1, lo_sign)
    v = _qq_value(num, lo) / _qq_value(den, lo)
    return (v, v), lo, hi, lo_sign


small_zps = st.lists(st.integers(-9, 9), max_size=5).map(zp)


@st.composite
def sign_cases(draw):
    """A ``refine_cases`` number after its prior steps, and a polynomial
    that is small, a multiple of 3u - 1 (zero at 1/3, so only the gcd test
    settles it), or p times one plus another.  Roots near 2^550 are left
    out: they only test the floats of the jump, and cost the Fraction
    reference thousands of wide steps."""
    p, lo, hi, steps, _ = draw(refine_cases(("rational", "dyadic", "quadratic", "cluster")))
    q = draw(small_zps)
    kind = draw(st.sampled_from(["small", "third", "reduced"]))
    if kind == "third":
        q = zp_mul(q or (1,), zp([-1, 3]))
    elif kind == "reduced":
        q = zp_add(zp_mul(draw(small_zps), p), q)
    return p, lo, hi, steps, q


def _refined(p, lo, hi, steps):
    alpha = AlgebraicNumber(p, lo, hi)
    alpha.refine(steps)
    return alpha, qq_bisect(p, lo, hi, steps)[:3]


@given(sign_cases())
@settings(max_examples=150, deadline=None)
def test_sign_of_matches_the_fraction_reference(case):
    p, lo, hi, steps, q = case
    alpha, ref = _refined(p, lo, hi, steps)
    sign = alpha.sign_of(q)
    assert (sign, alpha.lo, alpha.hi, alpha._lo_sign) == qq_sign_of(p, *ref, q)


@given(sign_cases(), small_zps, st.sampled_from([Fraction(1, 4), Fraction(1, 10**12)]))
@settings(max_examples=100, deadline=None)
def test_ratio_interval_matches_the_fraction_reference(case, num, width):
    p, lo, hi, steps, den = case
    assume(den and zp_degree(zp_gcd(p, den)) < 1)  # den(alpha) != 0
    alpha, ref = _refined(p, lo, hi, steps)
    pair = alpha.ratio_interval(num, den, width)
    assert (pair, alpha.lo, alpha.hi, alpha._lo_sign) == qq_ratio_interval(p, *ref, num, den, width)


def test_repr_keeps_the_interval():
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(3, 4), Fraction(3, 2))
    text = repr(sqrt2)
    assert (sqrt2.lo, sqrt2.hi, sqrt2._lo_sign) == (Fraction(3, 4), Fraction(3, 2), None)
    assert "3/4" in text and "3/2" in text


@st.composite
def spolys_at_rational(draw):
    """An SPoly and a rational c.  Columns are random, zero, or multiples of
    den(c) x - num(c), which vanish at c: the leading s-coefficient may
    vanish there, and so may every column (G(c, .) == 0)."""
    c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        col = zp(draw(st.lists(st.integers(-9, 9), max_size=4)))
        kind = draw(st.sampled_from(["random", "zero", "vanishing"]))
        cols.append(() if kind == "zero" else
                    zp_mul(col, (-c.numerator, c.denominator)) if kind == "vanishing" else col)
    return SPoly(cols), c


@given(spolys_at_rational())
@example((SPoly([(3, 1), (), (-1, 2)]), Fraction(1, 2)))           # zero column, lead vanishes
@example((SPoly([(-1, 2), (), (2, -4, 0, 0)]), Fraction(1, 2)))     # G(c, .) == 0
@example((SPoly([(5,), (0, 0, 7), (1, 3)]), Fraction(-5, 3)))       # columns of unequal degree
@settings(max_examples=200, deadline=None)
def test_at_param_is_the_cleared_fraction_evaluation(case):
    G, c = case
    reference = cleared([zp_eval_fr(co, c) for co in G.coeffs])
    assert G.at_param(c) == reference


def _no_refine(monkeypatch):
    monkeypatch.setattr(AlgebraicNumber, "refine", lambda self, steps=1: None)


def test_separate_has_a_budget(monkeypatch):
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    sqrt3 = AlgebraicNumber(zp([-3, 0, 1]), Fraction(1), Fraction(2))
    _no_refine(monkeypatch)
    with pytest.raises(RuntimeError):
        separate([sqrt2, sqrt3])


def test_sign_of_has_a_budget(monkeypatch):
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    _no_refine(monkeypatch)
    with pytest.raises(RuntimeError):
        sqrt2.sign_of(zp([-3, 2]))  # 2u - 3 has its root inside (1, 2)


def test_sign_of_settles_what_the_range_leaves_open(monkeypatch):
    # sqrt 2 defined by (x^2 - 2)(x^2 - 3): x^2 - 2 is no multiple of the
    # defining polynomial, so only the gcd test shows that it vanishes
    p = zp_mul(zp([-2, 0, 1]), zp([-3, 0, 1]))
    assert AlgebraicNumber(p, Fraction(1), Fraction(3, 2)).sign_of(zp([-2, 0, 1])) == 0
    # 2^45 x - m has its root within 2^-45 of sqrt 2, so the range needs more
    # than 32 bisections; q(sqrt 2) > 0 exactly when 2^91 > m^2
    steps, refine = [], AlgebraicNumber.refine
    monkeypatch.setattr(AlgebraicNumber, "refine",
                        lambda self, n=1: steps.append(n) or refine(self, n))
    for m in (math.isqrt(2**91), math.isqrt(2**91) + 1):
        steps.clear()
        sqrt2 = AlgebraicNumber(p, Fraction(1), Fraction(3, 2))
        assert sqrt2.sign_of(zp([-m, 2**45])) == (1 if 2**91 > m * m else -1)
        assert sum(steps) > 32


def test_ratio_interval_has_a_budget(monkeypatch):
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    _no_refine(monkeypatch)
    with pytest.raises(RuntimeError):
        sqrt2.ratio_interval(zp([0, 1]), zp([1]), Fraction(1, 10))


def test_root_separation_has_a_budget(monkeypatch):
    # (u^2 - 2)(u^2 - 3)^2: the two factors' isolating intervals overlap
    p = zp_mul(zp([-2, 0, 1]), zp_mul(zp([-3, 0, 1]), zp([-3, 0, 1])))
    _no_refine(monkeypatch)
    with pytest.raises(RuntimeError):
        real_roots_with_multiplicities(p)


def test_midpoint_root_bracket_has_a_budget():
    # roots 0 and 2**-5000: the bracket around the midpoint root 0 must
    # halve about 5000 times, more than the budget allows
    with pytest.raises(RuntimeError):
        isolate_real_roots(zp([0, -1, 2**5000]))


def test_multiplicities():
    # (u-1)^2 (u-3)
    p = zp_mul(zp_mul(zp([-1, 1]), zp([-1, 1])), zp([-3, 1]))
    rm = real_roots_with_multiplicities(p)
    assert [(float(r), m) for r, m in rm] == [(1.0, 2), (3.0, 1)]


@given(st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                          st.integers(1, 3)), max_size=4),
       st.lists(st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 2)), max_size=2))
@settings(max_examples=60, deadline=None)
def test_roots_come_out_disjoint_and_sorted(rational_roots, squares):
    # prod (u - r)^m over rational roots, times prod (u^2 - k)^m for
    # non-square k
    p, expected = (1,), {}
    for r, m in rational_roots:
        for _ in range(m):
            p = zp_mul(p, zp([-r.numerator, r.denominator]))
        expected[r] = expected.get(r, 0) + m
    for k, m in squares:
        for _ in range(m):
            p = zp_mul(p, zp([-k, 0, 1]))
    rm = real_roots_with_multiplicities(p)
    for (a, _), (b, _) in zip(rm, rm[1:]):
        assert a.hi < b.lo
    for r, m in expected.items():
        assert [mult for root, mult in rm if root.lo <= r <= root.hi] == [m]
    assert sum(m for _, m in rm) == sum(expected.values()) + 2 * sum(m for _, m in squares)


def test_no_real_roots():
    assert real_roots_with_multiplicities((1, 0, 1)) == []  # u^2 + 1


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        real_roots_with_multiplicities(zp([0]))


def test_root_multiplicities_edge_cases():
    with pytest.raises(ValueError):
        real_root_multiplicities(zp([0]))
    assert real_root_multiplicities(zp([-7])) == []
    assert real_root_multiplicities(zp([1, 0, 1])) == []            # x^2 + 1
    assert real_root_multiplicities(zp([2, 0, -1])) == [1, 1]       # 2 - x^2
    assert real_root_multiplicities(poly_from_roots(
        [Fraction(r) for r in (-3, Fraction(1, 2), 2, 5)])) == [1, 1, 1, 1]
    # squared factors: roots of different multiplicity come out in root order
    double_one = zp_mul(zp_pow(zp([-1, 1]), 2), zp([-2, 1]))        # (x-1)^2 (x-2)
    double_two = zp_mul(zp([-1, 1]), zp_pow(zp([-2, 1]), 2))        # (x-1) (x-2)^2
    assert real_root_multiplicities(double_one) == [2, 1]
    assert real_root_multiplicities(double_two) == [1, 2]
    assert real_root_multiplicities(zp_neg(double_two)) == [1, 2]


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=2, max_size=3),
       st.integers(2, 3))
@settings(max_examples=80, deadline=None)
def test_root_multiplicities_match_sympy(f, g, k):
    # f * g^k: the roots of g are multiple, and may coincide with roots of f
    p = zp_mul(zp(f), zp_pow(zp(g), k))
    assume(p)
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    want = [m for _, m in sp.real_roots(sp.Poly(p[::-1], x), multiple=False)]
    assert real_root_multiplicities(p) == want
    assert real_root_multiplicities(p) == [m for _, m in real_roots_with_multiplicities(p)]


def test_perturbed_double_root_trichotomy():
    # (u-1)(u-2)^2(u-3) with the double root's constant shifted by +-1/1000:
    # the discriminant sign of the quadratic factor decides 0 or 2 roots near 2
    for eps, expect in [(Fraction(1, 1000), 2), (Fraction(-1, 1000), 4)]:
        # (u-2)^2 + eps = u^2 - 4u + (4 + eps)
        coeffs = [Fraction(4) + eps, Fraction(-4), Fraction(1)]
        prod = [Fraction(c) for c in zp([-1, 1])]
        out = [Fraction(0)] * (len(prod) + 2)
        for i, a in enumerate(prod):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        prod2 = [Fraction(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            for j, b in enumerate([Fraction(-3), Fraction(1)]):
                prod2[i + j] += a * b
        rm = real_roots_with_multiplicities(cleared(prod2))
        assert len(rm) == expect
        assert all(m == 1 for _, m in rm)


def test_algebraic_sign_and_compare():
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    assert sqrt2.sign_of(zp([-1, 1])) == 1        # sqrt2 - 1 > 0
    assert sqrt2.sign_of(zp([-2, 0, 1])) == 0     # its own polynomial
    assert sqrt2.compare_rational(Fraction(3, 2)) < 0
    other = AlgebraicNumber(zp([-2, 0, 1]), Fraction(0), Fraction(3, 2))
    assert sqrt2.equals(other)
    neg = AlgebraicNumber(zp([-2, 0, 1]), Fraction(-2), Fraction(-1))
    separate([sqrt2, neg])
    assert neg.hi < sqrt2.lo


def test_field_poly_gcd_detects_double_root():
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    # G = s^2 - 2cs + 2 is (s - sqrt2)^2 at c = sqrt2
    k, S1 = SturmHabicht(SPoly([(2,), (0, -2), (1,)])).gcd(sqrt2)
    assert k == 1
    # s* = -S_{1,0}/S_{1,1} = sqrt2, i.e. S_{1,0} + c S_{1,1} vanishes at sqrt2
    s10, s11 = S1.coeffs
    assert sqrt2.sign_of(zp_add(s10, zp_mul((0, 1), s11))) == 0
    assert sqrt2.sign_of(s11) != 0


def test_field_sturm_counts():
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    # G = (s - c)(s + 1): roots at -1 and sqrt2 when c = sqrt2
    seq = SturmHabicht(SPoly([(0, -1), (1, -1), (1,)]))
    assert seq.gcd(sqrt2)[0] == 0
    assert seq.real_root_count(sqrt2) == 2


def test_equals_across_defining_polynomials():
    # sqrt2 under x^2 - 2 and under (x^2 - 2)(x - 3)
    a = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    b = AlgebraicNumber(zp([6, -2, -3, 1]), Fraction(1), Fraction(2))
    assert a.equals(b) and b.equals(a)


def test_equals_refines_overlapping_intervals_apart():
    # sqrt2 and sqrt3, both roots of (x^2 - 2)(x^2 - 3), on overlapping intervals
    p = zp([6, 0, -5, 0, 1])
    sqrt2 = AlgebraicNumber(p, Fraction(13, 10), Fraction(8, 5))
    sqrt3 = AlgebraicNumber(p, Fraction(3, 2), Fraction(9, 5))
    assert not sqrt2.equals(sqrt3)
    assert sqrt2.hi < sqrt3.lo
    assert sqrt2.lo < Fraction(17, 12) < sqrt2.hi and sqrt3.lo < Fraction(7, 4) < sqrt3.hi


def test_equals_rational_against_irrational():
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    assert not sqrt2.equals(AlgebraicNumber.from_rational(Fraction(3, 2)))
    assert not AlgebraicNumber.from_rational(Fraction(3, 2)).equals(sqrt2)
    # 3 on an interval of (x - 3)(x^2 - 2)
    three = AlgebraicNumber(zp([6, -2, -3, 1]), Fraction(5, 2), Fraction(7, 2))
    assert three.equals(AlgebraicNumber.from_rational(3))


def test_nonvanishing_interval_refines_an_irrational_number():
    # 7/5 < sqrt 2: the interval must shrink until it leaves 7/5 out
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    a, b = sqrt2.nonvanishing_interval([zp([-7, 5]), zp([-3, 1])], Fraction(1), Fraction(3))
    assert (a, b) == (sqrt2.lo, sqrt2.hi)
    assert Fraction(7, 5) < a and a * a < 2 < b * b


def test_nonvanishing_interval_halves_around_a_rational_number():
    # 1 -+ d for d = 1/2, 1/4, ...: the range bound of 8c - 9 first clears 0
    # on [31/32, 33/32], though 9/8 already lies outside [15/16, 17/16]
    one = AlgebraicNumber.from_rational(1)
    assert one.nonvanishing_interval([zp([-9, 8])], Fraction(0), Fraction(2)) == (
        Fraction(31, 32), Fraction(33, 32))
    assert one.is_rational and one.lo == 1


def test_sturm_count_interval():
    p = poly_from_roots([Fraction(-1), Fraction(2), Fraction(5)])
    assert window_counts(p, Fraction(0), Fraction(3)) == (3, 1, 1)
    assert window_counts(p, Fraction(-10), Fraction(10)) == (3, 0, 3)

def _sympy_value(sp, alpha):
    """alpha as a sympy expression: a rational, or a root of a quadratic."""
    if alpha.is_rational:
        return sp.Rational(alpha.lo.numerator, alpha.lo.denominator)
    c = sp.symbols("c")
    roots = sp.Poly(list(reversed(alpha.poly)), c).all_roots()
    return next(r for r in roots if alpha.lo < r < alpha.hi)


def _spoly_mul(P, Q):
    out = [()] * (len(P.coeffs) + len(Q.coeffs))
    for i, a in enumerate(P.coeffs):
        for j, b in enumerate(Q.coeffs):
            out[i + j] = zp_add(out[i + j], zp_mul(a, b))
    return SPoly(out)


@st.composite
def _scene_at_alpha(draw):
    """G in ZZ[c][s] and alpha, rational or quadratic."""
    def spoly(deg_s):
        return SPoly([zp(draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)))
                      for _ in range(deg_s + 1)])

    G = spoly(draw(st.integers(1, 4)))
    if draw(st.booleans()):
        # a square factor makes multiple roots, and so gcds, likely
        F = spoly(1)
        G = _spoly_mul(_spoly_mul(F, F), spoly(draw(st.integers(0, 2))))
    if draw(st.booleans()):
        alpha = AlgebraicNumber.from_rational(Fraction(draw(st.integers(-4, 4)),
                                                       draw(st.integers(1, 3))))
    else:
        d = draw(st.sampled_from([2, 3, 5, 6, 7]))
        b = draw(st.integers(-2, 2))
        q = zp([b * b - d, -2 * b, 1])          # roots b +- sqrt(d)
        lo, hi = draw(st.sampled_from(isolate_real_roots(q)))
        alpha = AlgebraicNumber(q, lo, hi)
    return G, alpha


def _sympy_expr(sp, S):
    """S as a sympy expression in c and s."""
    c, s = sp.symbols("c s")
    return sum((sum(a * c**i for i, a in enumerate(co)) * s**k
                for k, co in enumerate(S.coeffs)), sp.Integer(0))


def _sympy_at(sp, S, alpha):
    """S(alpha, s) as a sympy Poly in s."""
    c, s = sp.symbols("c s")
    expr = _sympy_expr(sp, S).subs(c, _sympy_value(sp, alpha))
    return sp.Poly(sp.expand(expr), s, extension=True)


@pytest.mark.parametrize("P, Q", [
    # equal s-degrees: (s - c)(s + 1) and (s - c)(s - 2) share s = c
    (SPoly([(0, -1), (1, -1), (1,)]), SPoly([(0, 2), (-2, -1), (1,)])),
    # (c^2 - 2)(s + 1) is zero at c = sqrt2, so the gcd is P
    (SPoly([(0, -1), (1, -1), (1,)]), SPoly([(-2, 0, 1), (-2, 0, 1)])),
    # the derivative pair of s^2 - 2cs + 2, (s - sqrt2)^2 at c = sqrt2
    (SPoly([(2,), (0, -2), (1,)]), None),
    # the derivative pair of (s - c)^3, whose gcd is dP/ds itself
    (SPoly([(0, 0, 0, -1), (0, 0, 3), (0, -3), (1,)]), None),
], ids=["equal-degrees", "second-zero", "derivative", "derivative-divides"])
def test_sturm_habicht_gcd_matches_sympy(P, Q):
    sp = pytest.importorskip("sympy")
    sqrt2 = AlgebraicNumber(zp([-2, 0, 1]), Fraction(1), Fraction(2))
    seq = SturmHabicht(P, None if Q is None else Q.truncated(sqrt2))
    k, S = seq.gcd(sqrt2)
    gcd = sp.gcd(_sympy_at(sp, seq.P, sqrt2), _sympy_at(sp, seq.Q, sqrt2))
    assert k == gcd.degree()
    g = _sympy_at(sp, S, sqrt2)
    assert g.degree() == k and sp.rem(g, gcd).is_zero


@given(_scene_at_alpha())
@settings(max_examples=80, deadline=None)
def test_subresultant_signs_match_sympy(case):
    sp = pytest.importorskip("sympy")
    G, alpha = case
    s = sp.symbols("s")
    g = _sympy_at(sp, G, alpha)
    if g.degree() < 1:
        return
    seq = SturmHabicht(G).at(alpha)
    assert seq.p == g.degree()
    gcd = sp.gcd(g, g.diff(s))
    assert seq.gcd(alpha)[0] == gcd.degree()
    sqf = sp.quo(g, gcd)
    roots = [r for r in sp.Poly(sqf, s).nroots(n=40) if abs(sp.im(r)) < 1e-25]
    assert seq.real_root_count(alpha) == len(roots)


@st.composite
def _spoly_pairs(draw):
    """P and Q in ZZ[c][s] with s-degrees -1 to 5 in any order.  Half of
    them are sparse in s, so that the remainder sequence skips degrees, and
    a fifth of the pairs share a factor, so that it ends early."""
    column = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(zp)

    def spoly(deg):
        sparse = draw(st.booleans())
        cols = [draw(column) if not sparse or draw(st.booleans()) else () for _ in range(deg)]
        return SPoly(cols + [draw(column.filter(bool))]) if deg >= 0 else SPoly([])

    P, Q = spoly(draw(st.integers(-1, 5))), spoly(draw(st.integers(-1, 5)))
    if draw(st.integers(0, 4)) == 0:
        F = spoly(draw(st.integers(1, 2)))
        P, Q = _spoly_mul(P, F), _spoly_mul(Q, F)
    return P, Q


_QUARTIC = SPoly([(-1, 0, 0, 0, 1), (), (), (), (1,)])     # x^4 + y^4 - 1


@given(_spoly_pairs())
@example((SPoly([(0, 1), (), (), (), (1,)]), SPoly([(), (), (), (1,)])))  # s^4 + c, s^3: gap of 3
@example((SPoly([(1,), (0, 1), (1,)]), SPoly([(0, 1), (-1,), (2,)])))     # equal s-degrees
@example((SPoly([(0, 1), (), (1,)]), SPoly([(2, 1)])))                    # deg Q = 0
@example((SPoly([(0, 1), (), (1,)]), SPoly([])))                          # Q = 0
@example((SPoly([(0, 1), (1,)]), SPoly([(-2,), (), (), (1,)])))           # deg P < deg Q, mn odd
@example((SPoly([(0, -1), (1, -1), (1,)]), SPoly([(0, 2), (-2, -1), (1,)])))  # common s = c
@example((_QUARTIC, _QUARTIC.ds()))
@settings(max_examples=150, deadline=None)
def test_subresultant_pass_matches_bareiss_and_sympy(pair):
    sp = pytest.importorskip("sympy")
    P, Q = pair
    m, n = P.degree_s(), Q.degree_s()
    res = sylvester_resultant(P, Q)
    # sympy is asked with the larger s-degree first, where its sign is the
    # Sylvester determinant's; Res(P, Q) = (-1)^(mn) Res(Q, P)
    A, B, sign = (P, Q, 1) if m >= n else (Q, P, (-1) ** (m * n))
    c, s = sp.symbols("c s")
    expected = sp.Poly(sp.resultant(_sympy_expr(sp, A), _sympy_expr(sp, B), s), c)
    assert res == zp_scale(zp(int(v) for v in reversed(expected.all_coeffs())), sign)
    if min(m, n) >= 1:
        assert res == subresultant(P, Q, 0).coeff(0)
    if m >= n:
        seq = SturmHabicht(P, Q)
        assert seq.resultant == res
        signed = []
        for j in range(n):
            S, e = subresultant(P, Q, j), m - j
            signed.append([zp_neg(co) for co in S.coeffs] if e * (e - 1) // 2 % 2 else S.coeffs)
        assert [S.coeffs for S in seq.entries] == signed


# --- window counts by Sturm chains vs. isolation ----------------------------

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def _isolated_window_counts(p, r_lo, r_hi, lower):
    """Reference: isolate every root, then compare each with the cuts."""
    if not p:
        return 0, 0, 0
    roots = [r for r, _ in real_roots_with_multiplicities(p)
             if lower is None or r.compare_rational(lower) > 0]
    below = sum(1 for r in roots if r.compare_rational(r_lo) <= 0)
    inside = sum(1 for r in roots
                 if r.compare_rational(r_lo) > 0 and r.compare_rational(r_hi) < 0)
    return len(roots), below, inside


@st.composite
def window_cases(draw):
    """A polynomial with repeated rational and quadratic factors, and cuts
    lower < r_lo < r_hi that often sit exactly on one of its roots; half
    the cases have no lower end."""
    roots = draw(st.lists(small_rationals, max_size=4))
    p = (draw(small_rationals.filter(bool)),)
    for r in roots:
        p = zp_mul(p, zp_pow((-r, Fraction(1)), draw(st.integers(1, 3))))
    for k in draw(st.lists(st.integers(-3, 6), max_size=2)):    # s^2 - k
        p = zp_mul(p, zp_pow((Fraction(-k), 0, Fraction(1)), draw(st.integers(1, 2))))
    ends = st.one_of(st.sampled_from(roots), small_rationals) if roots else small_rationals
    lower, r_lo, r_hi = sorted(draw(st.lists(ends, min_size=3, max_size=3, unique=True)))
    return cleared(p), r_lo, r_hi, lower if draw(st.booleans()) else None


@given(window_cases())
@example(((2, -3, 1), Fraction(0), Fraction(2), None))            # r_hi is a root
@example(((0, 1, 1), Fraction(1, 2), Fraction(3), Fraction(0)))   # roots 0 and -1 not above lower
@example(((), Fraction(-1), Fraction(1), None))                   # p == 0
@settings(max_examples=200, deadline=None)
def test_window_counts_match_isolation(case):
    assert window_counts(*case) == _isolated_window_counts(*case)
