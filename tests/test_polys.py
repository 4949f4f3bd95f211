from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.polys import (
    zp,
    zp_add,
    zp_content,
    zp_derivative,
    zp_divexact,
    zp_eval_fr,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_primitive,
    zp_prs,
    zp_rem,
    zp_scale,
    zp_shift,
    zp_sign_at,
    zp_squarefree_decomposition,
    zp_squarefree_part,
)
from trajspace.realroots import (
    _range,
    isolate_real_roots,
    sturm_chain,
    sturm_variations_at_inf,
)

from conftest import cleared, qq_poly_range, zp_pow

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(zp)
nonzero_polys = small_polys.filter(bool)
chain_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(zp)
# coefficients as wide as the tilted scenes' resultants, and rationals with
# large denominators, as deep refinement makes them
wide_polys = st.lists(st.one_of(st.integers(-9, 9), st.integers(-2**240, 2**240)),
                      max_size=9).map(zp)
wide_rationals = st.builds(Fraction, st.integers(-2**90, 2**90),
                           st.one_of(st.integers(1, 9), st.integers(1, 2**130),
                                     st.integers(0, 130).map(lambda k: 2**k)))


def qq_divmod(p, q):
    """Reference: schoolbook long division over QQ on Fraction lists."""
    q = [Fraction(c) for c in q]
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(rem) - len(q) + 1, 0)
    while len(rem) >= len(q):
        k = len(rem) - len(q)
        quo[k] = rem[-1] / q[-1]
        for i in range(len(q)):
            rem[k + i] -= quo[k] * q[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def qq_horner(p, x):
    """Reference: schoolbook Horner over QQ."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def qq_prs(p, q):
    """Reference remainder sequence: remainders over QQ, each made
    primitive and negated, up to the first zero remainder."""
    chain = [p, q]
    while chain[-1]:
        nr = zp_neg(cleared(qq_divmod(chain[-2], chain[-1])[1]))
        if not nr:
            break
        chain.append(nr)
    return chain


def qq_sturm_chain(p):
    """Reference Sturm chain: the QQ remainder sequence of p and p'."""
    return qq_prs(p, zp_derivative(p))


@st.composite
def repeated_factor_polys(draw):
    """A product of one to three integer factors of degree 1-3, raised to
    powers 1-3, so that repeated and shared factors are common."""
    p = (draw(st.integers(1, 3)) * draw(st.sampled_from([-1, 1])),)
    for _ in range(draw(st.integers(1, 3))):
        f = zp(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4)))
        if len(f) >= 2:
            p = zp_mul(p, zp_pow(f, draw(st.integers(1, 3))))
    return p


@st.composite
def shared_factor_pairs(draw):
    """Two ``repeated_factor_polys`` times one common factor of degree 1-3."""
    shared = zp(draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4)))
    if len(shared) < 2:
        shared = (1, 1)
    return (zp_mul(shared, draw(repeated_factor_polys())),
            zp_mul(shared, draw(repeated_factor_polys())))


kernel_pairs = st.one_of(shared_factor_pairs(),
                         st.tuples(repeated_factor_polys(), repeated_factor_polys()))


def test_mul_eval_agree():
    p, q = zp([1, 2, 3]), zp([-1, 0, 1])
    x = Fraction(3, 7)
    assert zp_eval_fr(zp_mul(p, q), x) == zp_eval_fr(p, x) * zp_eval_fr(q, x)


def test_sign_at_matches_eval():
    p = zp([-6, 1, 1])  # (x - 2)(x + 3)
    assert zp_sign_at(p, Fraction(2)) == 0
    assert zp_sign_at(p, Fraction(0)) == -1
    assert zp_sign_at(p, Fraction(5, 2)) == 1


@given(wide_polys, wide_rationals, wide_rationals)
@settings(max_examples=300, deadline=None)
def test_integer_evaluation_matches_qq_horner(p, x, y):
    v = qq_horner(p, x)
    assert zp_eval_fr(p, x) == v
    assert zp_sign_at(p, x) == (v > 0) - (v < 0)
    lo, hi = min(x, y), max(x, y)
    d = lcm(lo.denominator, hi.denominator)
    a, b = _range(p, [abs(c) for c in zp_derivative(p)], lo.numerator * (d // lo.denominator),
                  hi.numerator * (d // hi.denominator), d)
    e = d ** max(len(p) - 1, 0)  # the scale d**deg(p)
    assert (Fraction(a, e), Fraction(b, e)) == qq_poly_range(p, lo, hi)


@given(small_polys, st.integers(-9, 9), st.integers(-20, 20))
def test_shift_is_substitution_and_inverts(p, a, x):
    shifted = zp_shift(p, a)
    assert qq_horner(shifted, Fraction(x)) == qq_horner(p, Fraction(x + a))
    assert zp_shift(shifted, -a) == p
    assert zp_content(shifted) == zp_content(p)


@given(small_polys, nonzero_polys)
def test_rem_is_primitive_qq_remainder(a, b):
    quo, rem = qq_divmod(a, b)
    x = Fraction(5, 3)
    assert zp_eval_fr(a, x) == zp_eval_fr(quo, x) * zp_eval_fr(b, x) + zp_eval_fr(rem, x)
    assert zp_rem(a, b) == cleared(rem)


@given(small_polys, nonzero_polys)
def test_divexact_inverts_mul(a, b):
    assert zp_divexact(zp_mul(a, b), b) == a


@given(small_polys, nonzero_polys, small_polys, st.integers(2, 5))
def test_divexact_rejects_inexact(a, b, r, k):
    r = zp(r[:len(b) - 1])  # below deg b: a nonzero remainder
    if r:
        with pytest.raises(ArithmeticError):
            zp_divexact(zp_add(zp_mul(a, b), r), b)
    if a and zp_content(a) % k:  # divisible over QQ, not over ZZ
        with pytest.raises(ArithmeticError):
            zp_divexact(zp_mul(a, b), zp_scale(b, k))


nonconstant_repeated_factor_polys = repeated_factor_polys().filter(lambda p: len(p) > 1)


@given(st.one_of(chain_polys, nonconstant_repeated_factor_polys))
@settings(max_examples=200, deadline=None)
def test_sturm_chain_matches_qq_reference(p):
    assert sturm_chain(p) == qq_sturm_chain(p)


@given(nonconstant_repeated_factor_polys)
@settings(max_examples=150, deadline=None)
def test_sturm_chain_counts_sympy_real_roots(p):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    # the last entry is gcd(p, p'); on the square-free part the chain
    # counts the distinct real roots
    last = zp_primitive(sturm_chain(p)[-1])
    assert (last if last[-1] > 0 else zp_neg(last)) == zp_gcd(p, zp_derivative(p))
    sf = sturm_chain(zp_squarefree_part(p))
    count = sturm_variations_at_inf(sf, -1) - sturm_variations_at_inf(sf, 1)
    assert count == len(set(sp.Poly(p[::-1], x).real_roots()))


@given(kernel_pairs)
@settings(max_examples=150, deadline=None)
def test_prs_matches_qq_reference(pair):
    assert zp_prs(*pair) == qq_prs(*pair)


def test_gcd_of_shared_factor():
    shared = zp([-1, 1])          # x - 1
    a = zp_mul(shared, zp([2, 1]))
    b = zp_mul(shared, zp([3, 0, 1]))
    g = zp_gcd(a, b)
    assert g == shared


def test_squarefree_decomposition_multiplicities():
    # (x-1)^1 (x-2)^2 (x-3)^3
    p = (1,)
    for root, mult in [(1, 1), (2, 2), (3, 3)]:
        for _ in range(mult):
            p = zp_mul(p, zp([-root, 1]))
    decomp = zp_squarefree_decomposition(p)
    assert [(tuple(f), m) for f, m in decomp] == [((-1, 1), 1), ((-2, 1), 2), ((-3, 1), 3)]


def test_squarefree_part_drops_powers():
    p = zp_mul(zp([-1, 1]), zp_mul(zp([-1, 1]), zp([5, 1])))
    sf = zp_squarefree_part(p)
    assert zp_sign_at(sf, Fraction(1)) == 0
    assert zp_sign_at(sf, Fraction(-5)) == 0
    assert len(sf) - 1 == 2


@given(small_polys)
def test_derivative_linear(p):
    q = zp([1, 1])
    lhs = zp_derivative(zp_add(p, q))
    rhs = zp_add(zp_derivative(p), zp_derivative(q))
    assert lhs == rhs


@given(kernel_pairs)
@settings(max_examples=150, deadline=None)
def test_gcd_matches_sympy(pair):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    p, q = pair
    g = sp.gcd(sp.Poly(p[::-1], x), sp.Poly(q[::-1], x)).primitive()[1]
    want = tuple(int(c) for c in reversed(g.all_coeffs()))
    want = want if want[-1] > 0 else zp_neg(want)
    assert zp_gcd(p, q) == want
    # the last entry of the remainder sequence is the gcd up to a constant
    last = zp_primitive(zp_prs(p, q)[-1])
    assert (last if last[-1] > 0 else zp_neg(last)) == want


@given(repeated_factor_polys())
@settings(max_examples=60, deadline=None)
def test_squarefree_decomposition_matches_sympy(p):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    want = []
    for f, m in sp.sqf_list(sp.Poly(p[::-1], x))[1]:
        f = tuple(int(c) for c in reversed(f.primitive()[1].all_coeffs()))
        want.append((f if f[-1] > 0 else zp_neg(f), m))
    assert sorted(zp_squarefree_decomposition(p)) == sorted(want)


@given(repeated_factor_polys())
@settings(max_examples=60, deadline=None)
def test_isolation_matches_sympy_real_roots(p):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    roots = sorted(set(sp.Poly(p[::-1], x).real_roots()))
    intervals = isolate_real_roots(zp_squarefree_part(p))
    assert len(intervals) == len(roots)
    for (lo, hi), r in zip(intervals, roots):
        lo, hi = sp.Rational(lo.numerator, lo.denominator), sp.Rational(hi.numerator, hi.denominator)
        assert lo == r == hi if lo == hi else lo < r < hi

