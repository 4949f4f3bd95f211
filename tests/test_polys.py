from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.polys import (
    zp,
    zp_add,
    zp_content,
    zp_derivative,
    zp_divexact,
    zp_eval_fr,
    zp_from_fractions,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_pow,
    zp_prem,
    zp_primitive,
    zp_scale,
    zp_sign_at,
    zp_squarefree_decomposition,
    zp_squarefree_part,
)
from trajspace.realroots import isolate_real_roots, sturm_chain

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(zp)
nonzero_polys = small_polys.filter(bool)
chain_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(zp)


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


def qq_sturm_chain(p):
    """Reference Sturm chain: remainders over QQ, each made primitive."""
    chain = [p, zp_derivative(p)]
    while chain[-1]:
        nr = zp_neg(zp_from_fractions(qq_divmod(chain[-2], chain[-1])[1]))
        if not nr:
            break
        chain.append(nr)
    return chain


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


def test_mul_eval_agree():
    p, q = zp([1, 2, 3]), zp([-1, 0, 1])
    x = Fraction(3, 7)
    assert zp_eval_fr(zp_mul(p, q), x) == zp_eval_fr(p, x) * zp_eval_fr(q, x)


def test_sign_at_matches_eval():
    p = zp([-6, 1, 1])  # (x - 2)(x + 3)
    assert zp_sign_at(p, Fraction(2)) == 0
    assert zp_sign_at(p, Fraction(0)) == -1
    assert zp_sign_at(p, Fraction(5, 2)) == 1


@given(small_polys, nonzero_polys)
def test_prem_is_scaled_qq_remainder(a, b):
    quo, rem = qq_divmod(a, b)
    x = Fraction(5, 3)
    assert zp_eval_fr(a, x) == zp_eval_fr(quo, x) * zp_eval_fr(b, x) + zp_eval_fr(rem, x)
    e = max(len(a) - len(b) + 1, 0)
    assert zp_prem(a, b) == tuple(c * abs(b[-1]) ** e for c in rem)
    assert zp_primitive(zp_prem(a, b)) == zp_from_fractions(rem)


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


@given(chain_polys)
def test_sturm_chain_matches_qq_reference(p):
    assert sturm_chain(p) == qq_sturm_chain(p)


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


def test_from_fractions_clears_denominators():
    p = zp_from_fractions([Fraction(1, 2), Fraction(1, 3)])
    assert p == (3, 2)

@given(repeated_factor_polys(), repeated_factor_polys())
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy(p, q):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    g = sp.gcd(sp.Poly(p[::-1], x), sp.Poly(q[::-1], x)).primitive()[1]
    want = tuple(int(c) for c in reversed(g.all_coeffs()))
    assert zp_gcd(p, q) == (want if want[-1] > 0 else zp_neg(want))


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
