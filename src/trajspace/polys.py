"""Dense univariate polynomial arithmetic over ZZ and QQ.

Polynomials are tuples of ints (or Fractions at API boundaries), coefficients
stored low degree first, normalized so the last entry is nonzero; the zero
polynomial is the empty tuple.  Polynomials are kept over ZZ as primitive
parts; gcds and Sturm chains run Euclid's algorithm with remainders over QQ
(``qp_divmod``) and integerize each remainder.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


ZP = tuple  # tuple[int, ...]


def zp(coeffs) -> ZP:
    """Normalize an iterable of ints into a ZP."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def zp_from_fractions(coeffs) -> ZP:
    """Clear denominators of a Fraction coefficient list; primitive part."""
    fr = [Fraction(x) for x in coeffs]
    while fr and fr[-1] == 0:
        fr.pop()
    if not fr:
        return ()
    den = 1
    for f in fr:
        den = den * f.denominator // int_gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    return zp_primitive(tuple(ints))


def zp_degree(p: ZP) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def zp_neg(p: ZP) -> ZP:
    return tuple(-c for c in p)


def zp_add(p: ZP, q: ZP) -> ZP:
    n = max(len(p), len(q))
    return zp((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def zp_sub(p: ZP, q: ZP) -> ZP:
    n = max(len(p), len(q))
    return zp((p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n))


def zp_scale(p: ZP, k: int) -> ZP:
    if k == 0:
        return ()
    return tuple(c * k for c in p)


def zp_mul(p: ZP, q: ZP) -> ZP:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return zp(out)


def zp_pow(p: ZP, n: int) -> ZP:
    out = (1,)
    for _ in range(n):
        out = zp_mul(out, p)
    return out


def zp_derivative(p: ZP) -> ZP:
    return zp(i * p[i] for i in range(1, len(p)))


def zp_content(p: ZP) -> int:
    g = 0
    for c in p:
        g = int_gcd(g, abs(c))
    return g


def zp_primitive(p: ZP) -> ZP:
    """Divide out the content, keeping the sign of the leading coefficient."""
    if not p:
        return ()
    g = zp_content(p)
    return tuple(c // g for c in p)


def zp_eval_fr(p: ZP, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def zp_sign_at(p: ZP, x: Fraction) -> int:
    """Exact sign of p(x) for rational x, via integer Horner.

    Computes p(x) * den**deg, which has the same sign as p(x).
    """
    if not p:
        return 0
    num, den = x.numerator, x.denominator
    acc = 0
    deg = len(p) - 1
    for i in range(deg, -1, -1):
        acc = acc * num + p[i] * den ** (deg - i)
    return (acc > 0) - (acc < 0)


def qp_divmod(p, q):
    """Division with remainder over QQ; inputs/outputs Fraction lists."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rem = p[:]
    while len(rem) >= len(q) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        k = len(rem) - len(q)
        f = rem[-1] / q[-1]
        quo[k] = f
        for i in range(len(q)):
            rem[k + i] -= f * q[i]
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def zp_divexact(p: ZP, q: ZP) -> ZP:
    """Exact division p / q over QQ, asserting zero remainder and ZZ result."""
    quo, rem = qp_divmod(list(p), list(q))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    assert all(f.denominator == 1 for f in quo), "division left ZZ"
    return zp(int(f) for f in quo)


def zp_gcd(p: ZP, q: ZP) -> ZP:
    """Primitive gcd over ZZ (positive leading coefficient)."""
    a, b = zp_primitive(p), zp_primitive(q)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        while b:
            _, r = qp_divmod(list(a), list(b))
            a, b = b, zp_from_fractions(r)
        g = a
    if g and g[-1] < 0:
        g = zp_neg(g)
    return g


def zp_squarefree_part(p: ZP) -> ZP:
    if zp_degree(p) < 1:
        return zp_primitive(p) if p else ()
    g = zp_gcd(p, zp_derivative(p))
    if zp_degree(g) < 1:
        q = zp_primitive(p)
    else:
        quo, rem = qp_divmod(list(p), list(g))
        assert not rem
        q = zp_from_fractions(quo)
    return q if q[-1] > 0 else zp_neg(q)


def _qp_deriv(p):
    return [Fraction(i) * p[i] for i in range(1, len(p))]


def _qp_sub(p, q):
    n = max(len(p), len(q))
    out = [(p[k] if k < len(p) else Fraction(0)) - (q[k] if k < len(q) else Fraction(0))
           for k in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_squarefree_decomposition(p: ZP):
    """Yun's algorithm over QQ: returns [(factor, multiplicity), ...] with
    factors primitive square-free pairwise-coprime ZPs of positive lead;
    the product of factor^mult equals p up to a rational constant."""
    if zp_degree(p) < 1:
        return []
    g = zp_gcd(p, zp_derivative(p))
    if zp_degree(g) < 1:
        q = zp_primitive(p)
        return [(q if q[-1] > 0 else zp_neg(q), 1)]
    f = [Fraction(c) for c in p]
    w, r = qp_divmod(f, list(g))
    assert not r
    y, r = qp_divmod(_qp_deriv(f), list(g))
    assert not r
    z = _qp_sub(y, _qp_deriv(w))
    out = []
    i = 1
    while len(w) - 1 >= 1:
        a = zp_gcd(zp_from_fractions(w), zp_from_fractions(z))
        if zp_degree(a) >= 1:
            out.append((a if a[-1] > 0 else zp_neg(a), i))
            w, r = qp_divmod(w, list(a))
            assert not r
            y, r = qp_divmod(z, list(a))
            assert not r
        else:
            y = z
        z = _qp_sub(y, _qp_deriv(w))
        i += 1
    return out
