"""Dense univariate polynomial arithmetic over ZZ.

Polynomials are tuples of ints, coefficients stored low degree first,
normalized so the last entry is nonzero; the zero polynomial is the empty
tuple.  Fractions appear only at the boundaries: ``zp_from_fractions``
clears denominators and ``zp_eval_fr`` evaluates at a rational.

Division never leaves ZZ.  Gcds and Sturm chains run a primitive
polynomial remainder sequence: each remainder is the primitive part of a
pseudo-remainder (``zp_prem``) whose scale |lc|^e is positive, so it equals
the primitive part of the remainder over QQ, signs included (Collins,
JACM 1967; Basu, Pollack, Roy, Algorithms in Real Algebraic Geometry,
ch. 8).  Quotients by a primitive divisor are exact over ZZ by Gauss's
lemma (``zp_divexact``), which is how square-free parts and Yun's
decomposition divide.  ``zp_mul`` and ``zp_pow`` only add and multiply, so
they also expand tuples of Fractions.
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


def zp_prem(p: ZP, q: ZP) -> ZP:
    """Pseudo-remainder r with |lc(q)|^e * p = quo * q + r and deg r < deg q,
    where e = max(deg p - deg q + 1, 0).

    The scale is positive, so r is a positive multiple of the remainder over
    QQ and has its signs; its primitive part is that remainder's.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if q[-1] < 0:
        q = zp_neg(q)
    lc, dq = q[-1], len(q) - 1
    r = list(p)
    e = max(len(r) - dq, 0)
    while len(r) > dq:
        top = r.pop()
        k = len(r) - dq
        r = [c * lc for c in r]
        for i in range(dq):
            r[k + i] -= top * q[i]
        e -= 1
        while r and r[-1] == 0:
            r.pop()
    return zp_scale(tuple(r), lc ** e)


def zp_divexact(p: ZP, q: ZP) -> ZP:
    """The quotient p / q over ZZ; ArithmeticError unless q divides p there."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lc, dq = q[-1], len(q) - 1
    r = list(p)
    quo = [0] * max(len(r) - dq, 0)
    while len(r) > dq:
        k = len(r) - 1 - dq
        quo[k], m = divmod(r.pop(), lc)
        if m:
            raise ArithmeticError("inexact polynomial division")
        for i in range(dq):
            r[k + i] -= quo[k] * q[i]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return zp(quo)


def zp_gcd(p: ZP, q: ZP) -> ZP:
    """Primitive gcd over ZZ (positive leading coefficient)."""
    a, b = zp_primitive(p), zp_primitive(q)
    while b:
        a, b = b, zp_primitive(zp_prem(a, b))
    return zp_neg(a) if a and a[-1] < 0 else a


def zp_squarefree_part(p: ZP) -> ZP:
    """Primitive square-free part of p with positive leading coefficient."""
    if zp_degree(p) < 1:
        return zp_primitive(p)
    q = zp_divexact(zp_primitive(p), zp_gcd(p, zp_derivative(p)))
    return q if q[-1] > 0 else zp_neg(q)


def zp_squarefree_decomposition(p: ZP):
    """Yun's algorithm over ZZ: returns [(factor, multiplicity), ...] with
    factors primitive square-free pairwise-coprime ZPs of positive lead;
    the product of factor^mult equals p up to a rational constant."""
    if zp_degree(p) < 1:
        return []
    dp = zp_derivative(p)
    g = zp_gcd(p, dp)
    if zp_degree(g) < 1:
        q = zp_primitive(p)
        return [(q if q[-1] > 0 else zp_neg(q), 1)]
    w = zp_divexact(p, g)
    z = zp_sub(zp_divexact(dp, g), zp_derivative(w))
    out = []
    i = 1
    while zp_degree(w) >= 1:
        a = zp_gcd(w, z)
        if zp_degree(a) >= 1:
            out.append((a, i))
            w = zp_divexact(w, a)
            z = zp_divexact(z, a)
        z = zp_sub(z, zp_derivative(w))
        i += 1
    return out
