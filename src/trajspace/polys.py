"""Dense univariate polynomial arithmetic over ZZ.

Polynomials are tuples of ints, coefficients stored low degree first,
normalized so the last entry is nonzero; the zero polynomial is the empty
tuple.  Every caller hands in integers: scene curves are cleared of
denominators once, at parse time (``geometry.curve_from_terms``).  A
Fraction appears only on the way out, where ``zp_eval_fr`` builds one for
the rational case of ``AlgebraicNumber.ratio_interval``.

Evaluation at a rational n/d is homogeneous and stays in ZZ:
``zp_eval_hom`` returns d**deg * p(n/d) by Horner's rule, carrying the
power of d from step to step.  Its sign is the sign of p(n/d), so sign
tests (``zp_sign_at``), Sturm variations and interval bounds never build a
Fraction.

Division never leaves ZZ.  Gcds and Sturm chains run one primitive
polynomial remainder sequence (``zp_prs``): each remainder (``zp_rem``) is
the primitive part of a pseudo-remainder with a positive scale, so it equals
the primitive part of the remainder over QQ, signs included (Collins,
JACM 1967; Basu, Pollack, Roy, Algorithms in Real Algebraic Geometry,
ch. 8).  Quotients by a primitive divisor are exact over ZZ by Gauss's
lemma (``zp_divexact``), which is how square-free parts and Yun's
decomposition divide.  ``zp_mul`` only adds and multiplies, so it also
expands tuples of Fractions.
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


def zp_shift(p: ZP, a: int) -> ZP:
    """The Taylor shift p(x + a), by repeated Horner division by x - a.

    The shift is invertible over ZZ, so it keeps the content and the
    leading coefficient.
    """
    c = list(p)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return tuple(c)


def zp_derivative(p: ZP) -> ZP:
    return zp(i * p[i] for i in range(1, len(p)))


def zp_content(p: ZP) -> int:
    return int_gcd(*p)


def zp_primitive(p: ZP) -> ZP:
    """Divide out the content, keeping the sign of the leading coefficient."""
    if not p:
        return ()
    g = zp_content(p)
    return tuple(c // g for c in p)


def zp_eval_hom(p: ZP, num: int, den: int) -> int:
    """den**deg * p(num/den) for den > 0, by integer Horner; 0 for p = 0.

    The result has the sign of p(num/den).
    """
    if not p:
        return 0
    acc, dpow = p[-1], 1
    for c in reversed(p[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return acc


def zp_eval_fr(p: ZP, x: Fraction) -> Fraction:
    """p(x) for rational x."""
    return Fraction(zp_eval_hom(p, x.numerator, x.denominator),
                    x.denominator ** max(len(p) - 1, 0))


def zp_sign_at(p: ZP, x: Fraction) -> int:
    """Exact sign of p(x) for rational x."""
    v = zp_eval_hom(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def zp_rem(p: ZP, q: ZP, unit: int = 1) -> ZP:
    """unit (+-1) times the primitive part of the remainder of p by q over
    QQ: one pseudo-division loop scales by |lc(q)| > 0 at each step, so its
    remainder has the signs of the one over QQ, and then loses its content."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lc, dq = q[-1], len(q) - 1
    if lc < 0:
        lc, q = -lc, [-c for c in q]
    r = list(p)
    while len(r) > dq:
        top = r.pop()
        k = len(r) - dq
        r[k:] = [c * lc - top * b for c, b in zip(r[k:], q)]
        if k:
            r[:k] = [c * lc for c in r[:k]]
        while r and not r[-1]:
            r.pop()
    g = unit * int_gcd(*r)
    return tuple([c // g for c in r])


def zp_prs(p: ZP, q: ZP):
    """[p, q, -zp_rem(p, q), ...] up to the first zero remainder: for q = p'
    the Sturm chain of p.  Its last nonzero entry is gcd(p, q) up to a constant."""
    chain = [p, q]
    while q and (r := zp_rem(p, q, -1)):
        chain.append(r)
        p, q = q, r
    return chain


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
    *_, a, b = zp_prs(zp_primitive(p), zp_primitive(q))
    g = b or a
    return zp_neg(g) if g and g[-1] < 0 else g


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
