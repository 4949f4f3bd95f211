"""Bivariate integer polynomials and elimination along a line family.

An "SPoly" is a polynomial in the line coordinate s over ZZ[c]: a list of
integer polynomials in the sweep parameter c, indexed by the power of s.
Every boundary curve is stored as one, from parse on: L * F with L the
least common denominator of F's coefficients, read along the vertical
lines x = c (c = x, s = y).  ``substitute_line_family`` composes it with
another family by Horner's rule in ZZ[c][s]; ``SPoly.at_param`` and
``SPoly.at_s`` specialise it at a rational c or s without building a
Fraction.  All subresultants of a pair P, Q w.r.t. s, the resultant
among them, come from one subresultant remainder sequence over ZZ[c][s]:
pseudo-remainders divided exactly by the known factors, with Lazard's step
across degree gaps (Ducos, "Optimizations of the subresultant algorithm",
JPAA 2000).  The signed subresultant sequence of the pair decides how
P(alpha, s) and Q(alpha, s) meet at a real algebraic alpha (their gcd, a
common real root, for Q = dP/ds the number of real roots of P) through
signs of integer polynomials at alpha.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest

from .polys import (
    ZP,
    zp,
    zp_add,
    zp_content,
    zp_derivative,
    zp_divexact,
    zp_eval_hom,
    zp_mul,
    zp_neg,
    zp_primitive,
    zp_scale,
)
from .realroots import sign_variations


class SPoly:
    """A polynomial in s over ZZ[c]: a curve along a line family.

    coeffs[k] is the ZP in c multiplying s^k.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, tuple) else tuple(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    def degree_s(self) -> int:
        return len(self.coeffs) - 1

    def degree_c(self) -> int:
        return max(map(len, self.coeffs), default=0) - 1

    def ds(self) -> "SPoly":
        return SPoly([zp_scale(c, k) for k, c in enumerate(self.coeffs)][1:])

    def dc(self) -> "SPoly":
        return SPoly([zp_derivative(c) for c in self.coeffs])

    def column_values(self, num: int, den: int) -> list:
        """den**top * coeffs[k](num/den) for every k (zeros kept), den > 0 and
        top the largest column degree: a positive multiple of self at
        c = num/den.  ``zp_eval_hom`` puts column k over den**deg(k), and
        den**(top - deg(k)) brings it to den**top."""
        top = self.degree_c()
        return [zp_eval_hom(co, num, den) * den ** (top - len(co) + 1) for co in self.coeffs]

    def at_param(self, c: Fraction) -> ZP:
        """Self at a rational parameter value: a primitive ZP in s, that of
        the rational coefficient vector cleared of denominators."""
        return zp_primitive(zp(self.column_values(c.numerator, c.denominator)))

    def coeff(self, k: int) -> ZP:
        return self.coeffs[k] if k < len(self.coeffs) else ()

    def at_s(self, r: Fraction) -> ZP:
        """den(r)^deg * self(c, r): a ZP in c with the sign of self at s = r."""
        num, den, d = r.numerator, r.denominator, self.degree_s()
        acc = ()
        for k, co in enumerate(self.coeffs):
            acc = zp_add(acc, zp_scale(co, num**k * den**(d - k)))
        return acc

    def truncated(self, alpha) -> "SPoly":
        """Self without the leading s-coefficients that vanish at the real
        algebraic number alpha: its s-degree at alpha is its degree."""
        d = self.degree_s()
        while d >= 0 and alpha.sign_of(self.coeffs[d]) == 0:
            d -= 1
        return self if d == self.degree_s() else SPoly(self.coeffs[:d + 1])


def _add(A, B):
    """Sum of two polynomials in s over ZZ[c], as lists of columns."""
    return [zp_add(a, b) for a, b in zip_longest(A, B, fillvalue=())]


def _mul(A, B):
    """Product of two polynomials in s over ZZ[c], as lists of columns."""
    out = [()] * (len(A) + len(B) - 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B):
                out[i + j] = zp_add(out[i + j], zp_mul(a, b))
    return out


def _horner(ps, var, m: int):
    """sum of ps[k] * var^k * m^(n - k), n = len(ps) - 1, by homogeneous
    Horner (as ``polys.zp_eval_hom``); ps and var are lists of columns."""
    acc, mpow = ps[-1], 1
    for p in reversed(ps[:-1]):
        mpow *= m
        acc = _add(_mul(acc, var), [zp_scale(co, mpow) for co in p])
    return acc


def substitute_line_family(F: SPoly, X: SPoly, Y: SPoly, m: int) -> SPoly:
    """F(X/m, Y/m) cleared of m and made primitive.

    F is a curve's stored form (column j is the ZP in x of y^j), and X/m,
    Y/m with m > 0 a line family (``geometry.line_family``).  Horner's rule
    in x within each column, then in y, each homogeneous in m, gives
    m^(degree_c(F) + degree_s(F)) * F(X/m, Y/m) over ZZ[c][s].  Dividing out
    its positive content keeps zero sets and signs.
    """
    top = F.degree_c()
    cols = [_horner([[(a,) if a else ()] for a in co + (0,) * (top + 1 - len(co))],
                    X.coeffs, m) for co in F.coeffs]
    acc = _horner(cols, Y.coeffs, m)
    g = zp_content(tuple(v for co in acc for v in co))
    return SPoly([tuple(v // g for v in co) for co in acc])


def _neg_prem(A: SPoly, B: SPoly) -> SPoly:
    """prem(A, -B) = (-lc B)^(deg A - deg B + 1) A mod B in ZZ[c][s]."""
    nb, n = zp_neg(B.coeffs[-1]), B.degree_s()
    r = list(A.coeffs)
    for k in range(len(r) - n - 1, -1, -1):
        top = r.pop()
        r = [zp_mul(co, nb) for co in r]
        for i, co in enumerate(B.coeffs[:-1]):
            r[k + i] = zp_add(r[k + i], zp_mul(top, co))
    return SPoly(r)


def _power(p: ZP, n: int) -> ZP:
    return reduce(zp_mul, [p] * n, (1,))


def _subresultants(P: SPoly, Q: SPoly) -> dict:
    """{j: S_j} for the nonzero subresultants of P and Q in s with j < deg Q,
    deg P >= deg Q >= 1, in one remainder sequence over ZZ[c][s] (Ducos,
    JPAA 2000, with Lazard's step across degree gaps); for deg Q = 0,
    S_0 = Q^deg P.  Every division is exact."""
    d = Q.degree_s()
    if d == 0:
        return {0: SPoly([_power(Q.coeffs[0], P.degree_s())])}
    A, B, s = Q, _neg_prem(P, Q), _power(Q.coeffs[-1], P.degree_s() - d)
    S = {}
    while B.coeffs:
        e = B.degree_s()
        S[d - 1] = C = B
        if d - e > 1:
            # Lazard: S_e = lc(B)^(d-e-1) B / s^(d-e-1), one exact division a step
            x = lc = B.coeffs[-1]
            for _ in range(d - e - 2):
                x = zp_divexact(zp_mul(x, lc), s)
            S[e] = C = SPoly([zp_divexact(zp_mul(x, co), s) for co in B.coeffs])
        if e == 0:
            break
        den = zp_mul(_power(s, d - e), A.coeffs[-1])
        B = SPoly([zp_divexact(co, den) for co in _neg_prem(A, B).coeffs])
        A, d, s = C, e, C.coeffs[-1]
    return S


def sylvester_resultant(P: SPoly, Q: SPoly) -> ZP:
    """Res_s(P, Q) as a ZP in c: S_0 of the subresultant pass, () when P or
    Q is zero."""
    m, n = P.degree_s(), Q.degree_s()
    if m < n:
        res = sylvester_resultant(Q, P)
        return zp_neg(res) if m * n % 2 else res
    return SturmHabicht(P, Q).resultant


class SturmHabicht:
    """Signed subresultant sequence of P and Q in s over ZZ[c], deg P >= deg Q;
    Q defaults to dP/ds.

    P and Q head it.  ``entries[j]``, j < deg Q, is (-1)^((p-j)(p-j-1)/2),
    p = deg P, times the j-th subresultant (zero across a degree gap), and
    ``resultant`` is Res_s(P, Q); one remainder sequence yields them all.

    At a real algebraic alpha where P and Q keep their s-degrees (see
    ``SPoly.truncated``), the entries specialise to the signed subresultants
    of P(alpha, s) and Q(alpha, s), and every question about them is the sign
    of an integer polynomial in c at alpha (Basu, Pollack, Roy, Algorithms in
    Real Algebraic Geometry, ch. 8-9; González-Vega and Necula, CAGD 2002):
      - deg gcd(P(alpha, s), Q(alpha, s)) is the least j whose principal
        coefficient (that of s^j in entry j) is nonzero at alpha, and entry j
        is then a gcd (``gcd``);
      - for Q = dP/ds, the sign variations of the sequence at s = -inf,
        minus those at s = +inf, count the distinct real roots of P(alpha, s),
        as for a Sturm sequence (``real_root_count``).
    """

    def __init__(self, P: SPoly, Q: SPoly = None):
        self.P = P
        self.Q = P.ds() if Q is None else Q
        self.p, self.q = P.degree_s(), self.Q.degree_s()
        S = _subresultants(P, self.Q) if self.q >= 0 else {}
        self.resultant = S[0].coeff(0) if 0 in S else ()
        self.entries = []
        for j in range(self.q):
            Sj, e = S.get(j, SPoly([])), self.p - j
            self.entries.append(SPoly(map(zp_neg, Sj.coeffs)) if e * (e - 1) // 2 % 2 else Sj)

    def at(self, alpha) -> "SturmHabicht":
        """This sequence of P and dP/ds, or that of P truncated at alpha."""
        Pt = self.P.truncated(alpha)
        return self if Pt is self.P else SturmHabicht(Pt)

    def gcd(self, alpha):
        """(k, entry): k = deg gcd(P(alpha, s), Q(alpha, s)) and an entry that
        specialises at alpha to such a gcd.  With no principal coefficient
        nonzero at alpha, Q divides P; with Q zero at alpha, the gcd is P."""
        if self.q < 0:
            return self.p, self.P
        for j, Sj in enumerate(self.entries):
            if alpha.sign_of(Sj.coeff(j)) != 0:
                return j, Sj
        return self.q, self.Q

    def real_root_count(self, alpha) -> int:
        """Distinct real roots of P(alpha, s), for Q = dP/ds."""
        entries = [self.P, self.Q] + self.entries[::-1]
        return (sign_variations([_sign_at_infinity(S, alpha, -1) for S in entries])
                - sign_variations([_sign_at_infinity(S, alpha, 1) for S in entries]))


def common_real_root(A: SPoly, B: SPoly, alpha) -> bool:
    """Whether A(alpha, s) and B(alpha, s) share a real root; both keep their
    s-degrees at alpha, and A is not zero there."""
    if A.degree_s() < B.degree_s():
        A, B = B, A
    k, g = SturmHabicht(A, B).gcd(alpha)
    return k >= 1 and SturmHabicht(g).real_root_count(alpha) >= 1


def _sign_at_infinity(S: SPoly, alpha, direction: int) -> int:
    for k in range(S.degree_s(), -1, -1):
        sg = alpha.sign_of(S.coeffs[k])
        if sg:
            return -sg if direction < 0 and k % 2 else sg
    return 0
