"""Bivariate integer polynomials and elimination along a line family.

An "SPoly" is a polynomial in the line coordinate s over ZZ[c]: a list of
integer polynomials in the sweep parameter c, indexed by the power of s.
Every boundary curve is stored as one, from parse on: L * F with L the
least common denominator of F's coefficients, read along the vertical
lines x = c (c = x, s = y).  ``substitute_line_family`` composes it with
another family by Horner's rule in ZZ[c][s]; ``SPoly.at_param`` and
``SPoly.at_s`` specialise it at a rational c or s without building a
Fraction.  Subresultants w.r.t. s, the resultant among them, are
determinants of Sylvester submatrices whose entries are ZPs in c, taken
with Bareiss fraction-free elimination.  The signed subresultant sequence
of a pair P, Q decides how P(alpha, s) and Q(alpha, s) meet at a real
algebraic alpha (their gcd, a common real root, for Q = dP/ds the number of
real roots of P) through signs of integer polynomials at alpha.
"""

from __future__ import annotations

from fractions import Fraction
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
    zp_sub,
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


def subresultant(P: SPoly, Q: SPoly, j: int) -> SPoly:
    """The j-th subresultant of P and Q in s, for j < min(deg P, deg Q) or j = 0.

    Its s^i coefficient is the determinant of the Sylvester submatrix made of
    the rows of s^(deg Q - j - 1) P, ..., P, s^(deg P - j - 1) Q, ..., Q, the
    first deg P + deg Q - 2j - 1 columns and the column of s^i.  One
    fraction-free elimination of the shared columns yields all j + 1 of them.
    """
    m, n = P.degree_s(), Q.degree_s()
    width = m + n - j
    rows = [_shifted_row(P, r, width) for r in range(n - j)]
    rows += [_shifted_row(Q, r, width) for r in range(m - j)]
    return SPoly(reversed(_bareiss_bordered(rows)))


def sylvester_resultant(P: SPoly, Q: SPoly) -> ZP:
    """Res_s(P, Q) as a ZP in c: the subresultant of index 0."""
    m, n = P.degree_s(), Q.degree_s()
    if m < 0 or n < 0:
        return ()
    if m + n == 0:
        return (1,)
    return subresultant(P, Q, 0).coeff(0)


def _shifted_row(P: SPoly, r: int, width: int):
    row = [()] * width
    for k, c in enumerate(reversed(P.coeffs)):
        row[r + k] = c
    return row


def _bareiss_bordered(M):
    """Fraction-free elimination over ZZ[c] of the first n - 1 columns of an
    n-row matrix.  Returns the last row from column n - 1 on: by Sylvester's
    identity its entry k is the determinant of the first n - 1 columns
    bordered by column n - 1 + k (for a square matrix, [det M])."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = (1,)
    for k in range(n - 1):
        if not M[k][k]:
            piv = next((r for r in range(k + 1, n) if M[r][k]), None)
            if piv is None:
                return [()] * (len(M[0]) - n + 1)
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, len(M[i])):
                num = zp_sub(zp_mul(M[i][j], M[k][k]), zp_mul(M[i][k], M[k][j]))
                M[i][j] = zp_divexact(num, prev) if num else ()
        prev = M[k][k]
    last = M[n - 1][n - 1:]
    return last if sign > 0 else [zp_neg(c) for c in last]


class SturmHabicht:
    """Signed subresultant sequence of P and Q in s over ZZ[c], deg P >= deg Q;
    Q defaults to dP/ds.

    P and Q head it.  Entry j < deg Q is (-1)^((p-j)(p-j-1)/2), p = deg P,
    times the j-th subresultant; entry 0 is the resultant ``res`` up to sign.
    Entries are built on first use.

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

    def __init__(self, P: SPoly, Q: SPoly = None, res: ZP = None):
        self.P = P
        self.Q = P.ds() if Q is None else Q
        self.p, self.q = P.degree_s(), self.Q.degree_s()
        self._entries = {} if res is None else {0: self._signed(SPoly([res]), 0)}

    def _signed(self, S: SPoly, j: int) -> SPoly:
        e = self.p - j
        return SPoly([zp_neg(c) for c in S.coeffs]) if e * (e - 1) // 2 % 2 else S

    def __getitem__(self, j: int) -> SPoly:
        if j not in self._entries:
            self._entries[j] = self._signed(subresultant(self.P, self.Q, j), j)
        return self._entries[j]

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
        for j in range(self.q):
            if alpha.sign_of(self[j].coeff(j)) != 0:
                return j, self[j]
        return self.q, self.Q

    def real_root_count(self, alpha) -> int:
        """Distinct real roots of P(alpha, s), for Q = dP/ds."""
        entries = [self.P, self.Q] + [self[j] for j in range(self.q - 1, -1, -1)]
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
