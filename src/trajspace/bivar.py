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
of G and dG/ds decides everything about G(alpha, s) at a real algebraic
alpha (gcd degree, tangent point, number of real roots) through signs of
integer polynomials at alpha.
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


def gcd_at(P: SPoly, Q: SPoly, alpha):
    """Degree k of gcd(P(alpha, s), Q(alpha, s)), and an SPoly that
    specialises at alpha to such a gcd.

    P and Q keep their s-degrees at alpha (see ``SPoly.truncated``), and
    deg P >= deg Q.  The gcd degree is the least j whose subresultant has a
    principal coefficient (that of s^j) nonzero at alpha; when there is none,
    Q divides P.
    """
    if Q.degree_s() < 0:
        return P.degree_s(), P
    for j in range(Q.degree_s()):
        S = subresultant(P, Q, j)
        if alpha.sign_of(S.coeff(j)) != 0:
            return j, S
    return Q.degree_s(), Q


class SturmHabicht:
    """Signed subresultant sequence of G and G_s = dG/ds in s, over ZZ[c].

    Entry j, for j = p = deg G down to 0, is sResP_j(G, G_s): G, then G_s,
    then (-1)^((p-j)(p-j-1)/2) times the j-th subresultant; entry 0 is the
    resultant ``res`` up to sign.  Entries are built on first use.

    At a real algebraic alpha where the s-leading coefficient of G does not
    vanish (``at`` truncates G so that it does not), the entries specialise to
    the signed subresultants of G(alpha, s) and its derivative, and every
    question about G(alpha, s) is the sign of an integer polynomial in c at
    alpha (Basu, Pollack, Roy, Algorithms in Real Algebraic Geometry,
    ch. 8-9; González-Vega and Necula, CAGD 2002):
      - deg gcd(G(alpha, s), G_s(alpha, s)) is the least j whose principal
        coefficient (that of s^j in entry j) is nonzero at alpha; entry j is
        then a gcd, and the entries below it vanish at alpha;
      - the sign variations of the entries at s = -inf, minus those at
        s = +inf, count the distinct real roots of G(alpha, s), as for a
        Sturm sequence.
    """

    def __init__(self, G: SPoly, res: ZP):
        self.p = G.degree_s()
        self._entries = {0: self._signed(SPoly([res]), 0), self.p: G, self.p - 1: G.ds()}

    def _signed(self, S: SPoly, j: int) -> SPoly:
        e = self.p - j
        return SPoly([zp_neg(c) for c in S.coeffs]) if e * (e - 1) // 2 % 2 else S

    def __getitem__(self, j: int) -> SPoly:
        if j not in self._entries:
            S = subresultant(self._entries[self.p], self._entries[self.p - 1], j)
            self._entries[j] = self._signed(S, j)
        return self._entries[j]

    @classmethod
    def of(cls, G: SPoly) -> "SturmHabicht":
        return cls(G, sylvester_resultant(G, G.ds()))

    def at(self, alpha) -> "SturmHabicht":
        """This sequence, or that of G truncated to its s-degree at alpha."""
        G = self._entries[self.p]
        Gt = G.truncated(alpha)
        return self if Gt is G else self.of(Gt)

    def gcd_degree(self, alpha) -> int:
        """deg gcd(G(alpha, s), G_s(alpha, s)); 0 when deg G < 1."""
        return next((j for j in range(self.p) if alpha.sign_of(self[j].coeff(j)) != 0), 0)

    def real_root_count(self, alpha) -> int:
        """Distinct real roots of G(alpha, s)."""
        entries = [self[j] for j in range(self.p, -1, -1)]
        return (sign_variations([_sign_at_infinity(S, alpha, -1) for S in entries])
                - sign_variations([_sign_at_infinity(S, alpha, 1) for S in entries]))


def _sign_at_infinity(S: SPoly, alpha, direction: int) -> int:
    for k in range(S.degree_s(), -1, -1):
        sg = alpha.sign_of(S.coeffs[k])
        if sg:
            return -sg if direction < 0 and k % 2 else sg
    return 0
