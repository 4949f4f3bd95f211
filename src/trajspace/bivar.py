"""Bivariate polynomials over QQ and elimination along a line family.

A curve is a dict {(i, j): Fraction} for x^i y^j.  Substituting a polynomial
line parametrization (x(c, s), y(c, s)) turns it into an "SPoly": a list of
integer polynomials in the sweep parameter c, indexed by the power of the
line coordinate s.  Subresultants w.r.t. s, the resultant among them, are
determinants of Sylvester submatrices whose entries are ZPs in c, taken with
Bareiss fraction-free elimination.  The signed subresultant sequence of G
and dG/ds decides everything about G(alpha, s) at a real algebraic alpha
(gcd degree, tangent point, real roots in an interval) through signs of
integer polynomials at alpha.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .polys import (
    ZP,
    zp,
    zp_add,
    zp_divexact,
    zp_eval_fr,
    zp_mul,
    zp_neg,
    zp_pow,
    zp_scale,
    zp_sub,
)
from .realroots import sign_variations

BiPoly = dict  # {(i, j): Fraction}


def bp_normalize(d) -> BiPoly:
    return {k: Fraction(v) for k, v in d.items() if Fraction(v) != 0}


def bp_add(a: BiPoly, b: BiPoly) -> BiPoly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return bp_normalize(out)


def bp_mul(a: BiPoly, b: BiPoly) -> BiPoly:
    out = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + u * v
    return bp_normalize(out)


def bp_scale(a: BiPoly, f) -> BiPoly:
    return bp_normalize({k: v * Fraction(f) for k, v in a.items()})


def bp_eval(a: BiPoly, x: Fraction, y: Fraction) -> Fraction:
    return sum((v * x**i * y**j for (i, j), v in a.items()), Fraction(0))


def bp_dx(a: BiPoly) -> BiPoly:
    return bp_normalize({(i - 1, j): v * i for (i, j), v in a.items() if i > 0})


def bp_restrict_line(a: BiPoly, px, py):
    """Restrict to a rational line {t -> (px0 + px1 t, py0 + py1 t)}.

    Returns Fraction coefficients (low first) of the univariate restriction.
    """
    px = (Fraction(px[0]), Fraction(px[1]))
    py = (Fraction(py[0]), Fraction(py[1]))
    out = {}
    for (i, j), v in a.items():
        for k, c in enumerate(zp_mul(zp_pow(px, i), zp_pow(py, j))):
            out[k] = out.get(k, Fraction(0)) + v * c
    n = max(out) + 1 if out else 0
    return [out.get(k, Fraction(0)) for k in range(n)]


class SPoly:
    """F restricted to a line family: polynomial in s over ZZ[c].

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

    def ds(self) -> "SPoly":
        return SPoly([zp_scale(c, k) for k, c in enumerate(self.coeffs)][1:])

    def at_param(self, c: Fraction):
        """Fraction coefficient list in s at a rational parameter value."""
        return [zp_eval_fr(co, c) for co in self.coeffs]

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


def substitute_line_family(F: BiPoly, x_cs: BiPoly, y_cs: BiPoly) -> SPoly:
    """Compose F with polynomial maps x(c, s), y(c, s); integerized.

    x_cs, y_cs are BiPolys in (c, s).  The overall rational content is
    dropped (positive rescaling), which preserves zero sets and signs up to
    a positive constant.
    """
    acc: BiPoly = {}
    xpows = {0: {(0, 0): Fraction(1)}}
    ypows = {0: {(0, 0): Fraction(1)}}

    def powof(table, base, n):
        if n not in table:
            table[n] = bp_mul(powof(table, base, n - 1), base)
        return table[n]

    for (i, j), v in F.items():
        term = bp_scale(bp_mul(powof(xpows, x_cs, i), powof(ypows, y_cs, j)), v)
        acc = bp_add(acc, term)
    deg_s = max((j for (_, j) in acc), default=0)
    deg_c = max((i for (i, _) in acc), default=0)
    # clear denominators globally (positive factor)
    den = 1
    for v in acc.values():
        den = den * v.denominator // gcd(den, v.denominator)
    cols = []
    for k in range(deg_s + 1):
        cols.append(zp([int(acc.get((i, k), Fraction(0)) * den) for i in range(deg_c + 1)]))
    return SPoly(cols)


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
      - the sign variations of the entries at s = a, minus those at s = b,
        count the distinct real roots of G(alpha, s) in (a, b] when neither
        end is a root, as for a Sturm sequence.
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

    def sign_at(self, alpha, s: Fraction) -> int:
        """Sign of G(alpha, s) at a rational s."""
        return alpha.sign_of(self[self.p].at_s(s))

    def count_roots(self, alpha, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots of G(alpha, s) in (lo, hi]; lo, hi not roots."""
        return (self._variations(lambda S: alpha.sign_of(S.at_s(lo)))
                - self._variations(lambda S: alpha.sign_of(S.at_s(hi))))

    def real_root_count(self, alpha) -> int:
        """Distinct real roots of G(alpha, s)."""
        return (self._variations(lambda S: _sign_at_infinity(S, alpha, -1))
                - self._variations(lambda S: _sign_at_infinity(S, alpha, 1)))

    def _variations(self, sign) -> int:
        return sign_variations([sign(self[j]) for j in range(self.p, -1, -1)])


def _sign_at_infinity(S: SPoly, alpha, direction: int) -> int:
    for k in range(S.degree_s(), -1, -1):
        sg = alpha.sign_of(S.coeffs[k])
        if sg:
            return -sg if direction < 0 and k % 2 else sg
    return 0
