"""Exact real-root isolation and real algebraic numbers.

Sturm chains are primitive polynomial remainder sequences over ZZ: each
entry is minus the primitive part of a pseudo-remainder with a positive
scale (``polys.zp_prem``), so it has the signs of the Sturm remainder over
QQ everywhere.  They drive isolation and interval refinement.  An
algebraic number is a square-free defining polynomial plus an isolating
interval; the only primitive everything else reduces to is
``AlgebraicNumber.sign_of``: the exact sign of another polynomial at the
number.  Questions about polynomials with coefficients in QQ(alpha) are
put as such signs by ``bivar.SturmHabicht``.
"""

from __future__ import annotations

from fractions import Fraction

from .polys import (
    ZP,
    zp,
    zp_degree,
    zp_derivative,
    zp_eval_fr,
    zp_from_fractions,
    zp_gcd,
    zp_neg,
    zp_prem,
    zp_primitive,
    zp_sign_at,
    zp_squarefree_decomposition,
    zp_squarefree_part,
)


def sturm_chain(p: ZP):
    """Sturm chain of a square-free integer polynomial."""
    chain = [p, zp_derivative(p)]
    while chain[-1]:
        nr = zp_neg(zp_primitive(zp_prem(chain[-2], chain[-1])))
        if not nr:
            break
        chain.append(nr)
    return chain


def sign_variations(signs) -> int:
    """Sign changes in a sequence of -1/0/1, zeros skipped."""
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_variations_at(chain, x: Fraction) -> int:
    return sign_variations([zp_sign_at(q, x) for q in chain])


def sturm_variations_at_inf(chain, direction: int) -> int:
    """Sign variations of a chain at +inf (direction 1) or -inf (-1), read
    from the leading coefficients."""
    return sign_variations([(1 if q[-1] > 0 else -1) * (direction if len(q) % 2 == 0 else 1)
                            for q in chain if q])


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of real roots in (lo, hi]."""
    return sturm_variations_at(chain, lo) - sturm_variations_at(chain, hi)


def root_bound(p: ZP) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p[-1])
    m = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    return Fraction(1) + Fraction(m, lead)


def isolate_real_roots(p: ZP):
    """Isolating intervals for the distinct real roots of a square-free p.

    Returns a sorted list of (lo, hi) Fraction pairs.  Rational roots come out
    as degenerate intervals lo == hi; otherwise lo < root < hi with neither
    endpoint a root, and intervals pairwise disjoint.
    """
    if zp_degree(p) < 1:
        return []
    chain = sturm_chain(p)
    b = root_bound(p)
    out = []

    def recurse(lo, hi, nlo, nhi):
        n = nlo - nhi
        if n == 0:
            return
        if n == 1:
            # shrink away from endpoints that are roots of p: Cauchy-bound
            # endpoints never are, and midpoints are root-checked below
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        if zp_sign_at(p, mid) == 0:
            out.append((mid, mid))
            eps = (hi - lo) / 4
            while True:
                if zp_sign_at(p, mid - eps) != 0 and zp_sign_at(p, mid + eps) != 0:
                    nml = sturm_variations_at(chain, mid - eps)
                    nmr = sturm_variations_at(chain, mid + eps)
                    if nml - nmr == 1:  # bracket holds only the found root
                        break
                eps /= 2
            recurse(lo, mid - eps, nlo, nml)
            recurse(mid + eps, hi, nmr, nhi)
        else:
            nm = sturm_variations_at(chain, mid)
            recurse(lo, mid, nlo, nm)
            recurse(mid, hi, nm, nhi)

    recurse(-b, b, sturm_variations_at(chain, -b), sturm_variations_at(chain, b))
    out.sort(key=lambda iv: iv[0])
    return out


class AlgebraicNumber:
    """A real algebraic number: square-free defining ZP + isolating interval.

    lo == hi encodes an exact rational.  The interval is refined in place;
    arithmetic predicates (sign_of, compare) are exact.
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: ZP, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    @classmethod
    def from_rational(cls, r) -> "AlgebraicNumber":
        r = Fraction(r)
        return cls(zp([-r.numerator, r.denominator]), r, r)

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def refine(self, steps: int = 1) -> None:
        for _ in range(steps):
            if self.is_rational:
                return
            mid = (self.lo + self.hi) / 2
            s = zp_sign_at(self.poly, mid)
            if s == 0:
                self.lo = self.hi = mid
                return
            if zp_sign_at(self.poly, self.lo) * s < 0:
                self.hi = mid
            else:
                self.lo = mid

    def refine_below(self, width: Fraction) -> None:
        while not self.is_rational and self.hi - self.lo >= width:
            self.refine()

    def sign_of(self, q: ZP) -> int:
        """Exact sign of q(alpha).

        q is first reduced modulo the defining polynomial.  A range of q over
        the isolating interval, bisected up to 32 times, then decides any
        sign that is not too close to 0; only what remains pays for the gcd
        with the defining polynomial (q(alpha) = 0 exactly) and a Sturm
        chain of q (refining until no root of q is left in the interval).
        """
        if not q:
            return 0
        if self.is_rational:
            return zp_sign_at(q, self.lo)
        if len(q) >= len(self.poly):
            q = zp_primitive(zp_prem(q, self.poly))
            if not q:
                return 0
        for _ in range(32):
            lo, hi = _poly_range(q, self.lo, self.hi)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            self.refine()
            if self.is_rational:
                return zp_sign_at(q, self.lo)
        g = zp_gcd(self.poly, q)
        if zp_degree(g) >= 1 and count_roots(sturm_chain(g), self.lo, self.hi) > 0:
            return 0
        qsf = zp_squarefree_part(q)
        qchain = sturm_chain(qsf)
        while count_roots(qchain, self.lo, self.hi) > 0:
            self.refine()
        return zp_sign_at(q, (self.lo + self.hi) / 2)

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self.is_rational and other.is_rational:
            return self.lo == other.lo
        if self.is_rational:
            return other.sign_of(zp([-self.lo.numerator, self.lo.denominator])) == 0
        if other.is_rational:
            return self.sign_of(zp([-other.lo.numerator, other.lo.denominator])) == 0
        g = zp_gcd(self.poly, other.poly)
        if zp_degree(g) < 1:
            return False
        gchain = sturm_chain(g)
        for _ in range(4000):
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
            if lo >= hi:
                return False
            if (count_roots(gchain, self.lo, self.hi) == 1
                    and count_roots(gchain, other.lo, other.hi) == 1
                    and count_roots(gchain, lo, hi) == 1):
                return True
            self.refine()
            other.refine()
        raise RuntimeError("algebraic equality test did not converge")

    def compare(self, other: "AlgebraicNumber") -> int:
        if self.equals(other):
            return 0
        while True:
            if self.hi < other.lo:
                return -1
            if other.hi < self.lo:
                return 1
            self.refine()
            other.refine()

    def compare_rational(self, r: Fraction) -> int:
        return self.sign_of(zp([-r.numerator, r.denominator]))

    def ratio_interval(self, num: ZP, den: ZP, width: Fraction):
        """Rationals lo <= num(alpha)/den(alpha) <= hi with hi - lo <= width,
        refining alpha as needed; den(alpha) must be nonzero."""
        while True:
            if self.is_rational:
                v = zp_eval_fr(num, self.lo) / zp_eval_fr(den, self.lo)
                return v, v
            nlo, nhi = _poly_range(num, self.lo, self.hi)
            dlo, dhi = _poly_range(den, self.lo, self.hi)
            if not dlo <= 0 <= dhi:
                cands = [nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi]
                if max(cands) - min(cands) <= width:
                    return min(cands), max(cands)
            self.refine()

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.lo)
        self.refine_below(Fraction(1, 10**12))
        return float((self.lo + self.hi) / 2)

    def __repr__(self):
        return f"Alg({float(self):.6g})"


def real_roots_with_multiplicities(coeffs):
    """All real roots of a QQ-coefficient polynomial, with multiplicities.

    ``coeffs`` is a low-first list of Fractions/ints.  Returns a list of
    (AlgebraicNumber, multiplicity) sorted by the root value; isolating
    intervals are pairwise disjoint.  Raises ValueError on the zero
    polynomial.
    """
    p = zp_from_fractions(coeffs)
    if not p:
        raise ValueError("zero polynomial has no well-defined roots")
    roots = []
    for factor, mult in zp_squarefree_decomposition(p):
        for lo, hi in isolate_real_roots(factor):
            roots.append((AlgebraicNumber(factor, lo, hi), mult))
    # factors are pairwise coprime, so refinement separates all intervals
    changed = True
    while changed:
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i][0], roots[j][0]
                alo, ahi = a.lo, a.hi
                blo, bhi = b.lo, b.hi
                if max(alo, blo) <= min(ahi, bhi) and not (a.is_rational and b.is_rational and alo != blo):
                    a.refine()
                    b.refine()
                    changed = True
    roots.sort(key=lambda rm: rm[0].lo)
    return roots


def _poly_range(p: ZP, lo: Fraction, hi: Fraction):
    """Crude interval extension of p over [lo, hi] via endpoint + bound."""
    if not p:
        return Fraction(0), Fraction(0)
    a, b = zp_eval_fr(p, lo), zp_eval_fr(p, hi)
    dp = zp_derivative(p)
    m = max(abs(lo), abs(hi))
    # |p'| <= sum |c_i| m^i on the interval
    bound = sum(abs(c) * m**i for i, c in enumerate(dp)) if dp else Fraction(0)
    slack = bound * (hi - lo)
    return min(a, b) - slack, max(a, b) + slack
