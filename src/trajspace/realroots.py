"""Exact real-root isolation and real algebraic numbers.

Every question about real roots has one answer here:
- how many: Sturm chains, primitive remainder sequences over ZZ whose
  entries have the signs of the Sturm remainders over QQ (``zp_prs``).
  ``real_root_multiplicities`` counts a square-free polynomial's roots from
  the chain's signs at -inf and +inf, and ``window_counts`` counts them in
  total, at or below one cut and strictly between two;
- where: ``isolate_real_roots`` bisects to isolating intervals;
- how close: ``AlgebraicNumber.refine`` is the one bisection of an
  isolating interval, and ``refine_below`` only works out its step count;
- which sign: ``AlgebraicNumber.sign_of`` gives the exact sign of another
  polynomial at an algebraic number (a square-free defining polynomial plus
  an isolating interval).  Everything else about such numbers reduces to
  it, including the questions about polynomials over QQ(alpha) that
  ``bivar.SturmHabicht`` puts.

Every sign at a rational point is the sign of a homogeneous integer value
(``polys.zp_eval_hom``); the bisections keep their ends as integer
numerators over the denominator D * 2**k at depth k, and build Fractions
only for the intervals handed out.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .polys import (
    ZP,
    zp,
    zp_degree,
    zp_derivative,
    zp_eval_fr,
    zp_eval_hom,
    zp_gcd,
    zp_primitive,
    zp_prs,
    zp_rem,
    zp_sign_at,
    zp_squarefree_decomposition,
    zp_squarefree_part,
)


def sturm_chain(p: ZP):
    """Sturm chain of an integer polynomial of degree >= 1: it counts real
    roots when p is square-free; its last entry is gcd(p, p') up to a constant."""
    return zp_prs(p, zp_derivative(p))


# Refinement steps any one loop may take before it gives up
REFINE_BUDGET = 4000


class BudgetExceeded(RuntimeError):
    """A refinement loop ran REFINE_BUDGET steps without an answer."""


def sign_variations(values) -> int:
    """Sign changes in a sequence of numbers, zeros skipped."""
    positive = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(positive, positive[1:]) if a != b)


def sturm_variations_at(chain, x: Fraction) -> int:
    return sign_variations([zp_eval_hom(q, x.numerator, x.denominator) for q in chain])


def sturm_variations_at_inf(chain, direction: int) -> int:
    """Sign variations of a chain at +inf (direction 1) or -inf (-1), read
    from the leading coefficients."""
    return sign_variations([(1 if q[-1] > 0 else -1) * (direction if len(q) % 2 == 0 else 1)
                            for q in chain if q])


def window_counts(p: ZP, r_lo: Fraction, r_hi: Fraction, lower: Fraction = None):
    """Distinct real roots of p, counted with one Sturm chain of its
    square-free part: (all of them, those at or below r_lo, those strictly
    between r_lo and r_hi).  Given ``lower`` < r_lo, each count takes only
    the roots above it."""
    p = zp_squarefree_part(p)
    if zp_degree(p) < 1:
        return 0, 0, 0
    chain = sturm_chain(p)
    start = sturm_variations_at_inf(chain, -1) if lower is None else sturm_variations_at(chain, lower)
    v_lo, v_hi = sturm_variations_at(chain, r_lo), sturm_variations_at(chain, r_hi)
    # the chain counts (r_lo, r_hi]; a root at r_hi is not inside the window
    inside = v_lo - v_hi - (zp_sign_at(p, r_hi) == 0)
    return start - sturm_variations_at_inf(chain, 1), start - v_lo, inside


def root_bound(p: ZP) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p[-1])
    m = max(abs(c) for c in p[:-1]) if len(p) > 1 else 0
    return Fraction(1) + Fraction(m, lead)


def isolate_real_roots(p: ZP):
    """Isolating intervals for the distinct real roots of a square-free p.

    Returns a sorted list of pairwise disjoint (lo, hi) Fraction pairs.  A
    root that a bisection midpoint hits comes out as the degenerate interval
    lo == hi; every other root, rational or not, has lo < root < hi with
    neither endpoint a root.  So p = (0, 1), that is x, gives (-1, 1).
    """
    if zp_degree(p) < 1:
        return []
    chain = sturm_chain(p)
    b = root_bound(p)
    den = b.denominator
    out = []

    def values(num, k):
        # chain values at num / (den * 2**k); the first is p's
        return [zp_eval_hom(q, num, den << k) for q in chain]

    def recurse(lo, hi, k, nlo, nhi):
        # the interval from lo / (den * 2**k) to hi / (den * 2**k)
        n = nlo - nhi
        if n == 0:
            return
        if n == 1:
            # shrink away from endpoints that are roots of p: Cauchy-bound
            # endpoints never are, and midpoints are root-checked below
            out.append((Fraction(lo, den << k), Fraction(hi, den << k)))
            return
        mid = lo + hi  # at depth k + 1
        vals = values(mid, k + 1)
        if vals[0]:
            nm = sign_variations(vals)
            recurse(2 * lo, mid, k + 1, nlo, nm)
            recurse(mid, 2 * hi, k + 1, nm, nhi)
            return
        mid_fr = Fraction(mid, den << (k + 1))
        out.append((mid_fr, mid_fr))
        # eps starts at a quarter of the width and halves: at depth j its
        # numerator is hi - lo and the midpoint's is mid * 2**(j - k - 1)
        eps, j = hi - lo, k + 2
        for _ in range(REFINE_BUDGET):
            mid *= 2
            left, right = values(mid - eps, j), values(mid + eps, j)
            if left[0] and right[0]:
                nml, nmr = sign_variations(left), sign_variations(right)
                if nml - nmr == 1:  # bracket holds only the found root
                    break
            j += 1
        else:
            raise BudgetExceeded("root isolation did not separate a rational root")
        recurse(lo << (j - k), mid - eps, j, nlo, nml)
        recurse(mid + eps, hi << (j - k), j, nmr, nhi)

    bn = b.numerator
    recurse(-bn, bn, 0, sign_variations(values(-bn, 0)), sign_variations(values(bn, 0)))
    out.sort(key=lambda iv: iv[0])
    return out


class AlgebraicNumber:
    """A real algebraic number: square-free defining ZP + isolating interval.

    lo == hi encodes an exact rational.  The interval is refined in place;
    arithmetic predicates (sign_of, equals) are exact.
    """

    __slots__ = ("poly", "lo", "hi", "_lo_sign")

    def __init__(self, poly: ZP, lo: Fraction, hi: Fraction):
        self.poly = poly
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self._lo_sign = None  # sign of poly at lo, set by the first refine

    @classmethod
    def from_rational(cls, r) -> "AlgebraicNumber":
        r = Fraction(r)
        return cls(zp([-r.numerator, r.denominator]), r, r)

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def refine(self, steps: int = 1) -> None:
        """Bisect the isolating interval ``steps`` times, or until a midpoint
        is the number itself.

        The ends are integer numerators over one common denominator that
        doubles with every step, and each step signs only its midpoint;
        Fractions are built at the end.
        """
        if self.is_rational or steps < 1:
            return
        den = lcm(self.lo.denominator, self.hi.denominator)
        lo = self.lo.numerator * (den // self.lo.denominator)
        hi = self.hi.numerator * (den // self.hi.denominator)
        lo_sign = self._lo_sign
        if lo_sign is None:
            lo_sign = zp_sign_at(self.poly, self.lo)
        for _ in range(steps):
            mid, den = lo + hi, den << 1
            lo, hi = lo << 1, hi << 1
            v = zp_eval_hom(self.poly, mid, den)
            if v == 0:
                lo = hi = mid
                break
            if lo_sign * v < 0:
                hi = mid
            else:
                lo, lo_sign = mid, (v > 0) - (v < 0)
        self.lo, self.hi, self._lo_sign = Fraction(lo, den), Fraction(hi, den), lo_sign

    def refine_below(self, width: Fraction) -> None:
        """Refine until the interval is narrower than ``width``: each step
        halves it, so (hi - lo) // width has as many bits as steps needed."""
        if not self.is_rational:
            self.refine(((self.hi - self.lo) // width).bit_length())

    def sign_of(self, q: ZP) -> int:
        """Exact sign of q(alpha).

        q is reduced modulo the defining polynomial p, and the interval is
        bisected until a range of q over it excludes 0.  The range shrinks
        to q(alpha), so this decides every nonzero sign.  If the sign is
        still open after 32 steps, one gcd test asks whether q(alpha) = 0:
        g = gcd(p, q) is square-free, and the interval holds no root of p
        but alpha and has no root of p at its ends, so g(alpha) = 0 exactly
        when g changes sign across the interval.
        """
        if self.is_rational:
            return zp_sign_at(q, self.lo)
        q = zp_rem(q, self.poly)  # a positive multiple of q mod p
        if not q:
            return 0
        for step in range(REFINE_BUDGET):
            lo, hi = _poly_range(q, self.lo, self.hi)[:2]
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            if step == 32:
                g = zp_gcd(self.poly, q)
                if zp_sign_at(g, self.lo) * zp_sign_at(g, self.hi) < 0:
                    return 0
            self.refine()
            if self.is_rational:
                return zp_sign_at(q, self.lo)
        raise BudgetExceeded("sign test did not converge")

    def nonvanishing_interval(self, qs, lo: Fraction, hi: Fraction):
        """Rationals a < alpha < b inside (lo, hi) on which no polynomial in
        ``qs`` vanishes; lo < alpha < hi, and each q must be nonzero at alpha.

        Each q is tested on its own by its ``_poly_range`` over [a, b].  An
        irrational alpha is refined until its interval serves; a rational
        one gives a, b = alpha -+ d, halving d.  If refining finds alpha
        rational, [a, b] stays inside its last isolating interval.
        """
        d = None
        for _ in range(REFINE_BUDGET):
            if self.is_rational:
                d = min(self.lo - lo, hi - self.lo, d or hi - lo) / 2
                a, b = self.lo - d, self.lo + d
            else:
                a, b = self.lo, self.hi
                d = b - a
            if lo < a and b < hi and all(r[0] > 0 or r[1] < 0
                                         for r in (_poly_range(q, a, b) for q in qs)):
                return a, b
            self.refine()
        raise BudgetExceeded("no interval clear of the polynomials' roots")

    def equals(self, other: "AlgebraicNumber") -> bool:
        """Whether both are one number; if not, both are refined until their
        intervals are disjoint.  g = gcd(p, q) is square-free, and no end of
        an interval that is not a point is a root of it, so the overlap of two
        such intervals holds a root of g, which is then both numbers, exactly
        when g changes sign across it."""
        if self.is_rational or other.is_rational:
            r, x = (self, other) if self.is_rational else (other, self)
            return x.sign_of(self.from_rational(r.lo).poly) == 0
        g = zp_gcd(self.poly, other.poly)
        if zp_degree(g) < 1:
            return False
        for _ in range(REFINE_BUDGET):
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
            if lo >= hi:
                return False
            if zp_sign_at(g, lo) * zp_sign_at(g, hi) < 0:
                return True
            self.refine()
            other.refine()
        raise BudgetExceeded("algebraic equality test did not converge")

    def compare_rational(self, r: Fraction) -> int:
        return self.sign_of(zp([-r.numerator, r.denominator]))

    def ratio_interval(self, num: ZP, den: ZP, width: Fraction):
        """Rationals lo <= num(alpha)/den(alpha) <= hi with hi - lo <= width,
        refining alpha as needed; den(alpha) must be nonzero."""
        for _ in range(REFINE_BUDGET):
            if self.is_rational:
                v = zp_eval_fr(num, self.lo) / zp_eval_fr(den, self.lo)
                return v, v
            nlo, nhi, nscale = _poly_range(num, self.lo, self.hi)
            dlo, dhi, dscale = _poly_range(den, self.lo, self.hi)
            if dlo > 0 or dhi < 0:
                cands = [Fraction(n * dscale, d * nscale) for n in (nlo, nhi) for d in (dlo, dhi)]
                if max(cands) - min(cands) <= width:
                    return min(cands), max(cands)
            self.refine()
        raise BudgetExceeded("ratio interval did not converge")

    def __float__(self) -> float:
        if self.is_rational:
            return float(self.lo)
        self.refine_below(Fraction(1, 10**12))
        return float((self.lo + self.hi) / 2)

    def __repr__(self):
        # the interval as it stands: refining here would change later results
        if self.is_rational:
            return f"Alg({self.lo})"
        return f"Alg({self.lo}, {self.hi})"


def real_roots_with_multiplicities(p: ZP):
    """All real roots of an integer polynomial, with multiplicities.

    ``p`` is a ZP.  Returns a list of (AlgebraicNumber,
    multiplicity) sorted by the root value; isolating intervals are pairwise
    disjoint.  Raises ValueError on the zero polynomial.
    """
    p = zp_primitive(p)
    if not p:
        raise ValueError("zero polynomial has no well-defined roots")
    roots = []
    for factor, mult in zp_squarefree_decomposition(p):
        for lo, hi in isolate_real_roots(factor):
            roots.append((AlgebraicNumber(factor, lo, hi), mult))
    # factors are pairwise coprime, so refinement separates all intervals
    separate([r for r, _ in roots])
    roots.sort(key=lambda rm: rm[0].lo)
    return roots


def real_root_multiplicities(p: ZP):
    """The multiplicities of the real roots of an integer polynomial, in
    increasing root order; the roots themselves are not built.

    The last entry of the Sturm chain of p is gcd(p, p') up to a constant.
    When it is a constant, p is square-free and its V(-inf) - V(+inf) real
    roots are all simple.  Otherwise roots of different square-free factors
    must be put in order, which ``real_roots_with_multiplicities`` does.
    Raises ValueError on the zero polynomial.
    """
    p = zp_primitive(p)
    if not p:
        raise ValueError("zero polynomial has no well-defined roots")
    if len(p) == 1:
        return []
    chain = sturm_chain(p)
    if len(chain[-1]) == 1:
        return [1] * (sturm_variations_at_inf(chain, -1) - sturm_variations_at_inf(chain, 1))
    return [m for _, m in real_roots_with_multiplicities(p)]


def separate(numbers) -> None:
    """Refine distinct algebraic numbers in place until their isolating
    intervals are pairwise disjoint.

    Each pass refines both numbers of every overlapping pair once.  Raises
    BudgetExceeded after REFINE_BUDGET passes (equal numbers never separate).
    """
    for _ in range(REFINE_BUDGET):
        done = True
        for i, a in enumerate(numbers):
            for b in numbers[i + 1:]:
                if a.lo <= b.hi and b.lo <= a.hi:
                    a.refine()
                    b.refine()
                    done = False
        if done:
            return
    raise BudgetExceeded("isolating intervals did not separate")


def _poly_range(p: ZP, lo: Fraction, hi: Fraction):
    """Crude interval extension of p over [lo, hi] via endpoint + bound.

    Returns integers (a, b, e), e > 0, with p([lo, hi]) inside [a/e, b/e].
    Over the common denominator d of lo and hi, e = d**deg(p): the endpoint
    values are homogeneous, and the slack |p'|(m) * (hi - lo) bounds the
    change of p, where |p'| has the absolute coefficients of p' and
    m = max(|lo|, |hi|).
    """
    if not p:
        return 0, 0, 1
    d = lcm(lo.denominator, hi.denominator)
    l, h = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    a, b = zp_eval_hom(p, l, d), zp_eval_hom(p, h, d)
    slack = zp_eval_hom([abs(c) for c in zp_derivative(p)], max(abs(l), abs(h)), d) * (h - l)
    return min(a, b) - slack, max(a, b) + slack, d ** (len(p) - 1)
