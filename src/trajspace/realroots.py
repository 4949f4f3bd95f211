"""Exact real-root isolation and real algebraic numbers.

Every question about real roots has one answer here:
- how many: Sturm chains, primitive remainder sequences over ZZ whose
  entries have the signs of the Sturm remainders over QQ (``zp_prs``).
  ``real_root_multiplicities`` counts a square-free polynomial's roots from
  the chain's signs at -inf and +inf, and ``window_counts`` counts them in
  total, at or below one cut and strictly between two;
- where: ``isolate_real_roots`` bisects to isolating intervals;
- how close: ``AlgebraicNumber.refine`` is the one bisection of an
  isolating interval, and ``refine_below`` only works out its step count.
  A refinement of JUMP_STEPS or more steps guesses in floats where the
  bisection ends and certifies that cell by two exact signs (the idea of
  Abbott's quadratic interval refinement, ACM CCA 48(1), 2014);
- which sign: ``AlgebraicNumber.sign_of`` gives the exact sign of another
  polynomial at an algebraic number (a square-free defining polynomial plus
  an isolating interval).  Everything else about such numbers reduces to
  it, including the questions about polynomials over QQ(alpha) that
  ``bivar.SturmHabicht`` puts.

Every sign at a rational point is the sign of a homogeneous integer value
(``polys.zp_eval_hom``).  Bisections keep their ends as integer numerators
over the denominator D * 2**k at depth k, an algebraic number included, and
build Fractions only for the intervals handed out or read.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm

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


# refine(k) for k >= JUMP_STEPS first tries ``AlgebraicNumber._jump``
JUMP_STEPS = 8


class AlgebraicNumber:
    """A real algebraic number: square-free defining ZP + isolating interval.

    The interval is the integers (l, h, d), d > 0: lo = l/d, hi = h/d, and
    l == h encodes an exact rational.  The Fractions ``lo`` and ``hi`` are
    built on first read and dropped by ``refine``, which refines the
    interval in place; arithmetic predicates (sign_of, equals) are exact.
    """

    __slots__ = ("poly", "_l", "_h", "_d", "_lo_sign", "_lo", "_hi")

    def __init__(self, poly: ZP, lo: Fraction, hi: Fraction):
        self.poly, self._lo, self._hi = poly, Fraction(lo), Fraction(hi)
        (l, a), (h, b) = self._lo.as_integer_ratio(), self._hi.as_integer_ratio()
        self._d = d = lcm(a, b)
        self._l, self._h = l * (d // a), h * (d // b)
        self._lo_sign = None  # sign of poly at lo, set by the first refine

    @classmethod
    def from_rational(cls, r) -> "AlgebraicNumber":
        r = Fraction(r)
        return cls(zp([-r.numerator, r.denominator]), r, r)

    @property
    def lo(self) -> Fraction:
        if self._lo is None:
            self._lo = Fraction(self._l, self._d)
        return self._lo

    @property
    def hi(self) -> Fraction:
        if self._hi is None:
            self._hi = Fraction(self._h, self._d)
        return self._hi

    @property
    def is_rational(self) -> bool:
        return self._l == self._h

    def refine(self, steps: int = 1) -> None:
        """Bisect the isolating interval ``steps`` times, or until a midpoint
        is the number itself.  Each step doubles d and signs only its
        midpoint; ``_jump`` may reach the same state at once."""
        l, h, d, lo_sign = self._l, self._h, self._d, self._lo_sign
        if l == h or steps < 1:
            return
        if lo_sign is None:
            lo_sign = zp_sign_at(self.poly, self.lo)  # lo is still the one built by __init__
        self._lo = self._hi = None
        if steps >= JUMP_STEPS and lo_sign and (jump := self._jump(steps, lo_sign)):
            l, h, d, steps = *jump, 0
        for _ in range(steps):
            mid, d = l + h, d << 1
            l, h = l << 1, h << 1
            v = zp_eval_hom(self.poly, mid, d)
            if v == 0:
                l = h = mid
                break
            if lo_sign * v < 0:
                h = mid
            else:
                l, lo_sign = mid, (v > 0) - (v < 0)
        self._l, self._h, self._d, self._lo_sign = l, h, d, lo_sign

    def _jump(self, k: int, s: int):
        """The (l, h, d) that k bisection steps reach, or None: with w = h - l,
        the level-k grid cell [l 2^k + m w, l 2^k + (m + 1) w] / (d 2^k) that
        holds alpha or, if alpha is a grid point, alpha at the coarsest level
        that has it.  Floats guess m; exact signs decide.  alpha is the only
        root of p in the interval, so p has the sign s of lo left of alpha
        and -s right of it: a zero at a cell end is alpha, a sign change
        across a cell puts alpha inside, and equal signs say which side it is
        on.  Three cells are tried."""
        l, h, d = self._l, self._h, self._d
        w, base, den, top = h - l, l << k, d << k, 1 << k
        try:
            a, b = _float_root(self.poly, l / d, h / d, s, w / den).as_integer_ratio()
        except OverflowError:
            return None
        m = min(max(((a * d - l * b) << k) // (b * w), 0), top - 1)
        for _ in range(3):
            vl, vr = (zp_eval_hom(self.poly, base + i * w, den) for i in (m, m + 1))
            if vl == 0 or vr == 0:
                i = m if vl == 0 else m + 1
                t = (i & -i).bit_length() - 1  # alpha is a grid point from level k - t
                point = (l << (k - t)) + (i >> t) * w
                return (point, point, d << (k - t)) if i < top else None
            if (vl > 0) != (vr > 0):
                return base + m * w, base + (m + 1) * w, den
            m += 1 if (vl > 0) == (s > 0) else -1
            if not 0 <= m < top:
                return None
        return None

    def refine_below(self, width: Fraction) -> None:
        """Refine until the interval is narrower than ``width``: each step
        halves it, so (hi - lo) // width has as many bits as steps needed."""
        if not self.is_rational:
            self.refine(((self._h - self._l) * width.denominator
                         // (self._d * width.numerator)).bit_length())

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
        if not self.is_rational:
            q = zp_rem(q, self.poly)  # a positive multiple of q mod p
            if not q:
                return 0
            dq = [abs(c) for c in zp_derivative(q)]
            for step in range(REFINE_BUDGET):
                lo, hi = _range(q, dq, self._l, self._h, self._d)
                if lo > 0 or hi < 0:
                    return 1 if lo > 0 else -1
                if step == 32:
                    g = zp_gcd(self.poly, q)
                    if zp_eval_hom(g, self._l, self._d) * zp_eval_hom(g, self._h, self._d) < 0:
                        return 0
                self.refine()
                if self.is_rational:
                    break
            else:
                raise BudgetExceeded("sign test did not converge")
        return zp_sign_at(q, self.lo)

    def nonvanishing_interval(self, qs, lo: Fraction, hi: Fraction):
        """Rationals a < alpha < b inside (lo, hi) on which no polynomial in
        ``qs`` vanishes; lo < alpha < hi, and each q must be nonzero at alpha.

        Each q is tested on its own by its ``_range`` over [a, b].  An
        irrational alpha is refined until its interval serves; a rational
        one gives a, b = alpha -+ d, halving d.  If refining finds alpha
        rational, [a, b] stays inside its last isolating interval.
        """
        qs = [(q, [abs(c) for c in zp_derivative(q)]) for q in qs]
        d = None
        for _ in range(REFINE_BUDGET):
            if self.is_rational:
                d = min(self.lo - lo, hi - self.lo, d or hi - lo) / 2
                a, b = self.lo - d, self.lo + d
                e = lcm(a.denominator, b.denominator)
                ends = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator), e
            else:
                a, b, ends = self.lo, self.hi, (self._l, self._h, self._d)
                d = b - a
            if lo < a and b < hi and all(r[0] > 0 or r[1] < 0
                                         for r in (_range(q, dq, *ends) for q, dq in qs)):
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
        refining alpha as needed; den(alpha) must be nonzero.  With the
        ranges [nlo, nhi] and [dlo, dhi] > 0 of ``_range``, the least and
        greatest quotients are nlo/e1 and nhi/e2 times d**(deg den - deg num),
        where the signs of nlo and nhi pick the ends e1, e2 of [dlo, dhi]."""
        dnum, dden = ([abs(c) for c in zp_derivative(p)] for p in (num, den))
        ex = len(den) - max(len(num), 1)
        for _ in range(REFINE_BUDGET):
            if self.is_rational:
                v = zp_eval_fr(num, self.lo) / zp_eval_fr(den, self.lo)
                return v, v
            l, h, d = self._l, self._h, self._d
            nlo, nhi = _range(num, dnum, l, h, d)
            dlo, dhi = _range(den, dden, l, h, d)
            if dhi < 0:
                nlo, nhi, dlo, dhi = -nhi, -nlo, -dhi, -dlo
            if dlo > 0:
                e1, e2 = dhi if nlo >= 0 else dlo, dlo if nhi >= 0 else dhi
                sn, se = (d ** ex, 1) if ex >= 0 else (1, d ** -ex)
                if (nhi * e1 - nlo * e2) * sn * width.denominator <= width.numerator * e1 * e2 * se:
                    return Fraction(nlo * sn, e1 * se), Fraction(nhi * sn, e2 * se)
            self.refine()
        raise BudgetExceeded("ratio interval did not converge")

    def __float__(self) -> float:
        # int / int rounds correctly, as float(Fraction) does
        if not self.is_rational:
            self.refine_below(Fraction(1, 10**12))
        return (self._l + self._h) / (2 * self._d)

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
                if a._l * b._d <= b._h * a._d and b._l * a._d <= a._h * b._d:
                    a.refine()
                    b.refine()
                    done = False
        if done:
            return
    raise BudgetExceeded("isolating intervals did not separate")


def _range(p: ZP, dp: ZP, l: int, h: int, d: int):
    """Integers a <= b with d**deg(p) p([l/d, h/d]) inside [a, b]: the values
    at the ends, widened by |p'|(m) (h - l) / d, where dp = |p'| has the
    absolute coefficients of p' and m = max(|l|, |h|) / d."""
    a, b = zp_eval_hom(p, l, d), zp_eval_hom(p, h, d)
    slack = zp_eval_hom(dp, max(abs(l), abs(h)), d) * (h - l)
    return min(a, b) - slack, max(a, b) + slack


def _float_root(p: ZP, a: float, b: float, s: int, tol: float) -> float:
    """A float guess at the root of p in [a, b], where p has the sign s at a:
    Newton's method on p scaled to coefficients of at most 1, bisecting
    where a step would leave the bracket or not halve the last one (as in
    ``rtsafe``, Press et al., Numerical Recipes), until a step is within tol."""
    top = max(abs(c) for c in p)
    cs = [c / top for c in reversed(p)]
    x, dx = (a + b) / 2, b - a
    for _ in range(100):
        f = df = 0.0
        for c in cs:
            f, df = f * x + c, df * x + f
        if not isfinite(f):
            raise OverflowError("p leaves the floats near its root")
        if f == 0:
            break
        a, b = (x, b) if f * s > 0 else (a, x)
        y = x - f / df if df else x
        if not a < y < b or 2 * abs(y - x) > dx:
            y = (a + b) / 2
        dx = abs(y - x)
        if dx <= tol:
            return y
        x = y
    return x
