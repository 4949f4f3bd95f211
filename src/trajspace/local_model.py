"""Local boundary models of tangency patterns and the sampling oracle.

The model for a pattern (m_1, ..., m_k) is the monic polynomial

    prod_i [ (u - i)^{m_i} + sum_{l=0}^{m_i - 2} x_{i,l} (u - i)^l ]

with one rational perturbation coordinate per (i, l).  Freezing the
parameters and reading off the multiplicities of the real roots, in root
order, gives the nearby trajectory patterns; sampling small random rational
parameters is the numeric oracle that validates the combinatorial
``resolutions``.  The oracle draws integers over one fixed denominator and
only counts (a Sturm chain per factor); ``real_roots`` isolates the roots
of the expanded product for callers that need the roots themselves.

Counting works one factor at a time.  In y = u - i the i-th factor is
g_i(y) = y^m + sum_l x_l y^l; over a common denominator den of the x_l it
is den*y^m + sum_l c_l y^l.  Window certificate: if sum_l |c_l| 2^(m-l) < den,
every root of g_i has |y| < 1/2, since for |y| >= 1/2

    |g_i(y)| >= |y|^m (1 - sum_l |x_l| 2^(m-l)) > 0.

When every factor passes, the factors' roots lie in the disjoint windows
(i - 1/2, i + 1/2), so the product's multiplicities in root order are the
concatenation of the factors' lists in order of i.  Otherwise (large
parameters, where roots of two factors may meet and their multiplicities
add) the expanded product is counted as a whole.  A simple factor u - i has
no parameters; its one root is the integer i.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from . import omega
from .polys import zp_mul, zp_shift
from .realroots import real_root_multiplicities, real_roots_with_multiplicities

__all__ = ["ModelPolynomial", "build_model", "sampled_patterns",
           "chamber_count", "oracle_containment"]


class ModelPolynomial:
    """The perturbed model for one pattern; parameters default to zero."""

    def __init__(self, pattern):
        self.pattern = omega.check_pattern(pattern)
        self.parameters = {}
        for i, m in enumerate(self.pattern, start=1):
            for l in range(m - 1):  # l = 0 .. m-2
                self.parameters[(i, l)] = Fraction(0)

    def set_parameter(self, i: int, l: int, value) -> None:
        if (i, l) not in self.parameters:
            raise KeyError(f"no parameter x_({i},{l}) for pattern {self.pattern}")
        self.parameters[(i, l)] = Fraction(value)

    def _factors(self):
        """(den, ``_integer_factors``) over the parameters' common denominator."""
        den = lcm(*(x.denominator for x in self.parameters.values()))
        return den, _integer_factors(self.pattern, den, iter(
            [x.numerator * (den // x.denominator) for x in self.parameters.values()]))

    def coefficients(self):
        """Low-first Fraction coefficients of the expanded polynomial in u:
        the integer product of ``_expand`` divided by its scale once."""
        den, factors = self._factors()
        scale = den ** len(factors)
        return [Fraction(c, scale) for c in _expand(factors)]

    def real_roots(self):
        """Ordered (root, multiplicity) pairs of the current polynomial,
        isolated on the expanded product."""
        return real_roots_with_multiplicities(_expand(self._factors()[1]))

    def multiplicities(self):
        """Multiplicities of the real roots of the current polynomial, in
        increasing root order, counted without isolating the roots."""
        return _multiplicities(*self._factors())


def _integer_factors(pattern, den, numerators):
    """[(i, g_i), ...]: den times the factors in y = u - i, over ZZ, that is
    g_i = den*y^m + sum_l c_l y^l with the c_l drawn from the iterator
    ``numerators`` in parameter key order, (i, l) increasing."""
    return [(i, tuple([next(numerators) for _ in range(m - 1)] + [0, den]))
            for i, m in enumerate(pattern, start=1)]


def _multiplicities(den, factors):
    """``ModelPolynomial.multiplicities`` of ``_integer_factors``: factor by
    factor under the window certificate (module docstring), a simple factor
    u - i giving [1]; otherwise from the expanded product."""
    if _certified(den, factors):
        mults = []
        for _, g in factors:
            mults += [1] if len(g) == 2 else real_root_multiplicities(g)
    else:
        mults = real_root_multiplicities(_expand(factors))
    assert sum(mults) % 2 == sum(len(g) - 1 for _, g in factors) % 2, "complex roots must pair up"
    return mults


def _certified(den, factors):
    """Whether every factor of ``ModelPolynomial._factors`` passes the
    window certificate sum_l |c_l| 2^(m-l) < den (module docstring)."""
    return all(sum(abs(c) << (len(g) - 1 - l) for l, c in enumerate(g[:-1])) < den
               for _, g in factors)


def _expand(factors):
    """The product of the factors (i, g_i) of ``ModelPolynomial._factors``,
    each shifted back to u over ZZ: den**k times the model polynomial."""
    poly = (1,)
    for i, g in factors:
        poly = zp_mul(poly, zp_shift(g, -i))
    return poly


def build_model(pattern) -> ModelPolynomial:
    model = ModelPolynomial(pattern)
    # degree |pattern| and monic, real roots exactly at 1..k with the given
    # multiplicities when all parameters vanish
    coeffs = model.coefficients()
    assert len(coeffs) - 1 == omega.norm(model.pattern)
    assert coeffs[-1] == 1
    return model


def sampled_patterns(pattern, sample_count: int, magnitude, seed: int = 0):
    """Distinct trajectory-pattern sequences over random small parameters.

    Parameters are uniform rationals with |x| <= magnitude on a fixed
    denominator grid; the RNG is seeded for reproducibility.
    """
    pattern = omega.check_pattern(pattern)
    magnitude = Fraction(magnitude)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    rng = random.Random(seed)
    grid = 1000
    # x = magnitude * n / grid over a fixed, not always least, denominator:
    # positive scales change neither the certificate nor a primitive part
    scale, den = magnitude.numerator, magnitude.denominator * grid
    observed = set()
    for _ in range(sample_count):
        # each sample is drawn as it is used, in parameter key order
        draws = iter([scale * rng.randint(-grid, grid) for _ in range(omega.reduced_norm(pattern))])
        mults = _multiplicities(den, _integer_factors(pattern, den, draws))
        observed.add(tuple(omega.segment_patterns(mults)))
    return observed


def chamber_count(observed) -> int:
    """Top-dimensional cell count seen by the oracle.

    Every all-simple sequence of k patterns witnesses k distinct
    top-dimensional trajectory cells of the local model (one per component
    of the cut-out set), so the count is the sum of lengths over distinct
    all-simple sequences.
    """
    total = 0
    for seq in observed:
        if all(all(m == 1 for m in p) for p in seq):
            total += len(seq)
    return total


def oracle_containment(pattern, sample_count: int = 200,
                       magnitude=Fraction(1, 1000), seed: int = 0):
    """Run the sampling oracle and compare with ``resolutions``.

    Returns (observed, resolved, contained).
    """
    observed = sampled_patterns(pattern, sample_count, magnitude, seed)
    resolved = omega.resolutions(pattern)
    return observed, resolved, observed <= resolved