"""Local boundary models of tangency patterns and the sampling oracle.

The model for a pattern (m_1, ..., m_k) is the monic polynomial

    prod_i [ (u - i)^{m_i} + sum_{l=0}^{m_i - 2} x_{i,l} (u - i)^l ]

with one rational perturbation coordinate per (i, l).  Freezing the
parameters and reading off real roots with multiplicities gives the nearby
trajectory patterns; sampling small random rational parameters is the
numeric oracle that validates the combinatorial ``resolutions``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import omega
from .realroots import real_roots_with_multiplicities

__all__ = ["ModelPolynomial", "build_model", "sampled_patterns",
           "chamber_count", "oracle_containment", "real_roots_with_multiplicities"]


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

    def coefficients(self):
        """Low-first Fraction coefficients of the expanded polynomial in u."""
        poly = [Fraction(1)]
        for i, m in enumerate(self.pattern, start=1):
            factor = _shifted_power(-i, m)
            for l in range(m - 1):
                x = self.parameters[(i, l)]
                if x:
                    shifted = _shifted_power(-i, l)
                    for k, c in enumerate(shifted):
                        factor[k] += x * c
            poly = _mul(poly, factor)
        return poly

    def real_roots(self):
        """Ordered (root, multiplicity) pairs of the current polynomial."""
        return real_roots_with_multiplicities(self.coefficients())

    def trajectory_patterns(self):
        """Patterns of the slices {model <= 0}, in increasing u order."""
        mults = [m for _, m in self.real_roots()]
        return tuple(omega.segment_patterns(mults))


def _shifted_power(shift: int, n: int):
    """Coefficients of (u + shift)^n."""
    out = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k] += c * shift
            nxt[k + 1] += c
        out = nxt
    return out


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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
    keys = sorted(ModelPolynomial(pattern).parameters)
    grid = 1000
    samples = []
    for _ in range(sample_count):
        samples.append({k: magnitude * Fraction(rng.randint(-grid, grid), grid) for k in keys})

    def run(assignment):
        model = ModelPolynomial(pattern)
        for k, v in assignment.items():
            model.parameters[k] = v
        mults = [m for _, m in model.real_roots()]
        assert sum(mults) % 2 == omega.norm(pattern) % 2, "complex roots must pair up"
        return tuple(omega.segment_patterns(mults))

    return set(map(run, samples))


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