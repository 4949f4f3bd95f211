import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.local_model import (
    ModelPolynomial,
    build_model,
    chamber_count,
    oracle_containment,
    sampled_patterns,
)
from trajspace.omega import enumerate_patterns, norm, resolutions, segment_patterns
from trajspace.polys import zp_add, zp_mul, zp_scale

from conftest import zp_pow

PATTERNS_TO_NORM_8 = [p for p in enumerate_patterns(7) if norm(p) <= 8]


@pytest.mark.parametrize("pattern,degree,roots", [
    ((2,), 2, [(1, 2)]),
    ((1, 2, 1), 4, [(1, 1), (2, 2), (3, 1)]),
    ((1, 2, 2, 1), 6, [(1, 1), (2, 2), (3, 2), (4, 1)]),
])
def test_model_at_zero_parameters(pattern, degree, roots):
    model = build_model(pattern)
    coeffs = model.coefficients()
    assert len(coeffs) - 1 == degree == norm(pattern)
    assert coeffs[-1] == 1
    got = model.real_roots()
    assert [m for _, m in got] == [m for _, m in roots]
    for (r, _), (want, _) in zip(got, roots):
        assert float(r) == pytest.approx(want, abs=1e-9)
        assert r.sign_of((-want, 1)) == 0   # exactly the integer root
    assert tuple(segment_patterns(model.multiplicities())) == (pattern,)


def test_quadratic_sampling_trichotomy():
    observed = sampled_patterns((2,), 60, Fraction(1, 1000))
    assert observed <= {(), ((1, 1),), ((2,),)}


def test_oracle_contained_121():
    observed, resolved, ok = oracle_containment((1, 2, 1), 100)
    assert ok
    assert chamber_count(observed) == 3  # 2^1 + 1


def test_oracle_chambers_1221():
    observed, _, ok = oracle_containment((1, 2, 2, 1), 200)
    assert ok
    assert chamber_count(observed) == 6  # 2^2 + 2


def test_sampling_deterministic_and_thread_stable():
    a = sampled_patterns((1, 2, 1), 50, Fraction(1, 1000), seed=7)
    b = sampled_patterns((1, 2, 1), 50, Fraction(1, 1000), seed=7)
    assert a == b
    d = sampled_patterns((1, 2, 1), 50, Fraction(1, 1000), seed=8)
    # different seed may or may not coincide as a set; it must stay contained
    assert d <= resolutions((1, 2, 1))


def test_root_parity_invariant():
    # complex roots pair up, so real-root multiplicity sums keep the parity
    model = build_model((1, 4, 1))
    model.set_parameter(2, 0, Fraction(1, 97))
    model.set_parameter(2, 2, Fraction(-1, 53))
    mults = sum(m for _, m in model.real_roots())
    assert mults % 2 == norm((1, 4, 1)) % 2


def test_bad_magnitude_rejected():
    with pytest.raises(ValueError):
        sampled_patterns((2,), 5, 0)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_counted_multiplicities_match_the_isolated_roots(data):
    # zero parameters leave multiple roots, which random steps almost never
    # do, so a third of the draws are zero
    pattern = data.draw(st.sampled_from(PATTERNS_TO_NORM_8))
    magnitude = data.draw(st.sampled_from(
        [Fraction(1, 1000), Fraction(1, 2), Fraction(1), Fraction(3)]))
    model = ModelPolynomial(pattern)
    for key in model.parameters:
        step = data.draw(st.one_of(st.just(0), st.integers(-1000, 1000)))
        model.set_parameter(*key, magnitude * Fraction(step, 1000))
    assert model.multiplicities() == [m for _, m in model.real_roots()]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_coefficients_match_the_product_formula(data):
    # prod_i [(u - i)^m_i + sum_l x_(i,l) (u - i)^l], expanded in Fractions
    pattern = data.draw(st.sampled_from(PATTERNS_TO_NORM_8))
    model = ModelPolynomial(pattern)
    want = (Fraction(1),)
    for i, m in enumerate(pattern, start=1):
        factor = zp_pow((-i, 1), m)
        for l in range(m - 1):
            x = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=50))
            model.set_parameter(i, l, x)
            factor = zp_add(factor, zp_scale(zp_pow((-i, 1), l), x))
        want = zp_mul(want, factor)
    assert tuple(model.coefficients()) == want


def test_counted_multiplicities_at_zero_parameters():
    # every factor (u - i)^m is a multiple root in its own window
    for pattern in PATTERNS_TO_NORM_8:
        assert build_model(pattern).multiplicities() == list(pattern)


def test_fallback_when_roots_of_two_factors_meet():
    # (u - 2)^2 - 1 has roots 1 and 3, on the roots of the factors u - 1 and
    # u - 3: the window certificate fails and multiplicities add
    model = build_model((1, 2, 1))
    model.set_parameter(2, 0, -1)
    got = model.real_roots()
    assert [m for _, m in got] == [2, 2]
    assert [r.compare_rational(Fraction(v)) for (r, _), v in zip(got, (1, 3))] == [0, 0]
    sp = pytest.importorskip("sympy")
    u = sp.symbols("u")
    poly = sp.Poly(list(reversed(model.coefficients())), u)
    assert sp.roots(poly) == {1: 2, 3: 2}
    assert model.multiplicities() == [2, 2]
    assert tuple(segment_patterns(model.multiplicities())) == ((2,), (2,))


@pytest.mark.parametrize("magnitude", [Fraction(1, 1000), Fraction(1, 2), Fraction(3)])
def test_sampled_patterns_match_the_model_on_the_same_draws(magnitude):
    # the sampler's integer draws, replayed as Fractions through the model
    for pattern in PATTERNS_TO_NORM_8:
        rng = random.Random(4)
        model = ModelPolynomial(pattern)
        want = set()
        for _ in range(40):
            for key in sorted(model.parameters):
                model.set_parameter(*key, magnitude * Fraction(rng.randint(-1000, 1000), 1000))
            want.add(tuple(segment_patterns(model.multiplicities())))
        assert sampled_patterns(pattern, 40, magnitude, seed=4) == want
