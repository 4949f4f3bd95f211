from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.bivar import bp_eval, bp_mul, bp_normalize
from trajspace.geometry import (
    Field,
    Line,
    SceneError,
    circle_poly,
    parse_scene,
    restrict_to_line,
    trajectory_line,
)

UNIT_CIRCLE = circle_poly(0, 0, 1)


def test_circle_sugar():
    assert bp_eval(UNIT_CIRCLE, Fraction(1), Fraction(0)) == 0
    assert bp_eval(UNIT_CIRCLE, Fraction(0), Fraction(0)) == -1


def test_vertical_trajectory_line():
    fld = Field("constant", direction=(Fraction(0), Fraction(1)))
    line = trajectory_line(fld, Fraction(3, 2))
    assert line.point_at(Fraction(0))[0] == Fraction(3, 2)
    assert line.point_at(Fraction(5))[0] == Fraction(3, 2)  # x = c throughout


def test_radial_chart_zero_is_positive_x_axis():
    fld = Field("radial", center=(Fraction(0), Fraction(0)))
    line = trajectory_line(fld, Fraction(0))
    assert line.base == (Fraction(0), Fraction(0))
    assert line.direction[1] == 0 and line.direction[0] > 0


def test_radial_second_chart_flips():
    fld = Field("radial", center=(Fraction(0), Fraction(0)))
    line = trajectory_line(fld, Fraction(0), chart=1)
    assert line.direction[0] < 0


@pytest.mark.parametrize("line,expected", [
    (Line((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))), [-1, 0, 1]),
    (Line((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))), [3, 0, 1]),
])
def test_restrict_unit_circle(line, expected):
    got = restrict_to_line(UNIT_CIRCLE, line)
    assert [Fraction(c) for c in got] == [Fraction(c) for c in expected]


def test_restrict_offset_circle_on_ray():
    circle = circle_poly(3, 0, 1)
    ray = Line((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    got = restrict_to_line(circle, ray)
    # (t-3)^2 - 1 = t^2 - 6t + 8
    assert [Fraction(c) for c in got] == [8, -6, 1]


coeff = st.integers(-4, 4).map(Fraction)
bipoly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, min_size=1, max_size=4
).map(bp_normalize)


@given(bipoly, bipoly, st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_restrict_is_ring_homomorphism(F, G, bx, by, dx, dy):
    line = Line((Fraction(bx), Fraction(by)), (Fraction(dx), Fraction(dy)))
    prod = restrict_to_line(bp_mul(F, G), line)
    f, g = restrict_to_line(F, line), restrict_to_line(G, line)
    conv = [Fraction(0)] * (len(f) + len(g) - 1 if f and g else 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            conv[i + j] += a * b
    n = max(len(prod), len(conv))
    pad = lambda xs: list(xs) + [Fraction(0)] * (n - len(xs))
    assert pad(prod) == pad(conv)


def test_parse_rejects_bad_docs():
    with pytest.raises(SceneError):
        parse_scene({"field": {"kind": "constant", "direction": [[0, 1], [0, 1]]},
                     "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]],
                                         "radius": [1, 1]}},
                     "bbox": [[-2, 1], [2, 1], [-2, 1], [2, 1]]})
    with pytest.raises(SceneError):
        parse_scene({"nonsense": True})
    with pytest.raises(SceneError):
        parse_scene({"field": {"kind": "spiral"}, "outer": {}, "bbox": []})
    disk = {"field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
            "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]],
                                "radius": [1, 1]}},
            "bbox": [[-2, 1], [2, 1], [-2, 1], [2, 1]]}
    bad_curves = [
        ({"type": "circle", "center": [[0, 1], [0, 1]], "radius": [2, 0]}, "zero denominator"),
        ({"type": "polynomial", "coeffs": [[2, 0, 1, 1], [0, 2, 1, 0], [0, 0, -1, 1]]},
         "zero denominator"),
        ({"type": "polynomial", "coeffs": [[2, 0, 1, 1], [-1, 0, 1, 1], [0, 0, -1, 1]]},
         "negative exponent"),
        ({"type": "polynomial", "coeffs": [[1, 0, 0, 1]]}, "identically zero"),
        ({"type": "polynomial", "coeffs": [[2, 0, 1, 1], [2, 0, -1, 1]]}, "identically zero"),
    ]
    for curve, why in bad_curves:
        with pytest.raises(SceneError, match=why):
            parse_scene({**disk, "outer": {"curve": curve}})
    with pytest.raises(SceneError, match="zero denominator"):
        parse_scene({**disk, "field": {"kind": "constant", "direction": [[0, 1], [1, 0]]}})
    with pytest.raises(SceneError, match="zero denominator"):
        parse_scene({**disk, "bbox": [[-2, 1], [2, 1], [-2, 0], [2, 1]]})
    parse_scene(disk)