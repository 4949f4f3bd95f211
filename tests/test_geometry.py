from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.bivar import bp_eval, bp_mul, bp_normalize, bp_restrict_line
from trajspace.geometry import (
    Field,
    SceneError,
    circle_poly,
    line_family,
    parse_scene,
    trajectory_line,
)
from trajspace.sweep import SEAM_ROTATIONS

UNIT_CIRCLE = circle_poly(0, 0, 1)


def test_circle_sugar():
    assert bp_eval(UNIT_CIRCLE, Fraction(1), Fraction(0)) == 0
    assert bp_eval(UNIT_CIRCLE, Fraction(0), Fraction(0)) == -1


def test_radial_chart_zero_is_positive_x_axis():
    fld = Field("radial", center=(Fraction(0), Fraction(0)))
    line = trajectory_line(fld, Fraction(0))
    assert line.base == (Fraction(0), Fraction(0))
    assert line.direction[1] == 0 and line.direction[0] > 0


def test_radial_second_chart_flips():
    fld = Field("radial", center=(Fraction(0), Fraction(0)))
    line = trajectory_line(fld, Fraction(0), chart=1)
    assert line.direction[0] < 0


rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
fields = st.one_of(
    st.tuples(rational, rational).filter(any).map(
        lambda d: Field("constant", direction=d)),
    st.tuples(rational, rational).map(lambda c: Field("radial", center=c)),
)


@given(fields, st.sampled_from([0, 1]), st.sampled_from(SEAM_ROTATIONS), rational, rational)
@settings(max_examples=200, deadline=None)
def test_line_family_is_trajectory_line(fld, chart, q, c, s):
    exact = trajectory_line(fld, c, chart, q).point_at(s)
    x_cs, y_cs = line_family(fld, chart, q)
    assert exact == (bp_eval(x_cs, c, s), bp_eval(y_cs, c, s))
    approx = trajectory_line(fld, float(c), chart, float(q)).point_at(float(s))
    assert all(abs(a - float(e)) <= 1e-9 for a, e in zip(approx, exact))


@given(rational, rational)
@settings(max_examples=40, deadline=None)
def test_vertical_trajectory_line(c, s):
    fld = Field("constant", direction=(Fraction(0), Fraction(1)))
    assert line_family(fld) == ({(1, 0): 1}, {(0, 1): 1})
    assert trajectory_line(fld, c).point_at(s) == (c, s)


@pytest.mark.parametrize("line,expected", [
    (((0, 0), (0, 1)), [-1, 0, 1]),   # x = 0, y = t
    (((2, 0), (0, 1)), [3, 0, 1]),    # x = 2, y = t
])
def test_restrict_unit_circle(line, expected):
    got = bp_restrict_line(UNIT_CIRCLE, *line)
    assert [Fraction(c) for c in got] == [Fraction(c) for c in expected]


def test_restrict_offset_circle_on_ray():
    circle = circle_poly(3, 0, 1)
    got = bp_restrict_line(circle, (0, 1), (0, 0))
    # (t-3)^2 - 1 = t^2 - 6t + 8
    assert [Fraction(c) for c in got] == [8, -6, 1]


coeff = st.integers(-4, 4).map(Fraction)
bipoly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, min_size=1, max_size=4
).map(bp_normalize)


@given(bipoly, bipoly, st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_restrict_is_ring_homomorphism(F, G, bx, by, dx, dy):
    px, py = (Fraction(bx), Fraction(dx)), (Fraction(by), Fraction(dy))
    prod = bp_restrict_line(bp_mul(F, G), px, py)
    f, g = bp_restrict_line(F, px, py), bp_restrict_line(G, px, py)
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
    # only JSON integers are read as integers: no float, bool or string is cast
    for radius in ([2.9, 1], [2, 1.0], [True, 1], ["2", 1], 2.5, False):
        with pytest.raises(SceneError, match="expected integer"):
            parse_scene({**disk, "outer": {"curve": {**disk["outer"]["curve"],
                                                     "radius": radius}}})
    bad_entries = [[2.0, 0, 1, 1], [2, True, 1, 1], [2, 0, 1.5, 1], [2, 0, 1, "1"]]
    for entry in bad_entries:
        curve = {"type": "polynomial", "coeffs": [entry, [0, 2, 1, 1], [0, 0, -1, 1]]}
        with pytest.raises(SceneError, match="expected integer"):
            parse_scene({**disk, "outer": {"curve": curve}})
    for sign in (1.0, True, "1"):
        with pytest.raises(SceneError, match="expected integer"):
            parse_scene({**disk, "outer": {**disk["outer"], "inside_sign": sign}})
    with pytest.raises(SceneError, match="expected integer"):
        parse_scene({**disk, "field": {"kind": "constant", "direction": [[0, 1], [0.5, 1]]}})
    with pytest.raises(SceneError, match="expected integer"):
        parse_scene({**disk, "bbox": [[-2, 1], [2, 1], [-2, 1], 2.0]})
    parse_scene(disk)