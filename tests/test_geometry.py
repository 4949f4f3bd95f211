from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.bivar import substitute_line_family
from trajspace.geometry import (
    BoundaryComponent,
    Field,
    SceneError,
    circle_poly,
    curve_from_terms,
    line_family,
    parse_scene,
    trajectory_line,
)
from trajspace.polys import zp_mul, zp_primitive
from trajspace.sweep import SEAM_ROTATIONS

from conftest import eval_terms, mul_terms

UNIT_CIRCLE, _ = curve_from_terms(circle_poly(0, 0, 1))


def eval_spoly(G, c, s):
    """Reference: an SPoly at rational (c, s), in Fraction arithmetic."""
    return sum((Fraction(a) * c**i * s**k for k, co in enumerate(G.coeffs)
                for i, a in enumerate(co)), Fraction(0))


def test_circle_sugar():
    assert UNIT_CIRCLE.coeffs == [(-1, 0, 1), (), (1,)]
    disk = BoundaryComponent(UNIT_CIRCLE, 1, 1, "outer")
    assert disk.side_sign(Fraction(1), Fraction(0)) == 0
    assert disk.side_sign(Fraction(0), Fraction(0)) == -1
    assert disk.side_sign(Fraction(1), Fraction(1)) == 1


def test_curve_from_terms_clears_denominators():
    G, L = curve_from_terms({(1, 0): Fraction(1, 2), (0, 0): Fraction(1, 3),
                             (0, 2): Fraction(-5, 6), (3, 0): 0})
    assert (G.coeffs, L) == ([(2, 3), (), (-5,)], 6)
    with pytest.raises(SceneError, match="identically zero"):
        curve_from_terms({(1, 1): Fraction(0)})


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
    X, Y, m = line_family(fld, chart, q)
    assert m > 0
    assert exact == (eval_spoly(X, c, s) / m, eval_spoly(Y, c, s) / m)
    approx = trajectory_line(fld, float(c), chart, float(q)).point_at(float(s))
    assert all(abs(a - float(e)) <= 1e-9 for a, e in zip(approx, exact))


@given(rational, rational)
@settings(max_examples=40, deadline=None)
def test_vertical_trajectory_line(c, s):
    fld = Field("constant", direction=(Fraction(0), Fraction(1)))
    X, Y, m = line_family(fld)
    assert (X.coeffs, Y.coeffs, m) == ([(0, 1)], [(), (1,)], 1)
    assert trajectory_line(fld, c).point_at(s) == (c, s)


@pytest.mark.parametrize("line,expected", [
    (Fraction(0), (-1, 0, 1)),   # x = 0, in y
    (Fraction(2), (3, 0, 1)),    # x = 2, in y
])
def test_restrict_unit_circle(line, expected):
    assert UNIT_CIRCLE.at_param(line) == expected


def test_restrict_offset_circle_on_ray():
    circle, _ = curve_from_terms(circle_poly(3, 0, 1))
    # on y = 0, in x: (x-3)^2 - 1 = x^2 - 6x + 8
    assert circle.at_s(Fraction(0)) == (8, -6, 1)


coeff = st.fractions(-4, 4, max_denominator=6)
terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coeff, min_size=1, max_size=4
).filter(lambda t: any(t.values()))


@given(terms, terms, rational)
@settings(max_examples=80, deadline=None)
def test_restrict_is_ring_homomorphism(F, G, r):
    # restricting to x = r or to y = r commutes with products, up to a
    # positive factor; at_param is primitive, so there it is exact (Gauss)
    (f, _), (g, _), (fg, _) = (curve_from_terms(t) for t in (F, G, mul_terms(F, G)))
    assert fg.at_param(r) == zp_mul(f.at_param(r), g.at_param(r))
    assert zp_primitive(fg.at_s(r)) == zp_primitive(zp_mul(f.at_s(r), g.at_s(r)))


@given(terms, st.sampled_from([1, -1]), rational, rational)
@settings(max_examples=100, deadline=None)
def test_side_sign_is_the_fraction_sign(F, inside_sign, x, y):
    comp = BoundaryComponent(*curve_from_terms(F), inside_sign, "outer")
    v = inside_sign * eval_terms(F, x, y)
    assert comp.side_sign(x, y) == (v > 0) - (v < 0)


FAMILIES = ([("constant", 0, Fraction(0))]
            + [("radial", chart, q) for chart in (0, 1) for q in SEAM_ROTATIONS])


@pytest.mark.parametrize("kind,chart,q", FAMILIES,
                         ids=[f"{k}{ch}-q{q.numerator}_{q.denominator}" for k, ch, q in FAMILIES])
@given(F=terms, point=st.tuples(rational, rational).filter(any))
@settings(max_examples=10, deadline=None)
def test_substitute_line_family_matches_sympy(kind, chart, q, F, point):
    # a positive multiple of F(x(c, s), y(c, s)), expanded independently
    sp = pytest.importorskip("sympy")
    c, s = sp.symbols("c s")
    fld = (Field("constant", direction=point) if kind == "constant"
           else Field("radial", center=point))
    x, y = (sp.Poly(v, c, s, domain="QQ") for v in trajectory_line(fld, c, chart, q).point_at(s))
    want = sum((x**i * y**j * sp.Rational(v.numerator, v.denominator) for (i, j), v in F.items()),
               sp.Poly(0, c, s, domain="QQ"))
    got = substitute_line_family(curve_from_terms(F)[0], *line_family(fld, chart, q))
    got = sp.Poly.from_dict({(i, k): a for k, co in enumerate(got.coeffs)
                             for i, a in enumerate(co) if a}, c, s, domain="QQ")
    ratio = want.LC() / got.LC()
    assert ratio > 0
    assert (want - got * ratio).is_zero


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