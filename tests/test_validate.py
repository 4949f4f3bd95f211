from fractions import Fraction

import pytest

from trajspace.geometry import parse_scene
from trajspace.validate import validate_scene

from conftest import ESCAPED_OVALS, GENERIC_FIXTURES, TWO_OVALS, load_fixture

VERT = {"kind": "constant", "direction": [[0, 1], [1, 1]]}


def circle(cx, cy, r, sign):
    return {"curve": {"type": "circle", "center": [cx, cy], "radius": r},
            "inside_sign": sign}


@pytest.mark.parametrize("name", GENERIC_FIXTURES)
def test_fixtures_validate(name):
    report = validate_scene(load_fixture(name))
    assert report.ok, report.failures()


def test_overlapping_holes_rejected():
    sc = parse_scene({
        "field": VERT,
        "outer": circle([0, 1], [0, 1], [5, 1], 1),
        "holes": [circle([0, 1], [0, 1], [1, 1], -1),
                  circle([1, 1], [0, 1], [1, 1], -1)],
        "bbox": [[-6, 1], [6, 1], [-6, 1], [6, 1]]})
    report = validate_scene(sc)
    assert not report.ok
    assert any("COMPONENTS_INTERSECT" in d for _, d in report.failures())


def test_singular_curve_rejected():
    # nodal quartic (x^2 + y^2)^2 - x^2 + y^2: singular at the origin
    sc = parse_scene({
        "field": VERT,
        "outer": {"curve": {"type": "polynomial", "coeffs":
                  [[4, 0, 1, 1], [2, 2, 2, 1], [0, 4, 1, 1], [2, 0, -1, 1], [0, 2, 1, 1]]},
                  "inside_sign": 1},
        "holes": [], "bbox": [[-2, 1], [2, 1], [-2, 1], [2, 1]]})
    report = validate_scene(sc)
    assert any("CURVE_SINGULAR" in d for _, d in report.failures())


def test_radial_center_inside_region_rejected():
    sc = parse_scene({
        "field": {"kind": "radial", "center": [[2, 1], [0, 1]]},
        "outer": circle([0, 1], [0, 1], [4, 1], 1),
        "holes": [circle([0, 1], [0, 1], [1, 1], -1)],
        "bbox": [[-5, 1], [5, 1], [-5, 1], [5, 1]]})
    report = validate_scene(sc)
    assert any("FIELD_VANISHES" in d for _, d in report.failures())


def test_hole_outside_outer_rejected():
    sc = parse_scene({
        "field": VERT,
        "outer": circle([0, 1], [0, 1], [2, 1], 1),
        "holes": [circle([8, 1], [0, 1], [1, 2], -1)],
        "bbox": [[-10, 1], [10, 1], [-10, 1], [10, 1]]})
    report = validate_scene(sc)
    assert any("HOLE_OUTSIDE" in d for _, d in report.failures())


def test_bbox_violation_rejected():
    sc = parse_scene({
        "field": VERT,
        "outer": circle([0, 1], [0, 1], [3, 1], 1),
        "holes": [], "bbox": [[-2, 1], [2, 1], [-4, 1], [4, 1]]})
    report = validate_scene(sc)
    assert any("BBOX" in d for _, d in report.failures())


@pytest.mark.parametrize("r2, bound, ok", [
    (8, 2, False),   # through all four corners
    (4, 2, False),   # a double root on each edge
    (8, 3, True),
    (4, 3, True),
])
def test_frame_ends_are_closed(r2, bound, ok):
    # the circle x^2 + y^2 = r2 in the box +-bound
    sc = parse_scene({
        "field": VERT,
        "outer": {"curve": {"type": "polynomial", "coeffs":
                  [[2, 0, 1, 1], [0, 2, 1, 1], [0, 0, -r2, 1]]}, "inside_sign": 1},
        "holes": [], "bbox": [[-bound, 1], [bound, 1], [-bound, 1], [bound, 1]]})
    report = validate_scene(sc)
    bbox = [(okay, detail) for name, okay, detail in report.checks if name == "bbox[outer]"]
    assert bbox == [(True, "") if ok else (False, "BBOX: curve meets the bounding box frame")]
    assert report.ok == ok, report.failures()


def test_interior_point_is_inside():
    sc = load_fixture("annulus3.json")
    x, y = validate_scene(sc).witnesses["interior_point"]
    assert sc.contains(Fraction(x), Fraction(y))

def test_disjoint_product_curve_is_smooth():
    # product of two disjoint circles: a smooth quartic whose x-derivative
    # vanishes identically on the symmetry line x = 0 (regression: this must
    # not read as a singular point, the multiple roots there are complex)
    sc = parse_scene({
        "field": VERT,
        "outer": {"curve": {"type": "polynomial", "coeffs": TWO_OVALS}, "inside_sign": 1},
        "holes": [], "bbox": [[-5, 1], [5, 1], [-3, 1], [3, 1]]}, name="twoovals")
    report = validate_scene(sc)
    assert report.ok, report.failures()


def test_validation_analyses_each_component_once(monkeypatch):
    # fig1 has 5 components: one curve analysis per component and
    # validate_scene call (the stored curve is already the restriction)
    from trajspace import events
    calls = []
    init = events.CurveAnalysis.__init__

    def counted(self, G):
        calls.append(G)
        init(self, G)

    monkeypatch.setattr(events.CurveAnalysis, "__init__", counted)
    scene = load_fixture("fig1.json")
    assert len(scene.components) == 5
    assert validate_scene(scene).ok
    assert len(calls) == 5
    assert validate_scene(scene).ok
    assert len(calls) == 10


@pytest.mark.parametrize("name", ESCAPED_OVALS)
def test_every_oval_is_validated(name):
    # one oval of a curve lies outside: some probe line meets it, and the
    # check that owns it fails rather than the sweep
    doc, check, detail = ESCAPED_OVALS[name]
    report = validate_scene(parse_scene(doc, name=name))
    assert report.failures() == [(check, detail)]
