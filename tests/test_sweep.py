from fractions import Fraction

import pytest

from trajspace import geometry, sweep
from trajspace.events import DegenerateScene
from trajspace.realroots import AlgebraicNumber

from conftest import FIXTURES, GENERIC_FIXTURES, TWO_OVALS, cleared, load_fixture


def test_disk_events():
    evs = sweep.tangency_events(load_fixture("disk.json"))
    assert len(evs) == 2
    params = sorted(float(e.alpha) for e in evs)
    assert params[0] == pytest.approx(-3) and params[1] == pytest.approx(3)


def test_annulus3_events_on_holes_only(annulus3):
    evs = [v.event for v in annulus3.graph.vertices]
    assert len(evs) == 6
    assert all(e.component >= 2 for e in evs)      # the three small holes
    assert all(e.multiplicity == 2 for e in evs)


def test_disk_graph_shape(disk):
    g = disk.graph
    assert (g.vertex_count, g.edge_count) == (2, 1)
    assert g.pattern_counts()[(2,)] == 2


def test_annulus3_trivalent_graph(annulus3):
    g = annulus3.graph
    assert (g.vertex_count, g.edge_count) == (6, 9)
    assert g.pattern_counts() == {(2,): 0, (1, 2, 1): 6}
    assert g.euler_characteristic() == -3


def test_fig1_vertex_split(fig1):
    counts = fig1.graph.pattern_counts()
    assert fig1.graph.vertex_count == 12
    assert counts[(2,)] == 3 and counts[(1, 2, 1)] == 9


def test_degree_law(any_generic):
    g = any_generic.graph
    for v in g.vertices:
        want = 1 if v.pattern == (2,) else 3
        assert g.degree(v.id) == want


def test_euler_characteristic_matches_hole_count(any_generic):
    g = any_generic.graph
    q = any_generic.scene.hole_count
    assert g.euler_characteristic() == 1 - q


def test_double_tangent_scene_rejected():
    with pytest.raises(DegenerateScene) as exc:
        sweep.tangency_events(load_fixture("degenerate/double_tangent.json"))
    assert "share a sweep parameter" in exc.value.reason
    w = exc.value.witness_dict()
    assert w is not None
    assert w["parameter"] == pytest.approx(0.5) or w["parameter"] == pytest.approx(-0.5)


def test_quartic_flat_tangency_rejected():
    with pytest.raises(DegenerateScene) as exc:
        sweep.tangency_events(load_fixture("degenerate/quartic_flat.json"))
    assert "multiplicity > 2" in exc.value.reason
    assert abs(exc.value.witness_dict()["parameter"]) == pytest.approx(2.0)


@pytest.mark.parametrize("coeffs, verdict", [
    # G(c, s) by powers of s; at c = 0 the gcd of G and G_s has degree k
    ([(1, 0, 1), (), (-2,), (), (1,)], "two simultaneous"),     # (s^2-1)^2 + c^2, k = 2
    ([(2, 0, 1), (), (5,), (), (4,), (), (1,)], None),           # (s^2+1)^2 (s^2+2) + c^2
    ([(-2, 0, 1), (5,), (-3,), (-1,), (1,)], "multiplicity"),   # (s-1)^3 (s+2) + c^2, k = 2
    ([(1, 0, 1), (), (3,), (), (3,), (), (1,)], None),           # (s^2+1)^3 + c^2, k = 4
    ([(36, 0, 1), (-132,), (193,), (-144,), (58,), (-12,), (1,)],
     "two simultaneous"),                                       # ((s-1)(s-2)(s-3))^2 + c^2
    ([(2, 0, 1), (-7,), (8,), (-2,), (-2,), (1,)], "multiplicity"),  # (s-1)^4 (s+2) + c^2, k = 3
])
def test_classification_branches(coeffs, verdict):
    from trajspace.bivar import SPoly
    from trajspace.events import component_events
    if verdict is None:
        events, _ = component_events(SPoly(coeffs), 0, 0, Fraction(-10), Fraction(10))
        assert events == []
    else:
        with pytest.raises(DegenerateScene, match=verdict):
            component_events(SPoly(coeffs), 0, 0, Fraction(-10), Fraction(10))


def sample_line(scene, c):
    """The sweep's cell sample at parameter c of a constant-field scene:
    crossings in ``order``, trajectories as (entry, exit) positions."""
    spolys, _ = sweep._build_spolys(scene, Fraction(0))
    c = Fraction(c)
    return sweep._sample_cell(scene, spolys, 0, Fraction(0), c, c)


def sides_of_events(fig1):
    """Sample lines just left and right of each of fig1's events."""
    for v in fig1.graph.vertices:
        lo, hi = map(Fraction, v.event.parameter_interval)
        width = (hi - lo) if hi > lo else Fraction(1, 64)
        yield sample_line(fig1.scene, lo - width / 2), sample_line(fig1.scene, hi + width / 2)


def test_interval_structure_disk():
    cell = sample_line(load_fixture("disk.json"), 0)
    assert len(cell.order) == 2
    assert cell.trajectories == [(0, 1)]      # one (11) trajectory across the disk


def test_interval_structure_through_hole():
    cell = sample_line(load_fixture("disk1.json"), Fraction(1, 2))
    assert len(cell.trajectories) == 2


def test_trajectory_count_changes_by_one_across_events(fig1):
    for left, right in sides_of_events(fig1):
        assert abs(len(left.trajectories) - len(right.trajectories)) == 1


def test_determinism_across_runs():
    a = sweep.build_trajectory_space(load_fixture("disk2.json"))
    b = sweep.build_trajectory_space(load_fixture("disk2.json"))
    assert [(v.id, v.pattern) for v in a.vertices] == [(v.id, v.pattern) for v in b.vertices]
    assert [(e.id, sorted(x[0] for x in e.attachments)) for e in a.edges] == \
           [(e.id, sorted(x[0] for x in e.attachments)) for e in b.edges]


def test_check_traversally_generic_reports():
    assert sweep.tangency_events(load_fixture("annulus3.json"))
    assert sweep.tangency_events(load_fixture("disk.json"))
    with pytest.raises(DegenerateScene) as exc:
        sweep.tangency_events(load_fixture("degenerate/double_tangent.json"))
    assert exc.value.witness_dict() is not None


@pytest.fixture
def point_tests(monkeypatch):
    """Arguments of every Scene.contains call, and every cell the sweep samples."""
    from trajspace.geometry import Scene
    calls, cells = [], []
    contains, sample_cell = Scene.contains, sweep._sample_cell

    def counting(self, x, y, strict=True):
        calls.append((x, y))
        return contains(self, x, y, strict)

    def recording(*args):
        cells.append(sample_cell(*args))
        return cells[-1]

    monkeypatch.setattr(Scene, "contains", counting)
    monkeypatch.setattr(sweep, "_sample_cell", recording)
    return calls, cells


def test_sweep_point_tests_each_gap_once(any_generic, point_tests):
    # the pattern at each event is read off a cell's gaps, so no point test
    # runs beyond one per gap of each sampled cell
    calls, cells = point_tests
    sweep.build_trajectory_space(any_generic.scene)
    assert len(calls) == sum(len(cell.order) + 1 for cell in cells)


def test_fig1_sweep_point_test_count(point_tests):
    calls, cells = point_tests
    graph = sweep.build_trajectory_space(load_fixture("fig1.json"))
    assert (graph.vertex_count, len(cells), len(calls)) == (12, 13, 45)


@pytest.mark.parametrize("left, right", [
    (Fraction(1), Fraction(1)),
    # x^2 - 1 on (0, 2): refinement finds the root 1 exactly and stalls there
    (AlgebraicNumber((-1, 0, 1), Fraction(0), Fraction(2)), Fraction(1)),
], ids=["equal-fractions", "rational-root"])
def test_cell_bounds_rejects_empty_cells(left, right):
    with pytest.raises(sweep.MatchingAmbiguous):
        sweep._cell_bounds(left, right)


@pytest.mark.parametrize("root_on_left, bounds", [
    # bisection of sqrt(2) on (1, 2): 3/2 (hi), 5/4 (lo), 11/8 (lo), 23/16 (hi)
    (True, (Fraction(23, 16), Fraction(3, 2))),
    # 3/2 (hi), 5/4 (lo), 11/8 (lo): a lower end equal to the bound is not enough
    (False, (Fraction(5, 4), Fraction(11, 8))),
])
def test_cell_bounds_refines_an_event_off_a_rational_bound(root_on_left, bounds):
    root2 = AlgebraicNumber((-2, 0, 1), Fraction(1), Fraction(2))
    if root_on_left:
        assert sweep._cell_bounds(root2, Fraction(3, 2)) == bounds
        assert root2.hi == bounds[0]
    else:
        assert sweep._cell_bounds(Fraction(5, 4), root2) == bounds
        assert root2.lo == bounds[1]
    assert root2.lo ** 2 < 2 < root2.hi ** 2


def test_vertexless_radial_loop():
    g = sweep.build_trajectory_space(load_fixture("annulus0.json"))
    assert g.vertex_count == 0
    assert g.edge_count == 1
    assert g.edges[0].is_loop

from hypothesis import given, settings, strategies as st
from trajspace.geometry import parse_scene


@st.composite
def random_hole_scene(draw):
    # up to two small holes at rational centers inside a radius-6 disk
    n = draw(st.integers(0, 2))
    holes = []
    taken = []
    for _ in range(n):
        cx = draw(st.integers(-3, 3))
        cy = draw(st.integers(-3, 3))
        off = draw(st.fractions(min_value=-1, max_value=1).map(lambda f: f.limit_denominator(7)))
        center = (Fraction(cx) + off, Fraction(cy))
        if any(abs(center[0] - tx) + abs(center[1] - ty) < 2 for tx, ty in taken):
            continue
        taken.append(center)
        holes.append({"curve": {"type": "circle",
                                "center": [[center[0].numerator, center[0].denominator],
                                           [center[1].numerator, center[1].denominator]],
                                "radius": [1, 2]}, "inside_sign": -1})
    return parse_scene({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [6, 1]},
                  "inside_sign": 1},
        "holes": holes,
        "bbox": [[-7, 1], [7, 1], [-7, 1], [7, 1]]}, name="random")


@given(random_hole_scene())
@settings(max_examples=12, deadline=None)
def test_random_scenes_satisfy_structural_laws(scene):
    from trajspace import homology, strata
    try:
        g = sweep.build_trajectory_space(scene)
    except DegenerateScene:
        return  # randomly aligned holes: rejection is the correct outcome
    q = scene.hole_count
    assert g.euler_characteristic() == 1 - q
    for v in g.vertices:
        assert g.degree(v.id) == (1 if v.pattern == (2,) else 3)
    table = strata.build_strata(g)
    assert strata.doubling_identity_holds(table)
    cc = homology.cw_complex_of_double(table)
    assert cc.betti_numbers() == [1, 2 * q, 1]


@pytest.mark.parametrize("direction", [([1, 1], [1, 1]), ([1, 1], [0, 1]), ([-2, 3], [1, 1])])
def test_constant_field_any_direction(direction):
    scene = parse_scene({
        "field": {"kind": "constant", "direction": list(direction)},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [5, 1]},
                  "inside_sign": 1},
        "holes": [{"curve": {"type": "circle", "center": [[1, 1], [0, 1]], "radius": [1, 1]},
                   "inside_sign": -1}],
        "bbox": [[-6, 1], [6, 1], [-6, 1], [6, 1]]}, name="anyfield")
    g = sweep.build_trajectory_space(scene)
    assert (g.vertex_count, g.edge_count) == (4, 4)
    assert g.pattern_counts() == {(2,): 2, (1, 2, 1): 2}


@pytest.mark.parametrize("direction", [([0, 1], [1, 1]), ([1, 1], [2, 1])])
def test_leading_coefficient_drop(direction):
    # x^2 y^4 + y^2 + x^2 - 1: along vertical lines the s-leading coefficient
    # x^2 vanishes at x = 0, where G(0, s) drops from degree 4 to 2
    from trajspace import report
    scene = parse_scene({
        "field": {"kind": "constant", "direction": list(direction)},
        "outer": {"curve": {"type": "polynomial", "coeffs":
                  [[2, 4, 1, 1], [0, 2, 1, 1], [2, 0, 1, 1], [0, 0, -1, 1]]},
                  "inside_sign": 1},
        "holes": [], "bbox": [[-2, 1], [2, 1], [-2, 1], [2, 1]]}, name="lcdrop")
    doc, _ = report.analyze_scene_with_graph(scene)
    assert doc["validation"]["ok"]
    assert doc["trajectory_space"]["vertices"] == 2
    assert doc["trajectory_space"]["pattern_counts"] == {"2": 2, "121": 0}
    assert doc["homology"]["trajectory_space"]["betti"] == [1, 0]


def test_radial_center_outside_everything():
    scene = parse_scene({
        "field": {"kind": "radial", "center": [[-7, 1], [0, 1]]},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [3, 1]},
                  "inside_sign": 1},
        "holes": [],
        "bbox": [[-4, 1], [4, 1], [-4, 1], [4, 1]]}, name="extradial")
    g = sweep.build_trajectory_space(scene)
    assert (g.vertex_count, g.edge_count) == (2, 1)
    assert g.pattern_counts()[(2,)] == 2
    assert g.euler_characteristic() == 1


def test_ellipse_hole():
    scene = parse_scene({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [5, 1]},
                  "inside_sign": 1},
        "holes": [{"curve": {"type": "polynomial",
                             "coeffs": [[2, 0, 2, 1], [0, 2, 3, 1], [1, 0, -4, 1], [0, 0, 1, 1]]},
                   "inside_sign": -1}],
        "bbox": [[-6, 1], [6, 1], [-6, 1], [6, 1]]}, name="ellipse")
    g = sweep.build_trajectory_space(scene)
    assert (g.vertex_count, g.edge_count) == (4, 4)
    assert g.euler_characteristic() == 0


def test_seam_rotation_retry():
    # a hole tangent to the exactly-vertical ray puts a tangency parameter on
    # the chart seam; the sweep must rotate its charts and still succeed
    scene = parse_scene({
        "field": {"kind": "radial", "center": [[0, 1], [0, 1]]},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [4, 1]},
                  "inside_sign": 1},
        "holes": [
            {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [1, 1]},
             "inside_sign": -1},
            {"curve": {"type": "circle", "center": [[2, 5], [5, 2]], "radius": [2, 5]},
             "inside_sign": -1}],
        "bbox": [[-5, 1], [5, 1], [-5, 1], [5, 1]]}, name="seamhole")
    g = sweep.build_trajectory_space(scene)
    assert g.seam_rotation != 0
    assert (g.vertex_count, g.edge_count) == (2, 3)
    assert g.euler_characteristic() == -1


def test_rotated_claw_is_sweepable_disk():
    scene = parse_scene({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": {"curve": {"type": "polynomial", "coeffs":
                  [[0, 2, 16, 1], [2, 1, -16, 1], [1, 1, -8, 1], [4, 0, 8, 1],
                   [3, 0, 4, 1], [2, 0, 1, 1], [0, 0, -1024, 1]]},
                  "inside_sign": 1},
        "holes": [], "bbox": [[-6, 1], [6, 1], [-10, 1], [13, 1]]}, name="rotclaw")
    g = sweep.build_trajectory_space(scene)
    assert (g.vertex_count, g.edge_count) == (2, 1)
    assert g.pattern_counts()[(2,)] == 2


def test_crossing_count_changes_by_two_across_events(fig1):
    for left, right in sides_of_events(fig1):
        assert abs(len(left.order) - len(right.order)) == 2


def is_circle(scene, k):
    return ([scene.raw["outer"]] + scene.raw.get("holes", []))[k]["curve"]["type"] == "circle"


def raw_circle(scene, k):
    """Centre and radius of circle component k, as the input document gives them."""
    comp = ([scene.raw["outer"]] + scene.raw.get("holes", []))[k]["curve"]
    assert comp["type"] == "circle"
    return tuple(Fraction(*v) for v in comp["center"] + [comp["radius"]])


TILTED = sorted((FIXTURES.parent / "perfbench" / "scenes" / "tilted").glob("*.json"))


def test_circle_events_match_closed_form():
    # under the constant field d, the trajectory line at c is p . n = c |n|^2
    # with n = (dy, -dx); a circle (C, r) touches it exactly when
    # (c |n|^2 - C . n)^2 = r^2 |n|^2, at the points C +- r n / |n|: an
    # independent closed-form oracle, read off the input document
    import math
    from conftest import analyzed
    graphs = [(analyzed(f).scene, analyzed(f).graph)
              for f in GENERIC_FIXTURES if analyzed(f).scene.field.kind == "constant"]
    for path in TILTED:
        scene = geometry.load_scene(str(path))
        graphs.append((scene, sweep.build_trajectory_space(scene)))
    circles = 0
    for scene, graph in graphs:
        dx, dy = scene.field.direction
        n2 = dx * dx + dy * dy
        sides = {}
        for v in graph.vertices:
            ev = v.event
            if not is_circle(scene, ev.component):
                continue
            cx, cy, r = raw_circle(scene, ev.component)
            cn = cx * dy - cy * dx
            oracle = cleared([cn * cn - r * r * n2, -2 * n2 * cn, n2 * n2])
            alpha = AlgebraicNumber(tuple(ev.defining_poly),
                                    Fraction(ev.parameter_interval[0]),
                                    Fraction(ev.parameter_interval[1]))
            assert alpha.sign_of(oracle) == 0, (scene.name, v.id)
            unit = (float(dy) / math.sqrt(n2), -float(dx) / math.sqrt(n2))
            errs = {sign: max(abs(ev.point[0] - float(cx) - sign * float(r) * unit[0]),
                              abs(ev.point[1] - float(cy) - sign * float(r) * unit[1]))
                    for sign in (1, -1)}
            sign = min(errs, key=errs.get)
            assert errs[sign] < 1e-9, (scene.name, v.id, ev.point)
            sides.setdefault(ev.component, []).append(sign)
        # each circle has one tangency on either side of its centre
        assert all(sorted(ss) == [-1, 1] for ss in sides.values()), scene.name
        assert len(sides) == sum(is_circle(scene, k) for k in range(len(scene.components)))
        circles += len(sides)
    assert circles == 22


def counting_window_counts(monkeypatch):
    """Record every ``window_counts`` result the sweep gets."""
    calls, orig = [], sweep.window_counts
    monkeypatch.setattr(sweep, "window_counts", lambda *a: calls.append(orig(*a)) or calls[-1])
    return calls


@pytest.mark.parametrize("name", GENERIC_FIXTURES)
def test_event_resolution_counts_once_per_probe(monkeypatch, name):
    # one Sturm window count per probe, for the event's component only, and
    # the event parameter left as the earlier layers refined it
    calls = counting_window_counts(monkeypatch)
    orig, untouched = sweep._resolve_event, []

    def resolve(G, radial, ev, left, right):
        before = (ev.alpha.lo, ev.alpha.hi)
        out = orig(G, radial, ev, left, right)
        untouched.append((ev.alpha.lo, ev.alpha.hi) == before)
        return out

    monkeypatch.setattr(sweep, "_resolve_event", resolve)
    g = sweep.build_trajectory_space(load_fixture(name))
    assert len(untouched) == g.vertex_count and all(untouched)
    assert len(calls) == 2 * g.vertex_count


def two_ovals_hole_scene(k, direction):
    """A unit disk with one hole: the curve TWO_OVALS, two circles of radius
    1 at (+-3, 0), scaled by k."""
    k = Fraction(k)
    coeffs = []
    for i, j, num, den in TWO_OVALS:
        v = Fraction(num, den) * k ** (4 - i - j)
        coeffs.append([i, j, v.numerator, v.denominator])
    return parse_scene({
        "field": {"kind": "constant", "direction": direction},
        "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [1, 1]},
                  "inside_sign": 1},
        "holes": [{"curve": {"type": "polynomial", "coeffs": coeffs}, "inside_sign": -1}],
        "bbox": [[-2, 1], [2, 1], [-2, 1], [2, 1]]}, name="twoovals")


def sympy_tangency_count(scene, k):
    """Real points of component k where the constant field is tangent."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    comp = ([scene.raw["outer"]] + scene.raw["holes"])[k]["curve"]
    F = sum(sp.Rational(num, den) * x**i * y**j for i, j, num, den in comp["coeffs"])
    dx, dy = (sp.Rational(*v) for v in scene.raw["field"]["direction"])
    T = sp.expand(dx * sp.diff(F, x) + dy * sp.diff(F, y))
    sols = sp.solve_poly_system([sp.expand(F), T], x, y)
    return sum(1 for sol in sols if all(v.is_real for v in sol))


def test_window_shrinks_when_the_event_line_meets_the_component_again(monkeypatch):
    # the two ovals are 3/8 apart and the field runs nearly along their line
    # of centres, so the line tangent to one oval crosses the other inside
    # the first s*-window; the poorer side then counts crossings there and
    # the window must shrink before the event resolves
    from trajspace import homology, strata, validate
    scene = two_ovals_hole_scene(Fraction(1, 16), [[10, 1], [1, 1]])
    assert validate.validate_scene(scene).ok
    calls = counting_window_counts(monkeypatch)
    g = sweep.build_trajectory_space(scene)
    # two calls per event, plus one for each poorer-side count that was not 0
    assert len(calls) > 2 * g.vertex_count
    per_comp = [sum(1 for v in g.vertices if v.tangent_component == k) for k in (0, 1)]
    assert per_comp == [2, sympy_tangency_count(scene, 1)] == [2, 4]
    # the paper's identities with h = 2 holes (the two ovals)
    n2, n121, h = g.pattern_counts()[(2,)], g.pattern_counts()[(1, 2, 1)], 2
    assert n2 == n121 + 2 - 2 * h
    assert 2 * g.edge_count == n2 + 3 * n121
    table = strata.build_strata(g)
    assert homology.cw_complex_of_double(table).betti_numbers() == [1, 2 * h, 1]


@pytest.mark.parametrize("coeffs, bbox, rational_alpha", [
    # (x - 1)^2 y^4 + y^2 + x^2 - 1: alpha = 1 keeps an isolating interval
    ([[2, 4, 1, 1], [1, 4, -2, 1], [0, 4, 1, 1], [0, 2, 1, 1], [2, 0, 1, 1],
      [0, 0, -1, 1]], [[-2, 1], [2, 1], [-2, 1], [2, 1]], False),
    # x^2 y^4 + y^2 + x^2 + 2x: root isolation lands on alpha = 0 exactly
    ([[2, 4, 1, 1], [0, 2, 1, 1], [2, 0, 1, 1], [1, 0, 2, 1]],
     [[-3, 1], [1, 1], [-2, 1], [2, 1]], True),
], ids=["isolated_alpha", "rational_alpha"])
def test_event_where_the_leading_coefficient_vanishes(coeffs, bbox, rational_alpha):
    # along vertical lines the s-leading coefficient vanishes at one tangency,
    # where G_K(alpha, .) = y^2 drops degree; the sweep certifies the rest of
    # the leading coefficient and resolves the event as before
    from trajspace import homology, strata, validate
    scene = parse_scene({
        "field": {"kind": "constant", "direction": [[0, 1], [1, 1]]},
        "outer": {"curve": {"type": "polynomial", "coeffs": coeffs}, "inside_sign": 1},
        "holes": [], "bbox": bbox}, name="lcevent")
    assert validate.validate_scene(scene).ok
    lead = scene.components[0].curve.coeffs[-1]
    vanishing = [e for e in sweep.tangency_events(scene) if e.alpha.sign_of(lead) == 0]
    assert [e.alpha.is_rational for e in vanishing] == [rational_alpha]
    g = sweep.build_trajectory_space(scene)
    assert g.pattern_counts() == {(2,): 2, (1, 2, 1): 0}
    assert (g.vertex_count, g.edge_count) == (2, 1)
    assert all(v.event.point[1] == 0 for v in g.vertices)
    double = homology.cw_complex_of_double(strata.build_strata(g))
    assert double.betti_numbers() == [1, 0, 1]


def test_radial_events_match_closed_form_angles(annulus3):
    # tangent rays from the origin to a hole at distance d with radius r sit
    # at the hole's central angle +- asin(r / d): an independent float oracle
    import math
    assert annulus3.graph.seam_rotation == 0
    got = sorted((2 * math.atan(v.event.parameter)
                  + (math.pi if v.event.chart == 1 else 0)) % (2 * math.pi)
                 for v in annulus3.graph.vertices)
    expected = []
    for k in range(2, len(annulus3.scene.components)):   # the three small holes
        cx, cy, r = map(float, raw_circle(annulus3.scene, k))
        theta_c = math.atan2(cy, cx)
        delta = math.asin(r / math.hypot(cx, cy))
        expected.append((theta_c - delta) % (2 * math.pi))
        expected.append((theta_c + delta) % (2 * math.pi))
    for g, e in zip(got, sorted(expected)):
        assert abs(g - e) < 1e-9


def test_loop_euler_characteristic():
    g = sweep.build_trajectory_space(load_fixture("annulus0.json"))
    assert g.euler_characteristic() == 0      # a circle
