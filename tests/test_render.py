import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajspace import render, sweep
from trajspace.geometry import curve_from_terms
from trajspace.omega import build_poset, export_hasse_dot

from conftest import FIXTURES, analyzed, eval_terms, load_fixture, mul_terms

FIGURES = pathlib.Path(__file__).resolve().parent.parent / "figures"


def test_disk_svg_structure():
    scene = load_fixture("disk.json")
    graph = sweep.build_trajectory_space(scene)
    svg = render.scene_svg(scene, graph)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert len(re.findall(r"<circle", svg)) == 2           # two tangency markers
    assert len(re.findall(r"stroke-dasharray", svg)) == 2  # two event trajectories
    assert "v0 (2)" in svg and "v1 (2)" in svg


def test_annulus3_svg_has_all_vertices():
    scene = load_fixture("annulus3.json")
    graph = sweep.build_trajectory_space(scene)
    svg = render.scene_svg(scene, graph)
    for k in range(6):
        assert f"v{k} (121)" in svg
    # slabs: one polygon or band per edge
    assert len(re.findall(r"<polygon", svg)) + len(re.findall(r'stroke-width="6.0"', svg)) == 9


def test_svg_prints_no_negative_zero():
    # a point just outside the top-left corner maps to tiny negative canvas
    # coordinates, which round to zero
    canvas = render._Canvas((Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)))
    corner = (-1 - 1e-9, 1 + 1e-9)
    canvas.line(corner, (0, 0), "#000000")
    canvas.polygon([corner, (0, 0), (1, 0)], "#ffffff")
    canvas.circle(corner, 4.0, "#d03030")
    svg = canvas.to_svg()
    assert "-0.00" not in svg
    assert 'x1="0.00" y1="0.00"' in svg and 'points="0.00,0.00 ' in svg
    assert 'cx="0.00" cy="0.00"' in svg


def test_scene_without_graph_renders_curves_only():
    scene = load_fixture("disk1.json")
    svg = render.scene_svg(scene)
    assert "<line" in svg
    assert "stroke-dasharray" not in svg


# --- the exact grid behind marching squares ---------------------------------

coeff = st.fractions(-50, 50, max_denominator=60).filter(lambda v: v.denominator > 1)


@st.composite
def bipolys(draw, max_degree=6):
    keys = draw(st.sets(st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
                        .filter(lambda k: sum(k) <= max_degree), min_size=1, max_size=10))
    return {k: draw(coeff) for k in keys}


endpoint = st.fractions(-9, 9, max_denominator=12)


@st.composite
def grids(draw):
    """Sample points as _marching_segments takes them for a random bbox."""
    axes = []
    for _ in range(2):
        lo, hi = sorted(draw(st.lists(endpoint, min_size=2, max_size=2, unique=True)))
        n = draw(st.integers(1, 12))
        axes.append(render._grid(float(lo), (float(hi) - float(lo)) / n, n))
    return axes


def grid_numerators(curves, xs, ys):
    """(D, t, N) per curve, N[i][j] decoded from slot j of packed column i;
    checks that each slot's top bit is clear exactly where N < lo."""
    out = []
    for D, t, off, cols in render._grid_values(curves, xs, ys):
        lo = -(D >> 1075)
        assert all(len(col) == t * len(ys) for col in cols)
        N = [[int.from_bytes(col[t * j:t * j + t], "little") - off for j in range(len(ys))]
             for col in cols]
        assert [[col[t * j + t - 1] < 0x80 for j in range(len(ys))] for col in cols] == \
            [[v < lo for v in row] for row in N]
        out.append((D, t, N))
    return out


def assert_grid_exact(F, xs, ys):
    [(D, t, N)] = grid_numerators([curve_from_terms(F)], xs, ys)
    assert D > 0
    assert N == [[eval_terms(F, x, y) * D for y in ys] for x in xs]
    got = [[v / D for v in row] for row in N]
    # bit for bit against Fraction evaluation: hex() also tells 0.0 from -0.0
    assert [[v.hex() for v in row] for row in got] == \
        [[float(eval_terms(F, x, y)).hex() for y in ys] for x in xs]
    return t, got


@settings(max_examples=60, deadline=None)
@given(bipolys(), grids())
def test_grid_values_equal_exact_evaluation(F, axes):
    assert_grid_exact(F, *axes)


@settings(max_examples=40, deadline=None)
@given(bipolys(max_degree=4), grids(), st.data())
def test_grid_values_exact_zero_on_curve_through_grid_points(G, axes, data):
    xs, ys = axes
    a = data.draw(st.sampled_from(xs))
    b = data.draw(st.sampled_from(ys))
    F = mul_terms(mul_terms({(1, 0): 1, (0, 0): -a}, {(0, 1): 1, (0, 0): -b}), G)
    _, vals = assert_grid_exact(F, xs, ys)
    assert all(vals[xs.index(a)][j] == 0.0 for j in range(len(ys)))
    assert all(row[ys.index(b)] == 0.0 for row in vals)


def test_grid_values_mixed_denominators():
    # limit_denominator gives these sample points different denominators
    n = 16
    lo, hi = Fraction(-7, 3), Fraction(11, 5)
    xs = render._grid(float(lo), (float(hi) - float(lo)) / n, n)
    ys = render._grid(-1.5, 3.25 / n, n)
    assert len({x.denominator for x in xs}) > 2
    F = {(2, 0): Fraction(1, 3), (0, 2): Fraction(5, 7), (1, 1): Fraction(-2, 9),
         (0, 0): Fraction(-11, 13), (3, 1): Fraction(1, 6)}
    assert_grid_exact(F, xs, ys)


@settings(max_examples=30, deadline=None)
@given(st.lists(bipolys(max_degree=5), min_size=2, max_size=3), grids())
def test_grid_values_one_table_for_curves_of_any_degree(Fs, axes):
    # the y table is built for the largest s-degree; every curve's N / D
    # is still exactly its own D * F / D
    xs, ys = axes
    got = grid_numerators([curve_from_terms(F) for F in Fs], xs, ys)
    assert len(got) == len(Fs)
    for F, (D, _, N) in zip(Fs, got):
        assert D > 0
        assert N == [[eval_terms(F, x, y) * D for y in ys] for x in xs]


@settings(max_examples=30, deadline=None)
@given(st.data(), grids())
def test_grid_slots_wider_than_a_machine_word(data, axes):
    # 80- to 100-bit numerators of both signs need slots of more than 8 bytes
    big = st.integers(2**80, 2**100).flatmap(lambda v: st.sampled_from([v, -v]))
    keys = data.draw(st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))
                             .filter(lambda k: sum(k) <= 4), min_size=2, max_size=6))
    F = {k: Fraction(data.draw(big), data.draw(st.integers(1, 7))) for k in keys}
    t, _ = assert_grid_exact(F, *axes)
    assert t > 8


def test_grid_values_below_negative_zero_threshold():
    # -x^60 at x = k / 10^6: D > 2^1075, so lo != 0 and the bias carries it
    F = {(60, 0): -1}
    xs = render._grid(0.0, 1e-6, 16)
    ys = render._grid(-1.0, 2 / 16, 16)
    [(D, _, _)] = grid_numerators([curve_from_terms(F)], xs, ys)
    assert D >> 1075
    _, vals = assert_grid_exact(F, xs, ys)
    assert [v.hex() for v in vals[4]] == ["-0x0.0p+0"] * len(ys)


# --- marching squares against the four-corner cell loop -----------------------

def reference_segments(F, bbox, n):
    """Marching squares as a loop over all n x n cells, on floats of F
    evaluated in Fraction arithmetic."""
    x0, x1, y0, y1 = (float(v) for v in bbox)
    dx, dy = (x1 - x0) / n, (y1 - y0) / n
    vals = [[float(eval_terms(F, x, y)) for y in render._grid(y0, dy, n)]
            for x in render._grid(x0, dx, n)]
    segs = []

    def interp(xa, ya, va, xb, yb, vb):
        t = va / (va - vb)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    neg = [[v < 0 for v in row] for row in vals]
    for i in range(n):
        for j in range(n):
            if neg[i][j] == neg[i + 1][j] == neg[i + 1][j + 1] == neg[i][j + 1]:
                continue  # no sign change on any edge of this cell
            corners = [
                (x0 + i * dx, y0 + j * dy, vals[i][j]),
                (x0 + (i + 1) * dx, y0 + j * dy, vals[i + 1][j]),
                (x0 + (i + 1) * dx, y0 + (j + 1) * dy, vals[i + 1][j + 1]),
                (x0 + i * dx, y0 + (j + 1) * dy, vals[i][j + 1]),
            ]
            pts = []
            for k in range(4):
                xa, ya, va = corners[k]
                xb, yb, vb = corners[(k + 1) % 4]
                if (va < 0) != (vb < 0):
                    pts.append(interp(xa, ya, va, xb, yb, vb))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs


@st.composite
def marching_cases(draw):
    """A bbox, a grid size and 1-3 curves, some through grid points."""
    (x0, x1), (y0, y1) = (sorted(draw(st.lists(endpoint, min_size=2, max_size=2, unique=True)))
                          for _ in range(2))
    n = draw(st.integers(1, 12))
    xs = render._grid(float(x0), (float(x1) - float(x0)) / n, n)
    ys = render._grid(float(y0), (float(y1) - float(y0)) / n, n)
    Fs = []
    for G in draw(st.lists(bipolys(max_degree=4), min_size=1, max_size=3)):
        if draw(st.booleans()):
            a, b = draw(st.sampled_from(xs)), draw(st.sampled_from(ys))
            G = mul_terms(mul_terms({(1, 0): 1, (0, 0): -a}, {(0, 1): 1, (0, 0): -b}), G)
        Fs.append(G)
    return (x0, x1, y0, y1), n, Fs


@settings(max_examples=60, deadline=None)
@given(marching_cases())
def test_marching_segments_equal_cell_loop(case):
    bbox, n, Fs = case
    got = render._marching_segments([curve_from_terms(F) for F in Fs], bbox, n)
    assert got == [seg for F in Fs for seg in reference_segments(F, bbox, n)]


def test_marching_segments_value_rounding_to_negative_zero():
    # -x^60 at x = k / 10^6 rounds to -0.0 for k = 1..4, which is not
    # negative, so the zero set is drawn between k = 4 and k = 5
    F = {(60, 0): -1}
    assert float(-Fraction(4, 10**6) ** 60) == 0.0 > float(-Fraction(5, 10**6) ** 60)
    bbox = (Fraction(0), Fraction(16, 10**6), Fraction(-1), Fraction(1))
    got = render._marching_segments([curve_from_terms(F)], bbox, 16)
    assert got == reference_segments(F, bbox, 16)
    assert {round(x * 10**6, 6) for seg in got for x, _ in seg} == {4.0}


# --- committed figures --------------------------------------------------------

REGENERATE = "stale: rerun PYTHONPATH=src python3 scripts/render_figures.py"


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_committed_scene_figures_are_current(name):
    a = analyzed(name)
    stem = name.removesuffix(".json")
    assert (FIGURES / f"{stem}.svg").read_text() == render.scene_svg(a.scene, a.graph), REGENERATE
    assert (FIGURES / f"{stem}.dot").read_text() == a.graph.to_dot(), REGENERATE


@pytest.mark.parametrize("n", [1, 2, 3])
def test_committed_poset_figures_are_current(n):
    assert (FIGURES / f"poset_n{n}.dot").read_text() == export_hasse_dot(build_poset(n)), \
        REGENERATE
