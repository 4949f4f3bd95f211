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


def assert_grid_exact(F, xs, ys):
    got = render._grid_values(*curve_from_terms(F), xs, ys)
    # bit for bit against Fraction evaluation: hex() also tells 0.0 from -0.0
    assert [[v.hex() for v in row] for row in got] == \
        [[float(eval_terms(F, x, y)).hex() for y in ys] for x in xs]
    return got


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
    vals = assert_grid_exact(F, xs, ys)
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
