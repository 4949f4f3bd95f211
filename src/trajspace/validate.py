"""Exact scene validation.

Checks, all exact, with algebraic certificates:
  CURVE_SINGULAR        a component curve has a real singular point
  COMPONENTS_INTERSECT  two boundary curves share a real point
  HOLE_OUTSIDE          a hole is not strictly inside the outer region
                        (or is nested in another hole)
  FIELD_VANISHES        the field has a zero on X (radial center not
                        strictly outside X)
  BBOX                  a curve touches the bounding box frame
  EMPTY                 no interior point of X was found

Singularities and curve intersections are both detected along the vertical
line pencil: every real point lies on some line x = alpha, and a singular
point (a real common root of gcd(G, G_s) and F_x) or an intersection point
forces alpha to be a root of a resultant; ``bivar.common_real_root``
decides each exactly.  A component's stored curve already is its
restriction G to that pencil (``geometry.BoundaryComponent``), so nothing
is substituted: F_x is G's c-derivative, and the frame edges are G at
x = x0, x1 (``SPoly.at_param``) and at y = y0, y1 (``SPoly.at_s``).

Each call of ``validate_scene`` analyses every component along the pencil
once (``_VerticalAnalysis``: the square-free resultant Res_s(G, G_s), its
isolating intervals and the signed subresultant sequence) and hands that
analysis to every check that needs it.  It also picks one probe line per
component (``_curve_point``: a rational x and the curve's y-roots there),
which the bbox check, the hole witness and the interior point share.  Both
live only as long as the call.  Each consumer of the analysis builds its
own algebraic numbers from the stored intervals: refining a number is
visible in the floats and witnesses reported later, so a number refined by
one check must not reach another.  The bbox check refines nothing: it
counts roots on the frame edges and the probe line with
``realroots.window_counts``, and tests the edge ends exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bivar import common_real_root, sylvester_resultant
from .events import multiple_root_params
from .polys import zp_sign_at, zp_squarefree_part
from .realroots import (
    AlgebraicNumber,
    isolate_real_roots,
    real_roots_with_multiplicities,
    separate,
    window_counts,
)


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)   # (name, ok, detail)
    witnesses: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.checks)

    def add(self, name: str, okay: bool, detail: str = ""):
        self.checks.append((name, okay, detail))

    def failures(self):
        return [(n, d) for n, okay, d in self.checks if not okay]

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": [{"name": n, "ok": okay, "detail": d} for n, okay, d in self.checks],
        }


class _VerticalAnalysis:
    """One component along the vertical lines x = c (s is the y coordinate).

    ``G`` is the stored curve L * F and ``fx`` its c-derivative L * F_x;
    ``rsf``, ``intervals`` and ``seq`` are the square-free part of
    Res_s(G, G_s), the isolating intervals of its real roots and the signed
    subresultant sequence of G (None, [] and None when the resultant
    vanishes).
    """

    __slots__ = ("G", "fx", "rsf", "intervals", "seq")

    def __init__(self, comp):
        self.G = comp.curve
        self.fx = comp.curve.dc()
        self.rsf, params, self.seq = multiple_root_params(self.G)
        self.intervals = [(a.lo, a.hi) for a in params]

    def params(self):
        """Fresh, unrefined algebraic numbers at the tangency parameters."""
        return [AlgebraicNumber(self.rsf, lo, hi) for lo, hi in self.intervals]


def _check_smooth(comp, va, report):
    """No real point with F = Fx = Fy = 0 (in particular on tangency loci)."""
    if va.rsf is None:
        report.add(f"curve_smooth[{comp.name}]", False,
                   "CURVE_SINGULAR: restriction identically degenerate")
        return
    for alpha in va.params():
        k, g = va.seq.at(alpha).gcd(alpha)
        # a singular point is a real common root of G, G_s and F_x on x = alpha
        if k >= 1 and common_real_root(g, va.fx.truncated(alpha), alpha):
            report.add(f"curve_smooth[{comp.name}]", False,
                       f"CURVE_SINGULAR: singular point near x = {float(alpha):.6g}")
            return
    report.add(f"curve_smooth[{comp.name}]", True, "")


def _check_disjoint(vi, vj, name_i, name_j, report):
    Gi, Gj = vi.G, vj.G
    res = sylvester_resultant(Gi, Gj)
    if not res:
        report.add(f"disjoint[{name_i},{name_j}]", False,
                   "COMPONENTS_INTERSECT: common vertical structure")
        return
    rsf = zp_squarefree_part(res)
    for lo, hi in isolate_real_roots(rsf):
        alpha = AlgebraicNumber(rsf, lo, hi)
        fa, fb = Gi.truncated(alpha), Gj.truncated(alpha)
        if fa.degree_s() < 0 or fb.degree_s() < 0:
            continue
        if common_real_root(fa, fb, alpha):
            report.add(f"disjoint[{name_i},{name_j}]", False,
                       f"COMPONENTS_INTERSECT: common point near x = {float(alpha):.6g}")
            return
    report.add(f"disjoint[{name_i},{name_j}]", True, "")


def _curve_point(va, scene):
    """A rational x with real curve points, plus the curve's y-roots there.

    Uses the vertical tangency parameters: a compact smooth curve attains
    its x-extrema there, and any x strictly between the outermost two cuts
    the curve.
    """
    xs = []
    for alpha in va.params():
        alpha.refine_below(Fraction(1, 1024))
        xs.append(alpha)
    for probe in _probe_values(xs, scene):
        p = va.G.at_param(probe)
        if p:
            roots = real_roots_with_multiplicities(p)
            if roots:
                return probe, [r for r, _ in roots]
    return None, []


def _probe_values(xs, scene):
    x0, x1, _, _ = scene.bbox
    vals = [(a.lo + a.hi) / 2 for a in xs]
    vals.sort()
    probes = []
    if len(vals) >= 2:
        probes.append((vals[0] + vals[-1]) / 2)
        probes.extend((vals[i] + vals[i + 1]) / 2 for i in range(len(vals) - 1))
    probes.extend([Fraction(0), (x0 + x1) / 2])
    return probes


def _check_bbox(comp, va, px, scene, report):
    x0, x1, y0, y1 = scene.bbox
    G = va.G
    # the curve on each frame edge, in y on the left and right, in x below and above
    edges = [(G.at_param(x0), y0, y1), (G.at_param(x1), y0, y1),
             (G.at_s(y0), x0, x1), (G.at_s(y1), x0, x1)]
    for p, lo, hi in edges:
        if not p:
            report.add(f"bbox[{comp.name}]", False, "BBOX: curve contains a frame edge")
            return
        if zp_sign_at(p, lo) == 0 or zp_sign_at(p, hi) == 0 or window_counts(p, lo, hi)[2]:
            report.add(f"bbox[{comp.name}]", False, "BBOX: curve meets the bounding box frame")
            return
    if px is None:
        report.add(f"bbox[{comp.name}]", False, "BBOX: no real curve point found")
        return
    # inside when every crossing of the probe line lies strictly in (y0, y1)
    total, _, between = window_counts(G.at_param(px), y0, y1)
    inside = x0 < px < x1 and total == between
    report.add(f"bbox[{comp.name}]", inside,
               "" if inside else "BBOX: curve has points outside the bounding box")


def _hole_witness(hole, point):
    """A rational point strictly inside the hole disk {sign*F > 0 side}."""
    px, roots = point
    # between consecutive curve points, look for the hole's excluded side
    for i in range(len(roots) - 1):
        mid = (roots[i].hi + roots[i + 1].lo) / 2  # disjoint and sorted
        if hole.side_sign(px, mid) > 0:  # inside the hole: excluded from X
            return (px, mid)
    return None


def validate_scene(scene) -> ValidationReport:
    report = ValidationReport()
    comps = scene.components
    vertical = [_VerticalAnalysis(comp) for comp in comps]
    points = [_curve_point(va, scene) for va in vertical]
    for comp, va, point in zip(comps, vertical, points):
        _check_smooth(comp, va, report)
        _check_bbox(comp, va, point[0], scene, report)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            _check_disjoint(vertical[i], vertical[j], comps[i].name, comps[j].name, report)

    for hole, point in zip(scene.holes, points[1:]):  # components = [outer] + holes
        w = _hole_witness(hole, point)
        if w is None:
            report.add(f"hole_inside[{hole.name}]", False,
                       "HOLE_OUTSIDE: no interior witness for the hole")
            continue
        x, y = w
        ok = scene.outer.side_sign(x, y) < 0
        for other in scene.holes:
            if other is hole:
                continue
            if other.side_sign(x, y) > 0:
                ok = False
                report.add(f"hole_inside[{hole.name}]", False,
                           f"HOLE_OUTSIDE: hole nested inside {other.name}")
                break
        else:
            report.add(f"hole_inside[{hole.name}]", ok,
                       "" if ok else "HOLE_OUTSIDE: hole not inside the outer curve")

    # field: nonvanishing on X
    fld = scene.field
    if fld.kind == "constant":
        dx, dy = fld.direction
        report.add("field_nonvanishing", not (dx == 0 and dy == 0),
                   "" if (dx, dy) != (0, 0) else "FIELD_VANISHES: zero direction")
    else:
        cx, cy = fld.center
        on_curve = any(comp.side_sign(cx, cy) == 0 for comp in scene.components)
        bad = on_curve or scene.contains(cx, cy, strict=False)
        report.add("field_nonvanishing", not bad,
                   "" if not bad else "FIELD_VANISHES: radial center lies in X")

    witness = _interior_point(scene, vertical, points[0][0])
    report.add("region_nonempty", witness is not None,
               "" if witness else "EMPTY: found no interior point of X")
    if witness:
        report.witnesses["interior_point"] = (str(witness[0]), str(witness[1]))
    return report


def _interior_point(scene, vertical, px):
    """Some rational point strictly inside X, or None.

    Probes the outer curve's point line x = px (None if there is none) and
    vertical lines between its tangency parameters, and tests the midpoints
    between consecutive boundary crossings of ALL components on each line;
    ``vertical`` holds the analyses of scene.components.
    """
    probes = []
    if px is not None:
        probes.append(px)
    # the outer curve's tangency intervals as isolated, before any refinement
    vals = sorted((lo + hi) / 2 for lo, hi in vertical[0].intervals)
    for i in range(len(vals) - 1):
        probes.append((vals[i] + vals[i + 1]) / 2)
        probes.append(vals[i] + (vals[i + 1] - vals[i]) / 3)
    for x in probes:
        roots = []
        for va in vertical:
            p = va.G.at_param(x)
            if p:
                roots.extend(r for r, _ in real_roots_with_multiplicities(p))
        if len(roots) < 2:
            continue
        try:
            separate(roots)
        except RuntimeError:
            pass  # the midpoints below are still exact tests
        roots.sort(key=lambda r: r.lo)
        for i in range(len(roots) - 1):
            mid = (roots[i].hi + roots[i + 1].lo) / 2
            if scene.contains(x, mid):
                return (x, mid)
    return None
