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

Everything is read along the vertical lines x = c.  A component's stored
curve already is its restriction G to that pencil
(``geometry.BoundaryComponent``), so nothing is substituted: F_x is G's
c-derivative, and the frame edges are G at x = x0, x1 (``SPoly.at_param``)
and at y = y0, y1 (``SPoly.at_s``).

Each call of ``validate_scene`` builds one ``events.CurveAnalysis`` per
component: the signed subresultant sequence of G, the square-free part of
Res_s(G, G_s) and its isolating intervals.  It lives only as long as the
call.  A singular point (a real common root of gcd(G, G_s) and F_x) forces
x to be a root of that resultant, and an intersection point of two curves
a root of theirs; ``bivar.common_real_root`` decides each exactly.

The bbox check, the hole witnesses and the interior point use one probe
rule: the midpoint of the gap between each two consecutive isolating
intervals, as isolated (``_probes``).  This is the cell argument of
cylindrical algebraic decomposition (Collins, LNCS 33, 1975): a probe lies
strictly between consecutive tangency parameters, where every crossing of
the line with the curve is simple.  A compact smooth oval has its x-extrema
among those parameters and spans the open x-range between them, so at
least one probe line crosses every oval and enters the region it bounds.
So every oval is checked against the box, and every hole oval against the
outer curve and the other holes.

Nothing is refined for the probes: refining an algebraic number is visible
in the floats and witnesses reported later, so each check builds its own
fresh numbers from the stored intervals (``CurveAnalysis.params``).  The
bbox check counts roots on the frame edges and the probe lines with
``realroots.window_counts``, and tests the edge ends exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bivar import common_real_root, sylvester_resultant
from .events import CurveAnalysis
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


def _probes(intervals):
    """The midpoint of the gap between each two consecutive isolating
    intervals, as isolated: a rational strictly between consecutive roots."""
    return [(hi + lo) / 2 for (_, hi), (lo, _) in zip(intervals, intervals[1:])]


def _check_smooth(comp, va, report):
    """No real point with F = Fx = Fy = 0 (in particular on tangency loci)."""
    if va.rsf is None:
        report.add(f"curve_smooth[{comp.name}]", False,
                   "CURVE_SINGULAR: restriction identically degenerate")
        return
    fx = va.G.dc()
    for alpha in va.params():
        k, g = va.seq.at(alpha).gcd(alpha)
        # a singular point is a real common root of G, G_s and F_x on x = alpha
        if k >= 1 and common_real_root(g, fx.truncated(alpha), alpha):
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


def _check_bbox(comp, va, scene, report):
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
    met = False
    for x in _probes(va.intervals):
        # inside when every crossing of the probe line lies strictly in (y0, y1)
        total, _, between = window_counts(G.at_param(x), y0, y1)
        if total and not (x0 < x < x1 and total == between):
            report.add(f"bbox[{comp.name}]", False,
                       "BBOX: curve has points outside the bounding box")
            return
        met = met or total > 0
    report.add(f"bbox[{comp.name}]", met, "" if met else "BBOX: no real curve point found")


def _check_hole(scene, hole, va, report):
    """Every witness of the hole lies outside the other holes and inside the
    outer curve.  A witness is a point of a probe line inside the hole,
    between two consecutive crossings of the hole curve."""
    name = f"hole_inside[{hole.name}]"
    witnessed = False
    for x in _probes(va.intervals):
        # square-free: x is no tangency parameter
        for y in _probes(isolate_real_roots(va.G.at_param(x))):
            if hole.side_sign(x, y) <= 0:  # not inside the hole
                continue
            witnessed = True
            other = next((o for o in scene.holes if o is not hole and o.side_sign(x, y) > 0), None)
            if other is not None:
                report.add(name, False, f"HOLE_OUTSIDE: hole nested inside {other.name}")
                return
            if scene.outer.side_sign(x, y) >= 0:
                report.add(name, False, "HOLE_OUTSIDE: hole not inside the outer curve")
                return
    report.add(name, witnessed,
               "" if witnessed else "HOLE_OUTSIDE: no interior witness for the hole")


def validate_scene(scene) -> ValidationReport:
    report = ValidationReport()
    comps = scene.components
    analyses = [CurveAnalysis(comp.curve) for comp in comps]
    for comp, va in zip(comps, analyses):
        _check_smooth(comp, va, report)
        _check_bbox(comp, va, scene, report)
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            _check_disjoint(analyses[i], analyses[j], comps[i].name, comps[j].name, report)
    for hole, va in zip(scene.holes, analyses[1:]):  # components = [outer] + holes
        _check_hole(scene, hole, va, report)

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

    witness = _interior_point(scene, analyses)
    report.add("region_nonempty", witness is not None,
               "" if witness else "EMPTY: found no interior point of X")
    if witness:
        report.witnesses["interior_point"] = (str(witness[0]), str(witness[1]))
    return report


def _interior_point(scene, analyses):
    """Some rational point strictly inside X, or None.

    Tests, on each of the outer curve's probe lines, the midpoints between
    consecutive crossings of ALL components; ``analyses`` holds those of
    scene.components.
    """
    for x in _probes(analyses[0].intervals):
        roots = []
        for va in analyses:
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
        for a, b in zip(roots, roots[1:]):
            mid = (a.hi + b.lo) / 2
            if scene.contains(x, mid):
                return (x, mid)
    return None
