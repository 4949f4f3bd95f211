"""Scene model: a compact planar domain with implicit-curve boundary.

X = {outer <= 0} cap (intersection of {hole_i >= 0}) cap bbox, with every
boundary component a smooth rational implicit curve, and a field whose
trajectories are straight lines (constant direction, or radial from a
center outside X).  Each curve F is read once into integers, L * F with L
the least common denominator of its coefficients; every predicate is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bivar import SPoly
from .polys import zp, zp_eval_hom


class SceneError(Exception):
    """Malformed scene input (parse/shape errors)."""


@dataclass
class BoundaryComponent:
    curve: SPoly                # L * F(x, y): the s^j entry is the ZP in x of y^j
    lcd: int                    # L, the least common denominator of F's coefficients
    inside_sign: int            # X locally satisfies inside_sign * F <= 0
    role: str                   # "outer" | "hole"
    name: str = ""

    def side_sign(self, x: Fraction, y: Fraction) -> int:
        """Sign of inside_sign * F(x, y), negative on X's side: one integer
        homogeneous evaluation, in x column by column, then in y."""
        v = zp_eval_hom(self.curve.column_values(x.numerator, x.denominator),
                        y.numerator, y.denominator)
        return self.inside_sign * ((v > 0) - (v < 0))


@dataclass
class Field:
    kind: str                           # "constant" | "radial"
    direction: tuple = None             # constant: (dx, dy) rational, nonzero
    center: tuple = None                # radial: (cx, cy) rational


@dataclass
class Scene:
    outer: BoundaryComponent
    holes: list
    field: Field
    bbox: tuple                         # (x0, x1, y0, y1) Fractions
    name: str = ""
    raw: dict = None                    # the input document, echoed in reports

    @property
    def components(self):
        return [self.outer] + list(self.holes)

    @property
    def hole_count(self) -> int:
        return len(self.holes)

    def contains(self, x: Fraction, y: Fraction, strict: bool = True) -> bool:
        x0, x1, y0, y1 = self.bbox
        if not (x0 < x < x1 and y0 < y < y1):
            return False
        for comp in self.components:
            v = comp.side_sign(x, y)
            if (v >= 0) if strict else (v > 0):
                return False
        return True


def _int(v) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not cast."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SceneError(f"expected integer, got {v!r}")
    return v


def _fr(v) -> Fraction:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise SceneError(f"rational must be [num, den]: {v!r}")
        num, den = _int(v[0]), _int(v[1])
        if den == 0:
            raise SceneError(f"zero denominator in {v!r}")
        return Fraction(num, den)
    return Fraction(_int(v))


def circle_poly(cx: Fraction, cy: Fraction, r: Fraction) -> dict:
    """(x - cx)^2 + (y - cy)^2 - r^2 as terms {(i, j): coefficient of x^i y^j}."""
    return {(2, 0): 1, (0, 2): 1, (1, 0): -2 * cx, (0, 1): -2 * cy,
            (0, 0): cx * cx + cy * cy - r * r}


def curve_from_terms(terms: dict):
    """(L * F, L), the stored form of F = sum of terms {(i, j): rational
    coefficient of x^i y^j}, with L the lcd of F's coefficients."""
    terms = {k: Fraction(v) for k, v in terms.items() if v}
    if not terms:
        raise SceneError("curve polynomial is identically zero")
    L = lcm(*(v.denominator for v in terms.values()))
    rows = [[0] * (1 + max(i for i, _ in terms)) for _ in range(1 + max(j for _, j in terms))]
    for (i, j), v in terms.items():
        rows[j][i] = v.numerator * (L // v.denominator)
    return SPoly([zp(row) for row in rows]), L


def _parse_curve(d):
    kind = d.get("type")
    if kind == "circle":
        cx, cy = (_fr(v) for v in d["center"])
        return curve_from_terms(circle_poly(cx, cy, _fr(d["radius"])))
    if kind == "polynomial":
        terms = {}
        for entry in d["coeffs"]:
            i, j, num, den = entry
            key = (_int(i), _int(j))
            if min(key) < 0:
                raise SceneError(f"negative exponent in {entry!r}")
            terms[key] = terms.get(key, 0) + _fr([num, den])
        return curve_from_terms(terms)
    raise SceneError(f"unknown curve type {kind!r}")


def _parse_component(d, role: str, name: str) -> BoundaryComponent:
    if not isinstance(d, dict) or not isinstance(d.get("curve"), dict):
        raise SceneError(f"{role} and its curve must be JSON objects: {d!r}")
    sign = _int(d.get("inside_sign", 1 if role == "outer" else -1))
    if sign not in (-1, 1):
        raise SceneError("inside_sign must be +1 or -1")
    return BoundaryComponent(*_parse_curve(d["curve"]), sign, role, name)


def parse_scene(doc: dict, name: str = "") -> Scene:
    try:
        outer = _parse_component(doc["outer"], "outer", "outer")
        holes = doc.get("holes", [])
        if not isinstance(holes, list):
            raise SceneError(f"holes must be a JSON list, got {holes!r}")
        holes = [_parse_component(h, "hole", f"hole{i}") for i, h in enumerate(holes)]
        f = doc["field"]
        if f["kind"] == "constant":
            dx, dy = (_fr(v) for v in f["direction"])
            if dx == 0 and dy == 0:
                raise SceneError("constant field direction must be nonzero")
            fld = Field("constant", direction=(dx, dy))
        elif f["kind"] == "radial":
            cx, cy = (_fr(v) for v in f["center"])
            fld = Field("radial", center=(cx, cy))
        else:
            raise SceneError(f"unknown field kind {f['kind']!r}")
        bbox = tuple(_fr(v) for v in doc["bbox"])
        if len(bbox) != 4 or bbox[0] >= bbox[1] or bbox[2] >= bbox[3]:
            raise SceneError("bbox must be [x0, x1, y0, y1] with x0<x1, y0<y1")
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"bad scene document: {exc}") from exc
    return Scene(outer, holes, fld, bbox, name=name, raw=doc)


def load_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SceneError(f"scene file is not UTF-8: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also too deep, or too long a number
            raise SceneError(f"invalid JSON: {exc}") from exc
    return parse_scene(doc, name=str(path))


# line families -------------------------------------------------------------

@dataclass
class Line:
    """Line {base + t * direction}: rational, or the float view of one."""
    base: tuple
    direction: tuple

    def point_at(self, t: Fraction):
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])


def trajectory_line(fld: Field, c, chart: int = 0, q=0) -> Line:
    """The trajectory line at sweep parameter c: the one statement of the
    sweep's line family.

    Constant field: c offsets along n = (dy, -dx), so a vertical field gives
    the line x = c.  Radial field: two half-turn charts with the
    tan-half-angle parametrization, directions (1 - c^2, 2c) on chart 0 and
    its negation on chart 1, c in [-1, 1), turned by the rotation whose
    tan-half-angle is the seam rotation q (scaled by 1 + q^2, a positive
    factor).  The arithmetic runs in c's type: exact for Fraction c and q,
    the float view for a float c with a float q.
    """
    if fld.kind == "constant":
        dx, dy = fld.direction
        return Line((c * dy, -c * dx), (dx, dy))
    a, b = 1 - q * q, 2 * q
    sgn = 1 if chart == 0 else -1
    ux, uy = 1 - c * c, 2 * c
    return Line(fld.center, ((a * ux - b * uy) * sgn, (b * ux + a * uy) * sgn))


def line_family(fld: Field, chart: int = 0, q: Fraction = Fraction(0)):
    """Integer (X, Y, m) for the sweep family: SPolys X, Y in (c, s) and a
    positive integer m with the point at s of trajectory_line(fld, c,
    chart, q) at (X/m, Y/m).

    Base and direction are at most quadratic in c, so their values at
    c = 0, 1, -1 give their coefficients.
    """
    at = [trajectory_line(fld, Fraction(c), chart, Fraction(q)) for c in (0, 1, -1)]
    # x, then y: the s^0 (base) and s^1 (direction) columns from c = 0, 1, -1
    coords = [[(f0, (f1 - fm) / 2, (f1 + fm) / 2 - f0)
               for f0, f1, fm in ([ln.base[k] for ln in at], [ln.direction[k] for ln in at])]
              for k in (0, 1)]
    m = lcm(*(v.denominator for cols in coords for col in cols for v in col))
    X, Y = (SPoly([zp(v.numerator * (m // v.denominator) for v in col) for col in cols])
            for cols in coords)
    return X, Y, m


def sweep_param_range(scene: Scene):
    """Closed parameter interval of one chart of the sweep."""
    if scene.field.kind == "constant":
        dx, dy = scene.field.direction
        x0, x1, y0, y1 = scene.bbox
        # offsets c with the line meeting the bbox: project corners on n
        corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
        n2 = dx * dx + dy * dy
        vals = [Fraction(x * dy - y * dx, n2) for x, y in corners]
        return min(vals), max(vals)
    return Fraction(-1), Fraction(1)