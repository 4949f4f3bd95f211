"""Scene model: a compact planar domain with implicit-curve boundary.

X = {outer <= 0} cap (intersection of {hole_i >= 0}) cap bbox, with every
boundary component a smooth rational implicit curve, and a field whose
trajectories are straight lines (constant direction, or radial from a
center outside X).  All predicates are exact over QQ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .bivar import BiPoly, bp_eval, bp_normalize, bp_restrict_line


class SceneError(Exception):
    """Malformed scene input (parse/shape errors)."""


@dataclass
class BoundaryComponent:
    implicit: BiPoly            # F(x, y), Fraction coefficients
    inside_sign: int            # X locally satisfies inside_sign * F <= 0
    role: str                   # "outer" | "hole"
    name: str = ""

    def side_value(self, x: Fraction, y: Fraction) -> Fraction:
        """Negative inside X's side of this component."""
        return self.inside_sign * bp_eval(self.implicit, x, y)


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
            v = comp.side_value(x, y)
            if (v >= 0) if strict else (v > 0):
                return False
        return True


def _fr(v) -> Fraction:
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise SceneError(f"rational must be [num, den]: {v!r}")
        if int(v[1]) == 0:
            raise SceneError(f"zero denominator in {v!r}")
        return Fraction(int(v[0]), int(v[1]))
    if isinstance(v, int):
        return Fraction(v)
    raise SceneError(f"expected rational, got {v!r}")


def circle_poly(cx, cy, r) -> BiPoly:
    """(x - cx)^2 + (y - cy)^2 - r^2 as a BiPoly."""
    cx, cy, r = Fraction(cx), Fraction(cy), Fraction(r)
    return bp_normalize({
        (2, 0): 1, (0, 2): 1,
        (1, 0): -2 * cx, (0, 1): -2 * cy,
        (0, 0): cx * cx + cy * cy - r * r,
    })


def _parse_curve(d) -> BiPoly:
    kind = d.get("type")
    if kind == "circle":
        cx, cy = (_fr(v) for v in d["center"])
        return circle_poly(cx, cy, _fr(d["radius"]))
    if kind == "polynomial":
        out = {}
        for entry in d["coeffs"]:
            i, j, num, den = entry
            key = (int(i), int(j))
            if min(key) < 0:
                raise SceneError(f"negative exponent in {entry!r}")
            out[key] = out.get(key, Fraction(0)) + _fr([num, den])
        out = bp_normalize(out)
        if not out:
            raise SceneError("curve polynomial is identically zero")
        return out
    raise SceneError(f"unknown curve type {kind!r}")


def _parse_component(d, role: str, name: str) -> BoundaryComponent:
    sign = int(d.get("inside_sign", 1 if role == "outer" else -1))
    if sign not in (-1, 1):
        raise SceneError("inside_sign must be +1 or -1")
    return BoundaryComponent(_parse_curve(d["curve"]), sign, role, name)


def parse_scene(doc: dict, name: str = "") -> Scene:
    try:
        outer = _parse_component(doc["outer"], "outer", "outer")
        holes = [_parse_component(h, "hole", f"hole{i}")
                 for i, h in enumerate(doc.get("holes", []))]
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
        except json.JSONDecodeError as exc:
            raise SceneError(f"invalid JSON: {exc}") from exc
    return parse_scene(doc, name=str(path))


# line families -------------------------------------------------------------

@dataclass
class Line:
    """Rational line {base + t * direction}."""
    base: tuple
    direction: tuple

    def point_at(self, t: Fraction):
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])


def trajectory_line(fld: Field, parameter, chart: int = 0) -> Line:
    """The trajectory line at a sweep parameter.

    Constant field: parameter c offsets along n = (dy, -dx), so a vertical
    field gives the line x = c.  Radial field: two half-turn charts with the
    tan-half-angle parametrization, directions (1 - t^2, 2t) on chart 0 and
    its negation on chart 1, t in [-1, 1).
    """
    p = Fraction(parameter)
    if fld.kind == "constant":
        dx, dy = fld.direction
        return Line((p * dy, -p * dx), (dx, dy))
    cx, cy = fld.center
    dx, dy = 1 - p * p, 2 * p
    if chart == 1:
        dx, dy = -dx, -dy
    return Line((cx, cy), (dx, dy))


def restrict_to_line(F: BiPoly, line: Line):
    """Exact substitution; Fraction coefficients in the line parameter."""
    return bp_restrict_line(
        F,
        (line.base[0], line.direction[0]),
        (line.base[1], line.direction[1]),
    )


def line_family(scene: Scene, chart: int = 0, seam_rotation: Fraction = Fraction(0)):
    """(x(c, s), y(c, s)) BiPolys in (c, s) for the sweep family.

    For constant fields there is a single chart; for radial ones, chart 0
    covers the half-turn of directions around +x and chart 1 the opposite
    half, optionally precomposed with a rational rotation to move the seam
    off tangency parameters.  Positive overall rescalings are irrelevant.
    """
    fld = scene.field
    if fld.kind == "constant":
        dx, dy = fld.direction
        x = bp_normalize({(1, 0): dy, (0, 1): dx})    # c * dy + s * dx
        y = bp_normalize({(1, 0): -dx, (0, 1): dy})   # -c * dx + s * dy
        return x, y
    cx, cy = fld.center
    q = Fraction(seam_rotation)
    # rotation by angle with tan(half) = q: ((1-q^2, -2q), (2q, 1-q^2))/(1+q^2)
    a, b = 1 - q * q, 2 * q
    sign = 1 if chart == 0 else -1
    # direction before rotation: (1 - c^2, 2c); after: rot * dir, scaled
    dirx = {(0, 0): a * sign, (2, 0): -a * sign, (1, 0): -2 * b * sign}
    diry = {(0, 0): b * sign, (2, 0): -b * sign, (1, 0): 2 * a * sign}
    x = bp_normalize({(i + 0, j + 1): v for (i, j), v in dirx.items()})
    y = bp_normalize({(i + 0, j + 1): v for (i, j), v in diry.items()})
    x[(0, 0)] = Fraction(cx)
    y[(0, 0)] = Fraction(cy)
    return bp_normalize(x), bp_normalize(y)


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