"""SVG export of scenes: boundary curves, tangency data, tinted slabs.

Boundary curves are drawn by marching squares over exact grid values: the
integers D * F(x, y) at rational sample points, one positive D per curve,
from the component's stored integer form L * F.  Each grid column is one
big integer whose fixed-width, biased byte slots hold the column's values,
computed by one multiply-add per s-degree (see ``_grid_values``).  Sign
masks read off the slots' top bytes find the cells where the sign changes;
only at their corners is a slot decoded and the float of F formed, as one
correctly rounded int / int division.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .geometry import trajectory_line

SLAB_COLORS = ["#cfe8ff", "#ffe2c9", "#d9f2d0", "#f2d0e8", "#fff3b8",
               "#d0f0f2", "#e3d5ff", "#ffd6d6", "#e0e0c8", "#c8e0dc"]


def _grid(start, step, n):
    """The n + 1 rational sample points start + k * step, k = 0..n."""
    return [Fraction(start + k * step).limit_denominator(10**6) for k in range(n + 1)]


# 1 for the top bytes below 0x80, those of the slots where N < lo
_BELOW = bytes(v < 0x80 for v in range(256))


def _grid_values(curves, xs, ys):
    """(D, t, off, cols) per curve ``(G, L)``, G = L * F as stored by
    ``geometry.curve_from_terms``: the bytes cols[i] hold, in slot j of
    t bytes (little-endian), N_ij + off for N_ij == D * F(xs[i], ys[j]).

    With qx, qy the common denominators of the xs and ys and d the largest
    s-degree in curves, D = L * qx^degx * qy^d.  ``column_values`` collapses
    G at x into integer coefficients col[k] of a polynomial in y, so that
    N = sum_k col[k] * T_k[j] with T_k[j] = Y_j^k * qy^(d - k), y_j = Y_j / qy
    (one table for all curves).  Packing T_k into P_k = sum_j T_k[j] 2^(8tj)
    makes column i the one integer off * R + sum_k col_i[k] * P_k, with
    R = sum_j 2^(8tj) (Kronecker substitution).  The bias off = 2^(8t-1) - lo,
    lo = -(D >> 1075), and t is the least width with 2^(8t-1) above the bound
    max_i sum_k |col_i[k]| * max_j |T_k[j]| + |lo|, so every slot lies in
    [0, 2^(8t)) and none carries into the next.  N / D, formed only at the
    corners of cells where the sign changes, is one int / int true division,
    which Python rounds correctly, as Fraction.__float__ does: the float of
    F(x, y) in Fraction arithmetic bit for bit, and 0.0 on the curve.
    """
    qx = lcm(*(x.denominator for x in xs))
    qy = lcm(*(y.denominator for y in ys))
    d = max(G.degree_s() for G, _ in curves)
    tables = [[(y.numerator * (qy // y.denominator)) ** k * qy ** (d - k) for y in ys]
              for k in range(d + 1)]
    tops = [max(map(abs, table)) for table in tables]
    for G, L in curves:
        D = L * qx ** G.degree_c() * qy ** d
        lo = -(D >> 1075)
        cols = [G.column_values(x.numerator * (qx // x.denominator), qx) for x in xs]
        bound = max(sum(abs(c) * top for c, top in zip(col, tops)) for col in cols) - lo
        t = bound.bit_length() // 8 + 1
        half = 1 << (8 * t - 1)
        R = int.from_bytes((b"\x01" + bytes(t - 1)) * len(ys), "little")
        # where some col_i[k] != 0, |T_k[j]| <= bound < half, so T_k[j] + half
        # fits t bytes unsigned; P_k is not needed for the other k
        packs = [int.from_bytes(b"".join((v + half).to_bytes(t, "little") for v in table),
                                "little") - half * R if any(col[k] for col in cols) else 0
                 for k, table in enumerate(tables[:G.degree_s() + 1])]
        off = half - lo
        yield D, t, off, [(off * R + sum(map(mul, col, packs))).to_bytes(t * len(ys), "little")
                          for col in cols]


def _marching_segments(curves, bbox, n=160):
    """Zero-set line segments of each F = G / L of curves, ``(G, L)`` pairs,
    on one n x n grid over bbox (floats; drawing only), curve after curve.

    A mask per grid column with byte j = 1 where N < lo (see _grid_values),
    read off the top byte of each slot, finds the cells with a sign change
    by XORs of masks and their one-byte shifts.  lo = -(D >> 1075) is 0
    unless N / D can round to -0.0, so N < lo exactly when the float is
    negative.  Floats N / D are formed only at the corners of those cells,
    and equal those of the Fraction F.
    """
    x0, x1, y0, y1 = (float(v) for v in bbox)
    dx, dy = (x1 - x0) / n, (y1 - y0) / n
    xs = _grid(x0, dx, n)
    ys = xs if (y0, dy) == (x0, dx) else _grid(y0, dy, n)
    cells = int.from_bytes(bytes([1] * n), "little")
    segs = []

    def interp(xa, ya, va, xb, yb, vb):
        t = va / (va - vb)
        return (xa + t * (xb - xa), ya + t * (yb - ya))

    for D, t, off, cols in _grid_values(curves, xs, ys):
        masks = [int.from_bytes(col[t - 1::t].translate(_BELOW), "little") for col in cols]

        def value(i, j):
            return (int.from_bytes(cols[i][t * j:t * j + t], "little") - off) / D

        for i in range(n):
            # bottom, top and left edges; the right one never changes sign alone
            h, a = masks[i] ^ masks[i + 1], masks[i]
            live = (h | h >> 8 | a ^ a >> 8) & cells
            while live:
                low = live & -live
                live ^= low
                j = low.bit_length() >> 3
                corners = [
                    (x0 + i * dx, y0 + j * dy, value(i, j)),
                    (x0 + (i + 1) * dx, y0 + j * dy, value(i + 1, j)),
                    (x0 + (i + 1) * dx, y0 + (j + 1) * dy, value(i + 1, j + 1)),
                    (x0 + i * dx, y0 + (j + 1) * dy, value(i, j + 1)),
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


def _num(v: float) -> str:
    """v to two decimals, never as negative zero."""
    return f"{round(v, 2) + 0.0:.2f}"


class _Canvas:
    def __init__(self, bbox, size=640):
        x0, x1, y0, y1 = (float(v) for v in bbox)
        self.x0, self.y1 = x0, y1
        self.scale = size / max(x1 - x0, y1 - y0)
        self.w = (x1 - x0) * self.scale
        self.h = (y1 - y0) * self.scale
        self.items = []

    def pt(self, x, y):
        return ((x - self.x0) * self.scale, (self.y1 - y) * self.scale)

    def line(self, a, b, stroke, width=1.0, dash=None):
        (xa, ya), (xb, yb) = self.pt(*a), self.pt(*b)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.items.append(
            f'<line x1="{_num(xa)}" y1="{_num(ya)}" x2="{_num(xb)}" y2="{_num(yb)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>')

    def circle(self, c, r, fill):
        x, y = self.pt(*c)
        self.items.append(f'<circle cx="{_num(x)}" cy="{_num(y)}" r="{r}" fill="{fill}"/>')

    def polygon(self, pts, fill, opacity=0.5):
        s = " ".join(f"{_num(x)},{_num(y)}" for x, y in (self.pt(*p) for p in pts))
        self.items.append(f'<polygon points="{s}" fill="{fill}" opacity="{opacity}" stroke="none"/>')

    def text(self, p, s, size=11):
        x, y = self.pt(*p)
        self.items.append(f'<text x="{_num(x + 4)}" y="{_num(y - 4)}" font-size="{size}">{s}</text>')

    def to_svg(self):
        body = "\n".join(self.items)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w:.0f}" '
                f'height="{self.h:.0f}" viewBox="0 0 {self.w:.2f} {self.h:.2f}">\n'
                f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')


def scene_svg(scene, graph=None) -> str:
    canvas = _Canvas(scene.bbox)
    # slabs first (underneath): approximate by the stored edge samples
    if graph is not None:
        q = float(graph.seam_rotation)  # trajectory lines in the float view
        vertex_points = {v.id: v.event.point for v in graph.vertices}
        for k, e in enumerate(graph.edges):
            color = SLAB_COLORS[k % len(SLAB_COLORS)]
            band = []
            for chart, param, s_en, s_ex in sorted(e.samples, key=lambda t: t[:2]):
                param = float(param)
                line = trajectory_line(scene.field, param, chart, q)
                band.append((param, (line.point_at(float(s_en)), line.point_at(float(s_ex)))))
            band.sort(key=lambda t: t[0])
            band = [pair for _, pair in band]
            # the slab pinches onto the endpoint event trajectories
            left = [a for a in e.attachments if not a[2]]
            right = [a for a in e.attachments if a[2]]
            if left:
                p = vertex_points[left[0][0]]
                band.insert(0, (p, p))
            if right:
                p = vertex_points[right[0][0]]
                band.append((p, p))
            if len(band) == 1:
                a, b = band[0]
                canvas.line(a, b, color, width=6.0)
            elif band:
                poly = [p for p, _ in band] + [p for _, p in reversed(band)]
                canvas.polygon(poly, color)
    for a, b in _marching_segments([(c.curve, c.lcd) for c in scene.components], scene.bbox):
        canvas.line(a, b, "#222222", width=1.4)
    if graph is not None:
        for v in graph.vertices:
            line = trajectory_line(scene.field, v.event.parameter, v.event.chart, q)
            a, b = _clip_line(line, scene.bbox)
            canvas.line(a, b, "#d03030", width=1.0, dash="5,4")
            canvas.circle(v.event.point, 4.0, "#d03030")
            canvas.text(v.event.point, f'{v.id} ({"".join(map(str, v.pattern))})')
    return canvas.to_svg()


def _clip_line(line, bbox):
    x0, x1, y0, y1 = (float(v) for v in bbox)
    (bx, by), (dx, dy) = line.base, line.direction
    lo, hi = -1e9, 1e9
    for (d, b, lo_b, hi_b) in ((dx, bx, x0, x1), (dy, by, y0, y1)):
        if abs(d) < 1e-15:
            continue
        t_a, t_b = (lo_b - b) / d, (hi_b - b) / d
        lo = max(lo, min(t_a, t_b))
        hi = min(hi, max(t_a, t_b))
    return line.point_at(lo), line.point_at(hi)