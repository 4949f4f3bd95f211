"""Event-driven exact sweep over the trajectory-line family.

Builds the trajectory-space graph of a validated scene: isolate all tangency
parameters, sample one rational parameter per event-free cell, segment each
sample line into trajectories by exact sign tests, and match trajectories
across events using crossing identities (component, ordinal) rather than
numeric proximity.  Vertices are tangency events; a univalent vertex is a
birth/death (pattern (2)), a trivalent one a merge/split (pattern (121)).

At an event, component K has two more crossings on one side (the richer
cell) than on the other.  One certified step (``_resolve_event``), on a
private copy of the event parameter, finds the pair born there: it is the
richer side's crossings (K, j) and (K, j + 1), adjacent in the merged
order, which cannot change within a cell since validated curves are
disjoint.  The pattern is then read off the richer cell, whose gaps were
each point-tested once when it was sampled: (2) exactly when it has a
trajectory from (K, j) to (K, j + 1), (121) otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry
from .bivar import substitute_line_family
from .events import DegenerateScene, ParamEvent, component_events
from .polys import zp_degree, zp_divexact, zp_gcd, zp_sign_at
from .realroots import (
    REFINE_BUDGET,
    AlgebraicNumber,
    real_roots_with_multiplicities,
    separate,
    window_counts,
)


class MatchingAmbiguous(Exception):
    """Internal consistency failure while matching across an event."""


# s*-window widths 4^-1 ... 4^-WINDOW_SHRINKS tried at one event
WINDOW_SHRINKS = 64

SEAM_ROTATIONS = [Fraction(0), Fraction(1, 7), Fraction(1, 9), Fraction(2, 7),
                  Fraction(1, 5), Fraction(3, 8), Fraction(2, 9)]


@dataclass
class TangencyEvent:
    """Public record of one tangency event."""
    component: int
    chart: int
    parameter: float
    parameter_interval: tuple
    defining_poly: tuple
    multiplicity: int
    point: tuple                  # float approximation of the tangency point
    pattern: tuple = None         # set when the event becomes a vertex


@dataclass
class Vertex:
    id: str
    pattern: tuple                # (2,) or (1, 2, 1)
    event: TangencyEvent
    tangent_component: int


@dataclass
class Edge:
    id: str
    pattern: tuple                # always (1, 1)
    entry_component: int
    exit_component: int
    chart_interval: list          # [(chart, lo_float, hi_float), ...]
    attachments: list             # [(vertex_id, role, edge_on_left)]
    is_loop: bool = False
    # (chart, sample, entry crossing, exit crossing) per cell, exact: only render reads it
    samples: list = field(default_factory=list)

    def endpoint_vertices(self):
        return [a[0] for a in self.attachments]


@dataclass
class TrajectoryGraph:
    vertices: list
    edges: list
    scene: object
    seam_rotation: Fraction = Fraction(0)

    @property
    def vertex_count(self):
        return len(self.vertices)

    @property
    def edge_count(self):
        return len(self.edges)

    def pattern_counts(self):
        counts = {(2,): 0, (1, 2, 1): 0}
        for v in self.vertices:
            counts[v.pattern] = counts.get(v.pattern, 0) + 1
        return counts

    def degree(self, vertex_id):
        return sum(1 for e in self.edges for a in e.attachments if a[0] == vertex_id)

    def euler_characteristic(self):
        """Topological Euler characteristic; a loop edge is a circle (chi 0),
        so it needs the +1 a subdivision vertex would contribute."""
        loops = sum(1 for e in self.edges if e.is_loop)
        return len(self.vertices) - len(self.edges) + loops

    def to_dot(self):
        lines = ["graph trajectory_space {"]
        for v in self.vertices:
            pat = "".join(str(m) for m in v.pattern)
            lines.append(f'  {v.id} [label="({pat})"];')
        for e in self.edges:
            ends = e.endpoint_vertices()
            iv = ", ".join(f"{c}:[{lo:.3g},{hi:.3g}]" for c, lo, hi in e.chart_interval)
            if len(ends) == 2:
                lines.append(f'  {ends[0]} -- {ends[1]} [label="{e.id} {iv}"];')
            elif len(ends) == 0:
                lines.append(f'  {e.id}_loop [shape=point]; {e.id}_loop -- {e.id}_loop [label="{e.id} {iv}"];')
            else:
                lines.append(f'  {ends[0]} -- {ends[0]} [label="{e.id} (dangling) {iv}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# --- cell sampling ----------------------------------------------------------

@dataclass
class _Cell:
    chart: int
    sample: Fraction
    comp_roots: list      # per component: list of AlgebraicNumber (crossings)
    order: list           # merged [(comp, idx)] by increasing s
    trajectories: list    # [(entry_pos, exit_pos)] positions into order
    lo: Fraction          # rational bounds of the cell; sample is their midpoint
    hi: Fraction

    def traj_ids(self, t):
        en, ex = self.trajectories[t]
        return (self.order[en], self.order[ex])


def _sample_cell(scene, spolys, chart, q, lo: Fraction, hi: Fraction) -> _Cell:
    radial = scene.field.kind == "radial"
    c = (lo + hi) / 2
    comp_roots = []
    for G in spolys[chart]:
        p = G.at_param(c)
        roots = []
        if p:
            for root, mult in real_roots_with_multiplicities(p):
                # roots at s <= 0 lie on the opposite ray: the other chart's
                if radial and root.compare_rational(Fraction(0)) <= 0:
                    continue
                if mult != 1:
                    raise MatchingAmbiguous(
                        f"multiple crossing at sample parameter {c} (chart {chart})")
                roots.append(root)
        comp_roots.append(roots)
    # merge across components; curves are disjoint so refinement separates
    tagged = [(ci, ri, r) for ci, rs in enumerate(comp_roots) for ri, r in enumerate(rs)]
    try:
        separate([r for _, _, r in tagged])
    except RuntimeError as exc:
        raise MatchingAmbiguous("could not separate crossings (intersecting curves?)") from exc
    tagged.sort(key=lambda t: t[2].lo)
    order = [(ci, ri) for ci, ri, _ in tagged]
    line = geometry.trajectory_line(scene.field, c, chart, q)
    # gap g: 0 = below the first crossing, g = between crossings g-1 and g,
    # n = above the last crossing
    inside = []
    n = len(tagged)
    for g in range(n + 1):
        if g == 0:
            if n == 0:
                t = Fraction(1) if radial else Fraction(0)
            else:
                first = tagged[0][2]
                if radial:
                    for _ in range(REFINE_BUDGET):
                        if first.lo > 0:
                            break
                        first.refine()
                    else:
                        raise MatchingAmbiguous("first crossing not separated from the centre")
                t = first.lo / 2 if radial else first.lo - 1
        elif g == n:
            t = tagged[-1][2].hi + 1
        else:
            t = (tagged[g - 1][2].hi + tagged[g][2].lo) / 2
        x, y = line.point_at(t)
        inside.append(scene.contains(x, y))
    if inside[0] or (n > 0 and inside[n]):
        raise MatchingAmbiguous("sample line not compactly contained in the scene")
    if any(inside[g] and inside[g + 1] for g in range(n)):
        raise MatchingAmbiguous("inside runs must be bounded by crossings")
    traj = [(g - 1, g) for g in range(1, n) if inside[g]]
    return _Cell(chart, c, comp_roots, order, traj, lo, hi)

# --- event-boundary matching -------------------------------------------------

def _resolve_event(G, radial: bool, ev: ParamEvent, left_cell: _Cell, right_cell: _Cell):
    """(richer_is_left, j): which cell has component K's two extra
    crossings, and the excision index j of the pair born at the event.

    Dyadic r_lo < s* < r_hi and probes a < alpha < b in the adjacent cells
    are certified so that on [a, b] G_K has no root at s = r_lo, r_hi or
    (radial) 0, and keeps its s-degree except perhaps at alpha.  Any other
    root of G_K(alpha, .) in (r_lo, r_hi) is simple and persists on both
    sides, so one Sturm count per probe decides: if the poorer side has no
    crossing there, s* is alone in it, and j counts the crossings at or
    below r_lo on either side.  Otherwise the window shrinks.  The count
    checks would see a crossing escape to infinity at alpha.
    """
    K = ev.component
    nl, nr = len(left_cell.comp_roots[K]), len(right_cell.comp_roots[K])
    if abs(nl - nr) != 2:
        raise MatchingAmbiguous(
            f"crossing count changed by {nl - nr} across event at {float(ev.alpha):.6g}")
    richer_is_left = nl > nr
    # refine a private copy: the report reads ev.alpha as earlier layers left it
    ev = ParamEvent(K, ev.chart, AlgebraicNumber(ev.alpha.poly, ev.alpha.lo, ev.alpha.hi),
                    ev.tangent)
    alpha, GK = ev.alpha, G[K]
    lead = GK.coeffs[-1]
    if alpha.sign_of(lead) == 0:
        # lc_K divides Res_s(G_K, dG_K/ds), so its roots are roots of alpha's
        # defining polynomial p, and [a, b] holds no root of p but alpha
        p = AlgebraicNumber.from_rational(alpha.lo).poly if alpha.is_rational else alpha.poly
        while zp_degree(g := zp_gcd(lead, p)) >= 1:
            lead = zp_divexact(lead, g)
    width, lower = Fraction(1, 4), Fraction(0) if radial else None
    for _ in range(WINDOW_SHRINKS):
        # widen the s* bounds by width/2 to width, to multiples of width/2
        s_lo, s_hi = ev.s_star_interval(width)
        half = width / 2
        r_lo = Fraction(math.floor(s_lo / half) - 1) * half
        r_hi = Fraction(math.ceil(s_hi / half) + 1) * half
        factors = [GK.at_s(r) for r in ([r_lo, r_hi, Fraction(0)] if radial else [r_lo, r_hi])]
        if (not radial or r_lo > 0) and all(alpha.sign_of(f) for f in factors):
            a, b = alpha.nonvanishing_interval([lead] + factors,
                                               left_cell.sample, right_cell.sample)
            rich_c, poor_c = (a, b) if richer_is_left else (b, a)
            poor_n, poor_j, poor_in = window_counts(GK.at_param(poor_c), r_lo, r_hi, lower)
            if poor_in == 0:
                rich_n, j, rich_in = window_counts(GK.at_param(rich_c), r_lo, r_hi, lower)
                if (rich_n, poor_n, rich_in, poor_j) != (max(nl, nr), min(nl, nr), 2, j):
                    raise MatchingAmbiguous(f"crossing counts disagree at the {_name(ev)}")
                return richer_is_left, j
        width /= 4
    raise MatchingAmbiguous(f"could not isolate the tangency point of the {_name(ev)}")


def _name(ev: ParamEvent) -> str:
    return f"event of component {ev.component} at {float(ev.alpha):.6g}"


# --- graph assembly ----------------------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _build_spolys(scene, q):
    charts = [0, 1] if scene.field.kind == "radial" else [0]
    spolys = {}
    for chart in charts:
        family = geometry.line_family(scene.field, chart, q)
        spolys[chart] = [substitute_line_family(comp.curve, *family) for comp in scene.components]
    return spolys, charts


def tangency_events(scene):
    """All tangency events, sorted by sweep parameter; exact degeneracy checks.

    Raises DegenerateScene when the scene is not traversally generic: any
    tangency of multiplicity > 2, or two events sharing a sweep parameter
    (which includes one trajectory carrying two tangencies).
    """
    events, _, _, _ = _events_and_charts(scene)
    return events


def _events_and_charts(scene):
    radial = scene.field.kind == "radial"
    lo, hi = geometry.sweep_param_range(scene)
    for q in (SEAM_ROTATIONS if radial else [Fraction(0)]):
        spolys, charts = _build_spolys(scene, q)
        all_events = []
        seam_hit = False
        for chart in charts:
            for ci, G in enumerate(spolys[chart]):
                evs, rsf = component_events(G, ci, chart, lo, hi)
                if radial and (zp_sign_at(rsf, lo) == 0 or zp_sign_at(rsf, hi) == 0):
                    seam_hit = True
                    break
                if radial:
                    evs = [e for e in evs if e.s_star_sign() > 0]
                all_events.extend(evs)
            if seam_hit:
                break
        if seam_hit:
            continue
        _check_distinct_parameters(all_events)
        all_events.sort(key=lambda e: (e.chart, e.alpha.lo))
        return all_events, spolys, charts, q
    raise MatchingAmbiguous("no chart rotation avoided seam tangency parameters")


def _check_distinct_parameters(events):
    # intervals only shrink, and equals() on irrationals whose intervals one
    # sort finds disjoint returns without refining: those pairs are skipped
    order = sorted(range(len(events)), key=lambda k: events[k].alpha.lo)
    los = [events[k].alpha.lo for k in order]
    near = {(min(i, j), max(i, j)) for x, i in enumerate(order)
            for j in order[x + 1:bisect_left(los, events[i].alpha.hi)]}
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            a, b = events[i], events[j]
            if a.chart != b.chart or not ((i, j) in near or a.alpha.is_rational
                                          or b.alpha.is_rational):
                continue
            if a.alpha.equals(b.alpha):
                raise DegenerateScene(
                    "two tangency events share a sweep parameter "
                    f"(components {a.component} and {b.component})",
                    (f"components {a.component},{b.component}",
                     float(a.alpha), (a.alpha.lo, a.alpha.hi)))
    # separate isolating intervals for a strict ordering
    for chart in {e.chart for e in events}:
        separate([e.alpha for e in events if e.chart == chart])


def build_trajectory_space(scene) -> TrajectoryGraph:
    events, spolys, charts, q = _events_and_charts(scene)
    radial = scene.field.kind == "radial"
    lo, hi = geometry.sweep_param_range(scene)

    # cells per chart between consecutive events and the chart ends;
    # boundaries[i] sits after cells[i]: its event, or None at a chart end
    cells, boundaries = [], []
    for chart in charts:
        evs = [e for e in events if e.chart == chart]
        bounds = [lo] + [e.alpha for e in evs] + [hi]
        for left, right in zip(bounds, bounds[1:]):
            cells.append(_sample_cell(scene, spolys, chart, q, *_cell_bounds(left, right)))
        boundaries += evs + [None]
    # constant fields: outermost cells must be empty and chart ends are
    # inert; radial: the two chart ends glue across the seams
    if not radial and (cells[0].trajectories or cells[-1].trajectories):
        raise MatchingAmbiguous("scene region escapes the sweep range")

    uf = _UnionFind()
    vertices = []
    attach = []     # ((cell_idx, traj_idx), vertex, role, edge_on_left)
    for i, ev in enumerate(boundaries):
        k = (i + 1) % len(cells)
        if ev is None:
            if radial:
                _match_seam(uf, i, k, cells[i], cells[k])
            continue
        richer_is_left, j = _resolve_event(spolys[ev.chart], radial, ev, cells[i], cells[k])
        vertices.append(_apply_event(uf, cells, i, k, ev, richer_is_left, j,
                                     f"v{len(vertices)}", attach, scene, q))

    # one edge per union-find class, in the order of their first members
    members, atts = {}, {}
    for ci, cell in enumerate(cells):
        for ti in range(len(cell.trajectories)):
            members.setdefault(uf.find((ci, ti)), []).append((ci, ti))
    for key, vx, role, onleft in attach:
        atts.setdefault(uf.find(key), []).append((vx, role, onleft))
    edges = []
    for root, ms in members.items():
        eid = f"e{len(edges)}"
        en_id, ex_id = cells[ms[0][0]].traj_ids(ms[0][1])
        samples = []
        for ci, ti in ms:
            cell = cells[ci]
            (ce, ie), (cx, ix) = cell.traj_ids(ti)
            samples.append((cell.chart, cell.sample,
                            cell.comp_roots[ce][ie], cell.comp_roots[cx][ix]))
        ends = atts.get(root, [])
        edges.append(Edge(eid, (1, 1), en_id[0], ex_id[0], _edge_intervals(cells, ms),
                          [(vx.id, role, onleft) for vx, role, onleft in ends],
                          is_loop=not ends, samples=samples))

    return TrajectoryGraph(vertices, edges, scene, seam_rotation=q)


def _cell_bounds(left, right):
    """Rationals lo < hi inside the cell between two sweep bounds, each a
    Fraction or an event's AlgebraicNumber, refining the events as needed."""
    for _ in range(REFINE_BUDGET):
        lo = left if isinstance(left, Fraction) else left.hi
        hi = right if isinstance(right, Fraction) else right.lo
        if lo < hi:
            return lo, hi
        for bound in (left, right):
            if not isinstance(bound, Fraction):
                bound.refine()
    raise MatchingAmbiguous("empty cell between sweep bounds")


def _edge_intervals(cells, members):
    spans = {}
    for ci, _ in members:
        cell = cells[ci]
        lo, hi = spans.get(cell.chart, (float(cell.lo), float(cell.hi)))
        spans[cell.chart] = (min(lo, float(cell.lo)), max(hi, float(cell.hi)))
    return [(c, lo, hi) for c, (lo, hi) in sorted(spans.items())]


def _match_seam(uf, i, j, left_cell: _Cell, right_cell: _Cell):
    if [len(r) for r in left_cell.comp_roots] != [len(r) for r in right_cell.comp_roots]:
        raise MatchingAmbiguous("crossing counts differ across a chart seam")
    left_map = {left_cell.traj_ids(t): t for t in range(len(left_cell.trajectories))}
    right_map = {right_cell.traj_ids(t): t for t in range(len(right_cell.trajectories))}
    if set(left_map) != set(right_map):
        raise MatchingAmbiguous("trajectory structure differs across a chart seam")
    for ids, t in left_map.items():
        uf.union((i, t), (j, right_map[ids]))


def _apply_event(uf, cells, i, k, ev, richer_is_left, j, vid, attach, scene, q):
    """Match trajectories across the event between cells i and k; the pair
    born there is the richer cell's crossings (K, j) and (K, j + 1)."""
    rich_i, poor_i = (i, k) if richer_is_left else (k, i)
    rich, poor = cells[rich_i], cells[poor_i]
    K = ev.component

    def to_poor(cid):
        """Crossing id from the richer cell to the poorer one; None for the pair."""
        comp, idx = cid
        if comp != K or idx < j:
            return cid
        return None if idx <= j + 1 else (comp, idx - 2)

    poor_map = {poor.traj_ids(t): t for t in range(len(poor.trajectories))}
    matched = set()
    pinch = a = b = None
    for t in range(len(rich.trajectories)):
        en, ex = map(to_poor, rich.traj_ids(t))
        if en is None and ex is None:
            pinch = t             # from (K, j) to (K, j + 1)
        elif ex is None:
            a = (t, en)           # ends on the pair
        elif en is None:
            b = (t, ex)           # starts on the pair
        elif (en, ex) in poor_map:
            uf.union((rich_i, t), (poor_i, poor_map[en, ex]))
            matched.add(poor_map[en, ex])
        else:
            raise MatchingAmbiguous(f"unmatched trajectory across event at {float(ev.alpha):.6g}")

    pattern = (2,) if pinch is not None else (1, 2, 1)
    # tangency point, for reports and figures
    ev.alpha.refine_below(Fraction(1, 10**12))
    s_lo, s_hi = ev.s_star_interval(Fraction(1, 10**12))
    s_approx = float((s_lo + s_hi) / 2)
    line = geometry.trajectory_line(scene.field, (ev.alpha.lo + ev.alpha.hi) / 2, ev.chart, q)
    px, py = line.point_at(Fraction(s_approx).limit_denominator(10**9))
    event_rec = TangencyEvent(
        component=K, chart=ev.chart, parameter=float(ev.alpha),
        parameter_interval=(str(ev.alpha.lo), str(ev.alpha.hi)),
        defining_poly=ev.alpha.poly, multiplicity=2,
        point=(float(px), float(py)), pattern=pattern)

    # richer-cell edges approach the vertex from the left iff that cell is left
    if pinch is not None:
        vx = Vertex(vid, pattern, event_rec, K)
        attach.append(((rich_i, pinch), vx, "pinch", richer_is_left))
    else:
        # (121): two trajectories merge into one (or split, read right-to-left)
        if a is None or b is None:
            raise MatchingAmbiguous("merge/split event without a lower/upper pair")
        t_ab = poor_map.get((a[1], b[1]))
        if t_ab is None:
            raise MatchingAmbiguous("merged trajectory missing after a merge/split event")
        matched.add(t_ab)
        vx = Vertex(vid, pattern, event_rec, K)
        attach += [((rich_i, a[0]), vx, "A", richer_is_left),
                   ((rich_i, b[0]), vx, "B", richer_is_left),
                   ((poor_i, t_ab), vx, "AB", not richer_is_left)]
    if len(matched) != len(poor.trajectories):
        raise MatchingAmbiguous(f"extra trajectories after the event at {float(ev.alpha):.6g}")
    return vx
