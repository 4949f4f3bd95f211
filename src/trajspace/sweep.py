"""Event-driven exact sweep over the trajectory-line family.

Builds the trajectory-space graph of a validated scene: isolate all tangency
parameters, sample one rational parameter per event-free cell, segment each
sample line into trajectories by exact sign tests, and match trajectories
across events using crossing identities (component, ordinal) rather than
numeric proximity.  Vertices are tangency events; a univalent vertex is a
birth/death (pattern (2)), a trivalent one a merge/split (pattern (121)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry
from .bivar import substitute_line_family
from .events import DegenerateScene, ParamEvent, component_events
from .polys import zp_degree, zp_sign_at, zp_squarefree_part
from .realroots import (
    real_roots_with_multiplicities,
    separate,
    sturm_chain,
    sturm_variations_at,
    sturm_variations_at_inf,
)


class MatchingAmbiguous(Exception):
    """Internal consistency failure while matching across an event."""


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
    entry_component: int = None   # (121) only
    exit_component: int = None    # (121) only
    edge_roles: list = field(default_factory=list)  # (edge_id, role, edge_on_left)


@dataclass
class Edge:
    id: str
    pattern: tuple                # always (1, 1)
    entry_component: int
    exit_component: int
    chart_interval: list          # [(chart, lo_float, hi_float), ...]
    attachments: list             # [(vertex_id, role, edge_on_left)]
    is_loop: bool = False
    samples: list = field(default_factory=list)  # (chart, param, s_entry, s_exit) floats

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
    lo: Fraction = None
    hi: Fraction = None

    def traj_ids(self, t):
        en, ex = self.trajectories[t]
        return (self.order[en], self.order[ex])


def _sample_cell(scene, spolys, chart, q, c: Fraction) -> _Cell:
    radial = scene.field.kind == "radial"
    comp_roots = []
    for G in spolys[chart]:
        p = G.at_param(c)
        roots = []
        if p:
            for root, mult in real_roots_with_multiplicities(p):
                if mult != 1:
                    raise MatchingAmbiguous(
                        f"multiple crossing at sample parameter {c} (chart {chart})")
                if radial:
                    s = root.compare_rational(Fraction(0))
                    if s <= 0:
                        continue
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
                lo0 = tagged[0][2].lo
                t = lo0 / 2 if radial else lo0 - 1
                if radial:
                    while t <= 0:
                        tagged[0][2].refine()
                        t = tagged[0][2].lo / 2
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
    return _Cell(chart, c, comp_roots, order, traj)

# --- event-boundary matching -------------------------------------------------

def _isolate_sstar_window(ev: ParamEvent, radial: bool):
    """Rationals r_lo < s* < r_hi containing no other real root of G(alpha)."""
    width = Fraction(1, 4)
    for _ in range(200):
        r_lo, r_hi = ev.s_star_interval(width)
        pad = (r_hi - r_lo) / 4 if r_hi > r_lo else Fraction(1, 1024)
        r_lo, r_hi = r_lo - pad, r_hi + pad
        if radial and r_lo <= 0:
            width /= 4
            continue
        # nudge endpoints off roots of G(alpha, .)
        bump = (r_hi - r_lo) / 17
        tries = 0
        while ev.seq.sign_at(ev.alpha, r_lo) == 0 and tries < 40:
            r_lo -= bump
            tries += 1
        while ev.seq.sign_at(ev.alpha, r_hi) == 0 and tries < 80:
            r_hi += bump
            tries += 1
        if ev.seq.count_roots(ev.alpha, r_lo, r_hi) == 1:
            return r_lo, r_hi
        width /= 4
    raise MatchingAmbiguous("could not isolate the tangency point")


def _window_counts(p, radial: bool, r_lo: Fraction, r_hi: Fraction):
    """Distinct real roots of a sample line's crossing polynomial, counted
    with one Sturm chain of its square-free part: (all of them, those at or
    below r_lo, those strictly between r_lo and r_hi).  Radial lines count
    only s > 0, and need 0 < r_lo; ``p`` is the ZP G(c, .)."""
    p = zp_squarefree_part(p)
    if zp_degree(p) < 1:
        return 0, 0, 0
    chain = sturm_chain(p)
    start = sturm_variations_at(chain, Fraction(0)) if radial else sturm_variations_at_inf(chain, -1)
    v_lo, v_hi = sturm_variations_at(chain, r_lo), sturm_variations_at(chain, r_hi)
    # the chain counts (r_lo, r_hi]; a root at r_hi is not inside the window
    inside = v_lo - v_hi - (zp_sign_at(p, r_hi) == 0)
    return start - sturm_variations_at_inf(chain, 1), start - v_lo, inside


class _EventMatch:
    """Resolved matching data for one event boundary."""

    def __init__(self, ev, pattern, richer_is_left, pair_indices, excision_index,
                 left_cell, right_cell):
        self.ev = ev
        self.pattern = pattern            # (2,) or (1, 2, 1)
        self.richer_is_left = richer_is_left
        self.pair = pair_indices          # (j, j+1) on the richer side
        self.j = excision_index
        self.left_cell = left_cell
        self.right_cell = right_cell

    def map_id(self, cid):
        """Crossing id (comp, idx) from the richer side to the poorer side."""
        comp, idx = cid
        if comp != self.ev.component:
            return cid
        j = self.j
        if idx in (j, j + 1):
            return None
        return (comp, idx if idx < j else idx - 2)


def _resolve_event(scene, spolys, q, ev: ParamEvent, left_cell: _Cell,
                   right_cell: _Cell) -> _EventMatch:
    radial = scene.field.kind == "radial"
    K = ev.component
    nl, nr = len(left_cell.comp_roots[K]), len(right_cell.comp_roots[K])
    if abs(nl - nr) != 2:
        raise MatchingAmbiguous(
            f"crossing count changed by {nl - nr} across event at {float(ev.alpha):.6g}")
    richer_is_left = nl > nr
    r_lo, r_hi = _isolate_sstar_window(ev, radial)
    G = spolys[ev.chart]

    # probes straddling alpha, strictly inside the adjacent cells, converging
    # to alpha; rational event parameters need explicit geometric shrinking
    gap_l = (ev.alpha.lo - left_cell.sample) / 2
    gap_r = (right_cell.sample - ev.alpha.hi) / 2

    def probes(k):
        if ev.alpha.is_rational:
            r = ev.alpha.lo
            return r - gap_l / 2**k, r + gap_r / 2**k
        return ev.alpha.lo, ev.alpha.hi

    # A pair of probes is accepted by Sturm counts alone: component K has its
    # richer and poorer crossing counts there, exactly two crossings inside
    # the s*-window (r_lo, r_hi) on the richer side and none on the poorer
    # one, and no other component crosses that window on either side.  Then
    # the pair born at s* is the richer side's crossings j and j+1, where j
    # (the excision index) counts the crossings at or below r_lo, on both
    # sides alike.  A rejected pair bisects alpha once and tries again.
    def window_clear(c, comp):
        return _window_counts(G[comp].at_param(c), radial, r_lo, r_hi)[2] == 0

    for attempt in range(300):
        a, b = probes(attempt)
        rich_c, poor_c = (a, b) if richer_is_left else (b, a)
        rich_n, j, rich_in = _window_counts(G[K].at_param(rich_c), radial, r_lo, r_hi)
        poor_n, poor_j, poor_in = _window_counts(G[K].at_param(poor_c), radial, r_lo, r_hi)
        if ((rich_n, poor_n, rich_in, poor_in) == (max(nl, nr), min(nl, nr), 2, 0)
                and all(window_clear(c, comp) for comp in range(len(G)) if comp != K
                        for c in (rich_c, poor_c))):
            if poor_j != j:
                raise MatchingAmbiguous("excision index mismatch across event")
            break
        ev.alpha.refine()
    else:
        raise MatchingAmbiguous("pair localization did not converge")

    # between-the-pair region test on the richer side decides (2) vs (121)
    roots = [r for r, _ in real_roots_with_multiplicities(G[K].at_param(rich_c))
             if not radial or r.compare_rational(Fraction(0)) > 0]
    # disjoint and sorted, as real_roots_with_multiplicities returns them
    mid = (roots[j].hi + roots[j + 1].lo) / 2
    x, y = geometry.trajectory_line(scene.field, rich_c, ev.chart, q).point_at(mid)
    between_inside = scene.contains(x, y)
    pattern = (2,) if between_inside else (1, 2, 1)
    return _EventMatch(ev, pattern, richer_is_left, (j, j + 1), j,
                       left_cell, right_cell)


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
        x_cs, y_cs = geometry.line_family(scene.field, chart, q)
        spolys[chart] = [substitute_line_family(comp.implicit, x_cs, y_cs)
                         for comp in scene.components]
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
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            a, b = events[i], events[j]
            if a.chart != b.chart:
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

    # cells per chart: between consecutive events (and chart edges)
    per_chart = {c: [e for e in events if e.chart == c] for c in charts}
    cells = []
    boundaries = []  # aligned: boundary[i] sits after cells[i]
    for chart in charts:
        evs = per_chart[chart]
        bounds = [lo] + [e.alpha for e in evs] + [hi]
        for i in range(len(bounds) - 1):
            left, right = bounds[i], bounds[i + 1]
            lval = left if isinstance(left, Fraction) else left.hi
            rval = right if isinstance(right, Fraction) else right.lo
            while lval >= rval:
                if not isinstance(left, Fraction):
                    left.refine()
                    lval = left.hi
                if not isinstance(right, Fraction):
                    right.refine()
                    rval = right.lo
                if isinstance(left, Fraction) and isinstance(right, Fraction):
                    raise MatchingAmbiguous("empty cell between fixed bounds")
            sample = (lval + rval) / 2
            cells.append(_sample_cell(scene, spolys, chart, q, sample))
            cells[-1].lo, cells[-1].hi = lval, rval
            if i < len(bounds) - 2:
                boundaries.append(("event", evs[i]))
        boundaries.append(("seam", chart))
    # constant fields: outermost cells must be empty and the trailing "seam"
    # boundaries are inert; radial: the two seams glue chart transitions
    if not radial:
        first, last = cells[0], cells[-1]
        if first.trajectories or last.trajectories:
            raise MatchingAmbiguous("scene region escapes the sweep range")

    uf = _UnionFind()
    vertices = []
    vertex_records = {}   # vertex id -> Vertex
    edge_attach = []      # (cell_idx, traj_idx, vertex_id, role, edge_on_left)

    n_cells = len(cells)
    boundary_list = []
    for i in range(n_cells):
        kind = boundaries[i]
        j = (i + 1) % n_cells
        boundary_list.append((i, j, kind))

    for i, j, kind in boundary_list:
        left_cell, right_cell = cells[i], cells[j]
        if kind[0] == "seam":
            if not radial:
                continue
            _match_seam(uf, i, j, left_cell, right_cell)
        else:
            ev = kind[1]
            match = _resolve_event(scene, spolys, q, ev, left_cell, right_cell)
            vid = f"v{len(vertices)}"
            vx = _apply_event(uf, i, j, match, vid, edge_attach, scene, q)
            vertices.append(vx)
            vertex_records[vid] = vx

    # collect edges from union-find classes
    members = {}
    for ci, cell in enumerate(cells):
        for ti in range(len(cell.trajectories)):
            root = uf.find((ci, ti))
            members.setdefault(root, []).append((ci, ti))
    edge_list = sorted(members.values(), key=lambda ms: min(ms))
    edges = []
    for k, ms in enumerate(edge_list):
        eid = f"e{k}"
        ms_sorted = sorted(ms)
        ci0, ti0 = ms_sorted[0]
        en_id, ex_id = cells[ci0].traj_ids(ti0)
        entry_comp, exit_comp = en_id[0], ex_id[0]
        atts = [(vid, role, onleft) for (ci, ti, vid, role, onleft) in edge_attach
                if uf.find((ci, ti)) == uf.find((ci0, ti0))]
        intervals = _edge_intervals(cells, ms_sorted)
        samples = []
        for ci, ti in ms_sorted:
            cell = cells[ci]
            en, ex = cell.trajectories[ti]
            lo_r = cell.comp_roots[cell.order[en][0]][cell.order[en][1]]
            hi_r = cell.comp_roots[cell.order[ex][0]][cell.order[ex][1]]
            samples.append((cell.chart, float(cell.sample), float(lo_r), float(hi_r)))
        e = Edge(eid, (1, 1), entry_comp, exit_comp, intervals, atts,
                 is_loop=(len(atts) == 0), samples=samples)
        edges.append(e)
        for vid, role, onleft in atts:
            vertex_records[vid].edge_roles.append((eid, role, onleft))

    graph = TrajectoryGraph(vertices, edges, scene, seam_rotation=q)
    _check_degrees(graph)
    return graph


def _edge_intervals(cells, members):
    spans = {}
    for ci, ti in members:
        cell = cells[ci]
        lo = float(cell.lo) if cell.lo is not None else float(cell.sample)
        hi = float(cell.hi) if cell.hi is not None else float(cell.sample)
        key = cell.chart
        if key in spans:
            spans[key] = (min(spans[key][0], lo), max(spans[key][1], hi))
        else:
            spans[key] = (lo, hi)
    return [(c, v[0], v[1]) for c, v in sorted(spans.items())]


def _match_seam(uf, i, j, left_cell: _Cell, right_cell: _Cell):
    if [len(r) for r in left_cell.comp_roots] != [len(r) for r in right_cell.comp_roots]:
        raise MatchingAmbiguous("crossing counts differ across a chart seam")
    left_map = {left_cell.traj_ids(t): t for t in range(len(left_cell.trajectories))}
    right_map = {right_cell.traj_ids(t): t for t in range(len(right_cell.trajectories))}
    if set(left_map) != set(right_map):
        raise MatchingAmbiguous("trajectory structure differs across a chart seam")
    for ids, t in left_map.items():
        uf.union((i, t), (j, right_map[ids]))


def _apply_event(uf, i, j, match: _EventMatch, vid, edge_attach, scene, q):
    ev = match.ev
    rich_i, poor_i = (i, j) if match.richer_is_left else (j, i)
    rich_cell = match.left_cell if match.richer_is_left else match.right_cell
    poor_cell = match.right_cell if match.richer_is_left else match.left_cell
    rich_map = {rich_cell.traj_ids(t): t for t in range(len(rich_cell.trajectories))}
    poor_map = {poor_cell.traj_ids(t): t for t in range(len(poor_cell.trajectories))}

    dying = {(ev.component, match.pair[0]), (ev.component, match.pair[1])}
    survivors = {}
    t_a = t_b = t_dying = None
    for ids, t in rich_map.items():
        en, ex = ids
        en_dead, ex_dead = en in dying, ex in dying
        if not en_dead and not ex_dead:
            survivors[(match.map_id(en), match.map_id(ex))] = t
        elif en_dead and ex_dead:
            t_dying = (t, ids)
        elif ex_dead:
            t_a = (t, ids)
        else:
            t_b = (t, ids)

    for ids, t in survivors.items():
        if ids not in poor_map:
            raise MatchingAmbiguous(f"unmatched trajectory across event at {float(ev.alpha):.6g}")
        uf.union((rich_i, t), (poor_i, poor_map[ids]))
    matched_poor = {poor_map[ids] for ids in survivors}

    # tangency point, for reports and figures
    s_lo, s_hi = ev.s_star_interval(Fraction(1, 10**12))
    s_approx = float((s_lo + s_hi) / 2)
    line = geometry.trajectory_line(scene.field, (ev.alpha.lo + ev.alpha.hi) / 2, ev.chart, q)
    px, py = line.point_at(Fraction(s_approx).limit_denominator(10**9))
    event_rec = TangencyEvent(
        component=ev.component, chart=ev.chart, parameter=float(ev.alpha),
        parameter_interval=(str(ev.alpha.lo), str(ev.alpha.hi)),
        defining_poly=ev.alpha.poly, multiplicity=2,
        point=(float(px), float(py)), pattern=match.pattern)

    onleft_rich = match.richer_is_left  # richer-side edges approach from the left
    if match.pattern == (2,):
        if t_dying is None or t_a is not None or t_b is not None:
            raise MatchingAmbiguous("birth/death event without a pinched trajectory")
        vx = Vertex(vid, (2,), event_rec, ev.component)
        edge_attach.append((rich_i, t_dying[0], vid, "pinch", onleft_rich))
        leftover = set(range(len(poor_cell.trajectories))) - matched_poor
        if leftover:
            raise MatchingAmbiguous("extra trajectories after a birth/death event")
        return vx
    # (121): two trajectories merge into one (or split, read right-to-left)
    if t_a is None or t_b is None or t_dying is not None:
        raise MatchingAmbiguous("merge/split event without a lower/upper pair")
    merged_ids = (match.map_id(t_a[1][0]), match.map_id(t_b[1][1]))
    if merged_ids not in poor_map:
        raise MatchingAmbiguous("merged trajectory missing after a merge/split event")
    t_ab = poor_map[merged_ids]
    leftover = set(range(len(poor_cell.trajectories))) - matched_poor - {t_ab}
    if leftover:
        raise MatchingAmbiguous("extra trajectories after a merge/split event")
    vx = Vertex(vid, (1, 2, 1), event_rec, ev.component,
                entry_component=t_a[1][0][0], exit_component=t_b[1][1][0])
    edge_attach.append((rich_i, t_a[0], vid, "A", onleft_rich))
    edge_attach.append((rich_i, t_b[0], vid, "B", onleft_rich))
    edge_attach.append((poor_i, t_ab, vid, "AB", not onleft_rich))
    return vx


def _check_degrees(graph: TrajectoryGraph):
    for v in graph.vertices:
        deg = len(v.edge_roles)
        want = 1 if v.pattern == (2,) else 3
        if deg != want:
            raise MatchingAmbiguous(
                f"vertex {v.id} with pattern {v.pattern} has degree {deg}")


# --- public reports ----------------------------------------------------------

def interval_structure(scene, parameter, chart: int = 0):
    """Ordered crossings and trajectories of one sample line.

    ``parameter`` must avoid all event parameters (a DegenerateScene or
    MatchingAmbiguous escape signals it did not).
    """
    q = Fraction(0)
    if scene.field.kind == "radial":
        _, _, _, q = _events_and_charts(scene)
    spolys, _ = _build_spolys(scene, q)
    cell = _sample_cell(scene, spolys, chart, q, Fraction(parameter))
    crossings = [{"component": comp, "index": idx,
                  "s": float(cell.comp_roots[comp][idx]), "multiplicity": 1}
                 for comp, idx in cell.order]
    trajectories = []
    for en, ex in cell.trajectories:
        trajectories.append({
            "entry": cell.order[en], "exit": cell.order[ex],
            "pattern": [1, 1],
        })
    return {"crossings": crossings, "trajectories": trajectories}


def check_traversally_generic(scene):
    """PASS/FAIL report; never raises for degeneracy."""
    try:
        events = tangency_events(scene)
    except DegenerateScene as exc:
        return {"verdict": "FAIL", "reason": exc.reason, "witness": exc.witness_dict()}
    # events that survive classification are order-2 tangencies by construction
    return {
        "verdict": "PASS",
        "events": len(events),
        "multiplicities": [2] if events else [],
    }
