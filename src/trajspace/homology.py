"""Integer chain complexes of the trajectory graph and the double DX.

The double's CW structure comes straight from the strata: 0-cells are the
tangency-locus boundary points, 1-cells the boundary arcs (one copy, they
live on the fixed locus) and the doubled tangent-trajectory segments,
2-cells the doubled slabs.  The mirror copy carries the reversed
orientation.  Smith normal form over ZZ gives ranks and torsion.

Each boundary map is reduced once, when its complex is built; Betti
numbers, torsion and the report read the stored (rank, divisors) pairs.
The reduction pivots on the first entry of least absolute value in
row-major order, so it stops its search at the first unit; the boundary
maps here are almost all +-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


class BoundaryMismatch(Exception):
    """d o d != 0: an incidence bug, never a data error."""


@dataclass
class ChainComplex:
    ranks: list                    # rank per degree, low to high
    boundaries: list               # boundaries[j]: matrix rank(j-1) x rank(j), j >= 1
    reduced: list = field(init=False, repr=False)   # reduced[j]: smith_ranks(boundaries[j])

    def __post_init__(self):
        self.reduced = [(0, [])] + [smith_ranks(d) for d in self.boundaries[1:]]

    def check_dd_zero(self):
        """d_{j-1} d_j = 0; each column of the product is built from the
        nonzero entries of d_j's column only."""
        for j in range(2, len(self.ranks)):
            big = self.boundaries[j - 1]
            small = self.boundaries[j]
            if not big or not small:
                continue
            big_cols = [[(r, row[k]) for r, row in enumerate(big) if row[k]]
                        for k in range(len(small))]
            for c, col in enumerate(zip(*small)):
                s = [0] * len(big)
                for k, a in enumerate(col):
                    if a:
                        for r, b in big_cols[k]:
                            s[r] += a * b
                if any(s):
                    r = next(r for r, v in enumerate(s) if v)
                    raise BoundaryMismatch(f"dd != 0 at degree {j}, entry ({r},{c})")

    def betti_numbers(self):
        rank_d = [rank for rank, _ in self.reduced] + [0]   # rank of boundary_j over QQ
        return [n - rank_d[j] - rank_d[j + 1] for j, n in enumerate(self.ranks)]

    def torsion(self):
        """Nontrivial elementary divisors of each boundary map."""
        out = {}
        for j, (_, divisors) in enumerate(self.reduced):
            divs = [d for d in divisors if d > 1]
            if divs:
                out[j] = divs
        return out

    def euler_characteristic(self):
        return sum((-1) ** j * r for j, r in enumerate(self.ranks))

    def to_dict(self):
        return {
            "ranks": list(self.ranks),
            "betti": self.betti_numbers(),
            "torsion": {str(k): v for k, v in self.torsion().items()},
            "euler": self.euler_characteristic(),
        }


def smith_ranks(matrix):
    """(rank, elementary divisors) of an integer matrix, exact.

    Plain fraction-free Smith reduction; fine for the small matrices here.
    """
    if not matrix or not matrix[0]:
        return 0, []
    m = [row[:] for row in matrix]
    rows, cols = len(m), len(m[0])
    divisors = []
    top = 0
    while top < min(rows, cols):
        piv = _least_entry(m, top)
        if piv is None:
            break
        r0, c0 = piv
        m[top], m[r0] = m[r0], m[top]
        for r in range(rows):
            m[r][top], m[r][c0] = m[r][c0], m[r][top]
        again = False
        for r in range(top + 1, rows):
            if m[r][top] % m[top][top] != 0:
                again = True
            q = m[r][top] // m[top][top]
            if q:
                for c in range(top, cols):
                    m[r][c] -= q * m[top][c]
        for c in range(top + 1, cols):
            if m[top][c] % m[top][top] != 0:
                again = True
            q = m[top][c] // m[top][top]
            if q:
                for r in range(top, rows):
                    m[r][c] -= q * m[r][top]
        if again or any(m[r][top] for r in range(top + 1, rows)) \
                or any(m[top][c] for c in range(top + 1, cols)):
            continue
        divisors.append(abs(m[top][top]))
        top += 1
    # normalize divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    return len(divisors), divisors


def _least_entry(m, top):
    """The first (row-major) nonzero entry of least absolute value in the
    block m[top:][top:], or None if the block is zero.  The search stops at
    the first unit: no nonzero entry is smaller."""
    piv, least = None, 0
    for r in range(top, len(m)):
        row = m[r]
        for c in range(top, len(row)):
            a = abs(row[c])
            if a and (piv is None or a < least):
                if a == 1:
                    return r, c
                piv, least = (r, c), a
    return piv


def graph_chain_complex(graph) -> ChainComplex:
    """Cellular chain complex of T(v): degree 0 vertices, degree 1 edges.

    Loop edges (components with no vertices) contribute zero boundary; for
    the graph's singular homology they are subdivided in
    ``graph_homology_ranks``.
    """
    vidx = {v.id: i for i, v in enumerate(graph.vertices)}
    d1 = [[0] * len(graph.edges) for _ in vidx]
    for c, e in enumerate(graph.edges):
        ends = []
        for vid, role, edge_on_left in e.attachments:
            # the edge approaches from the left iff the vertex is its
            # parameter-increasing endpoint
            ends.append((vid, 1 if edge_on_left else -1))
        for vid, sign in ends:
            d1[vidx[vid]][c] += sign
    return ChainComplex([len(vidx), len(graph.edges)], [None, d1])


def graph_homology_ranks(graph, cc: ChainComplex):
    """(b0, b1) of the topological graph (loops count as circles), from its
    cellular complex ``cc = graph_chain_complex(graph)``."""
    loops = sum(1 for e in graph.edges if e.is_loop)
    b = cc.betti_numbers()
    # each loop edge is a circle component: one extra b0 and its b1 is
    # already counted by the zero column
    return b[0] + loops, b[1]


def cw_complex_of_double(table) -> ChainComplex:
    """Cellular chain complex of DX from the strata table.

    Vertex-free circle components (loop edges) are not CW as bare strata;
    they get one synthetic subdivision trajectory each (two 0-cells, one
    doubled 1-cell).  Synthetic cells are labeled .../syn/... and are not
    strata.
    """
    graph = table.graph
    cells0 = [s.id for s in table.of("DX", dimension=0)]
    cells1 = [s.id for s in table.of("DX", dimension=1)]
    cells2 = [s.id for s in table.of("DX", dimension=2)]
    for e in graph.edges:
        if e.is_loop:
            cells0 += [f"DX/{e.id}/syn/ent", f"DX/{e.id}/syn/ext"]
            cells1 += [f"DX/{e.id}/syn/full/+", f"DX/{e.id}/syn/full/-"]
    i0 = {c: i for i, c in enumerate(cells0)}
    i1 = {c: i for i, c in enumerate(cells1)}
    i2 = {c: i for i, c in enumerate(cells2)}

    verts = {v.id: v for v in graph.vertices}
    edges = {e.id: e for e in graph.edges}

    def cell0(vid, role):
        return f"DX/{vid}/{role}"

    def arc(eid, side):
        return f"DX/{eid}/{side}"

    def seg(vid, which, copy):
        return f"DX/{vid}/{which}/{'+' if copy == 0 else '-'}"

    def slab(eid, copy):
        return f"DX/{eid}/slab/{'+' if copy == 0 else '-'}"

    ARC_LIMIT = {  # (role, side) -> 0-cell role at the vertex
        ("pinch", "entry"): "tan", ("pinch", "exit"): "tan",
        ("A", "entry"): "ent", ("A", "exit"): "tan",
        ("B", "entry"): "tan", ("B", "exit"): "ext",
        ("AB", "entry"): "ent", ("AB", "exit"): "ext",
    }
    SIDE_SEGS = {"pinch": [], "A": ["lower"], "B": ["upper"], "AB": ["lower", "upper"]}

    d1 = [[0] * len(cells1) for _ in cells0]
    for e in edges.values():
        right = [(vid, role) for vid, role, onleft in e.attachments if onleft]
        left = [(vid, role) for vid, role, onleft in e.attachments if not onleft]
        for side in ("entry", "exit"):
            col = i1[arc(e.id, side)]
            for vid, role in right:
                d1[i0[cell0(vid, ARC_LIMIT[(role, side)])]][col] += 1
            for vid, role in left:
                d1[i0[cell0(vid, ARC_LIMIT[(role, side)])]][col] -= 1
    for v in verts.values():
        if v.pattern != (1, 2, 1):
            continue
        for copy in (0, 1):
            col = i1[seg(v.id, "lower", copy)]
            d1[i0[cell0(v.id, "tan")]][col] += 1
            d1[i0[cell0(v.id, "ent")]][col] -= 1
            col = i1[seg(v.id, "upper", copy)]
            d1[i0[cell0(v.id, "ext")]][col] += 1
            d1[i0[cell0(v.id, "tan")]][col] -= 1
    for e in edges.values():
        if not e.is_loop:
            continue
        for copy in (0, 1):
            col = i1[f"DX/{e.id}/syn/full/{'+' if copy == 0 else '-'}"]
            d1[i0[f"DX/{e.id}/syn/ext"]][col] += 1
            d1[i0[f"DX/{e.id}/syn/ent"]][col] -= 1

    d2 = [[0] * len(cells2) for _ in cells1]
    for e in edges.values():
        for copy in (0, 1):
            col = i2[slab(e.id, copy)]
            orient = 1 if copy == 0 else -1
            d2[i1[arc(e.id, "entry")]][col] += orient
            d2[i1[arc(e.id, "exit")]][col] -= orient
            for vid, role, onleft in e.attachments:
                sgn = orient * (1 if onleft else -1)
                for which in SIDE_SEGS[role]:
                    d2[i1[seg(vid, which, copy)]][col] += sgn
    cc = ChainComplex([len(cells0), len(cells1), len(cells2)], [None, d1, d2])
    cc.check_dd_zero()
    return cc
