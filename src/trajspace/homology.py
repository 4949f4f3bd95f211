"""Integer chain complexes of the trajectory graph and the double DX.

The double's CW structure is read off the strata table: its cells are the
DX strata, and each column of a boundary map is the ``faces`` of the cell's
X stratum.  A face is taken in the cell's own copy, or on the fixed locus
when it is a boundary stratum (taken once), so the mirror copy of a cell
has the original's boundary with each interior face replaced by its mirror.
Smith normal form over ZZ gives ranks and torsion.

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
    they get one synthetic subdivision trajectory each: boundary 0-cells
    ``syn/ent`` and ``syn/ext`` and a doubled 1-cell ``syn/full``, which are
    not strata.
    """
    cells = [[(s.source, s.location) for s in table.of("DX", dimension=j)] for j in range(3)]
    faces = {s.source: s.faces for s in table.of("X")}
    for e in table.graph.edges:
        if e.is_loop:
            ent, ext, full = (("edge", e.id, "syn/" + part) for part in ("ent", "ext", "full"))
            cells[0] += [(ent, "boundary"), (ext, "boundary")]
            cells[1] += [(full, "interior"), (full, "mirror")]
            faces[full] = ((ext, 1), (ent, -1))
    boundaries = [None]
    for j in (1, 2):
        row = {cell: i for i, cell in enumerate(cells[j - 1])}
        d = [[0] * len(cells[j]) for _ in cells[j - 1]]
        for col, (source, location) in enumerate(cells[j]):
            for face, coeff in faces[source]:
                key = (face, location) if (face, location) in row else (face, "boundary")
                d[row[key]][col] += coeff
        boundaries.append(d)
    cc = ChainComplex([len(c) for c in cells], boundaries)
    cc.check_dd_zero()
    return cc
