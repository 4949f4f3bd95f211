"""Integer chain complexes of the trajectory graph and the double DX.

The double's CW structure is read off the strata table: its cells are the
DX strata, and each column of a boundary map is the ``faces`` of the cell's
X stratum.  A face is taken in the cell's own copy, or on the fixed locus
when it is a boundary stratum (taken once), so the mirror copy of a cell
has the original's boundary with each interior face replaced by its mirror.
Smith normal form over ZZ gives ranks and torsion.

A boundary map is a list of sparse columns ``{row: entry}``, one per cell,
with no zero entry stored.  Each map is reduced once, when its complex is
built; Betti numbers, torsion and the report read the stored (rank,
divisors) pairs.  The reduction pivots on an entry of least absolute value
and stops its search at the first unit; the boundary maps here are almost
all +-1, so nearly every pivot clears its row and column in one step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


class BoundaryMismatch(Exception):
    """d o d != 0: an incidence bug, never a data error."""


@dataclass
class ChainComplex:
    ranks: list                    # rank per degree, low to high
    boundaries: list               # boundaries[j], j >= 1: one {row: entry} column per j-cell
    reduced: list = field(init=False, repr=False)   # reduced[j]: smith_ranks(boundaries[j])

    def __post_init__(self):
        self.reduced = [(0, [])] + [smith_ranks(d) for d in self.boundaries[1:]]

    def check_dd_zero(self):
        """d_{j-1} d_j = 0, one column of the product at a time."""
        for j in range(2, len(self.ranks)):
            big = self.boundaries[j - 1]
            for c, col in enumerate(self.boundaries[j]):
                s = {}
                for k, a in col.items():
                    for r, b in big[k].items():
                        s[r] = s.get(r, 0) + a * b
                bad = [r for r, v in s.items() if v]
                if bad:
                    raise BoundaryMismatch(f"dd != 0 at degree {j}, entry ({min(bad)},{c})")

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


def smith_ranks(columns):
    """(rank, elementary divisors) of an integer matrix given by its sparse
    columns ``{row: entry}``, exact.

    Each step pivots on an entry p of least absolute value.  Column
    operations subtract multiples of p's column from the other columns of
    its row, and row operations subtract multiples of p's row from the other
    rows of its column; each leaves a remainder smaller than |p| or none.  A
    remainder makes the next pivot smaller, so the step repeats until p
    stands alone; then |p| is a divisor and its row and column are dropped.
    """
    cols = {c: dict(col) for c, col in enumerate(columns) if col}
    rows = {}                      # row -> the columns with an entry in it
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)

    def add(k, r, delta):
        col = cols[k]
        v = col.get(r, 0) + delta
        if v:
            col[r] = v
            rows[r].add(k)
        else:
            del col[r]
            rows[r].discard(k)

    divisors = []
    while cols:
        least = None
        for c, r, a in ((c, r, a) for c, col in cols.items() for r, a in col.items()):
            if least is None or abs(a) < abs(least[2]):
                least = c, r, a
                if abs(a) == 1:
                    break
        c, r, p = least
        pivot = cols[c]
        for k in rows[r] - {c}:
            q = cols[k][r] // p
            for s, a in pivot.items():
                add(k, s, -q * a)
            if not cols[k]:
                del cols[k]
        for s in [s for s in pivot if s != r]:
            q = pivot[s] // p
            for k in rows[r]:
                add(k, s, -q * cols[k][r])
        if len(pivot) == 1 and len(rows[r]) == 1:
            divisors.append(abs(p))
            del cols[c], rows[r]
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


def _column(entries):
    """The sparse column that sums (row, entry) pairs, zeros dropped."""
    col = {}
    for r, a in entries:
        col[r] = col.get(r, 0) + a
    return {r: a for r, a in col.items() if a}


def graph_chain_complex(graph) -> ChainComplex:
    """Cellular chain complex of T(v): degree 0 vertices, degree 1 edges.

    Loop edges (components with no vertices) contribute zero boundary; for
    the graph's singular homology they are subdivided in
    ``graph_homology_ranks``.
    """
    vidx = {v.id: i for i, v in enumerate(graph.vertices)}
    # the edge approaches a vertex from the left iff the vertex is its
    # parameter-increasing endpoint
    d1 = [_column((vidx[vid], 1 if edge_on_left else -1)
                  for vid, role, edge_on_left in e.attachments) for e in graph.edges]
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
        boundaries.append([
            _column((row[(face, location) if (face, location) in row else (face, "boundary")],
                     coeff) for face, coeff in faces[source])
            for source, location in cells[j]])
    cc = ChainComplex([len(c) for c in cells], boundaries)
    cc.check_dd_zero()
    return cc
