"""Induced stratifications of the trajectory space, X, and the double DX.

For a surface swept by line trajectories the strata are concrete cells read
off the graph:

  trajectory space   edges (dim 1, pattern (11)) and vertices (dim 0)
  X                  one open slab per edge, two boundary arcs per edge,
                     two open tangent-trajectory segments and three boundary
                     points per trivalent vertex, one boundary point per
                     univalent vertex
  DX                 interior strata doubled (a mirror copy each), boundary
                     strata taken once

Each X stratum carries its cellular boundary as signed faces, so the table
is the whole CW structure of X and of DX; ``homology`` only reduces it.
Connectivity is inherited from the sweep's incidence bookkeeping, never from
floating-point geometry, so the counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Stratum:
    id: str
    space: str          # "Tv" | "X" | "DX"
    dimension: int
    pattern: tuple
    location: str       # "boundary" | "interior" | "mirror"
    source: tuple       # ("edge"|"vertex", id, detail)
    faces: tuple = ()   # X only: cellular boundary, ((face source, coefficient), ...)


@dataclass
class StrataTable:
    graph: object
    strata: list = field(default_factory=list)

    def of(self, space, dimension=None, pattern=None, location=None):
        out = []
        for s in self.strata:
            if s.space != space:
                continue
            if dimension is not None and s.dimension != dimension:
                continue
            if pattern is not None and s.pattern != pattern:
                continue
            if location is not None and s.location != location:
                continue
            out.append(s)
        return out

    def count(self, space, dimension=None, pattern=None, location=None):
        return len(self.of(space, dimension, pattern, location))

    def counts_by_dimension(self, space):
        dims = {}
        for s in self.of(space):
            dims[s.dimension] = dims.get(s.dimension, 0) + 1
        return dims

    def to_dict(self):
        spaces = {}
        for space in ("Tv", "X", "DX"):
            per_dim = {}
            by_pattern = {}
            for s in self.of(space):
                key = str(s.dimension)
                per_dim.setdefault(key, []).append({
                    "id": s.id,
                    "pattern": list(s.pattern) if s.pattern else None,
                    "location": s.location,
                })
                pk = "".join(map(str, s.pattern)) + f"|dim{s.dimension}"
                by_pattern[pk] = by_pattern.get(pk, 0) + 1
            for v in per_dim.values():
                v.sort(key=lambda d: d["id"])
            spaces[space] = {
                "counts": {str(k): v for k, v in sorted(self.counts_by_dimension(space).items())},
                "counts_by_pattern": dict(sorted(by_pattern.items())),
                "strata": per_dim,
            }
        return spaces


# (role, side) -> the 0-cell at the vertex that a boundary arc of the edge
# tends to; role -> the tangent-trajectory segments bounding the edge's slab
ARC_LIMIT = {
    ("pinch", "entry"): "tan", ("pinch", "exit"): "tan",
    ("A", "entry"): "ent", ("A", "exit"): "tan",
    ("B", "entry"): "tan", ("B", "exit"): "ext",
    ("AB", "entry"): "ent", ("AB", "exit"): "ext",
}
SIDE_SEGS = {"pinch": (), "A": ("lower",), "B": ("upper",), "AB": ("lower", "upper")}


def build_strata(graph) -> StrataTable:
    table = StrataTable(graph)
    add = table.strata.append

    for v in graph.vertices:
        add(Stratum(f"Tv/{v.id}", "Tv", 0, v.pattern, "interior", ("vertex", v.id, "")))
    for e in graph.edges:
        add(Stratum(f"Tv/{e.id}", "Tv", 1, (1, 1), "interior", ("edge", e.id, "")))

    # X strata
    for v in graph.vertices:
        if v.pattern == (2,):
            add(Stratum(f"X/{v.id}/tan", "X", 0, v.pattern, "boundary",
                        ("vertex", v.id, "tan")))
            continue
        ent, tan, ext = (("vertex", v.id, role) for role in ("ent", "tan", "ext"))
        for cell in (ent, tan, ext):
            add(Stratum(f"X/{v.id}/{cell[2]}", "X", 0, v.pattern, "boundary", cell))
        add(Stratum(f"X/{v.id}/lower", "X", 1, v.pattern, "interior",
                    ("vertex", v.id, "lower"), ((tan, 1), (ent, -1))))
        add(Stratum(f"X/{v.id}/upper", "X", 1, v.pattern, "interior",
                    ("vertex", v.id, "upper"), ((ext, 1), (tan, -1))))
    for e in graph.edges:
        # the edge approaches a vertex from the left iff the vertex is its
        # parameter-increasing endpoint
        ends = [(vid, role, 1 if onleft else -1) for vid, role, onleft in e.attachments]
        slab = ((("edge", e.id, "entry"), 1), (("edge", e.id, "exit"), -1))
        slab += tuple((("vertex", vid, seg), sign) for vid, role, sign in ends
                      for seg in SIDE_SEGS[role])
        add(Stratum(f"X/{e.id}/slab", "X", 2, (1, 1), "interior", ("edge", e.id, "slab"), slab))
        for side in ("entry", "exit"):
            add(Stratum(f"X/{e.id}/{side}", "X", 1, (1, 1), "boundary", ("edge", e.id, side),
                        tuple((("vertex", vid, ARC_LIMIT[role, side]), sign)
                              for vid, role, sign in ends)))

    # DX strata: boundary once, interior twice
    for s in list(table.strata):
        if s.space != "X":
            continue
        if s.location == "boundary":
            add(Stratum("DX" + s.id[1:], "DX", s.dimension, s.pattern,
                        "boundary", s.source))
        else:
            add(Stratum("DX" + s.id[1:] + "/+", "DX", s.dimension, s.pattern,
                        "interior", s.source))
            add(Stratum("DX" + s.id[1:] + "/-", "DX", s.dimension, s.pattern,
                        "mirror", s.source))
    return table


@dataclass
class ComplexityVector:
    tc: tuple                 # (tc_0, tc_1)
    sigma_tc: tuple           # (Sigma tc^0, ^1, ^2)
    per_pattern: dict         # pattern -> number of components of T(v, w)

    def to_dict(self):
        return {
            "tc": list(self.tc),
            "sigma_tc": list(self.sigma_tc),
            "per_pattern": {"".join(map(str, k)): v for k, v in sorted(self.per_pattern.items())},
        }


def complexity_vectors(table: StrataTable) -> ComplexityVector:
    graph = table.graph
    tc = (table.count("Tv", dimension=0), table.count("Tv", dimension=1))
    sigma = tuple(table.count("DX", dimension=d) for d in (0, 1, 2))
    per_pattern = {}
    for v in graph.vertices:
        per_pattern[v.pattern] = per_pattern.get(v.pattern, 0) + 1
    per_pattern[(1, 1)] = len(graph.edges)
    # cross-check of the support-count formula: each depth-1 component of
    # T(v, w) contributes #sup(w) boundary points to the 0-dim DX strata
    expected0 = sum(len(p) * n for p, n in per_pattern.items() if sum(m - 1 for m in p) == 1)
    assert expected0 == sigma[0], (expected0, sigma[0])
    return ComplexityVector(tc, sigma, per_pattern)


def minimal_strata(table: StrataTable):
    """Components whose closure contains no deeper component.

    On a surface these are the vertex strata, plus any vertex-free circle
    component of the trajectory space (nothing sits below it).  The
    generator bound is the sum of (#sup(pattern) - 1) over them.
    """
    graph = table.graph
    items = [{"id": v.id, "pattern": list(v.pattern), "sup_minus_1": len(v.pattern) - 1}
             for v in graph.vertices]
    items += [{"id": e.id, "pattern": [1, 1], "sup_minus_1": 1}
              for e in graph.edges if e.is_loop]
    bound = sum(it["sup_minus_1"] for it in items)
    return {"count": len(items), "generator_bound": bound, "items": items}


def doubling_identity_holds(table: StrataTable) -> bool:
    for d in (0, 1, 2):
        dx = table.count("DX", dimension=d)
        x_int = table.count("X", dimension=d, location="interior")
        x_bnd = table.count("X", dimension=d, location="boundary")
        if dx != 2 * x_int + x_bnd:
            return False
    return True