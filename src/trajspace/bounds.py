"""Desk-checkable lower-bound inequalities for surface scenes.

Closed-surface simplicial volumes are tabulated (0 for genus <= 1, else
4g - 4); the nonvanishing-norm quotient H-Delta has rank 0 in degree 1 for
every space, and rank 1 in degree 2 exactly for genus >= 2.  For a planar
domain with q holes the quotient pi_1(X/boundary) is free of rank q, which
makes the generator bound exact.  Every check compares exact rationals; a
FAIL on a validated generic scene is an implementation bug, not data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def surface_simplicial_volume(genus: int) -> Fraction:
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if genus <= 1:
        return Fraction(0)
    return Fraction(4 * genus - 4)


def hdelta_ranks_surface(hole_count: int):
    """Ranks of the norm-quotient homology for DX (genus q) and X.

    Degree-1 ranks vanish for every space; the degree-2 rank of DX is 1
    exactly when the double has genus >= 2, i.e. q >= 2 holes.  X has the
    homotopy type of a wedge of circles, so its ranks vanish in all
    positive degrees.
    """
    return {
        "DX": {"1": 0, "2": 1 if hole_count >= 2 else 0},
        "X": {"1": 0, "2": 0},
    }


@dataclass
class BoundsReport:
    simplicial_volume_DX: Fraction
    genus_DX: int
    hdelta: dict
    checks: list = field(default_factory=list)
    rho1_ratio: Fraction = None
    notes: list = field(default_factory=list)

    @property
    def all_pass(self):
        return all(c["verdict"] == "PASS" for c in self.checks)

    def add(self, name, lhs, rhs, anchor):
        self.checks.append({
            "name": name,
            "lhs": str(lhs),
            "rhs": str(rhs),
            "verdict": "PASS" if Fraction(lhs) >= Fraction(rhs) else "FAIL",
            "anchor": anchor,
        })

    def to_dict(self):
        return {
            "simplicial_volume_DX": str(self.simplicial_volume_DX),
            "genus_DX": self.genus_DX,
            "hdelta_ranks": self.hdelta,
            "rho1_ratio": None if self.rho1_ratio is None else str(self.rho1_ratio),
            "checks": self.checks,
            "all_pass": self.all_pass,
            "notes": self.notes,
        }


def check_all(scene, graph, complexity, dx_betti) -> BoundsReport:
    q = scene.hole_count
    m = q + 1                       # boundary components
    b1 = dx_betti[1]
    assert b1 % 2 == 0, "closed orientable surface has even first Betti number"
    genus = b1 // 2
    volume = surface_simplicial_volume(genus)
    hd = hdelta_ranks_surface(q)
    rep = BoundsReport(volume, genus, hd)

    counts = graph.pattern_counts()
    t2 = counts.get((2,), 0)
    t121 = counts.get((1, 2, 1), 0)
    vertex_count = t2 + t121
    loops = sum(1 for e in graph.edges if e.is_loop)
    zero_dim_dx = complexity.sigma_tc[0]

    # (a) strata-count bound: 0-dim DX strata >= rk H-Delta_2(DX)
    rep.add("strata_rank_bound", zero_dim_dx, hd["DX"]["2"],
            "count of deepest double strata vs. norm-quotient rank")

    # (b) empirical upper bound for the universal vertex-density constant
    if volume > 0:
        rep.rho1_ratio = Fraction(vertex_count, 1) / volume
    else:
        rep.notes.append("simplicial volume 0: no density ratio for this scene")

    # (c) generator bound: sum of (#sup - 1) over minimal strata >= rank of
    #     the free group pi_1(X/boundary) = q; vertex-free circle components
    #     are themselves minimal and contribute one generator each
    gen_bound = t121 * 2 + loops * 1
    rep.add("generator_bound", gen_bound, q,
            "bouquet generators from minimal strata vs. free rank q")

    # (d) minimal component count >= (m - 1) / (n + 1), n = 1
    rep.add("minimal_component_bound", Fraction(vertex_count + loops), Fraction(m - 1, 2),
            "minimal strata vs. boundary component count")

    # (e) convexity obstruction: positive volume forces a vertex trajectory
    if volume > 0:
        rep.add("convexity_obstruction", vertex_count, 1,
                "nonzero volume forbids globally 1-convex flows")
    else:
        rep.notes.append("volume 0: convexity obstruction vacuous")

    rep.notes.append("theta(vertex model) structural lower bounds: 2^n + n = 3 "
                     "and doubled 2^(n+1) + 2n = 6 at n = 1 (not computed, metadata)")
    rep.notes.append("H-Delta_k(X) = 0 for k >= 1 on planar scenes: the "
                     "interior-strata bounds are vacuous and not fabricated")
    return rep