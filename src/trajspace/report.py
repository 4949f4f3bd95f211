"""Analysis pipeline and the self-describing JSON report."""

from __future__ import annotations

import json
import os

from . import __version__
from . import bounds as bounds_mod
from . import homology, strata, sweep, validate
from .events import DegenerateScene


class AnalysisError(Exception):
    def __init__(self, code, payload):
        super().__init__(code)
        self.code = code
        self.payload = payload


def analyze_scene(scene, seed: int = 0) -> dict:
    """validate -> sweep -> strata -> homology -> bounds; returns the report.

    Raises AnalysisError("VALIDATION", report) on invalid scenes and
    AnalysisError("DEGENERATE", report) on non-generic ones.
    """
    doc, _ = analyze_scene_with_graph(scene, seed=seed)
    return doc


def analyze_scene_with_graph(scene, seed: int = 0):
    """analyze_scene, also handing back the trajectory graph for reuse."""
    doc = {
        "tool": {"name": "trajspace", "version": __version__},
        "seed": seed,
        "scene": {
            "name": os.path.basename(scene.name) if scene.name else "",
            "field": scene.field.kind,
            "hole_count": scene.hole_count,
            "boundary_components": scene.hole_count + 1,
            "input": scene.raw,
        },
    }
    vrep = validate.validate_scene(scene)
    doc["validation"] = vrep.to_dict()
    if not vrep.ok:
        raise AnalysisError("VALIDATION", doc)

    try:
        graph = sweep.build_trajectory_space(scene)
    except DegenerateScene as exc:
        doc["genericity"] = {"verdict": "FAIL", "reason": exc.reason,
                             "witness": exc.witness_dict(),
                             "suggested_perturbation":
                                 _suggest_perturbation(exc, seed)}
        raise AnalysisError("DEGENERATE", doc) from exc
    doc["genericity"] = {"verdict": "PASS", "events": graph.vertex_count}

    graph_cc = homology.graph_chain_complex(graph)
    b0, b1 = homology.graph_homology_ranks(graph, graph_cc)
    if b0 != 1:
        doc["validation"]["checks"].append(
            {"name": "region_connected", "ok": False,
             "detail": f"EMPTY: region has {b0} connected components; "
                       "the analysis requires a connected domain"})
        doc["validation"]["ok"] = False
        raise AnalysisError("VALIDATION", doc)

    counts = graph.pattern_counts()
    doc["trajectory_space"] = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "pattern_counts": {"2": counts.get((2,), 0), "121": counts.get((1, 2, 1), 0)},
        "euler_characteristic": graph.euler_characteristic(),
        "vertex_detail": [
            {
                "id": v.id, "pattern": "".join(map(str, v.pattern)),
                "component": v.tangent_component, "chart": v.event.chart,
                "parameter": round(v.event.parameter, 9),
                "point": [round(c, 9) for c in v.event.point],
            }
            for v in graph.vertices
        ],
        "edge_detail": [
            {
                "id": e.id, "pattern": "11",
                "entry_component": e.entry_component,
                "exit_component": e.exit_component,
                "endpoints": sorted(a[0] for a in e.attachments),
                "loop": e.is_loop,
            }
            for e in graph.edges
        ],
    }

    table = strata.build_strata(graph)
    cv = strata.complexity_vectors(table)
    doc["strata"] = table.to_dict()
    doc["strata"]["doubling_identity"] = strata.doubling_identity_holds(table)
    doc["complexity"] = cv.to_dict()
    doc["minimal_strata"] = strata.minimal_strata(table)

    dx = homology.cw_complex_of_double(table)
    doc["homology"] = {
        "trajectory_space": {
            "ranks": graph_cc.ranks,
            "filtration_betti": graph_cc.betti_numbers(),
            "betti": [b0, b1],
            "euler": graph_cc.euler_characteristic(),
        },
        "double": dx.to_dict(),
        "chi_double_equals_twice_chi_X":
            dx.euler_characteristic() == 2 * graph.euler_characteristic(),
    }

    brep = bounds_mod.check_all(scene, graph, cv, dx.betti_numbers())
    doc["bounds"] = brep.to_dict()
    return doc, graph


def _suggest_perturbation(exc: DegenerateScene, seed: int):
    """A small random rational translation of an offending component.

    Scenes are never perturbed silently; this is a diagnostic for the user
    to break the degeneracy by hand.
    """
    import random
    import re

    if exc.witness is None:
        return None
    m = re.search(r"component[s]? (\d+)", exc.witness[0])
    if not m:
        return None
    rng = random.Random(seed)
    dx = f"{rng.randint(1, 999) * rng.choice([-1, 1])}/100000"
    dy = f"{rng.randint(1, 999) * rng.choice([-1, 1])}/100000"
    return {"component": int(m.group(1)), "translate": [dx, dy]}


def render_report(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"