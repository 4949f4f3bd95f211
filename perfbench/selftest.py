#!/usr/bin/env python3
"""Tests of the benchmark's output checkers: each must pass the program's real
output and reject a deliberately corrupted copy of it.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from trajspace import geometry, local_model, omega, render, report, sweep  # noqa: E402


def _scene_doc(rel):
    return json.loads((ROOT / rel).read_text())


def _report_text(rel):
    return report.render_report(report.analyze_scene(geometry.load_scene(str(ROOT / rel))))


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scene = _scene_doc("fixtures/disk1.json")
        cls.text = _report_text("fixtures/disk1.json")
        cls.counts = checks.tangency_counts(cls.scene)

    def corrupt(self, edit):
        doc = json.loads(self.text)
        edit(doc)
        return checks.check_report(json.dumps(doc), self.scene, self.counts)

    def test_sympy_counts(self):
        self.assertEqual(self.counts, [2, 2])
        self.assertEqual(checks.tangency_counts(_scene_doc("fixtures/annulus3.json")),
                         [0, 0, 2, 2, 2])

    def test_real_report_passes(self):
        self.assertEqual(checks.check_report(self.text, self.scene, self.counts), [])

    def test_dropped_vertex(self):
        def edit(doc):
            ts = doc["trajectory_space"]
            ts["vertex_detail"].pop()
            ts["vertices"] -= 1
        self.assertTrue(self.corrupt(edit))

    def test_vertex_on_wrong_component(self):
        self.assertTrue(self.corrupt(
            lambda d: d["trajectory_space"]["vertex_detail"][1].update(component=0)))

    def test_dropped_edge(self):
        def edit(doc):
            ts = doc["trajectory_space"]
            ts["edge_detail"].pop(1)
            ts["edges"] -= 1
        self.assertTrue(self.corrupt(edit))

    def test_wrong_double_betti(self):
        self.assertTrue(self.corrupt(lambda d: d["homology"]["double"].update(betti=[1, 1, 1])))

    def test_failed_bound(self):
        self.assertTrue(self.corrupt(
            lambda d: d["bounds"]["checks"][0].update(verdict="FAIL")))

    def test_degenerate_must_be_rejected(self):
        self.assertTrue(checks.check_degenerate("ok", self.text))
        self.assertEqual(checks.check_degenerate(
            "DEGENERATE", json.dumps({"genericity": {"verdict": "FAIL"}})), [])


class OracleChecks(unittest.TestCase):
    pattern = (1, 2, 2, 1)

    def test_containment(self):
        observed, resolved, ok = local_model.oracle_containment(self.pattern, 20, Fraction(1, 1000))
        self.assertTrue(ok)
        self.assertEqual(checks.check_oracle(self.pattern, sorted(observed), ok, resolved), [])
        stray = sorted(observed) + [((1, 1), (1, 1), (1, 1), (1, 1))]
        self.assertTrue(checks.check_oracle(self.pattern, stray, True, resolved))
        self.assertTrue(checks.check_oracle(self.pattern, sorted(observed), False, resolved))

    def test_wrong_multiplicity(self):
        params = {k: Fraction(0) for k in checks.parameter_keys(self.pattern)}
        params[(2, 0)] = Fraction(-1, 1000)   # splits the first double root
        model = local_model.ModelPolynomial(self.pattern)
        for key, value in params.items():
            model.set_parameter(*key, value)
        mults = [m for _, m in model.real_roots()]
        reference = checks.sympy_multiplicities(self.pattern, params)
        self.assertEqual(reference, [1, 1, 1, 2, 1])
        self.assertEqual(checks.check_multiplicities(self.pattern, mults, reference), [])
        wrong = list(mults)
        wrong[1] += 1
        self.assertTrue(checks.check_multiplicities(self.pattern, wrong, reference))

    def test_independent_enumeration(self):
        self.assertEqual(len(checks.admissible_patterns(max_norm=8)), 30)


class FigureChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scene_doc = _scene_doc("fixtures/disk.json")
        scene = geometry.load_scene(str(ROOT / "fixtures/disk.json"))
        graph = sweep.build_trajectory_space(scene)
        cls.svg = render.scene_svg(scene, graph)
        cls.dot = graph.to_dot()
        cls.hasse = omega.export_hasse_dot(omega.build_poset(3))

    def test_real_figures_pass(self):
        self.assertEqual(checks.check_svg(self.svg, self.scene_doc, 2), [])
        self.assertEqual(checks.check_graph_dot(self.dot, 2, 0), [])
        self.assertEqual(checks.check_hasse_dot(self.hasse, 3), [])

    def test_shifted_segment(self):
        segs = re.findall(r'<line x1="([-\d.]+)" [^>]*stroke="#222222"[^>]*/>', self.svg)
        leftmost = min(segs, key=float)   # on the circle's far left
        line = next(l for l in self.svg.splitlines() if f'x1="{leftmost}"' in l and "#222222" in l)
        x1 = float(leftmost)
        shifted = line.replace(f'x1="{leftmost}"', f'x1="{x1 + 80:.2f}"')  # 1 unit inward
        bad = self.svg.replace(line, shifted)
        self.assertTrue(checks.check_svg(bad, self.scene_doc, 2))

    def test_dropped_marker_and_broken_xml(self):
        bad = re.sub(r"<circle [^>]*/>\n", "", self.svg, count=1)
        self.assertTrue(checks.check_svg(bad, self.scene_doc, 2))
        self.assertTrue(checks.check_svg(self.svg.replace("</svg>", ""), self.scene_doc, 2))

    def test_graph_dot_corruptions(self):
        lines = self.dot.splitlines()
        no_edge = "\n".join(l for l in lines if " -- " not in l) + "\n"
        self.assertTrue(checks.check_graph_dot(no_edge, 2, 0))
        no_node = "\n".join(l for l in lines if not l.strip().startswith("v0 [")) + "\n"
        self.assertTrue(checks.check_graph_dot(no_node, 2, 0))

    def test_hasse_corruptions(self):
        lines = self.hasse.splitlines()
        no_node = "\n".join(l for l in lines if not l.strip().startswith("p13 [")) + "\n"
        self.assertTrue(checks.check_hasse_dot(no_node, 3))
        edge = next(l for l in lines if "->" in l)
        a, b = re.findall(r"p(\d+)", edge)
        flipped = self.hasse.replace(edge, f"  p{b} -> p{a};")
        self.assertTrue(checks.check_hasse_dot(flipped, 3))


if __name__ == "__main__":
    unittest.main()
