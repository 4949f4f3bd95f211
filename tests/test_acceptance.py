"""Acceptance criteria, one test (or tightly grouped pair) per criterion.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per criterion
is printed in the terminal summary (see conftest hook).
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from trajspace import bounds, homology, local_model, omega, strata, sweep
from trajspace.events import DegenerateScene

from conftest import Analyzed, analyzed, fixture_path, load_fixture


def test_criterion_1_radial_example_scene():
    t0 = time.time()
    a = Analyzed("annulus3.json")              # fresh build, timed
    rep = bounds.check_all(a.scene, a.graph, a.complexity, a.double.betti_numbers())
    elapsed = time.time() - t0
    counts = a.graph.pattern_counts()
    assert a.graph.vertex_count == 6
    assert counts[(1, 2, 1)] == 6 and counts.get((2,), 0) == 0
    assert a.graph.edge_count == 9
    assert a.table.count("DX", dimension=0) == 18
    assert rep.simplicial_volume_DX == 12
    assert rep.rho1_ratio == Fraction(1, 2)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_fig1_class_fixture():
    a = analyzed("fig1.json")
    counts = a.graph.pattern_counts()
    assert a.graph.vertex_count == 12
    assert (counts[(2,)], counts[(1, 2, 1)]) == (3, 9)
    assert a.table.count("DX", dimension=0) == 30
    rep = bounds.check_all(a.scene, a.graph, a.complexity, a.double.betti_numbers())
    assert rep.rho1_ratio == Fraction(1)


@pytest.mark.parametrize("name,q", [
    ("disk.json", 0), ("disk1.json", 1), ("disk2.json", 2),
    ("disk3.json", 3), ("disk4.json", 4),
])
def test_criterion_3_homology_suite(name, q):
    t0 = time.time()
    a = Analyzed(name)
    elapsed = time.time() - t0
    betti = a.double.betti_numbers()
    assert betti == [1, 2 * q, 1]
    assert a.double.torsion() == {}
    chi = a.double.euler_characteristic()
    assert chi == 2 - 2 * q
    assert chi == 2 * a.graph.euler_characteristic()
    assert homology.graph_homology_ranks(a.graph) == (1, q)
    assert elapsed < 10.0, f"{name} took {elapsed:.1f}s"


def test_criterion_4_pattern_enumeration():
    assert omega.enumerate_patterns(1) == [(1, 1), (2,), (1, 2, 1)]
    n3 = omega.enumerate_patterns(3)
    for p in [(1, 2, 2, 2, 1), (1, 2, 3), (3, 2, 1), (1, 4, 1)]:
        assert p in n3
    for p in n3:
        assert omega.is_admissible(p)
        assert omega.norm(p) % 2 == 0


def test_criterion_5_oracle_containment():
    t0 = time.time()
    pats = [p for p in omega.enumerate_patterns(7) if omega.norm(p) <= 8]
    assert (1, 2, 2, 1) in pats and (8,) in pats
    for p in pats:
        observed, resolved, ok = local_model.oracle_containment(
            p, 200, Fraction(1, 1000), seed=0)
        assert ok, f"oracle escape for {p}: {observed - resolved}"
        if p == (1, 2, 2, 1):
            assert local_model.chamber_count(observed) == 6
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


@pytest.mark.parametrize("name", ["disk.json", "disk1.json", "disk2.json",
                                  "disk3.json", "disk4.json", "annulus3.json",
                                  "fig1.json"])
def test_criterion_6_theorem_suite(name):
    a = analyzed(name)
    rep = bounds.check_all(a.scene, a.graph, a.complexity, a.double.betti_numbers())
    assert rep.all_pass, rep.to_dict()
    q = a.scene.hole_count
    counts = a.graph.pattern_counts()
    t2, t121 = counts.get((2,), 0), counts.get((1, 2, 1), 0)
    if q >= 2:
        assert a.graph.vertex_count >= 1          # Cor 4.6 contrapositive
    assert 2 * t121 >= q                          # generator bound
    assert Fraction(t2 + t121) >= Fraction(q, 2)  # minimal-component bound


def test_criterion_7_structural_invariants():
    for name in ["disk.json", "disk2.json", "annulus3.json", "fig1.json"]:
        a = analyzed(name)
        a.double.check_dd_zero()
        for v in a.graph.vertices:
            want = 1 if v.pattern == (2,) else 3
            assert a.graph.degree(v.id) == want
        assert strata.doubling_identity_holds(a.table)


def test_criterion_7_determinism_across_thread_counts(tmp_path):
    # the analyser runs in one thread; reports must not depend on hashing
    outs = []
    for hash_seed in ("0", "99"):
        out = tmp_path / f"r{hash_seed}.json"
        # the child imports trajspace from wherever this process does
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-m", "trajspace.cli", "analyze",
             fixture_path("annulus3.json"), "--out", str(out)],
            check=True, env=env)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_criterion_8a_concentric_annulus_rejected():
    # The checklist requires rejection here, but the implemented genericity
    # conditions (all multiplicities <= 2, distinct event parameters, one
    # tangency per trajectory) genuinely hold for this scene: its events sit
    # at four distinct parameters -r_out, -r_in, r_in, r_out with
    # multiplicity 2 each.  The criterion is stated as written and this
    # test is expected red; see README "Tests and acceptance suite".
    with pytest.raises(DegenerateScene):
        sweep.tangency_events(load_fixture("degenerate/concentric.json"))


def test_criterion_8b_double_tangent_rejected_with_witness():
    with pytest.raises(DegenerateScene) as exc:
        sweep.tangency_events(load_fixture("degenerate/double_tangent.json"))
    w = exc.value.witness_dict()
    assert w is not None
    assert abs(abs(w["parameter"]) - 0.5) < 1e-9   # the shared parameter +-1/2
    lo, hi = Fraction(w["interval"][0]), Fraction(w["interval"][1])
    assert lo <= Fraction(1, 2) <= hi or lo <= Fraction(-1, 2) <= hi