import copy

import pytest

from trajspace import homology, report, strata, sweep
from trajspace.homology import BoundaryMismatch, smith_ranks

from conftest import GENERIC_FIXTURES, analyzed, holes_scene, load_fixture


def _columns(matrix):
    """The sparse columns {row: entry} of a dense row-list matrix."""
    return [{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(len(matrix[0]))]


def _dense(columns, rows):
    return [[col.get(r, 0) for col in columns] for r in range(rows)]


@pytest.mark.parametrize("matrix,rank,divisors", [
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, [1, 1, 1]),
    ([[0, 0], [0, 0]], 0, []),
    ([[2, 0], [0, 0]], 1, [2]),
    ([[2, 4], [4, 8]], 1, [2]),
    ([[1, 2], [3, 4]], 2, [1, 2]),
])
def test_smith_ranks(matrix, rank, divisors):
    assert smith_ranks(_columns(matrix)) == (rank, divisors)


def test_graph_complex_disk(disk):
    cc = homology.graph_chain_complex(disk.graph)
    assert cc.ranks == [2, 1]
    assert cc.betti_numbers() == [1, 0]


def test_graph_complex_annulus3(annulus3):
    cc = homology.graph_chain_complex(annulus3.graph)
    assert cc.ranks == [6, 9]
    assert cc.betti_numbers() == [1, 4]


def test_graph_homology_matches_region(any_generic):
    q = any_generic.scene.hole_count
    g = any_generic.graph
    assert homology.graph_homology_ranks(g, homology.graph_chain_complex(g)) == (1, q)


def test_double_betti(any_generic):
    q = any_generic.scene.hole_count
    betti = any_generic.double.betti_numbers()
    assert betti == [1, 2 * q, 1]
    assert betti[1] % 2 == 0
    assert any_generic.double.torsion() == {}


def test_double_euler_identity(any_generic):
    chi_dx = any_generic.double.euler_characteristic()
    assert chi_dx == 2 - 2 * any_generic.scene.hole_count
    assert chi_dx == 2 * any_generic.graph.euler_characteristic()
    assert chi_dx == sum((-1) ** j * b for j, b in enumerate(any_generic.double.betti_numbers()))


def test_dd_zero(any_generic):
    any_generic.double.check_dd_zero()   # raises BoundaryMismatch on failure


def test_annulus3_genus_four(annulus3):
    assert annulus3.double.betti_numbers() == [1, 8, 1]
    assert annulus3.double.euler_characteristic() == -6


def test_loop_component_double_is_torus():
    g = sweep.build_trajectory_space(load_fixture("annulus0.json"))
    table = strata.build_strata(g)
    cc = homology.cw_complex_of_double(table)
    assert cc.betti_numbers() == [1, 2, 1]
    assert homology.graph_homology_ranks(g, homology.graph_chain_complex(g)) == (1, 1)

def test_double_complex_ranks_equal_strata_counts(any_generic):
    # the double's chain groups are free on the strata of each dimension
    assert any_generic.double.ranks == list(any_generic.complexity.sigma_tc)


from itertools import combinations
from math import gcd as _gcd

from hypothesis import given, settings, strategies as st


def int_matrices(max_dim, bound):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                               min_size=r, max_size=r)))


def _minor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _minor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def _minors_gcd(m, k):
    g = 0
    for rs in combinations(range(len(m)), k):
        for cs in combinations(range(len(m[0])), k):
            g = _gcd(g, abs(_minor_det([[m[r][c] for c in cs] for r in rs])))
    return g


@given(int_matrices(3, 6))
@settings(max_examples=120, deadline=None)
def test_smith_divisors_match_determinantal_divisors(m):
    # d_1 ... d_k equals the gcd of all k x k minors: an independent oracle
    rank, divs = smith_ranks(_columns(m))
    assert rank == len(divs)
    prod = 1
    for k, d in enumerate(divs, 1):
        prod *= d
        assert _minors_gcd(m, k) == prod
    if rank < min(len(m), len(m[0])):
        assert _minors_gcd(m, rank + 1) == 0


def _sympy_smith(m):
    """(rank, |nonzero diagonal|) of sympy's Smith normal form over ZZ."""
    sp = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(sp.Matrix(m), domain=sp.ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return len(diag), diag


def sparse_matrices(max_dim):
    """Mostly zero matrices whose entries +-1, +-2, +-3, +-6 make non-unit
    pivots, remainders and the divisibility normalisation run."""
    entry = st.sampled_from([0] * 12 + [1, -1, 2, -2, 3, -3, 6, -6])
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entry, min_size=c, max_size=c),
                               min_size=r, max_size=r)))


@given(int_matrices(6, 4) | sparse_matrices(10))
@settings(max_examples=150, deadline=None)
def test_smith_matches_sympy_on_small_matrices(m):
    assert smith_ranks(_columns(m)) == _sympy_smith(m)


@pytest.mark.parametrize("name", GENERIC_FIXTURES)
def test_smith_matches_sympy_on_fixture_boundaries(name):
    a = analyzed(name)
    for cc in (homology.graph_chain_complex(a.graph), a.double):
        for j, d in enumerate(cc.boundaries[1:], 1):
            assert cc.reduced[j] == smith_ranks(d) == _sympy_smith(_dense(d, cc.ranks[j - 1]))


@pytest.fixture
def smith_calls(monkeypatch):
    calls = []

    def counting(columns):
        calls.append(columns)
        return smith_ranks(columns)

    monkeypatch.setattr(homology, "smith_ranks", counting)
    return calls


def test_report_reduces_each_boundary_map_once(smith_calls):
    # one graph complex for the connectivity check and the report, and the
    # double's two maps
    report.analyze_scene(load_fixture("fig1.json"))
    assert len(smith_calls) == 3


def test_complex_reads_stored_reductions(fig1, smith_calls):
    cc = homology.graph_chain_complex(fig1.graph)
    assert len(smith_calls) == 1
    for complex_ in (cc, fig1.double):
        for _ in range(2):
            complex_.betti_numbers()
            complex_.torsion()
            complex_.to_dict()
    assert len(smith_calls) == 1


def test_dd_check_catches_one_flipped_sign(fig1):
    dx = copy.deepcopy(fig1.double)
    dx.check_dd_zero()
    c, col = next((c, col) for c, col in enumerate(dx.boundaries[2]) if col)
    r = next(iter(col))
    col[r] = -col[r]
    with pytest.raises(BoundaryMismatch, match=r"dd != 0 at degree 2, entry \(\d+,%d\)" % c):
        dx.check_dd_zero()


def test_eight_holes():
    scene = holes_scene(8)
    doc, graph = report.analyze_scene_with_graph(scene)
    assert doc["validation"]["ok"]
    assert doc["genericity"]["verdict"] == "PASS"
    assert doc["homology"]["double"]["betti"] == [1, 16, 1]
    assert doc["homology"]["double"]["torsion"] == {}
    assert homology.graph_homology_ranks(graph, homology.graph_chain_complex(graph)) == (1, 8)
    assert doc["bounds"]["all_pass"]
