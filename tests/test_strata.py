import pytest

from trajspace import strata, sweep

from conftest import GENERIC_FIXTURES, analyzed, holes_scene


def test_disk_dx_counts(disk):
    t = disk.table
    assert t.counts_by_dimension("DX") == {0: 2, 1: 2, 2: 2}


def test_annulus3_zero_dim_count(annulus3):
    assert annulus3.table.count("DX", dimension=0) == 18


def test_fig1_zero_dim_count(fig1):
    assert fig1.table.count("DX", dimension=0) == 30


def test_doubling_identity(any_generic):
    assert strata.doubling_identity_holds(any_generic.table)


def test_zero_dim_support_formula(any_generic):
    counts = any_generic.graph.pattern_counts()
    t2, t121 = counts.get((2,), 0), counts.get((1, 2, 1), 0)
    assert any_generic.table.count("DX", dimension=0) == t2 * 1 + t121 * 3


def test_filtration_depth_one_is_vertices(annulus3):
    # T(v) is a graph: its codimension-1 strata are its vertices
    ids = [s.id for s in annulus3.table.of("Tv", dimension=0)]
    assert len(ids) == 6
    assert all("/v" in i for i in ids)


def test_complexity_vectors_annulus3(annulus3):
    cv = annulus3.complexity
    assert cv.tc == (6, 9)
    assert cv.sigma_tc[0] == 18
    assert cv.per_pattern[(1, 2, 1)] == 6
    assert cv.per_pattern[(1, 1)] == 9


def test_complexity_vectors_disk(disk):
    cv = disk.complexity
    assert cv.tc == (2, 1)
    assert cv.sigma_tc[0] == 2


def test_tc_vanishing_monotone(any_generic):
    tc = any_generic.complexity.tc
    if tc[1] == 0:
        assert tc[0] == 0


def test_minimal_strata_annulus3(annulus3):
    ms = strata.minimal_strata(annulus3.table)
    assert ms["count"] == 6
    assert ms["generator_bound"] == 12


def test_minimal_strata_disk(disk):
    ms = strata.minimal_strata(disk.table)
    assert ms["count"] == 2
    assert ms["generator_bound"] == 0


def test_minimal_strata_fig1(fig1):
    ms = strata.minimal_strata(fig1.table)
    assert ms["count"] == 12
    assert ms["generator_bound"] == 18


@pytest.mark.parametrize("space,dims", [("Tv", {0, 1}), ("X", {0, 1, 2}), ("DX", {0, 1, 2})])
def test_dimensions_present(annulus3, space, dims):
    assert set(annulus3.table.counts_by_dimension(space)) == dims

def test_minimal_strata_includes_loop_components():
    from conftest import analyzed
    a = analyzed("annulus0.json")
    ms = strata.minimal_strata(a.table)
    assert ms["count"] == 1
    assert ms["generator_bound"] == 1


@pytest.mark.parametrize("name", GENERIC_FIXTURES + ["annulus0.json", "holes8"])
def test_faces_are_strata_one_dimension_lower(name):
    # the double's boundary maps look each face up in the cell's own copy,
    # or once on the fixed locus: a boundary stratum has only boundary faces
    graph = (sweep.build_trajectory_space(holes_scene(8)) if name == "holes8"
             else analyzed(name).graph)
    x = {s.source: s for s in strata.build_strata(graph).of("X")}
    assert all(s.faces for s in x.values() if s.dimension == 2)
    for s in x.values():
        for face, _ in s.faces:
            assert x[face].dimension == s.dimension - 1
            assert s.location == "interior" or x[face].location == "boundary"
