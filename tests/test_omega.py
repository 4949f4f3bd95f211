from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from trajspace.omega import (
    _compositions,
    _occurring,
    build_poset,
    check_pattern,
    enumerate_patterns,
    export_hasse_dot,
    format_pattern,
    is_admissible,
    norm,
    reduced_norm,
    resolutions,
    segment_patterns,
)


@pytest.mark.parametrize("entries,expected", [
    ((1, 1), True),
    ((1, 1, 1, 1), False),
    ((1, 2, 2, 2, 1), True),
    ((2,), True),
    ((3,), False),
    ((2, 1), False),
    ((1, 3, 1), False),
    ((3, 2, 1), True),
])
def test_is_admissible(entries, expected):
    assert is_admissible(entries) is expected


@pytest.mark.parametrize("pattern,n,rn", [
    ((1, 2, 1), 4, 1),
    ((1, 2, 2, 2, 1), 8, 3),
    ((2,), 2, 1),
])
def test_norms(pattern, n, rn):
    assert norm(pattern) == n
    assert reduced_norm(pattern) == rn
    assert rn == n - len(pattern)


def test_enumerate_surface_patterns():
    assert enumerate_patterns(1) == [(1, 1), (2,), (1, 2, 1)]


def test_enumerate_n2():
    got = set(enumerate_patterns(2))
    assert got == {(1, 1), (2,), (1, 2, 1), (1, 2, 2, 1), (1, 3), (3, 1)}


def test_enumerate_n3_contains_fourfold_patterns():
    got = set(enumerate_patterns(3))
    for p in [(1, 2, 2, 2, 1), (1, 2, 3), (3, 2, 1), (1, 4, 1), (4,)]:
        assert p in got


def test_enumerate_n0():
    assert enumerate_patterns(0) == [(1, 1)]


@given(st.integers(0, 4))
def test_enumerate_monotone_and_bounded(n):
    pats = enumerate_patterns(n)
    assert set(pats) <= set(enumerate_patterns(n + 1))
    for p in pats:
        assert reduced_norm(p) <= n
        assert norm(p) % 2 == 0
        assert is_admissible(p)


@pytest.mark.parametrize("mults,expected", [
    ((1, 1), [(1, 1)]),
    ((1, 2, 1), [(1, 2, 1)]),
    ((1, 1, 2, 1, 1), [(1, 1), (2,), (1, 1)]),
    ((2,), [(2,)]),
    ((), []),
])
def test_segment_patterns(mults, expected):
    assert segment_patterns(mults) == expected


def test_segment_sign_oracle():
    # brute force on p(u) = u (u-1) (u-2)^2 (u-3) (u-4): the sign between
    # consecutive roots decides the components of {p <= 0}
    from fractions import Fraction

    def p(u):
        return u * (u - 1) * (u - 2) ** 2 * (u - 3) * (u - 4)

    roots = [0, 1, 2, 3, 4]
    mults = [1, 1, 2, 1, 1]
    probes = [Fraction(-1)] + [Fraction(roots[i] + roots[i + 1], 2) for i in range(4)] + [Fraction(5)]
    signs = [1 if p(x) > 0 else -1 for x in probes]
    assert signs == [1, -1, 1, 1, -1, 1]
    assert segment_patterns(mults) == [(1, 1), (2,), (1, 1)]


def test_segment_rejects_odd_odd_count():
    with pytest.raises(ValueError):
        segment_patterns((1, 2))


def test_resolutions_quadratic():
    out = resolutions((2,))
    assert () in out          # both roots escape to a complex pair
    assert ((1, 1),) in out   # split into two simple roots
    assert out == {(), ((1, 1),), ((2,),)}


def test_resolutions_121():
    out = resolutions((1, 2, 1))
    assert out == {((1, 1),), ((1, 1), (1, 1)), ((1, 2, 1),)}


def test_resolutions_1221():
    out = resolutions((1, 2, 2, 1))
    expected = {
        ((1, 1),), ((1, 1), (1, 1)), ((1, 1), (1, 1), (1, 1)),
        ((1, 2, 1),), ((1, 2, 1), (1, 1)), ((1, 1), (1, 2, 1)),
        ((1, 2, 2, 1),),
    }
    assert out == expected


@given(st.sampled_from(enumerate_patterns(3)))
@settings(deadline=None)
def test_resolutions_reduced_norm_decreasing(pattern):
    own = tuple(segment_patterns(pattern))
    for seq in resolutions(pattern):
        for p in seq:
            assert is_admissible(p)
            if seq != own:
                assert reduced_norm(p) < reduced_norm(pattern)


def product_resolutions(pattern):
    """Reference: segment every choice of one split option per entry."""
    p = check_pattern(pattern)
    per_entry = []
    for m in p:
        options = []
        for c in range(m // 2 + 1):
            options.extend(_compositions(m - 2 * c))
        per_entry.append(options)
    out = set()
    for choice in product(*per_entry):
        seq = tuple(m for part in choice for m in part)
        out.add(tuple(segment_patterns(seq)))
    return out


# every pattern of the n = 6 poset, and the 30 of norm <= 8 that the oracle runs
ENTRY_CASES = sorted(set(enumerate_patterns(6))
                     | {p for p in enumerate_patterns(7) if norm(p) <= 8})


@pytest.mark.parametrize("pattern", ENTRY_CASES, ids=format_pattern)
def test_resolutions_equal_product_of_options(pattern):
    assert resolutions(pattern) == product_resolutions(pattern)


def test_poset_n1_relations():
    poset = build_poset(1)
    assert poset.relations == {((2,), (1, 1)), ((1, 2, 1), (1, 1))}


@pytest.mark.parametrize("n", range(7))
def test_poset_relations_equal_patterns_of_resolutions(n):
    poset = build_poset(n)
    assert poset.relations == {(d, s) for d in poset.elements
                               for seq in resolutions(d) for s in seq if s != d}


@pytest.mark.parametrize("pattern", [p for p in enumerate_patterns(9) if norm(p) <= 10],
                         ids=format_pattern)
def test_fold_patterns_equal_patterns_of_resolutions(pattern):
    assert _occurring(pattern, {}) == {p for seq in resolutions(pattern) for p in seq}


def test_poset_n0():
    poset = build_poset(0)
    assert poset.elements == [(1, 1)]
    assert poset.relations == set()


def test_poset_reduced_norm_increases_deep():
    poset = build_poset(3)
    for deep, shallow in poset.relations:
        assert reduced_norm(deep) > reduced_norm(shallow)


def test_hasse_dot_mentions_all_elements():
    poset = build_poset(2)
    dot = export_hasse_dot(poset)
    assert dot.startswith("digraph")
    for p in poset.elements:
        assert format_pattern(p) in dot


def test_poset_cap():
    with pytest.raises(ValueError):
        build_poset(7)

def test_poset_n6_scales():
    poset = build_poset(6)
    assert len(poset.elements) == 53
    assert all(reduced_norm(p) <= 6 for p in poset.elements)
