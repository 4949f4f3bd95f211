"""Combinatorial tangency patterns and their universal poset.

A pattern is the ordered tuple of contact multiplicities a trajectory makes
with the boundary.  Admissible tuples are either a single even entry, or an
odd-first/odd-last tuple with even interior entries.  The partial order is
defined operationally: one pattern sits below another when it occurs among
the trajectory patterns of arbitrarily small perturbations of the other's
local polynomial model (see local_model for the sampling cross-check).
"""

from __future__ import annotations


Pattern = tuple  # tuple[int, ...]


def is_admissible(entries) -> bool:
    """Whether a multiplicity sequence is a valid tangency pattern."""
    e = tuple(entries)
    if not e or any(m <= 0 for m in e):
        return False
    if len(e) == 1:
        return e[0] % 2 == 0
    if e[0] % 2 == 0 or e[-1] % 2 == 0:
        return False
    return all(m % 2 == 0 for m in e[1:-1])


def norm(pattern) -> int:
    return sum(pattern)


def reduced_norm(pattern) -> int:
    return sum(m - 1 for m in pattern)


def check_pattern(entries) -> Pattern:
    e = tuple(int(m) for m in entries)
    if not is_admissible(e):
        raise ValueError(f"inadmissible pattern {e}")
    return e


def pattern_key(p: Pattern):
    """Canonical sort key: reduced norm, then norm, then lexicographic."""
    return (reduced_norm(p), norm(p), p)


def format_pattern(p: Pattern) -> str:
    if all(m < 10 for m in p):
        return "(" + "".join(str(m) for m in p) + ")"
    return "(" + ",".join(str(m) for m in p) + ")"


def enumerate_patterns(n: int):
    """All admissible patterns with reduced norm <= n, canonically ordered.

    reduced_norm <= n bounds everything: interior entries are even (each
    adds >= 1 to the reduced norm), end entries add m - 1 >= 0, so the
    length is at most n + 2 and the norm at most 2n + 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    found = []
    for m in range(2, n + 2, 2):  # singletons: even m, reduced norm m - 1
        found.append((m,))
    odds = range(1, n + 2, 2)

    def interiors(budget):
        yield ()
        for e in range(2, budget + 2, 2):
            for rest in interiors(budget - (e - 1)):
                yield (e,) + rest

    for first in odds:
        rem_f = n - (first - 1)
        if rem_f < 0:
            continue
        for inner in interiors(rem_f):
            rem_i = rem_f - reduced_norm(inner)
            for last in range(1, rem_i + 2, 2):
                found.append((first,) + inner + (last,))
    return sorted(set(found), key=pattern_key)


def _segment(state, multiplicities):
    """Advance a segmentation state, (closed Patterns in order, open component
    or None), over real-root multiplicities in root order (segment_patterns)."""
    closed, current = state
    for m in multiplicities:
        if current is None:
            if m % 2 == 1:
                current = (m,)
            else:
                closed += ((m,),)  # isolated tangency in the positive region
        else:
            current += (m,)
            if m % 2 == 1:
                closed, current = closed + (current,), None
    return closed, current


def segment_patterns(multiplicities):
    """Trajectory patterns cut out by a real-rooted monic model polynomial.

    Input: multiplicities of the real roots in increasing root order (any
    complex pairs already dropped).  The polynomial is positive at -infinity
    and flips sign exactly at odd-multiplicity roots; the components of the
    nonpositivity set are closed intervals bounded by odd roots, plus even
    roots isolated in the positive region.  Returns one admissible Pattern
    per component, in increasing order.
    """
    ms = tuple(int(m) for m in multiplicities)
    if any(m <= 0 for m in ms):
        raise ValueError("multiplicities must be positive")
    odd_count = sum(1 for m in ms if m % 2 == 1)
    if odd_count % 2 == 1:
        raise ValueError("odd number of odd-multiplicity roots: "
                         "not realizable by an even-degree polynomial")
    out, current = _segment(((), None), ms)
    assert current is None
    for p in out:
        assert is_admissible(p), p
    return list(out)


def _compositions(total: int):
    """All ordered compositions of total into positive parts; [()] for 0."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def _options(m: int):
    """What one entry m can split into: shed c >= 0 complex pairs and split
    the remaining m - 2c into an ordered composition of positive parts."""
    return [part for c in range(m // 2 + 1) for part in _compositions(m - 2 * c)]


def resolutions(pattern):
    """Pattern sequences realizable near the local model of ``pattern``.

    Each entry m can shed c >= 0 complex pairs and split the remaining
    m - 2c into any ordered composition of positive multiplicities; the
    concatenation (root order is preserved under small perturbations)
    is then segmented.  Segmentation reads left to right, so the set is
    built entry by entry: each entry's options advance every distinct
    segmentation state so far, as segmenting every choice of one option
    per entry would.  Returns the deduplicated set of tuples of Patterns.
    """
    states = {((), None)}
    for m in check_pattern(pattern):
        options = _options(m)
        states = {_segment(state, part) for state in states for part in options}
    assert all(current is None for _, current in states)  # the norm is even
    out = {closed for closed, _ in states}
    for p in {p for seq in out for p in seq}:
        assert is_admissible(p), p
    return out


def _occurring(pattern, transitions):
    """The patterns that occur in the sequences of ``resolutions(pattern)``,
    by a fold whose states are the open component alone.

    transitions memoizes, per (current, m), the patterns that the options of
    entry m emit from ``current`` and the set of next open components.
    Options are never empty, so every state reached extends to a resolved
    sequence holding what was emitted on the way: the union is exact.
    """
    found, currents = set(), {None}
    for m in pattern:
        after = set()
        for current in currents:
            if (current, m) not in transitions:
                steps = [_segment(((), current), part) for part in _options(m)]
                transitions[current, m] = ({p for closed, _ in steps for p in closed},
                                           {nxt for _, nxt in steps})
            emitted, nexts = transitions[current, m]
            found |= emitted
            after |= nexts
        currents = after
    return found


class PatternPoset:
    """Patterns of reduced norm <= n with the degeneration order.

    relations holds (deep, shallow) pairs: ``shallow`` occurs in some
    resolved sequence of ``deep``; reflexive pairs are excluded.  They come
    from ``_occurring``, whose transitions the elements of one poset share.
    """

    def __init__(self, n: int):
        if n > 6:
            raise ValueError("poset enumeration capped at n = 6")
        self.n = n
        self.elements = enumerate_patterns(n)
        transitions = {}
        self.relations = {(deep, shallow) for deep in self.elements
                          for shallow in _occurring(deep, transitions) if shallow != deep}
        for deep, shallow in self.relations:
            assert reduced_norm(deep) > reduced_norm(shallow), (deep, shallow)

    def to_dot(self) -> str:
        lines = ["digraph pattern_poset {", "  rankdir=BT;"]
        for p in self.elements:
            name = "".join(str(m) for m in p)
            lines.append(
                f'  p{name} [label="{format_pattern(p)} | {norm(p)} | {reduced_norm(p)}"];'
            )
        for deep, shallow in sorted(self.relations):
            dn = "".join(str(m) for m in deep)
            sn = "".join(str(m) for m in shallow)
            lines.append(f"  p{dn} -> p{sn};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(n: int) -> PatternPoset:
    return PatternPoset(n)


def export_hasse_dot(poset: PatternPoset) -> str:
    return poset.to_dot()