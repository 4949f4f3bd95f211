"""Correctness checks on the analyser's outputs.

Every checker returns a list of problems; an empty list means the output
passed.  Expected values come from independent computations (sympy, float
evaluation of the input curves, a separate pattern enumeration) or from
identities the method must satisfy; none is stored.  sympy is imported
lazily so that the timed pass and the peak-RSS reading never include it.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

SVG_NS = "{http://www.w3.org/2000/svg}"
BOUNDARY_STROKE = "#222222"
GRID = 160  # marching-squares cells per side of the bounding box


# --- scene input, read independently of the program ------------------------

def _fr(pair):
    return Fraction(pair[0], pair[1])


def scene_terms(comp):
    """Monomials {(i, j): Fraction} of one boundary component of a scene doc."""
    curve = comp["curve"]
    if curve["type"] == "circle":
        cx, cy = (_fr(v) for v in curve["center"])
        r = _fr(curve["radius"])
        return {(2, 0): Fraction(1), (0, 2): Fraction(1), (1, 0): -2 * cx,
                (0, 1): -2 * cy, (0, 0): cx * cx + cy * cy - r * r}
    terms = {}
    for i, j, num, den in curve["coeffs"]:
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + Fraction(num, den)
    return terms


def scene_components(scene_doc):
    return [scene_doc["outer"]] + list(scene_doc["holes"])


def float_curve(comp):
    terms = [(i, j, float(c)) for (i, j), c in scene_terms(comp).items()]
    return lambda x, y: sum(c * x ** i * y ** j for i, j, c in terms)


# --- tangency counts with sympy ---------------------------------------------

def tangency_counts(scene_doc):
    """Per component, the real solutions of F = 0 and d . grad F = 0 in the box.

    For a radial field with center c the direction at p is p - c.  The count
    uses a lex Groebner basis in shape position (a shear y -> y + k x is
    tried until the basis is {x - h(y), g(y)}) and the distinct real roots of
    g, so it shares no code with the program's resultant/Sturm pipeline.
    """
    import sympy as sp

    x, y = sp.symbols("x y")
    fld = scene_doc["field"]
    x0, x1, y0, y1 = (float(_fr(v)) for v in scene_doc["bbox"])
    counts = []
    for comp in scene_components(scene_doc):
        F = sum(sp.Rational(c.numerator, c.denominator) * x ** i * y ** j
                for (i, j), c in scene_terms(comp).items())
        if fld["kind"] == "constant":
            dx, dy = (sp.Rational(v[0], v[1]) for v in fld["direction"])
        else:
            cx, cy = (sp.Rational(v[0], v[1]) for v in fld["center"])
            dx, dy = x - cx, y - cy
        T = sp.expand(dx * sp.diff(F, x) + dy * sp.diff(F, y))
        counts.append(_real_solutions_in_box(sp, x, y, sp.expand(F), T, (x0, x1, y0, y1)))
    return counts


def _real_solutions_in_box(sp, x, y, F, T, box):
    x0, x1, y0, y1 = box
    for k in range(8):
        basis = list(sp.groebner([F.subs(y, y + k * x), T.subs(y, y + k * x)],
                                 x, y, order="lex").exprs)
        if basis == [1]:
            return 0
        if (len(basis) == 2 and sp.degree(basis[0], x) == 1
                and basis[1].free_symbols <= {y}):
            h = sp.solve(basis[0], x)[0]
            n = 0
            for root, _ in sp.real_roots(sp.Poly(basis[1], y), multiple=False):
                yv = float(root.evalf(30))
                xv = float(h.subs(y, root).evalf(30))
                if x0 < xv < x1 and y0 < yv + k * xv < y1:
                    n += 1
            return n
    raise RuntimeError("no shear put the tangency system in shape position")


# --- analysis reports (corpus, tilted) -------------------------------------

def graph_betti(ts):
    """(b0, b1) of the trajectory graph read from a report's edge list.

    A loop edge (no endpoints) is a circle: one node and one edge of its own.
    """
    parent = {v["id"]: v["id"] for v in ts["vertex_detail"]}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = 0
    for e in ts["edge_detail"]:
        ends = e["endpoints"]
        edges += 1
        if not ends:
            parent[e["id"]] = e["id"]
        else:
            a, b = find(ends[0]), find(ends[-1])
            parent[a] = b
    b0 = len({find(a) for a in parent})
    return b0, edges - len(parent) + b0


def check_report(text, scene_doc, expected_tangencies):
    """Problems with one accepted scene's JSON report."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    try:
        h = len(scene_doc["holes"])
        need(doc["scene"]["hole_count"] == h, "hole_count differs from the input")
        need(doc["validation"]["ok"] is True, "validation not ok")
        need(doc["genericity"]["verdict"] == "PASS", "genericity not PASS")
        ts = doc["trajectory_space"]
        V, E = ts["vertices"], ts["edges"]
        need(V == len(ts["vertex_detail"]), "vertex count differs from vertex list")
        need(E == len(ts["edge_detail"]), "edge count differs from edge list")
        per_comp = [0] * len(expected_tangencies)
        for v in ts["vertex_detail"]:
            per_comp[v["component"]] += 1
        need(per_comp == list(expected_tangencies),
             f"tangencies per component {per_comp}, sympy gives {list(expected_tangencies)}")
        n2, n121 = ts["pattern_counts"]["2"], ts["pattern_counts"]["121"]
        need(n2 + n121 == V, "pattern counts do not add up to the vertex count")
        patterns = [v["pattern"] for v in ts["vertex_detail"]]
        need(patterns.count("2") == n2 and patterns.count("121") == n121,
             "pattern counts differ from the vertex list")
        b0, b1 = graph_betti(ts)
        need((b0, b1) == (1, h), f"graph has b0={b0}, b1={b1}; expected 1, {h}")
        need(doc["homology"]["trajectory_space"]["betti"] == [1, h],
             "reported graph Betti numbers are not [1, h]")
        need(doc["homology"]["double"]["betti"] == [1, 2 * h, 1],
             f"double has Betti numbers {doc['homology']['double']['betti']}, "
             f"expected [1, {2 * h}, 1]")
        need(n2 == n121 + 2 - 2 * h, f"#(2)={n2} != #(121)+2-2h={n121 + 2 - 2 * h}")
        if V:
            need(2 * E == n2 + 3 * n121, f"2E={2 * E} != #(2)+3#(121)={n2 + 3 * n121}")
        need(doc["bounds"]["all_pass"] is True
             and all(c["verdict"] == "PASS" for c in doc["bounds"]["checks"]),
             "a bound check failed")
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"report lacks a field: {exc!r}")
    return problems


def check_degenerate(status, text):
    """Problems with a scene that must be rejected as DEGENERATE."""
    if status != "DEGENERATE":
        return [f"expected DEGENERATE, got {status}"]
    try:
        doc = json.loads(text)
        if doc["genericity"]["verdict"] != "FAIL":
            return ["DEGENERATE report without a FAIL genericity verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bad DEGENERATE report: {exc!r}"]
    return []


# --- sampling oracle --------------------------------------------------------

def admissible_patterns(max_reduced=None, max_norm=None):
    """Admissible tangency patterns by brute force from the parity rule."""
    bound = max_norm if max_norm is not None else 2 * max_reduced + 2

    def tuples(budget):
        yield ()
        for first in range(1, budget + 1):
            for rest in tuples(budget - first):
                yield (first,) + rest

    out = []
    for p in tuples(bound):
        if not p or (max_reduced is not None and sum(m - 1 for m in p) > max_reduced):
            continue
        if len(p) == 1:
            ok = p[0] % 2 == 0
        else:
            ok = p[0] % 2 == 1 and p[-1] % 2 == 1 and all(m % 2 == 0 for m in p[1:-1])
        if ok:
            out.append(p)
    return sorted(out, key=lambda p: (sum(m - 1 for m in p), sum(p), p))


def parameter_keys(pattern):
    return sorted((i, l) for i, m in enumerate(pattern, start=1) for l in range(m - 1))


def sympy_multiplicities(pattern, params):
    """Multiplicities of the real roots, in increasing order, of the local model

        prod_i [ (u - i)^{m_i} + sum_{l <= m_i - 2} x_{i,l} (u - i)^l ]

    built from that definition in sympy.
    """
    import sympy as sp

    u = sp.Symbol("u")
    expr = sp.Integer(1)
    for i, m in enumerate(pattern, start=1):
        factor = (u - i) ** m
        for l in range(m - 1):
            v = Fraction(params[(i, l)])
            factor += sp.Rational(v.numerator, v.denominator) * (u - i) ** l
        expr *= factor
    poly = sp.Poly(sp.expand(expr), u, domain=sp.QQ)
    return [mult for _, mult in sp.real_roots(poly, multiple=False)]


def check_oracle(pattern, observed, contained, resolved):
    problems = []
    if not observed:
        problems.append(f"{pattern}: nothing observed")
    outside = [seq for seq in observed if seq not in resolved]
    if outside:
        problems.append(f"{pattern}: {len(outside)} observed sequences outside "
                        f"the resolutions, e.g. {outside[0]}")
    if contained is not (not outside):
        problems.append(f"{pattern}: containment flag {contained} is wrong")
    return problems


def check_multiplicities(pattern, program_mults, reference_mults):
    if list(program_mults) != list(reference_mults):
        return [f"{pattern}: root multiplicities {list(program_mults)}, "
                f"sympy gives {list(reference_mults)}"]
    return []


# --- figures ----------------------------------------------------------------

def check_svg(svg, scene_doc, vertices):
    """The SVG parses, has one marker per vertex, and every boundary segment
    endpoint lies within one grid step of a boundary curve (float evaluation)."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    problems = []
    markers = root.findall(SVG_NS + "circle")
    if len(markers) != vertices:
        problems.append(f"SVG has {len(markers)} vertex markers, expected {vertices}")
    segs = [el for el in root.findall(SVG_NS + "line") if el.get("stroke") == BOUNDARY_STROKE]
    if not segs:
        return problems + ["SVG draws no boundary segment"]
    x0, x1, y0, y1 = (float(_fr(v)) for v in scene_doc["bbox"])
    view_w = float(root.get("viewBox").split()[2])
    scale = view_w / (x1 - x0)
    step = max(x1 - x0, y1 - y0) / GRID
    curves = [float_curve(c) for c in scene_components(scene_doc)]
    far = 0
    for el in segs:
        for kx, ky in (("x1", "y1"), ("x2", "y2")):
            px = x0 + float(el.get(kx)) / scale
            py = y1 - float(el.get(ky)) / scale
            if not any(_sign_change_near(f, px, py, step) for f in curves):
                far += 1
    if far:
        problems.append(f"{far} boundary segment endpoints lie more than one grid "
                        f"step from every curve")
    return problems


def _sign_change_near(f, x, y, step):
    vals = [f(x + a * step, y + b * step) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    return min(vals) <= 0 <= max(vals)


_DOT_NODE = re.compile(r'^\s*(\w+) \[label="\((\d+)\)"\];$')


def check_graph_dot(dot, vertices, holes):
    """The DOT lists V vertex nodes and E edges, with E and the patterns
    consistent with the graph identities."""
    problems = []
    lines = dot.strip().splitlines()
    if not lines or not lines[0].startswith("graph ") or lines[-1] != "}":
        return ["graph DOT is not one undirected graph block"]
    nodes = {}
    edges = []
    for line in lines[1:-1]:
        m = _DOT_NODE.match(line)
        if m:
            nodes[m.group(1)] = m.group(2)
        elif " -- " in line:
            stmt = line.split(";")[-2] if line.count(";") > 1 else line
            a, b = stmt.split("[")[0].split(" -- ")
            edges.append((a.strip(), b.strip()))
        else:
            problems.append(f"unexpected DOT line: {line.strip()}")
    if len(nodes) != vertices:
        problems.append(f"DOT has {len(nodes)} vertex nodes, expected {vertices}")
    for a, b in edges:
        if (a not in nodes or b not in nodes) and not (a == b and a.endswith("_loop")):
            problems.append(f"DOT edge {a} -- {b} has an unknown end")
    n2 = sum(1 for p in nodes.values() if p == "2")
    n121 = sum(1 for p in nodes.values() if p == "121")
    expected_edges = (n2 + 3 * n121) // 2 if nodes else 1
    if len(edges) != expected_edges:
        problems.append(f"DOT has {len(edges)} edges, expected {expected_edges}")
    if n2 != n121 + 2 - 2 * holes:
        problems.append(f"DOT patterns give #(2)={n2}, #(121)={n121} with h={holes}")
    return problems


_HASSE_NODE = re.compile(r'^\s*p(\d+) \[label="\((\d+)\) \| (\d+) \| (\d+)"\];$')
_HASSE_EDGE = re.compile(r"^\s*p(\d+) -> p(\d+);$")


def check_hasse_dot(dot, n):
    """Nodes are exactly the admissible patterns of reduced norm <= n (single
    digits), with correct norms; every edge goes to a smaller reduced norm."""
    problems = []
    nodes, edges = {}, []
    for line in dot.strip().splitlines()[2:-1]:
        m = _HASSE_NODE.match(line)
        e = _HASSE_EDGE.match(line)
        if m:
            p = tuple(int(ch) for ch in m.group(1))
            nodes[m.group(1)] = p
            if (int(m.group(3)), int(m.group(4))) != (sum(p), sum(k - 1 for k in p)):
                problems.append(f"Hasse node p{m.group(1)} has wrong norms")
        elif e:
            edges.append((e.group(1), e.group(2)))
        else:
            problems.append(f"unexpected Hasse DOT line: {line.strip()}")
    expected = {"".join(map(str, p)) for p in admissible_patterns(max_reduced=n)}
    if set(nodes) != expected:
        problems.append(f"Hasse DOT has {len(nodes)} nodes, expected {len(expected)}")
    heads = set()
    for a, b in edges:
        if a not in nodes or b not in nodes:
            problems.append(f"Hasse edge p{a} -> p{b} has an unknown end")
            continue
        heads.add(a)
        if sum(k - 1 for k in nodes[a]) <= sum(k - 1 for k in nodes[b]):
            problems.append(f"Hasse edge p{a} -> p{b} does not lower the reduced norm")
    lonely = sorted(set(nodes) - heads - {"11"})
    if lonely:
        problems.append(f"Hasse patterns with no degeneration: {lonely[:5]}")
    return problems
