#!/usr/bin/env python3
"""Print one sha256 per scene over its report, DOT and SVG, one over the
Hasse DOT of the pattern poset, three over the sampling oracle, one over
the univariate kernel, one over the subresultant kernel, one over
marching squares and one over algebraic numbers.

Covers every fixture, degenerate fixture and tilted benchmark scene.  Each
scene goes through `trajspace analyze --svg --dot` in process; the digest
covers the exit code and the three outputs (a rejected scene has only a
report).  The seam line covers the same three outputs of the radial scene
in `tests/test_sweep.py::test_seam_rotation_retry`, the one scene whose
sweep rotates its charts (seam rotation 1/7), so its SVG draws trajectory
lines through the rotated float view.  The holes8 line covers the stress
scene with eight small holes under the field (3, 7), whose sweep meets 16
merge/split (121) and 2 birth/death (2) events; `holes_doc` builds it in
memory from its formula.  The deg10 line covers the stress scene
x^10 + y^10 + x^7 y^3 / 7 - 30 under (3, 7) in the box +-4, built by
`deg_doc`.  The rejected line covers the reports of eight
scenes built in memory that fail validation (`REJECTED_SCENES`: a curve
that meets the frame, a curve through the frame's four corners, a curve
wholly outside the box, a hole outside the outer curve, nested holes,
overlapping holes, the nodal quartic and a radial centre in X), so it pins
the bbox, hole, field and singularity checks' failure reports, and the
bbox check's closed edge ends.  The poset line covers the Hasse DOT of the
pattern poset for n = 0..6, whose relations come from a fold over the open
components of every pattern of reduced norm <= 6 (``omega._occurring``).
The three oracle lines cover the oracle's observed pattern sets for all
30 patterns of norm <= 8 (200 samples, seed 0), which depend on root
counting but on no scene.  At
magnitude 1/1000 every sample passes the window certificate of
`local_model` and is counted factor by factor; at magnitude 1/2 many
samples fail it and take the expanded-product path, and at magnitude 3
nearly all do.  The kernel line covers `realroots.sturm_chain` and
`polys.zp_gcd` on seeded products of small integer factors raised to powers
1-2, in pairs that share a factor, so that repeated and common factors are
the rule (`kernel_digest`).  The subres line covers
`bivar.sylvester_resultant` and the gcds and real-root counts of
`bivar.SturmHabicht` on seeded pairs over Z[c] in every degree order, sparse
and dense, at rational and quadratic parameters (`subres_digest`).  The
march line covers `render._marching_segments` on seeded curves with
coefficients up to 2^80, whose grid slots are wider than a machine word,
on square and non-square boxes and grid sizes, and on -x^60 near 0, where
values round to -0.0 (`march_digest`).  The alg line covers
`realroots.AlgebraicNumber` on the real roots of seeded polynomials of
degree up to 12 with coefficients up to 2^200, some with a dyadic rational
root: intervals after refinement to four widths, floats, signs, ratio
intervals and nonvanishing intervals (`alg_digest`).
The lines are pinned in `tests/golden/identity_digest.txt`, and
`tests/test_identity_digest.py` recomputes them with `digest_lines` and
names each line that differs.  A change that means to move a line
regenerates the file and justifies that line:

    PYTHONPATH=src python scripts/identity_digest.py > tests/golden/identity_digest.txt
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction

from trajspace import local_model, omega, render
from trajspace.bivar import SPoly, SturmHabicht, sylvester_resultant
from trajspace.cli import main as cli_main
from trajspace.geometry import curve_from_terms
from trajspace.polys import zp, zp_add, zp_degree, zp_gcd, zp_mul
from trajspace.realroots import (AlgebraicNumber, isolate_real_roots,
                                 real_roots_with_multiplicities, sturm_chain)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENE_DIRS = [ROOT / "fixtures", ROOT / "fixtures" / "degenerate",
              ROOT / "perfbench" / "scenes" / "tilted"]
SEAM_SCENE = {
    "field": {"kind": "radial", "center": [[0, 1], [0, 1]]},
    "outer": {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [4, 1]},
              "inside_sign": 1},
    "holes": [
        {"curve": {"type": "circle", "center": [[0, 1], [0, 1]], "radius": [1, 1]},
         "inside_sign": -1},
        {"curve": {"type": "circle", "center": [[2, 5], [5, 2]], "radius": [2, 5]},
         "inside_sign": -1}],
    "bbox": [[-5, 1], [5, 1], [-5, 1], [5, 1]]}


def _circle(cx, cy, r, sign):
    return {"curve": {"type": "circle", "center": [cx, cy], "radius": r},
            "inside_sign": sign}


def _scene(outer, holes, bound, field=((3, 1), (7, 1))):
    lo, hi = [-bound, 1], [bound, 1]
    return {"field": {"kind": "constant", "direction": [list(v) for v in field]},
            "outer": outer, "holes": holes, "bbox": [lo, hi, lo, hi]}


_ORIGIN = ([0, 1], [0, 1])
REJECTED_SCENES = {
    "frame": _scene(_circle(*_ORIGIN, [5, 2], 1), [], 2),
    # x^2 + y^2 - 8 meets the frame only at its corners (+-2, +-2)
    "frame_corners": _scene({"curve": {"type": "polynomial", "coeffs": [
        [2, 0, 1, 1], [0, 2, 1, 1], [0, 0, -8, 1]]}, "inside_sign": 1}, [], 2),
    "outside": _scene(_circle([10, 1], [1, 2], [1, 1], 1), [], 4),
    "hole_outside": _scene(_circle(*_ORIGIN, [2, 1], 1),
                           [_circle([8, 1], [0, 1], [1, 2], -1)], 10),
    "nested_holes": _scene(_circle(*_ORIGIN, [6, 1], 1),
                           [_circle(*_ORIGIN, [3, 1], -1),
                            _circle([1, 2], [-1, 3], [1, 1], -1)], 8),
    "overlapping_holes": _scene(_circle(*_ORIGIN, [5, 1], 1),
                                [_circle(*_ORIGIN, [1, 1], -1),
                                 _circle([1, 1], [0, 1], [1, 1], -1)], 6, ((0, 1), (1, 1))),
    # (x^2 + y^2)^2 - x^2 + y^2: singular at the origin
    "nodal_quartic": _scene({"curve": {"type": "polynomial", "coeffs": [
        [4, 0, 1, 1], [2, 2, 2, 1], [0, 4, 1, 1], [2, 0, -1, 1], [0, 2, 1, 1]]},
        "inside_sign": 1}, [], 2),
    "radial_centre_in_x": {**_scene(_circle(*_ORIGIN, [4, 1], 1),
                                    [_circle(*_ORIGIN, [1, 1], -1)], 5),
                           "field": {"kind": "radial", "center": [[2, 1], [0, 1]]}},
}


def holes_doc(n):
    """The stress scene holesN: n holes of radius 1/3 in a disk of radius
    3n/2 + 6 under the field (3, 7).  Hole i has centre ((2x + i mod 3)/2,
    (2y + 1)/3) with x = 3i + 1 - 3(n // 2) and y = (7i mod 5) - 2; the
    bbox is +-(3n/2 + 8)."""
    def circle(cx, cy, r, sign):
        return {"curve": {"type": "circle", "center": [cx, cy], "radius": r},
                "inside_sign": sign}

    holes = []
    for i in range(n):
        x = 3 * i + 1 - 3 * (n // 2)
        y = (7 * i) % 5 - 2
        holes.append(circle([2 * x + i % 3, 2], [2 * y + 1, 3], [1, 3], -1))
    lo, hi = [-(3 * n + 16), 2], [3 * n + 16, 2]
    return {"field": {"kind": "constant", "direction": [[3, 1], [7, 1]]},
            "outer": circle([0, 1], [0, 1], [3 * n + 12, 2], 1),
            "holes": holes, "bbox": [lo, hi, lo, hi]}


def deg_doc(d):
    """The stress scene degD: the curve x^d + y^d + x^(d-3) y^3 / 7 - 30
    under the field (3, 7), bbox +-4."""
    coeffs = [[d, 0, 1, 1], [0, d, 1, 1], [d - 3, 3, 1, 7], [0, 0, -30, 1]]
    lo, hi = [-4, 1], [4, 1]
    return {"field": {"kind": "constant", "direction": [[3, 1], [7, 1]]},
            "outer": {"curve": {"type": "polynomial", "coeffs": coeffs}, "inside_sign": 1},
            "holes": [], "bbox": [lo, hi, lo, hi]}


def scene_digest(path, tmp):
    outs = [tmp / "report.json", tmp / "scene.dot", tmp / "scene.svg"]
    for out in outs:
        out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["analyze", str(path), "--out", str(outs[0]),
                         "--dot", str(outs[1]), "--svg", str(outs[2])])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for out in outs:
        h.update(out.read_bytes() if out.exists() else b"<none>")
        h.update(b"\0")
    return h.hexdigest()


def oracle_digest(magnitude):
    patterns = [p for p in omega.enumerate_patterns(7) if omega.norm(p) <= 8]
    h = hashlib.sha256()
    for p in patterns:
        observed, _, _ = local_model.oracle_containment(p, 200, magnitude, seed=0)
        h.update(f"{p} {sorted(observed)}\n".encode())
    return h.hexdigest(), len(patterns)


def kernel_digest(count=600, seed=0):
    """sha256 over the Sturm chains and the gcd of ``count`` seeded pairs
    p = s f_1^e_1 ... and q = s g_1^k_1 ..., with s and every factor of
    degree 1-3 and coefficients in [-5, 5], one or two factors on each side
    and powers 1-2."""
    rng = random.Random(seed)

    def factor():
        while True:
            f = zp(rng.randint(-5, 5) for _ in range(rng.randint(2, 4)))
            if len(f) >= 2:
                return f

    def product(shared):
        p = shared
        for _ in range(rng.randint(1, 2)):
            f = factor()
            for _ in range(rng.randint(1, 2)):
                p = zp_mul(p, f)
        return p

    h = hashlib.sha256()
    for _ in range(count):
        shared = factor()
        p, q = product(shared), product(shared)
        h.update(f"{p} {q} {sturm_chain(p)} {sturm_chain(q)} {zp_gcd(p, q)}\n".encode())
    return h.hexdigest(), count


def subres_digest(count=300, seed=0):
    """sha256 over ``count`` seeded pairs P, Q in ZZ[c][s] with s-degrees
    0-5 in every order, half of them sparse in s and a fifth sharing a factor
    of s-degree 1-2: their resultant and, at a seeded rational and a seeded
    quadratic alpha, the gcd degree and entry of the signed subresultant
    sequence of both (larger s-degree first, each truncated at alpha) and the
    real-root count of P(alpha, s)."""
    rng = random.Random(seed)

    def column(nonzero=False):
        while True:
            co = zp(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
            if co or not nonzero:
                return co

    def spoly(deg):
        sparse = rng.random() < 0.5
        return SPoly([column() if not sparse or rng.random() < 0.5 else ()
                      for _ in range(deg)] + [column(nonzero=True)])

    def times(P, F):
        out = [()] * (len(P.coeffs) + len(F.coeffs))
        for i, a in enumerate(P.coeffs):
            for j, b in enumerate(F.coeffs):
                out[i + j] = zp_add(out[i + j], zp_mul(a, b))
        return SPoly(out)

    h = hashlib.sha256()
    for _ in range(count):
        P, Q = spoly(rng.randint(0, 5)), spoly(rng.randint(0, 5))
        if rng.random() < 0.2:
            F = spoly(rng.randint(1, 2))
            P, Q = times(P, F), times(Q, F)
        h.update(f"{P.coeffs} {Q.coeffs} {sylvester_resultant(P, Q)}\n".encode())
        d, b = rng.choice([2, 3, 5, 6, 7]), rng.randint(-2, 2)
        quadratic = zp([b * b - d, -2 * b, 1])          # roots b +- sqrt(d)
        for alpha in (AlgebraicNumber.from_rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
                      AlgebraicNumber(quadratic, *rng.choice(isolate_real_roots(quadratic)))):
            A, B = P.truncated(alpha), Q.truncated(alpha)
            if A.degree_s() < B.degree_s():
                A, B = B, A
            k, g = SturmHabicht(A, B).gcd(alpha)
            roots = SturmHabicht(P).at(alpha).real_root_count(alpha)
            h.update(f"{k} {g.coeffs} {roots}\n".encode())
    return h.hexdigest(), count


MARCH_GRIDS = [((-4, 4, -4, 4), 160), ((-2, 2, -2, 2), 33), ((-3, 5, -1, 2), 64),
               ((Fraction(-7, 3), Fraction(11, 5), Fraction(-3, 2), Fraction(7, 4)), 17)]


def march_digest(count=24, seed=0):
    """sha256 over ``render._marching_segments`` of ``count`` seeded lists of
    1-3 curves of degree 1-6, numerators up to 2^80 of either sign over
    denominators 1-9, on each box and grid size of MARCH_GRIDS (square and
    not), and of -x^60 on (0, 16/10^6) x (-1, 1), where N / D is below the
    least subnormal and rounds to -0.0."""
    rng = random.Random(seed)

    def terms():
        deg = rng.randint(1, 6)
        keys = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
        return {k: Fraction(rng.randint(-2**80, 2**80), rng.randint(1, 9))
                for k in rng.sample(keys, rng.randint(1, min(8, len(keys))))}

    h = hashlib.sha256()
    for _ in range(count):
        curves = [curve_from_terms(terms()) for _ in range(rng.randint(1, 3))]
        for box, n in MARCH_GRIDS:
            h.update(f"{render._marching_segments(curves, [Fraction(v) for v in box], n)}\n"
                     .encode())
    tiny = [curve_from_terms({(60, 0): -1})]
    h.update(f"{render._marching_segments(tiny, (0, Fraction(16, 10**6), -1, 1), 16)}\n".encode())
    return h.hexdigest(), count


ALG_WIDTHS = [Fraction(1, 3), Fraction(1, 1024), Fraction(1, 10**12), Fraction(1, 10**30)]


def alg_digest(count=60, seed=0):
    """sha256 over ``AlgebraicNumber`` results on the real roots of
    ``count`` seeded polynomials of degree 1-12 with coefficients of 4, 30 or
    200 bits, a third of them times 2^j u - n, n odd and j in 1-45; the root
    n/2^j comes once more on 2^j u - n with integer ends 4 apart, so that
    bisection hits it at step j + 2.  For each root, in this order: the
    interval and lo sign after ``refine_below`` at each of ALG_WIDTHS,
    ``float``, the signs of three seeded polynomials (one of them the
    defining one times another plus a third), the ratio intervals of two
    pairs at widths 1/4 and 10^-12, and ``nonvanishing_interval`` of two
    polynomials inside the interval widened by 1 on each side."""
    rng = random.Random(seed)

    def small(nonzero_at=None):
        while True:
            q = zp(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
            if q and (nonzero_at is None or zp_degree(zp_gcd(nonzero_at, q)) < 1):
                return q

    h = hashlib.sha256()
    roots = 0
    for _ in range(count):
        bits = rng.choice([4, 30, 200])
        p = zp(rng.randint(-2**bits, 2**bits) for _ in range(rng.randint(2, 13)))
        alphas = []
        if rng.random() < 1 / 3:
            r = Fraction(2 * rng.randint(-2**40, 2**40) + 1, 2**rng.randint(1, 45))
            lo = r.numerator // r.denominator - rng.randint(0, 2)
            alphas.append(AlgebraicNumber(zp([-r.numerator, r.denominator]), lo, lo + 4))
            p = zp_mul(p, alphas[0].poly)
        if len(p) >= 2:
            alphas += [alpha for alpha, _ in real_roots_with_multiplicities(p)]
        for alpha in alphas:
            roots += 1
            out = []
            for width in ALG_WIDTHS:
                alpha.refine_below(width)
                out.append((alpha.lo, alpha.hi, alpha._lo_sign))
            out.append(float(alpha))
            f = alpha.poly
            out.append([alpha.sign_of(q) for q in (small(), zp_add(zp_mul(f, small()), small()),
                                                    zp_mul(small(), small()))])
            for width in (Fraction(1, 4), Fraction(1, 10**12)):
                out.append(alpha.ratio_interval(small(), small(f), width))
            qs = [small(f), small(f)]
            out.append(alpha.nonvanishing_interval(qs, alpha.lo - 1, alpha.hi + 1))
            out.append((alpha.lo, alpha.hi, alpha._lo_sign))
            h.update(f"{p} {out}\n".encode())
    return h.hexdigest(), roots


def digest_lines():
    """Yield the digest lines in order, each "sha256  label"."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for d in SCENE_DIRS:
            for path in sorted(d.glob("*.json")):
                yield f"{scene_digest(path, tmp)}  {path.relative_to(ROOT)}"
        seam = tmp / "seamhole.json"
        seam.write_text(json.dumps(SEAM_SCENE))
        yield f"{scene_digest(seam, tmp)}  seam: radial scene rotated by 1/7"
        holes = tmp / "holes8.json"
        holes.write_text(json.dumps(holes_doc(8)))
        yield f"{scene_digest(holes, tmp)}  holes8: 8 holes under (3,7)"
        deg = tmp / "deg10.json"
        deg.write_text(json.dumps(deg_doc(10)))
        yield f"{scene_digest(deg, tmp)}  deg10: degree-10 curve under (3,7)"
        h = hashlib.sha256()
        for name, doc in REJECTED_SCENES.items():
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(doc))
            h.update(f"{name} {scene_digest(path, tmp)}\n".encode())
        yield f"{h.hexdigest()}  rejected: {len(REJECTED_SCENES)} scenes that fail validation"
    h = hashlib.sha256()
    for n in range(7):
        h.update(omega.export_hasse_dot(omega.build_poset(n)).encode())
    yield f"{h.hexdigest()}  poset: Hasse DOT for n = 0..6"
    digest, count = oracle_digest(Fraction(1, 1000))
    yield f"{digest}  oracle: {count} patterns of norm <= 8"
    digest, count = oracle_digest(Fraction(1, 2))
    yield f"{digest}  oracle: {count} patterns of norm <= 8, magnitude 1/2"
    digest, count = oracle_digest(Fraction(3))
    yield f"{digest}  oracle: {count} patterns of norm <= 8, magnitude 3"
    digest, count = kernel_digest()
    yield f"{digest}  kernel: Sturm chains and gcds of {count} pairs with shared factors"
    digest, count = subres_digest()
    yield f"{digest}  subres: resultants, gcds and root counts of {count} pairs over Z[c]"
    digest, count = march_digest()
    yield f"{digest}  march: marching squares on {count} seeded curve lists and -x^60"
    digest, count = alg_digest()
    yield f"{digest}  alg: algebraic numbers at {count} roots of seeded polynomials"


def main():
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
