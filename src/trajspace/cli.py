"""Command-line front end.

Subcommands:
  analyze          scene file -> JSON report (stdout or --out)
  enumerate-omega  pattern listing or Hasse DOT for reduced norm <= N
  export           SVG of the scene and/or DOT of the trajectory graph
  oracle           perturbation-sampling check of one pattern's resolutions

Exit codes: 0 all checks pass, 2 the scene is not traversally generic,
1 I/O, parse, or validation failure, 3 an internal error or a spent budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__, homology, local_model, omega, render, report, sweep, validate
from .events import DegenerateScene
from .geometry import SceneError, load_scene
from .realroots import BudgetExceeded


def _emit(doc, out_path):
    text = report.render_report(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_doc(code, message, extra=None):
    doc = {"error": code, "message": message}
    if extra:
        doc.update(extra)
    return doc


def cmd_analyze(args) -> int:
    try:
        return _analyze(args)
    except OSError as exc:  # --out, --svg or --dot could not be written
        sys.stdout.write(report.render_report(_error_doc("IO", str(exc))))
        return 1


def _analyze(args) -> int:
    try:
        scene = load_scene(args.scene)
    except SceneError as exc:
        _emit(_error_doc("PARSE", str(exc)), args.out)
        return 1
    except OSError as exc:
        _emit(_error_doc("IO", str(exc)), args.out)
        return 1
    try:
        doc, graph = report.analyze_scene_with_graph(scene, seed=args.seed)
    except report.AnalysisError as exc:
        payload = dict(exc.payload)
        payload["error"] = exc.code
        _emit(payload, args.out)
        return 1 if exc.code == "VALIDATION" else 2
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render.scene_svg(scene, graph))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot())
    _emit(doc, args.out)
    if args.strict and not doc["bounds"]["all_pass"]:
        return 1
    return 0


def cmd_enumerate_omega(args) -> int:
    if args.n < 0 or args.n > 6:
        sys.stderr.write("n must be between 0 and 6\n")
        return 1
    if args.dot:
        sys.stdout.write(omega.export_hasse_dot(omega.build_poset(args.n)))
        return 0
    flagged = False
    for p in omega.enumerate_patterns(args.n):
        mark = ""
        if len(p) == 1 and p[0] >= 4:
            # admissible by the parity rule, though a lone quartic-or-higher
            # contact rarely shows up in worked low-dimensional examples
            mark = "  *"
            flagged = True
        sys.stdout.write(
            f"{omega.format_pattern(p)}  norm={omega.norm(p)}  reduced={omega.reduced_norm(p)}{mark}\n")
    if flagged:
        sys.stdout.write("* single even contact of order >= 4: admissible by the "
                         "parity rule; flagged for review\n")
    return 0


def cmd_export(args) -> int:
    try:
        scene = load_scene(args.scene)
    except (SceneError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    failures = validate.validate_scene(scene).failures()
    if failures:
        for name, detail in failures:
            sys.stderr.write(f"validation failed: {name}: {detail}\n")
        return 1
    try:
        graph = sweep.build_trajectory_space(scene)
    except DegenerateScene as exc:
        sys.stderr.write(f"degenerate scene: {exc.reason}\n")
        return 2
    try:
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render.scene_svg(scene, graph))
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph.to_dot())
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def _positive_rational(text):
    """Fraction(text) if text is a positive p/q or decimal, else None.

    Exponents have at most three digits: Fraction("1e-999999999") would
    spend minutes building a huge integer.
    """
    if not re.fullmatch(r"\+?(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][+-]?\d{1,3})?)", text):
        return None
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return value if value > 0 else None


def cmd_oracle(args) -> int:
    try:
        pattern = omega.check_pattern(int(ch) for ch in args.pattern)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    magnitude = _positive_rational(args.magnitude)
    if magnitude is None:
        sys.stderr.write(f"error: --magnitude must be a positive rational such as 1/1000, "
                         f"not {args.magnitude!r}\n")
        return 1
    if args.samples < 1:
        sys.stderr.write(f"error: --samples must be at least 1, not {args.samples}\n")
        return 1
    observed = local_model.sampled_patterns(pattern, args.samples, magnitude, seed=args.seed)
    resolved = omega.resolutions(pattern)
    doc = {
        "pattern": omega.format_pattern(pattern),
        "samples": args.samples,
        "magnitude": str(magnitude),
        "seed": args.seed,
        "observed": sorted("[" + " ".join(omega.format_pattern(p) for p in seq) + "]"
                           for seq in observed),
        "resolution_count": len(resolved),
        "containment": "PASS" if observed <= resolved else "FAIL",
        "chamber_count": local_model.chamber_count(observed),
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if doc["containment"] == "PASS" else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="trajspace",
                                 description="exact analyzer for traversing flows on planar domains")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full pipeline on a scene file")
    a.add_argument("scene")
    a.add_argument("--out", help="write the JSON report here instead of stdout")
    a.add_argument("--svg", help="also write a scene figure")
    a.add_argument("--dot", help="also write the trajectory-space DOT")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--strict", action="store_true",
                   help="exit 1 if any bound check fails")
    a.set_defaults(func=cmd_analyze)

    e = sub.add_parser("enumerate-omega", help="tangency patterns of reduced norm <= N")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--dot", action="store_true", help="emit the Hasse DOT instead")
    e.set_defaults(func=cmd_enumerate_omega)

    x = sub.add_parser("export", help="figures for a scene")
    x.add_argument("scene")
    x.add_argument("--svg")
    x.add_argument("--dot")
    x.set_defaults(func=cmd_export)

    o = sub.add_parser("oracle", help="sampling check of a pattern's resolutions")
    o.add_argument("--pattern", required=True, help="digits, e.g. 1221")
    o.add_argument("--samples", type=int, default=200)
    o.add_argument("--magnitude", default="1/1000")
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(func=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (sweep.MatchingAmbiguous, homology.BoundaryMismatch, BudgetExceeded) as exc:
        code = "BUDGET" if isinstance(exc, BudgetExceeded) else "INTERNAL"
        if args.command == "analyze":
            _emit(_error_doc(code, str(exc)), args.out)
        else:
            sys.stderr.write(f"error: {code}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())