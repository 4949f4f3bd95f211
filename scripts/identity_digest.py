#!/usr/bin/env python3
"""Print one sha256 per scene over its report, DOT and SVG, and one over
the sampling oracle.

Covers every fixture, degenerate fixture and tilted benchmark scene.  Each
scene goes through `trajspace analyze --svg --dot` in process; the digest
covers the exit code and the three outputs (a rejected scene has only a
report).  The last line covers the oracle's observed pattern sets for all
30 patterns of norm <= 8 (200 samples of magnitude 1/1000, seed 0), which
depend on root isolation but on no scene.  Run it on two checkouts and diff
the outputs to show that a change keeps every output byte for byte:

    PYTHONPATH=src python scripts/identity_digest.py > digests.txt
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
from fractions import Fraction

from trajspace import local_model, omega
from trajspace.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENE_DIRS = [ROOT / "fixtures", ROOT / "fixtures" / "degenerate",
              ROOT / "perfbench" / "scenes" / "tilted"]


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


def oracle_digest():
    patterns = [p for p in omega.enumerate_patterns(7) if omega.norm(p) <= 8]
    h = hashlib.sha256()
    for p in patterns:
        observed, _, _ = local_model.oracle_containment(p, 200, Fraction(1, 1000), seed=0)
        h.update(f"{p} {sorted(observed)}\n".encode())
    return h.hexdigest(), len(patterns)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for d in SCENE_DIRS:
            for path in sorted(d.glob("*.json")):
                name = path.relative_to(ROOT)
                print(f"{scene_digest(path, pathlib.Path(tmp))}  {name}", flush=True)
    digest, count = oracle_digest()
    print(f"{digest}  oracle: {count} patterns of norm <= 8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
