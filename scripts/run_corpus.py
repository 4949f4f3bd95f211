#!/usr/bin/env python3
"""Analyze every generic fixture and tabulate the vertex-density ratios.

The running minimum of #vertices / ||[DX]|| over scenes with nonzero
simplicial volume is the corpus's empirical upper bound for the universal
density constant; the three-hole radial annulus realizes 1/2.
"""

import pathlib
import sys
import time
from fractions import Fraction

from trajspace import geometry, report

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SCENES = ["disk.json", "disk1.json", "disk2.json", "disk3.json", "disk4.json",
          "annulus3.json", "fig1.json"]


def main():
    best = None
    print(f"{'scene':<16}{'V':>4}{'E':>4}{'t2':>4}{'t121':>6}{'genus':>7}"
          f"{'volume':>8}{'ratio':>8}{'checks':>8}{'time':>8}")
    for name in SCENES:
        t0 = time.time()
        doc = report.analyze_scene(geometry.load_scene(str(FIXTURES / name)))
        ts, rep = doc["trajectory_space"], doc["bounds"]
        ratio = rep["rho1_ratio"]
        if ratio is not None:
            best = Fraction(ratio) if best is None else min(best, Fraction(ratio))
        print(f"{name:<16}{ts['vertices']:>4}{ts['edges']:>4}"
              f"{ts['pattern_counts']['2']:>4}{ts['pattern_counts']['121']:>6}"
              f"{rep['genus_DX']:>7}{rep['simplicial_volume_DX']:>8}"
              f"{ratio if ratio is not None else '-':>8}"
              f"{'PASS' if rep['all_pass'] else 'FAIL':>8}"
              f"{time.time() - t0:>7.2f}s")
    print(f"\nbest density ratio over the corpus: {best}"
          f" (conjecturally tight at 1/2)")
    return 0 if best is not None and best <= Fraction(1, 2) else 1


if __name__ == "__main__":
    sys.exit(main())