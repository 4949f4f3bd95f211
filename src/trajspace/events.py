"""Per-component tangency analysis along a line family.

For a boundary curve F and the family line_c(s), the restriction
G(c, s) = F(line_c(s)) has tangency parameters among the real roots of
Res_s(G, dG/ds).  At each such root alpha the gcd of G(alpha, .) and its
s-derivative classifies the coincidence exactly.  Its degree and an entry
that specialises to it come from the signed subresultant sequence of G and
dG/ds, computed once over ZZ[c] (``bivar.SturmHabicht.gcd``):

  deg gcd = 1   one real double root (an honest order-2 tangency) at
                s* = -S_{1,0}(alpha) / S_{1,1}(alpha), S_1 the gcd entry
  deg gcd >= 2  a real multiple root of the gcd (``bivar.common_real_root``
                with its derivative) and the gcd's real-root count tell a
                harmless complex coincidence from a non-generic real one

No arithmetic in QQ(alpha) is ever needed; everything reduces to signs of
integer polynomials at isolated algebraic numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .bivar import SPoly, SturmHabicht, common_real_root
from .polys import zp_neg, zp_squarefree_part
from .realroots import AlgebraicNumber, isolate_real_roots


class DegenerateScene(Exception):
    """The scene is not traversally generic; carries an exact witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness  # (description, float approx, interval) or None

    def witness_dict(self):
        if self.witness is None:
            return None
        desc, approx, interval = self.witness
        return {
            "description": desc,
            "parameter": approx,
            "interval": [str(interval[0]), str(interval[1])],
        }


class ParamEvent:
    """A real order-2 tangency of one component at one sweep parameter."""

    __slots__ = ("component", "chart", "alpha", "tangent")

    def __init__(self, component, chart, alpha, tangent: SPoly):
        self.component = component      # component index in the scene
        self.chart = chart              # 0 (constant field) | 0/1 (radial)
        self.alpha = alpha              # AlgebraicNumber, sweep parameter
        self.tangent = tangent          # S_1: gcd(G, G_s) at alpha, s* its root

    def s_star_sign(self) -> int:
        """Sign of the tangent point's line coordinate s*."""
        c0, c1 = self.tangent.coeffs
        return -self.alpha.sign_of(c0) * self.alpha.sign_of(c1)

    def s_star_interval(self, width: Fraction):
        """Rationals lo <= s* <= hi with hi - lo <= width."""
        c0, c1 = self.tangent.coeffs
        return self.alpha.ratio_interval(zp_neg(c0), c1, width)


def classify_parameter(seq: SturmHabicht, comp_idx: int, chart: int,
                       alpha: AlgebraicNumber):
    """Classify one root of Res_s(G, G_s), where ``seq`` is the sequence of G:
    ParamEvent, None, or DegenerateScene."""
    k, g = seq.at(alpha).gcd(alpha)
    if k <= 0:
        return None
    if k == 1:
        return ParamEvent(comp_idx, chart, alpha, g)
    witness = ("component %d" % comp_idx, float(alpha), (alpha.lo, alpha.hi))
    # k >= 2: decide what is real.  A multiple root of the gcd is a root of
    # multiplicity > 2 of G itself; a square-free gcd with several real roots
    # means simultaneous tangencies; all-complex coincidences are harmless.
    if common_real_root(g, g.ds(), alpha):
        raise DegenerateScene("tangency of multiplicity > 2", witness)
    nreal = SturmHabicht(g).real_root_count(alpha)
    if nreal >= 2:
        raise DegenerateScene("two simultaneous tangencies at one sweep parameter",
                              witness)
    if nreal == 0:
        return None
    raise DegenerateScene(
        "unresolved real/complex tangency coincidence (gcd degree %d)" % k, witness)


def multiple_root_params(G: SPoly):
    """Square-free part of Res_s(G, G_s), its real roots, and the signed
    subresultant sequence of G; (None, [], None) when the resultant vanishes."""
    seq = SturmHabicht(G)
    if not seq.resultant:
        return None, [], None
    rsf = zp_squarefree_part(seq.resultant)
    params = [AlgebraicNumber(rsf, lo, hi) for lo, hi in isolate_real_roots(rsf)]
    return rsf, params, seq


def component_events(G: SPoly, comp_idx: int, chart: int,
                     lo: Fraction, hi: Fraction):
    """All real tangency events of one restricted component in (lo, hi).

    Returns (events, resultant_squarefree).  Resultant roots at the interval
    ends are the caller's problem (seam collisions get a chart rotation).
    """
    rsf, params, seq = multiple_root_params(G)
    if rsf is None:
        raise DegenerateScene(
            "identically tangent family (vanishing resultant) on component %d" % comp_idx,
            ("component %d" % comp_idx, None, (lo, hi)),
        )
    events = []
    for alpha in params:
        if alpha.compare_rational(lo) <= 0 or alpha.compare_rational(hi) >= 0:
            continue
        ev = classify_parameter(seq, comp_idx, chart, alpha)
        if ev is not None:
            events.append(ev)
    return events, rsf
