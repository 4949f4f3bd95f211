"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of the freshly imported
trajspace modules with wrappers that count calls and time them, and puts the
originals back afterwards.  An entry point the program no longer has (say,
FieldElement once Q(alpha) arithmetic is gone) is listed as missing and its
metrics read 0.  A function imported into several modules with
``from .x import f`` is wrapped in every module that binds it.  Only the
outermost call of a name is timed, so recursion is not counted twice.
Coarse layers also leave a span (operation, name, start, end, parent); hot
primitives (sign_of, refine, gcd, division) are aggregated per operation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# per-layer metric -> unit; the order is the order of BENCHMARK.json
METRICS = {
    "validate.validate_s": "s",
    "events.events_s": "s",
    "events.count": "count",
    "events.resultant_bits_max": "bits",
    "sweep.match_s": "s",
    "sweep.vertices": "count",
    "sweep.edges": "count",
    "realroots.sign_of_calls": "count",
    "realroots.sign_of_s": "s",
    "realroots.refine_calls": "count",
    "realroots.field_elements": "count",
    "realroots.field_gcd_s": "s",
    "realroots.roots_calls": "count",
    "realroots.roots_s": "s",
    "polys.divmod_calls": "count",
    "polys.gcd_calls": "count",
    "local_model.sample_s": "s",
    "omega.resolutions_s": "s",
    "omega.poset_s": "s",
    "strata.strata_s": "s",
    "homology.homology_s": "s",
    "bounds.bounds_s": "s",
    "report.json_s": "s",
    "render.svg_s": "s",
    "render.dot_s": "s",
    "cli.import_s": "s",
}


class Tracer:
    def __init__(self):
        self.op = None
        self.calls = defaultdict(lambda: defaultdict(int))      # op -> name -> calls
        self.seconds = defaultdict(lambda: defaultdict(float))  # op -> name -> outermost time
        self.values = defaultdict(lambda: defaultdict(int))     # op -> counter -> value
        self.spans = []
        self._depth = defaultdict(int)
        self._open = []
        self._t0 = time.perf_counter()
        self._undo = []
        self.missing = []   # entry points this version of the program lacks

    def start(self, op):
        """Attribute what follows to ``op``.  Nesting state is reset, since an
        operation stopped by its budget may leave it half updated."""
        self.op = op
        self._depth.clear()
        self._open.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, timed=True, span=False, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            tracer.calls[op][name] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                outer = tracer._depth[name] == 0
                tracer._depth[name] += 1
                if span and outer:
                    parent = tracer._open[-1] if tracer._open else op
                    tracer._open.append(name)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._depth[name] -= 1
                    if outer:
                        tracer.seconds[op][name] += t1 - t0
                        if span:
                            tracer._open.pop()
                            tracer.spans.append({"op": op, "name": name, "parent": parent,
                                                 "start": t0 - tracer._t0, "end": t1 - tracer._t0})
            if after is not None:
                after(tracer.values[op], args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module, attr, name, everywhere=True, **kw):
        """Wrap module.attr, in every trajspace module that binds it."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._wrap(name, orig, **kw)
        owners = ([m for n, m in sorted(sys.modules.items())
                   if n == "trajspace" or n.startswith("trajspace.")]
                  if everywhere else [module])
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._patch(owner, key, wrapper)

    def wrap_method(self, module, cls_name, attr, name, **kw):
        cls = getattr(module, cls_name, None)
        if cls is None or attr not in cls.__dict__:
            self.missing.append(f"{module.__name__}.{cls_name}.{attr}")
            return
        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], **kw))

    def install(self, prog):
        """Wrap the public entry points of each layer of the program."""
        realroots = prog.realroots
        self.wrap_function(prog.validate, "validate_scene", "validate", span=True)
        # the body of sweep.tangency_events, which build_trajectory_space calls directly
        self.wrap_function(prog.sweep, "_events_and_charts", "events", span=True,
                           after=_count_events)
        self.wrap_function(prog.events, "sylvester_resultant", "resultant", everywhere=False,
                           after=_resultant_bits)
        self.wrap_function(prog.sweep, "build_trajectory_space", "sweep", span=True,
                           after=_count_graph)
        self.wrap_method(realroots, "AlgebraicNumber", "sign_of", "sign_of")
        self.wrap_method(realroots, "AlgebraicNumber", "refine", "refine", timed=False)
        self.wrap_method(realroots, "FieldElement", "__init__", "field_element", timed=False)
        self.wrap_method(realroots, "FieldPoly", "gcd", "field_gcd")
        self.wrap_function(realroots, "real_roots_with_multiplicities", "roots")
        self.wrap_function(prog.polys, "qp_divmod", "divmod", timed=False)
        self.wrap_function(prog.polys, "zp_gcd", "gcd", timed=False)
        self.wrap_function(prog.local_model, "sampled_patterns", "sample", span=True,
                           after=_count_samples)
        self.wrap_function(prog.omega, "resolutions", "resolutions")
        self.wrap_function(prog.omega, "build_poset", "poset", span=True)
        self.wrap_function(prog.strata, "build_strata", "strata", span=True)
        for entry in ("graph_chain_complex", "graph_homology_ranks", "cw_complex_of_double"):
            self.wrap_function(prog.homology, entry, "homology", span=True)
        self.wrap_function(prog.bounds, "check_all", "bounds", span=True)
        self.wrap_function(prog.report, "render_report", "json", span=True)
        self.wrap_function(prog.render, "scene_svg", "svg", span=True)
        self.wrap_method(prog.sweep, "TrajectoryGraph", "to_dot", "dot", span=True)
        self.wrap_method(prog.omega, "PatternPoset", "to_dot", "dot", span=True)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, exclude=()):
        """Totals over the traced operations not in ``exclude`` (failed ones,
        whose partial work would not repeat from run to run)."""
        ops = [op for op in set(self.calls) | set(self.values) if op not in exclude]

        def n(name):
            return sum(self.calls[op][name] for op in ops)

        def s(name):
            return sum(self.seconds[op][name] for op in ops)

        def v(key):
            return sum(self.values[op][key] for op in ops)

        samples = v("samples")
        return {
            "validate.validate_s": s("validate"),
            "events.events_s": s("events"),
            "events.count": v("events"),
            "events.resultant_bits_max": max((self.values[op]["resultant_bits"] for op in ops),
                                             default=0),
            "sweep.match_s": s("sweep") - s("events"),
            "sweep.vertices": v("vertices"),
            "sweep.edges": v("edges"),
            "realroots.sign_of_calls": n("sign_of"),
            "realroots.sign_of_s": s("sign_of"),
            "realroots.refine_calls": n("refine"),
            "realroots.field_elements": n("field_element"),
            "realroots.field_gcd_s": s("field_gcd"),
            "realroots.roots_calls": n("roots"),
            "realroots.roots_s": s("roots"),
            "polys.divmod_calls": n("divmod"),
            "polys.gcd_calls": n("gcd"),
            "local_model.sample_s": s("sample") / samples if samples else 0.0,
            "omega.resolutions_s": s("resolutions"),
            "omega.poset_s": s("poset"),
            "strata.strata_s": s("strata"),
            "homology.homology_s": s("homology"),
            "bounds.bounds_s": s("bounds"),
            "report.json_s": s("json"),
            "render.svg_s": s("svg"),
            "render.dot_s": s("dot"),
        }

    def per_op(self):
        ops = sorted(set(self.calls) | set(self.values), key=str)
        return {op: {"calls": dict(self.calls[op]), "seconds": dict(self.seconds[op]),
                     "values": dict(self.values[op])} for op in ops}


def _count_events(values, args, result):
    values["events"] += len(result[0])


def _resultant_bits(values, args, result):
    bits = max((abs(c).bit_length() for c in result), default=0)
    values["resultant_bits"] = max(values["resultant_bits"], bits)


def _count_graph(values, args, result):
    values["vertices"] += result.vertex_count
    values["edges"] += result.edge_count


def _count_samples(values, args, result):
    values["samples"] += args[1]
