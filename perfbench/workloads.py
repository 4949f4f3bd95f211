"""The four workloads: their inputs, operations, output checks and CLI command.

Each workload function takes the freshly imported program (a namespace of
trajspace modules), the checkout root and the seed, and returns a Workload.
The seed fixes every drawn input: the order of the operations in a round,
the oracle's perturbation samples, and which of them sympy re-checks.
Scenes are fixed files, so one seed costs about what another does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

OP_BUDGET_S = 30.0     # wall budget of an operation; a failure is charged this
SEXTIC_BUDGET_S = 3.0  # the degree-6 tilted scene: known to stall (see README)
ORACLE_SAMPLES = 200
ORACLE_MAGNITUDE = Fraction(1, 1000)
ORACLE_SYMPY_SAMPLES = 1   # per pattern, re-solved with sympy
HASSE_N = 6
DEGENERATE = {"double_tangent", "quartic_flat"}
# Operations that take well under 0.1 s are timed over several back-to-back
# calls, so that one sample spans about 0.2 s; each call counts as attempted.
REPEAT = {"analyze:annulus0": 8, "analyze:quartic_flat": 8, "analyze:double_tangent": 4,
          "analyze:disk": 4, f"hasse:{HASSE_N}": 4}


@dataclass
class Op:
    name: str
    fn: Callable[[], object]
    budget: float = OP_BUDGET_S   # per call

    @property
    def repeat(self):
        return REPEAT.get(self.name, 1)


@dataclass
class Workload:
    ops: list
    check: Callable[[dict], list]            # outputs by op name -> problems
    cli_args: list                           # one representative `trajspace` command
    check_cli: Callable[[str, dict], list]   # (stdout, outputs) -> problems


def _shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


# --- corpus and tilted: the analysis pipeline --------------------------------

def _analysis(prog, root, paths, seed, cli_scene, budgets=None):
    budgets = budgets or {}
    report = prog.report
    scenes = {p.stem: (p, prog.geometry.load_scene(str(p))) for p in paths}

    def analyze(scene):
        try:
            return "ok", report.render_report(report.analyze_scene(scene, seed=seed))
        except report.AnalysisError as exc:
            return exc.code, report.render_report(exc.payload)

    ops = [Op(f"analyze:{stem}", lambda s=scene: analyze(s), budgets.get(stem, OP_BUDGET_S))
           for stem, (_, scene) in scenes.items()]

    def check(outputs):
        problems = []
        for stem, (path, _) in scenes.items():
            name = f"analyze:{stem}"
            if name not in outputs:
                continue  # failed operation: counted, not checked
            status, text = outputs[name]
            if stem in DEGENERATE:
                found = checks.check_degenerate(status, text)
            elif status != "ok":
                found = [f"rejected as {status}"]
            else:
                scene_doc = json.loads(path.read_text())
                found = checks.check_report(text, scene_doc, checks.tangency_counts(scene_doc))
            problems += [f"{name}: {p}" for p in found]
        return problems

    cli_path = scenes[cli_scene][0]

    def check_cli(stdout, outputs):
        name = f"analyze:{cli_scene}"
        if name in outputs and stdout != outputs[name][1]:
            return [f"`trajspace analyze {cli_path.name}` differs from the in-process report"]
        return []

    cli = ["analyze", str(cli_path.relative_to(root)), "--seed", str(seed)]
    return Workload(_shuffled(ops, seed), check, cli, check_cli)


def corpus(prog, root, seed):
    paths = (sorted((root / "fixtures").glob("*.json"))
             + sorted((root / "fixtures" / "degenerate").glob("*.json")))
    return _analysis(prog, root, paths, seed, cli_scene="disk2")


def tilted(prog, root, seed):
    paths = sorted((root / "perfbench" / "scenes" / "tilted").glob("*.json"))
    return _analysis(prog, root, paths, seed, cli_scene="fig1outer_12",
                     budgets={"sextic_37": SEXTIC_BUDGET_S})


# --- oracle: the univariate kernel -------------------------------------------

def _oracle_samples(pattern, seed):
    """The parameter draws of ``local_model.sampled_patterns``: uniform on a
    grid of 1/1000 steps scaled by the magnitude, from random.Random(seed)."""
    rng = random.Random(seed)
    keys = checks.parameter_keys(pattern)
    return [{k: ORACLE_MAGNITUDE * Fraction(rng.randint(-1000, 1000), 1000) for k in keys}
            for _ in range(ORACLE_SAMPLES)]


def oracle(prog, root, seed):
    lm, omega = prog.local_model, prog.omega
    patterns = checks.admissible_patterns(max_norm=8)

    def run(p):
        observed, _, contained = lm.oracle_containment(p, ORACLE_SAMPLES, ORACLE_MAGNITUDE, seed)
        return sorted(observed), contained

    ops = [Op(f"oracle:{''.join(map(str, p))}", lambda p=p: run(p)) for p in patterns]

    def check(outputs):
        problems = []
        pick = random.Random(seed + 1)
        for p in patterns:
            name = f"oracle:{''.join(map(str, p))}"
            if name not in outputs:
                continue
            observed, contained = outputs[name]
            problems += checks.check_oracle(p, observed, contained, omega.resolutions(p))
            samples = _oracle_samples(p, seed)
            for idx in pick.sample(range(ORACLE_SAMPLES), ORACLE_SYMPY_SAMPLES):
                model = lm.ModelPolynomial(p)
                for key, value in samples[idx].items():
                    model.set_parameter(*key, value)
                mults = [m for _, m in model.real_roots()]
                reference = checks.sympy_multiplicities(p, samples[idx])
                problems += checks.check_multiplicities(p, mults, reference)
                if tuple(omega.segment_patterns(reference)) not in observed:
                    problems.append(f"{p}: sample {idx} is missing from the observed set")
        return problems

    def check_cli(stdout, outputs):
        if "oracle:1221" not in outputs:
            return []
        doc = json.loads(stdout)
        observed = sorted("[" + " ".join(omega.format_pattern(q) for q in seq) + "]"
                          for seq in outputs["oracle:1221"][0])
        if doc["containment"] != "PASS" or doc["observed"] != observed:
            return ["`trajspace oracle --pattern 1221` differs from the in-process oracle"]
        return []

    return Workload(_shuffled(ops, seed), check,
                    ["oracle", "--pattern", "1221", "--seed", str(seed)], check_cli)


# --- figures: rendering --------------------------------------------------------

FIGURE_SCENES = ["disk", "annulus0", "disk1"]


def figures(prog, root, seed):
    render, omega = prog.render, prog.omega
    built = {}
    for stem in FIGURE_SCENES:
        path = root / "fixtures" / f"{stem}.json"
        scene = prog.geometry.load_scene(str(path))
        built[stem] = (path, scene, prog.sweep.build_trajectory_space(scene))

    def export(scene, graph):
        return render.scene_svg(scene, graph), graph.to_dot()

    ops = [Op(f"export:{stem}", lambda s=scene, g=graph: export(s, g))
           for stem, (_, scene, graph) in built.items()]
    ops.append(Op(f"hasse:{HASSE_N}",
                  lambda: omega.export_hasse_dot(omega.build_poset(HASSE_N))))

    def check(outputs):
        problems = []
        for stem, (path, _, _) in built.items():
            name = f"export:{stem}"
            if name not in outputs:
                continue
            svg, dot = outputs[name]
            scene_doc = json.loads(path.read_text())
            vertices = sum(checks.tangency_counts(scene_doc))
            found = (checks.check_svg(svg, scene_doc, vertices)
                     + checks.check_graph_dot(dot, vertices, len(scene_doc["holes"])))
            problems += [f"{name}: {p}" for p in found]
        name = f"hasse:{HASSE_N}"
        if name in outputs:
            problems += [f"{name}: {p}" for p in checks.check_hasse_dot(outputs[name], HASSE_N)]
        return problems

    out_dir = root / "perfbench" / "results"
    svg_path, dot_path = out_dir / "cli-export.svg", out_dir / "cli-export.dot"

    def check_cli(stdout, outputs):
        if "export:disk" not in outputs:
            return []
        svg, dot = outputs["export:disk"]
        if svg_path.read_text() != svg or dot_path.read_text() != dot:
            return ["`trajspace export fixtures/disk.json` differs from the in-process figures"]
        return []

    cli = ["export", "fixtures/disk.json", "--svg", str(svg_path.relative_to(root)),
           "--dot", str(dot_path.relative_to(root))]
    return Workload(_shuffled(ops, seed), check, cli, check_cli)


WORKLOADS = {"corpus": corpus, "tilted": tilted, "oracle": oracle, "figures": figures}
