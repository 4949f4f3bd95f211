#!/usr/bin/env python3
"""Benchmark of the trajspace batch analyser.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Workloads: corpus, tilted, oracle, figures (see perfbench/README.md).  The
run imports trajspace from src/ of this checkout, sets up the workload
several times, repeats whole rounds of its operations for at least
--seconds, checks every output, times cold `trajspace` CLI launches, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics, with every time rescaled to a
nominal machine speed by a reference timing taken after each operation
(speed.py).  --trace 1 runs one round plain and one round with every
layer's entry points wrapped, checks that both rounds give identical
outputs, prints the per-layer metrics, and writes spans, counts and the
tracing overhead to perfbench/results/.

One process, no threads; a wall budget per operation is kept with SIGALRM.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from speed import REFERENCE_S, reference_seconds
from tracing import METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
CLI_REPEATS = 5
CLI_TIMEOUT_S = 60
IMPORT_PROBE = ("import time; t = time.perf_counter(); import trajspace.cli; "
                "print(time.perf_counter() - t)")


class OverBudget(BaseException):
    """Raised by SIGALRM when an operation runs past its wall budget."""


def _alarm(signum, frame):
    raise OverBudget()


def call_with_budget(fn, seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _program_modules():
    return {n: m for n, m in sys.modules.items() if n == "trajspace" or n.startswith("trajspace.")}


def load_program():
    """Import trajspace afresh from this checkout; returns its modules."""
    for name in _program_modules():
        del sys.modules[name]
    importlib.import_module("trajspace.cli")
    origin = Path(sys.modules["trajspace"].__file__).resolve()
    if origin.parent.parent != SRC:
        raise RuntimeError(f"imported trajspace from {origin}, not from {SRC}")
    return types.SimpleNamespace(**{n.split(".", 1)[1]: m for n, m in sys.modules.items()
                                    if n.startswith("trajspace.")})


class Record:
    """Times, outputs and failures of the operations of a pass."""

    def __init__(self):
        self.times = {}     # per-call seconds at nominal speed, by operation
        self.wall = {}      # per-call wall seconds, by operation
        self.pass_s = 0.0   # the pass at nominal speed, failures at their budget
        self.outputs = {}
        self.failures = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, op, seconds, wall, output=None, error=None):
        """Record one sample of ``op``: ``op.repeat`` back-to-back calls that
        took ``wall`` seconds per call, ``seconds`` once rescaled to the
        nominal speed.  A failure is charged its budget."""
        self.attempted += op.repeat
        if error is not None:
            self.failed += op.repeat
            self.failures[op.name] = error
            seconds = op.budget
        elif op.name not in self.outputs:
            self.outputs[op.name] = output
        elif self.outputs[op.name] != output:
            self.problems.append(f"{op.name}: output differs between rounds")
        self.times.setdefault(op.name, []).append(seconds)
        self.wall.setdefault(op.name, []).append(wall)
        self.pass_s += seconds * op.repeat


def run_op(op):
    """Run one operation ``op.repeat`` times under its budget; returns
    (wall seconds of the whole sample, output, error)."""
    output = error = None

    def calls():
        for _ in range(op.repeat):
            out = op.fn()
        return out

    t0 = time.perf_counter()
    try:
        output = call_with_budget(calls, op.budget * op.repeat)
    except OverBudget:
        error = f"over its {op.budget:g} s budget"
    except Exception as exc:  # an operation that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, output, error


def run_round(ops, record, tracer=None):
    """One round at wall-clock speed (the traced mode compares two)."""
    for op in ops:
        if tracer is not None:
            tracer.start(op.name)
        wall, output, error = run_op(op)
        record.add(op, wall / op.repeat, wall / op.repeat, output, error)


def set_up(build, seed):
    """One set-up: a fresh import, the inputs and all pre-work."""
    t0 = time.perf_counter()
    prog = load_program()
    workload = build(prog, ROOT, seed)
    return time.perf_counter() - t0, prog, workload


def extra_set_up(build, seed):
    """A set-up timed for setup_s only; the operations keep their modules."""
    saved = _program_modules()
    try:
        return set_up(build, seed)[0]
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_cli(args):
    """One cold `trajspace <args>` launch: (wall time, stdout, problems)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "trajspace.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    problems = []
    if proc.returncode != 0:
        problems.append(f"`trajspace {' '.join(args)}` exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")
    return seconds, proc.stdout, problems


def import_seconds(repeats):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip()))
    return statistics.median(out)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, seconds, build, seed, first_setup_s):
    """The timed pass: whole rounds until ``seconds`` of operations have run.

    The cold CLI launches and the repeated set-ups are spread evenly over
    the pass, outside its clock, so that each samples the machine at another
    moment.  Each round, with the side spans inside it, is rescaled to the
    nominal machine speed by the median reference timing of the round
    (speed.py).
    """
    gc.collect()
    record = Record()
    side = sorted([((i + 0.5) / CLI_REPEATS, "cli") for i in range(CLI_REPEATS)]
                  + [((i + 0.5) / (SETUP_REPEATS - 1), "setup")
                     for i in range(SETUP_REPEATS - 1)])
    cli_times, cli_wall, setup_times, problems = [], [], [], []
    stdout, references = "", []

    def side_task(kind):
        nonlocal stdout
        if kind == "cli":
            t, stdout, found = run_cli(workload.cli_args)
            problems.extend(found)
        else:
            t = extra_set_up(build, seed)
        return kind, t

    def close(samples, spans, refs):
        """Rescale one round's samples and side spans and record them."""
        scale = REFERENCE_S / statistics.median(refs)
        references.extend(refs)
        for op, wall, output, error in samples:
            record.add(op, wall / op.repeat * scale, wall / op.repeat, output, error)
        for kind, t in spans:
            if kind == "cli":
                cli_times.append(t * scale)
                cli_wall.append(t)
            else:
                setup_times.append(t * scale)

    busy, rounds = 0.0, 0
    spans = [("setup", first_setup_s)]
    while busy < seconds:
        rounds += 1
        samples, refs = [], [reference_seconds()]
        for op in workload.ops:
            wall, output, error = run_op(op)
            busy += wall
            samples.append((op, wall, output, error))
            refs.append(reference_seconds())
            while side and side[0][0] * seconds <= busy:
                spans.append(side_task(side.pop(0)[1]))
                refs.append(reference_seconds())
        close(samples, spans, refs)
        spans = []
    rss = peak_rss_mb()
    if side:
        refs = [reference_seconds()]
        for _, kind in side:
            spans.append(side_task(kind))
            refs.append(reference_seconds())
        close([], spans, refs)
    problems += (record.problems + workload.check(record.outputs)
                 + workload.check_cli(stdout, record.outputs))
    medians = [statistics.median(ts) for ts in record.times.values()]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((record.attempted - record.failed) / record.pass_s, "ops/s"),
        "op_s_gmean": (math.exp(statistics.fmean(math.log(m) for m in medians)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cli_s": (statistics.median(cli_times), "s"),
    }
    info = {"rounds": rounds, "wall_s": busy, "failures": record.failures,
            "reference_ms": [1000 * min(references), 1000 * statistics.median(references),
                             1000 * max(references)],
            "setup_runs_s": setup_times, "cli_runs_s": cli_times, "cli_wall_s": cli_wall,
            "op_median_s": {n: statistics.median(ts) for n, ts in record.times.items()},
            "op_wall_median_s": {n: statistics.median(ts) for n, ts in record.wall.items()}}
    return record, problems, metrics, info


def traced(workload, prog, name, seed):
    """One plain round, then one round with every layer wrapped."""
    plain = Record()
    t0 = time.perf_counter()
    run_round(workload.ops, plain)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(prog)
    traced_rec = Record()
    try:
        t0 = time.perf_counter()
        run_round(workload.ops, traced_rec, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    differing = [op.name for op in workload.ops
                 if plain.outputs.get(op.name) != traced_rec.outputs.get(op.name)]
    problems = (plain.problems + traced_rec.problems + workload.check(plain.outputs)
                + [f"{name}: output under tracing differs from the plain run"
                   for name in differing])
    layers = tracer.layer_metrics(exclude=set(traced_rec.failures))
    layers["cli.import_s"] = import_seconds(CLI_REPEATS)
    metrics = {key: (layers[key], unit) for key, unit in METRICS.items()}
    path = RESULTS / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed,
        "plain_round_s": plain_s, "traced_round_s": traced_s,
        "overhead_s": traced_s - plain_s, "overhead_share": (traced_s - plain_s) / plain_s,
        "outputs_identical": not differing,
        "failures": traced_rec.failures,
        "unwrapped": tracer.missing,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "per_op": tracer.per_op(),
        "spans": tracer.spans,
    }, indent=1, sort_keys=True) + "\n")
    print(f"trace: {path.relative_to(ROOT)}; overhead {traced_s - plain_s:.3f} s "
          f"on a {plain_s:.3f} s round", file=sys.stderr)
    attempted = plain.attempted + traced_rec.attempted
    failed = plain.failed + traced_rec.failed
    return attempted, failed, problems, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trajspace" / "__init__.py").is_file():
        print(f"error: no trajspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[args.workload]
    setup_s, prog, workload = set_up(build, args.seed)
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, problems, metrics = traced(workload, prog, args.workload, args.seed)
    else:
        record, problems, metrics, info = timed(workload, args.seconds, build, args.seed, setup_s)
        attempted, failed = record.attempted, record.failed
        print(json.dumps({"workload": args.workload, "seed": args.seed, **info}), file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
