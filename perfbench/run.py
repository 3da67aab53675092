"""Benchmark for the uniprod CLI pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

It imports ``uniprod`` from ``src/``, writes the workload's input files
from the seed, then runs the workload's cycle of CLI commands in a
closed loop (one client, each command starts when the last one ended)
until ``--seconds`` have passed and at least one cycle is complete.
Every command's exit code and output are checked.  Timings are scaled
to a reference machine speed (see ``speed.py``); the wall-clock figures
are written beside the other artifacts.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run, per completed cycle, with
``--trace 1``.  Spans, the
per-stage breakdown and any failures are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"


def import_cli(root):
    """Import uniprod.cli from root/src afresh, dropping any earlier copy."""
    for key in [k for k in sys.modules if k == "uniprod" or k.startswith("uniprod.")]:
        del sys.modules[key]
    cli = importlib.import_module("uniprod.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise ImportError(f"uniprod was imported from {cli.__file__}, not from {root}/src")
    return cli


class Runner:
    """Runs CLI commands in-process, timing them and keeping their output."""

    def __init__(self, seed, speed, tracer=None):
        self.seed = seed
        self.speed = speed
        self.tracer = tracer
        self.cli = None
        self.failures = []

    def call(self, argv):
        """Run one command; return (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse exits 2 on bad usage
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                traceback.print_exc(file=err)
                rc = f"uncaught {type(exc).__name__}"
        return rc, out.getvalue(), err.getvalue(), perf_counter() - start

    def fail(self, argv, reason):
        self.failures.append({"command": "uniprod " + " ".join(argv), "seed": self.seed, "stderr": reason})

    def step(self, step):
        """Run a step's commands; return (start, end, seconds), or None if it failed.

        The speed probe runs before the step, outside its timing.
        """
        self.speed.tick()
        if self.tracer is not None:
            self.tracer.op = step.op
        outs, took = [], 0.0
        start = perf_counter()
        for argv in step.argvs:
            rc, out, err, secs = self.call(argv)
            took += secs
            if rc != 0:
                lines = err.strip().splitlines() or [f"exit {rc}"]
                self.fail(argv, lines[-1])
                return None
            outs.append(out)
        try:
            step.check(outs, step.facts)
        except (workloads.Failed, ValueError, KeyError, OSError) as exc:
            self.fail(step.argvs[-1], f"output check: {exc}")
            return None
        return start, perf_counter(), took

    def gen(self, argv):
        """Set-up command: output on success, a raised error otherwise."""
        rc, out, err, _ = self.call(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv} failed: {err.strip()}")
        return out


def run(workload, seed, seconds, trace, tiny=False):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uniprod", "cli.py")):
        raise FileNotFoundError(f"no uniprod sources under {root}/src; run from the repository root")
    p = workloads.params(workload, tiny)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(root, OUT_DIR))
    os.environ["UNIPROD_CACHE"] = tmp
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = Tracer() if trace else None
    speed = Speed()
    runner = Runner(seed, speed, tracer)
    try:
        # Set-up: import the package and write the inputs, several times
        # (once when traced, so that set-up spans are those of one set-up).
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            speed.probe()
            start = perf_counter()
            runner.cli = import_cli(root)
            if tracer is not None:
                tracer.install()
                tracer.op = "setup"
            inputs = workloads.setup(workload, seed, tmp, p, runner.gen)
            end = perf_counter()
            setups.append((start, end, end - start))

        # Closed loop over cycles until the time is up.  The untraced run
        # stops mid-cycle at the deadline; the traced run completes every
        # cycle it starts, so that its totals divide into per-cycle figures.
        steps = workloads.cycle(workload, p, tmp, inputs)
        timed, cycles, attempted = [], 0, 0
        deadline = perf_counter() + seconds
        while not cycles or perf_counter() < deadline:
            for step in steps:
                if cycles and not trace and perf_counter() >= deadline:
                    break
                attempted += 1
                span = runner.step(step)
                if span is not None:
                    timed.append((step, *span))
            else:
                cycles += 1
        speed.probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values, wall = {}, {}
        for scaled, out in ((True, values), (False, wall)):
            result = _result(steps, setups, timed, cycles, speed if scaled else None, peak_rss_mb)
            out.update(metrics.per_layer(tracer, result) if tracer is not None else metrics.end_to_end(result))
        _write_artifacts(root, workload, seed, tracer, runner.failures, wall, speed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(runner.failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()},
    }


def _result(steps, setups, timed, cycles, speed, peak_rss_mb):
    """The run's figures, in seconds scaled by ``speed``, or wall-clock if None.

    ``cycle_s`` is one cycle with each step at its median: the sum over
    the cycle's steps of the median of that step's samples, so that the
    steps of a last, unfinished cycle count too.  ``per_step`` holds those
    step medians by kind, for rates over one pass of a cycle.
    """
    def secs(t0, t1, took):
        return took * speed.scale(t0, t1) if speed is not None else took

    for step in steps:
        step.facts.pop("secs", None)
    samples = {}
    for step, *span in timed:
        took = secs(*span)
        samples.setdefault(step.kind, []).append(took)
        step.facts.setdefault("secs", []).append(took)
    per_step = {}
    for step in steps:
        if "secs" in step.facts:
            per_step.setdefault(step.kind, []).append(statistics.median(step.facts["secs"]))
    return {
        "setup_s": statistics.median(secs(*span) for span in setups),
        "samples": samples,
        "per_step": per_step,
        "cycles": cycles,
        "cycle_s": sum(sum(medians) for medians in per_step.values()),
        "facts": [step.facts for step in steps],
        "peak_rss_mb": peak_rss_mb,
    }


def _write_artifacts(root, workload, seed, tracer, failures, wall, speed):
    base = os.path.join(root, OUT_DIR, f"{workload}-{seed}")
    for failure in failures:
        print(f"FAILED seed={failure['seed']}: {failure['command']}: {failure['stderr']}", file=sys.stderr)
    with open(base + "-failures.json", "w") as fh:
        json.dump(failures, fh, indent=1)
    with open(base + "-wall.json", "w") as fh:
        json.dump({"probe_s_p50": speed.median(), "probes": len(speed.secs), "metrics": wall}, fh, indent=1)
    if tracer is not None:
        tracer.write(base + "-spans.jsonl")
        with open(base + "-stages.json", "w") as fh:
            json.dump(tracer.stage_breakdown(), fh, indent=1, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)
    # String-keyed sets and dicts iterate in hash order, and some uniprod
    # results (label lengths on the double-star family) follow it.  Derive
    # the hash seed from --seed so that a seed fixes the whole run.
    hash_seed = str(args.seed % 2**32)
    if argv is None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": hash_seed})
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
