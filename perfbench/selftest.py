"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is what ``metrics.py`` generates and keeps
the file's limits; that every end-to-end metric is emitted, non-zero and
with its unit on every workload; that every per-layer metric appears in
the traced run, and is non-zero on each workload where its layer must
run (a wrapper left on a stale name after a refactor reads zero); and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)


def check_benchmark_json(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if spec != metrics.benchmark_json():
        problems.append("BENCHMARK.json differs from `python3 perfbench/metrics.py`")
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    problems += [f"duplicate name {n}" for n in {n for n in names if names.count(n) > 1}]
    problems += [f"bad name {n}" for n in names if not NAME.match(n)]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]):
            problems.append(f"bad unit {m['unit']} of {m['name']}")
    problems += [f"why of {w['name']} over 200 characters" for w in spec["workloads"] if len(w["why"]) > 200]
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    if not 2 <= len(spec["workloads"]) <= 8 or len(spec["per_layer"]) > 128 or len(spec["end_to_end"]) > 16:
        problems.append("workload or metric count outside the file's limits")


def check_output(workload, trace, problems):
    proc = bench(workload, trace)
    if proc.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    got = result["metrics"]
    if trace:
        expected = [(n, u, workload in active) for n, u, _, _, active in metrics.PER_LAYER]
    else:
        expected = [(n, u, True) for n, u, *_ in metrics.END_TO_END]
    if set(got) != {n for n, _, _ in expected}:
        problems.append(f"{workload} trace={trace}: extra {sorted(set(got) - {n for n, _, _ in expected})}, "
                        f"missing {sorted({n for n, _, _ in expected} - set(got))}")
    for name, unit, must_move in expected:
        m = got.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            problems.append(f"{workload}: {name} has unit {m['unit']}, catalogue says {unit}")
        if not isinstance(m["value"], (int, float)) or (must_move and not m["value"]):
            problems.append(f"{workload} trace={trace}: {name} = {m['value']!r}, expected non-zero")


def check_refuses_without_sources(problems):
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1", "--seconds", "1",
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    problems = []
    check_benchmark_json(problems)
    for workload, _ in metrics.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, problems)
    check_refuses_without_sources(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
