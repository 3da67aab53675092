"""Record the baseline: every workload over seeds 1-10, twice, then traced.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs ``run.py`` once per (set, workload, seed), one process at a time,
at ``metrics.RUN_SECONDS``, and reports for every metric its median,
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
quartile distance as a share of the median, then how far each second-set
median moved from the first.  Last it records one traced run per
workload on the first seed: the per-layer metrics, the per-stage module
self times, and the tracing overhead as traced over untraced end-to-end
figures of the same seed.  Beside the reported (speed-scaled) figures
it keeps each run's wall-clock figures and reference-loop time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} failed operations: {proc.stderr[-2000:]}")
    with open(os.path.join(".perfbench_out", f"{workload}-{seed}-wall.json")) as fh:
        wall = json.load(fh)
    result["wall"] = {"probe_s": {"value": wall["probe_s_p50"]}, **{n: {"value": v} for n, v in wall["metrics"].items()}}
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0,
            "values": values}


def summarise(results, key="metrics"):
    names = results[0][key]
    return {name: spread([r[key][name]["value"] for r in results]) for name in names}


def _merge(stages):
    out = {}
    for mods in stages:
        for mod, secs in mods.items():
            out[mod] = out.get(mod, 0.0) + secs
    return out


def _shares(mods):
    total = sum(mods.values())
    return {mod: round(secs / total, 4) for mod, secs in sorted(mods.items(), key=lambda kv: -kv[1])} if total else {}


def host_parameters(names):
    """lam, lambda_default(n) and the host exponent at each workload's n."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from uniprod.treeseq import lambda_default
    from uniprod.unigraph import UgParams, vertex_count_bound

    out = {}
    for name in names:
        p = workloads.PARAMS[name]
        n = p.get("n", p.get("family_n"))
        ug = UgParams(n)
        out[name] = {"n": n, "lam": ug.lam, "lambda_default": lambda_default(n),
                     "host_exponent": math.log(vertex_count_bound(ug)) / math.log(n)}
    return out


SEEDS = list(range(1, 11))
SETS = 2
OVERHEAD = ("embed_verify_s_p50", "label_audit_s_p50", "assemble_s", "cycle_s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="where to write the report (JSON)")
    args = ap.parse_args(argv)
    names = [name for name, _ in metrics.WORKLOADS]
    bounds = {name: bound for name, _, _, bound, _ in metrics.END_TO_END}
    better = {name: b for name, _, b, _, _ in metrics.END_TO_END}
    report = {"seeds": SEEDS, "seconds": metrics.RUN_SECONDS, "sets": [], "wall": [], "traced": {}}
    for k in range(SETS):
        runs, walls = {}, {}
        for workload in names:
            results = []
            for seed in SEEDS:
                results.append(run_once(workload, seed, metrics.RUN_SECONDS, 0))
                values = " ".join(f"{n}={m['value']:.4g}" for n, m in results[-1]["metrics"].items())
                print(f"set {k} {workload} seed {seed}: {values}", flush=True)
            runs[workload] = summarise(results)
            walls[workload] = summarise(results, "wall")
            for name, s in runs[workload].items():
                flag = "" if name == "setup_s" or s["iqr_share"] < bounds[name] / 3 else "  <-- over bound/3"
                print(f"set {k} {workload:6} {name:22} median {s['median']:.6g}  iqr/median {s['iqr_share']:.4f}"
                      f"  (bound {bounds[name]}){flag}", flush=True)
        report["sets"].append(runs)
        report["wall"].append(walls)
    first, second = report["sets"]
    for workload in names:
        for name, s in second[workload].items():
            a, b = first[workload][name]["median"], s["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            flag = "" if worse <= bounds[name] else "  <-- worse than bound"
            print(f"sets {workload:6} {name:22} {a:.6g} -> {b:.6g}  worse by {worse:+.4f}{flag}", flush=True)
    seed = SEEDS[0]
    for workload in names:
        traced = run_once(workload, seed, metrics.RUN_SECONDS, 1)["metrics"]
        plain = first[workload]
        overhead = {name: traced[f"traced.{name}"]["value"] / plain[name]["values"][0] for name in OVERHEAD}
        with open(os.path.join(".perfbench_out", f"{workload}-{seed}-stages.json")) as fh:
            stages = json.load(fh)
        shares = {"embed": _shares(stages.get("embed", {})), "run": _shares(_merge(stages.values()))}
        report["traced"][workload] = {"seed": seed, "overhead": overhead, "stages": stages, "shares": shares,
                                      "per_layer": {n: m["value"] for n, m in traced.items()}}
        print(f"traced {workload}: overhead (traced / untraced, seed {seed}) {overhead}", flush=True)
        print(f"traced {workload}: module shares of self time {shares}", flush=True)
    report["host"] = host_parameters(names)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
