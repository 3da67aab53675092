"""Workload scripts: the CLI commands each workload runs, and their checks.

A workload is a cycle of steps.  A step is one user operation: a short
list of ``uniprod`` commands run in-process through ``uniprod.cli.main``
and timed together, then checked by the benchmark's own output gate.
``kind`` groups steps whose timings are pooled into one metric.

Inputs come only from the seed: ``setup`` writes the instance files the
cycle reads, and nothing else is handed to the program.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field

# Generator parameters.  ``tiny`` shrinks every size for the self-test.
# ``family_n``: the double-star members H_{i,i}, i = 1..n/12, that bounds
# and suites run through the per-instance commands, in seed order.
# ``label_repeats``: label -> test-adjacency runs per instance.  A wide or
# tall instance takes about 1.6 s for it; a double-star member about
# 25 ms, too short for one sample to be steady, so members repeat it.
PARAMS = {
    "wide": {"t": 2, "n": 512, "h": 2, "instances": 6, "label_repeats": 1},
    "tall": {"t": 2, "n": 1024, "h": 64, "instances": 8, "label_repeats": 1},
    "bounds": {
        "family_n": 120,
        "label_repeats": 3,
        "grid_n": (1, 2, 4, 8, 16),  # one n per d = 0..4
        "grid_lam": (0, 1, 2, 3),
        "build_lam": (0, 1, 2),  # build-ug writes these; lam=3 files take ~20 s
    },
    "suites": {
        "family_n": 120,
        "label_repeats": 3,
        "n0s": (64, 128, 256),
        "k": 2,
        "compress_count": 1,
        "growth_ns": (120, 240, 480),
    },
}
TINY = {
    "wide": {"n": 48, "instances": 2},
    "tall": {"n": 64, "h": 4, "instances": 2},
    "bounds": {"family_n": 48, "grid_n": (1, 2, 4), "grid_lam": (0, 1), "build_lam": (0, 1)},
    "suites": {"family_n": 48, "n0s": (16, 32), "growth_ns": (24, 48, 96)},
}

# Each instance runs embed then verify this many times, spread over its
# other steps, so that a run holds enough embed samples for a steady median.
EMBED_REPEATS = 3


def params(workload: str, tiny: bool = False) -> dict:
    out = dict(PARAMS[workload])
    if tiny:
        out.update(TINY[workload])
    return out


@dataclass
class Step:
    kind: str  # timing pool: embed_verify, label_audit, assemble, ...
    op: str  # operation id shared by the spans of one instance's pipeline
    argvs: list  # uniprod commands, run in order
    check: object  # fn(outputs, facts) -> None; raises Failed
    facts: dict = field(default_factory=dict)


class Failed(Exception):
    """An output check failed; the message names what was wrong."""


def expect(cond, msg):
    if not cond:
        raise Failed(msg)


def grab(pattern, text, what):
    m = re.search(pattern, text)
    expect(m is not None, f"no {what} in output: {text.strip()[:200]!r}")
    return [int(g) for g in m.groups()]


# ---------------------------------------------------------------------------
# set-up: input files from the seed


def setup(workload: str, seed: int, tmp: str, p: dict, run) -> list:
    """Write the workload's input files; return what is known of each."""
    rng = random.Random(seed)
    inputs = []
    if workload in ("wide", "tall"):
        for k in range(p["instances"]):
            path = os.path.join(tmp, f"inst{k}.jsonl")
            s = rng.randrange(1 << 30)
            out = run(["gen", "qt", "--t", str(p["t"]), "--n", str(p["n"]), "--h", str(p["h"]),
                       "--seed", str(s), "--out", path])
            n, m = grab(r"instance: (\d+) vertices, (\d+) edges", out, "instance size")
            inputs.append({"path": path, "n": n, "m": m, "seed": s})
    else:
        members = list(range(1, p["family_n"] // 12 + 1))
        rng.shuffle(members)
        for k, i in enumerate(members):
            path = os.path.join(tmp, f"bad{k}.jsonl")
            out = run(["gen", "bad", "--n", str(p["family_n"]), "--i", str(i), "--j", str(i), "--out", path])
            (n,) = grab(r": (\d+) vertices", out, "instance size")
            inputs.append({"path": path, "n": n, "i": i})
    return inputs


# ---------------------------------------------------------------------------
# the cycle


def cycle(workload: str, p: dict, tmp: str, inputs: list) -> list:
    """Steps of one cycle, in the order they run.

    Each instance goes embed -> verify, label -> test-adjacency (run
    ``label_repeats`` times), then assemble on its own label file, with
    embed -> verify repeated in between.  Bounds spreads the host grid
    between those steps, suites the compression and growth suites, and
    suites then compresses the last member's assembled graph.  Every
    cycle ends with ``count``.
    """
    steps = []
    for k, inst in enumerate(inputs):
        steps += _instance_steps(f"i{k}", inst, p["label_repeats"])
    if workload in ("wide", "tall"):
        n_host = p["n"]
    elif workload == "bounds":
        n_host = p["family_n"]
        steps = _interleave(steps, _bounds_steps(p, tmp))
    else:
        n_host = p["family_n"]
        steps = _interleave(steps, _suite_steps(p, tmp))
        steps.append(_compress_graph_step(_universal_path(inputs[-1]), tmp))
    steps.append(Step("count", "h", [["count", "--n", str(n_host)]], _check_count(n_host)))
    return steps


def _bounds_steps(p, tmp):
    out = []
    for n in p["grid_n"]:
        for lam in p["grid_lam"]:
            if lam in p["build_lam"]:
                out.append(_build_step(n, lam, tmp))
            out.append(_sizes_step(n, lam, tmp))
    return out


def _suite_steps(p, tmp):
    reports = [os.path.join(tmp, f"compression{n0}.json") for n0 in p["n0s"]]
    compress = Step("compress", "c", [
        ["run-suite", "compression", "--n0", str(n0), "--k", str(p["k"]),
         "--count", str(p["compress_count"]), "--seed", str(n0), "--out", out]
        for n0, out in zip(p["n0s"], reports)
    ], _check_reports(reports))
    out = os.path.join(tmp, "growth.json")
    growth = Step("growth", "g", [["run-suite", "growth", "--ns", *map(str, p["growth_ns"]), "--out", out]],
                  _check_growth(out))
    return [compress, growth]


def _interleave(steps, others):
    """Spread ``others`` evenly between ``steps``, keeping both orders.

    The machine's speed drifts over tens of seconds; spreading each kind
    of step over the whole cycle makes its median sample all of it.
    """
    out = []
    for i, step in enumerate(steps):
        out.append(step)
        out += others[len(others) * i // len(steps):len(others) * (i + 1) // len(steps)]
    return out


def _labels_path(inst):
    return inst["path"] + ".fixed.labels.jsonl"


def _universal_path(inst):
    return inst["path"] + ".universal.jsonl"


def _instance_steps(op, inst, label_repeats):
    embeds = [_embed_step(op, inst) for _ in range(EMBED_REPEATS)]
    labels = [_label_step(op, inst) for _ in range(label_repeats)]
    return embeds[:1] + _interleave(labels + [_assemble_step(op, inst)], embeds[1:])


def _embed_step(op, inst):
    witness = inst["path"] + ".witness.jsonl"

    def check(outs, facts):
        (nv,) = grab(r"embedded (\d+) vertices", outs[0], "embed count")
        vv, vm = grab(r"witness ok: (\d+) vertices, (\d+) edges", outs[1], "verify count")
        expect(nv == vv == inst["n"], f"embed/verify vertex counts {nv}/{vv}, instance has {inst['n']}")
        expect("m" not in inst or vm == inst["m"], f"verify checked {vm} edges, instance has {inst.get('m')}")

    return Step("embed_verify", op, [
        ["embed", "--instance", inst["path"], "--out", witness],
        ["verify", "--instance", inst["path"], "--witness", witness],
    ], check)


def _label_step(op, inst):
    path = _labels_path(inst)

    def check(outs, facts):
        count, bits = grab(r"(\d+) fixed labels, longest (\d+) bits", outs[0], "label summary")
        (pairs,) = grab(r"on all (\d+) vertex pairs", outs[1], "audit pair count")
        expect(count == inst["n"], f"{count} labels for {inst['n']} vertices")
        expect(pairs == math.comb(count, 2), f"audit checked {pairs} pairs, C({count}, 2) = {math.comb(count, 2)}")
        facts["label_bits"] = bits

    return Step("label_audit", op, [
        ["label", "--instance", inst["path"], "--scheme", "fixed", "--out", path],
        ["test-adjacency", "--labels", path],
    ], check)


def _assemble_step(op, inst):
    def check(outs, facts):
        nv, _, k, total = grab(r"(\d+) vertices, (\d+) edges from (\d+) instances \((\d+) labelled",
                               outs[0], "assembly summary")
        expect(k == 1, f"assembled {k} instances, gave 1")
        expect(total == inst["n"], f"{total} labelled vertices, instance has {inst['n']}")
        expect(nv == total, f"{nv} distinct labels out of {total}")

    return Step("assemble", op, [["assemble", "--labels", _labels_path(inst), "--out", _universal_path(inst)]], check)


def _compress_graph_step(graph, tmp):
    def check(outs, facts):
        nv, ne, cap = grab(r": (\d+) vertices, (\d+) edges \(cap (\d+)\)", outs[0], "compressed size")
        expect(ne <= cap, f"compressed graph has {ne} edges, cap {cap}")

    out = os.path.join(tmp, "compressed.jsonl")
    return Step("compress_graph", "cg", [["compress", "--graph", graph, "--k", "4", "--out", out]], check)


def _build_step(n, lam, tmp):
    def check(outs, facts):
        nv, vb, ne, eb = grab(r"(\d+) vertices \(bound (\d+)\), (\d+) edges \(bound (\d+)\)", outs[0],
                              "build-ug sizes")
        expect(nv <= vb and ne <= eb, f"host n={n} lam={lam}: |V|={nv} of {vb}, |E|={ne} of {eb}")
        facts["edges"] = ne

    out = os.path.join(tmp, "ug.jsonl")
    return Step("host_build", f"n{n}-lam{lam}", [
        ["build-ug", "--n", str(n), "--lambda", str(lam), "--mode", "explicit", "--out", out],
    ], check)


def _sizes_step(n, lam, tmp):
    out = os.path.join(tmp, "sizes.json")

    def check(outs, facts):
        row = json.loads(outs[0])
        expect(row["vertices"] <= row["vertex_bound"] and row["edges"] <= row["edge_bound"],
               f"host n={n} lam={lam} over its bounds: {row}")
        _read_report(out)

    return Step("host_sizes", f"n{n}-lam{lam}", [
        ["count", "--n", str(n), "--lambda", str(lam)],
        ["run-suite", "sizes", "--n", str(n), "--lambda", str(lam), "--out", out],
    ], check)


def _read_report(path):
    with open(path) as fh:
        rep = json.load(fh)
    failed = [c["check"] for c in rep["checks"] if not c["ok"]]
    expect(rep["ok"] and not failed, f"suite {rep['suite']} failed checks {failed}")
    return rep


def _check_reports(paths):
    def check(outs, facts):
        for path in paths:
            _read_report(path)

    return check


def _check_growth(path):
    def check(outs, facts):
        rep = _read_report(path)
        slopes = {c["check"].split()[0]: c["slope"] for c in rep["checks"] if "slope" in c}
        expect(slopes["fixed"] < slopes["legacy"], f"fixup slope {slopes['fixed']} not below legacy {slopes['legacy']}")
        facts.update(slope_fixed=slopes["fixed"], slope_legacy=slopes["legacy"])

    return check


def _check_count(n):
    def check(outs, facts):
        row = json.loads(outs[0])
        expect(row["n"] == n and row["vertex_bound"] > 1, f"count row {row}")
        facts.update(host_exponent=math.log(row["vertex_bound"]) / math.log(n), lam=row["lam"])

    return check
