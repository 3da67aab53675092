"""The metric catalogue, and how each metric is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the single source of BENCHMARK.json
(``python3 perfbench/metrics.py`` prints it).  Each per-layer metric
names the end-to-end metric it is predicted to move, the workload where
it should move, and the workloads on which the self-test requires it to
be non-zero (a wrapper left on a stale name reads zero everywhere).
"""

from __future__ import annotations

import json
import statistics

from tracer import HOT

WORKLOADS = [
    ("wide", "host-heavy, t=2 n=512 h=2: interval embedding and MCS completion dominate embed; the audit sends ~n^2/4 same-row pairs down the tester's full decode path"),
    ("tall", "row-heavy, t=2 n=1024 h=64: tree sequences, the row BST, label building and packing carry the work; most tester calls are cheap row rejections"),
    ("bounds", "host size claims: build-ug, count and sizes on the grid d<=4 lam<=3 (written to lam 2) by bulk enumeration, beside ten n=120 double-star members"),
    ("suites", "compression suite n0 64-256 k=2 and double-star growth suite 120-480: the only runs of compressor, the suites and the legacy scheme; ten n=120 members beside"),
]

# name, unit, better, bound, what
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "median of 5 set-ups: import uniprod, generate and write the input files"),
    ("embed_verify_per_s", "inst/s", "higher", 0.25, "instances per second through CLI embed then verify, over one cycle's embed steps, each at its median"),
    ("embed_verify_s_p50", "s", "lower", 0.25, "median seconds per instance for embed then verify"),
    ("label_audit_per_s", "inst/s", "higher", 0.25, "instances per second through label --scheme fixed then test-adjacency (all pairs), over one cycle's label steps, each at its median"),
    ("label_audit_s_p50", "s", "lower", 0.25, "median seconds per instance for label then test-adjacency"),
    ("assemble_s", "s", "lower", 0.25, "median seconds of one assemble over one instance's label file, induced re-check included"),
    ("cycle_s", "s", "lower", 0.25, "seconds of one full cycle of the workload's commands, each step at its median"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set of the benchmark process"),
    ("label_bits_max", "bits", "lower", 0.15, "longest packed label any label command reported"),
    ("host_exponent", "ratio", "lower", 0.05, "log(vertex_count_bound(UgParams(n))) / log n from uniprod count"),
]

_EMBED = "embed_verify_per_s"
_LABEL = "label_audit_per_s"
_ALL = ("wide", "tall", "bounds", "suites")
_QT = ("wide", "tall")

# name, unit, moves, on, active
PER_LAYER = [
    ("bitcore.successor_set.calls", "count", _EMBED, "tall,bounds", ("wide", "tall", "bounds")),
    ("bitcore.successor_set.self_s", "s", _EMBED, "tall,bounds", ("wide", "tall", "bounds")),
    ("bitcore.check_bits.calls", "count", _EMBED, "wide,tall", _ALL),
    ("bitcore.build_biased_bst.self_s", "s", _LABEL, "tall", _ALL),
    ("treeseq.build_tree_sequence.self_s", "s", f"{_EMBED},{_LABEL}", "tall", _ALL),
    ("treeseq.LcpCodec.decode.calls", "count", f"{_LABEL},assemble_s", "wide", _QT),
    ("treeseq.LcpCodec.decode.self_s", "s", f"{_LABEL},assemble_s", "wide", _QT),
    ("treeseq.LcpCodec.decode.max_bits", "bits", "label_bits_max", "tall", _QT),
    ("treeseq.LcpCodec.encode.calls", "count", _LABEL, "tall", _QT),
    ("closure.embed_interval_graph.self_s", "s", _EMBED, "wide", _ALL),
    ("closure.IntervalRep.intersection_graph.self_s", "s", _EMBED, "wide", _ALL),
    ("closure.interval_separator.calls", "count", _EMBED, "wide", _ALL),
    ("closure.interval_separator.self_s", "s", _EMBED, "wide", _ALL),
    ("closure.perturb_left_endpoints.self_s", "s", _EMBED, "wide", _ALL),
    ("closure.min_depth_in_range.calls", "count", _EMBED, "wide,tall", _ALL),
    ("decomp.ttree_from_decomposition.self_s", "s", f"{_EMBED},{_LABEL}", "wide", _ALL),
    ("decomp.tree_to_path_decomposition.self_s", "s", f"{_EMBED},{_LABEL}", "wide", _ALL),
    ("decomp.path_decomposition_to_intervals.self_s", "s", f"{_EMBED},{_LABEL}", "wide", _ALL),
    ("decomp.QtInstance.read_jsonl.self_s", "s", f"{_EMBED},{_LABEL}", "tall", _ALL),
    ("decomp.generate_qt_instance.self_s", "s", "setup_s", "wide,tall", _QT),
    ("decomp.QtInstance.write_jsonl.self_s", "s", "setup_s", "wide,tall,bounds,suites", _ALL),
    ("product.ProductWitness.validate.calls", "count", _EMBED, "wide,tall", _ALL),
    ("product.ProductWitness.validate.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("product.Graph.has_edge.calls", "count", _LABEL, "wide,tall", _ALL),
    ("product.Graph.write_jsonl.self_s", "s", "assemble_s,cycle_s", "bounds", _ALL),
    ("product.Graph.read_jsonl.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("unigraph.embed_qt.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("unigraph.embed.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("unigraph.validate_qt_embedding.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("unigraph.is_edge.calls", "count", _EMBED, "wide,tall", _ALL),
    ("unigraph.is_edge.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("unigraph.materialize.self_s", "s", "cycle_s", "bounds", ("bounds",)),
    ("unigraph.materialize.edges", "count", "cycle_s", "bounds", ("bounds",)),
    ("unigraph.vertex_bound_use", "ratio", "cycle_s", "bounds", ("bounds",)),
    ("unigraph.edge_bound_use", "ratio", "cycle_s", "bounds", ("bounds",)),
    ("compressor.build_saturator.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("compressor.verify_saturation.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("compressor.verify_saturation.pass_ratio", "ratio", "cycle_s", "suites", ("suites",)),
    ("compressor.maximum_matching.calls", "count", "cycle_s", "suites", ("suites",)),
    ("compressor.compress.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("compressor.compress.output_density", "ratio", "cycle_s", "suites", ("suites",)),
    ("induced.build_context.self_s", "s", _LABEL, "tall", _ALL),
    ("induced.fixup.self_s", "s", _LABEL, "tall", _ALL),
    ("induced.label_instance.self_s", "s", _LABEL, "tall", _ALL),
    ("induced.pack_label.calls", "count", _LABEL, "tall", _ALL),
    ("induced.pack_label.self_s", "s", _LABEL, "tall", _ALL),
    ("induced.unpack_label.calls", "count", _LABEL, "wide,tall", _ALL),
    ("induced.unpack_label.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("induced.adjacency_test.calls", "count", _LABEL, "wide,tall", _ALL),
    ("induced.adjacency_test.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("induced.adjacency_test.self_us_per_call", "us", _LABEL, "wide", _ALL),
    ("induced.adjacency_test.true_ratio", "ratio", _LABEL, "wide,tall", _ALL),
    ("induced.verify_labelling.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("induced.verify_labelling.pairs", "count", _LABEL, "wide,tall", _ALL),
    ("induced.assemble_universal.self_s", "s", "assemble_s", "wide,tall", _ALL),
    ("induced.assemble_universal.candidate_ratio", "ratio", "assemble_s", "wide,tall", _ALL),
    ("induced.LabelledInstance.read_jsonl.self_s", "s", "assemble_s", "wide,tall", _ALL),
    ("induced.LabelledInstance.write_jsonl.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("harness.gen_bad_example.self_s", "s", "setup_s,cycle_s", "bounds,suites", ("bounds", "suites")),
    ("harness.bad_family_counts.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("harness.run_suite.sizes.self_s", "s", "cycle_s", "bounds", ("bounds",)),
    ("harness.run_suite.compression.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("harness.run_suite.growth.self_s", "s", "cycle_s", "suites", ("suites",)),
    ("cli.main.gen.self_s", "s", "setup_s", "wide,tall,bounds,suites", _ALL),
    ("cli.main.embed.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("cli.main.verify.self_s", "s", _EMBED, "wide,tall", _ALL),
    ("cli.main.label.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("cli.main.test-adjacency.self_s", "s", _LABEL, "wide,tall", _ALL),
    ("cli.main.assemble.self_s", "s", "assemble_s", "wide,tall", _ALL),
    ("cli.main.count.self_s", "s", "cycle_s", "bounds", _ALL),
    ("cli.main.build-ug.self_s", "s", "cycle_s", "bounds", ("bounds",)),
    ("cli.main.run-suite.self_s", "s", "cycle_s", "bounds,suites", ("bounds", "suites")),
    # the size-claim quantities of bounds and the suites' own figures
    ("bounds.host_edges_per_s", "edges/s", "cycle_s", "bounds", ("bounds",)),
    ("suites.compress_s", "s", "cycle_s", "suites", ("suites",)),
    ("suites.growth_s", "s", "cycle_s", "suites", ("suites",)),
    ("suites.growth_slope_fixed", "ratio", "cycle_s", "suites", ("suites",)),
    ("suites.growth_slope_legacy", "ratio", "cycle_s", "suites", ("suites",)),
    # the traced run's own end-to-end figures, against which the untraced
    # run gives the tracing overhead
    ("traced.embed_verify_s_p50", "s", _EMBED, "wide,tall", _ALL),
    ("traced.label_audit_s_p50", "s", _LABEL, "wide,tall", _ALL),
    ("traced.assemble_s", "s", "assemble_s", "wide,tall", _ALL),
    ("traced.cycle_s", "s", "cycle_s", "wide,tall,bounds,suites", _ALL),
    ("traced.spans", "count", "cycle_s", "wide,tall,bounds,suites", _ALL),
    ("traced.hot_calls", "count", "cycle_s", "wide,tall,bounds,suites", _ALL),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, u, *_ in PER_LAYER],
    }


RUN_SECONDS = 25


def _better(name):
    if name.endswith(("per_s", "pass_ratio", "true_ratio")) or name.startswith("bounds.host"):
        return "higher"
    return "lower"


# ---------------------------------------------------------------------------
# computing values


def _median(xs):
    return statistics.median(xs) if xs else None


def _rate(xs):
    return len(xs) / sum(xs) if xs else None


def _fact(facts, key, pick=max):
    vals = [f[key] for f in facts if key in f]
    return pick(vals) if vals else None


def end_to_end(run: dict) -> dict:
    s = run["samples"]
    facts = run["facts"]
    return {
        "setup_s": run["setup_s"],
        "embed_verify_per_s": _rate(run["per_step"].get("embed_verify")),
        "embed_verify_s_p50": _median(s.get("embed_verify")),
        "label_audit_per_s": _rate(run["per_step"].get("label_audit")),
        "label_audit_s_p50": _median(s.get("label_audit")),
        "assemble_s": _median(s.get("assemble")),
        "cycle_s": run["cycle_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "label_bits_max": _fact(facts, "label_bits"),
        "host_exponent": _fact(facts, "host_exponent"),
    }


def per_layer(tracer, run: dict) -> dict:
    """Per-layer metrics of a traced run, per completed cycle.

    Call counts, self times and summed quantities are divided by the
    number of cycles (set-up work is counted once), so that they describe
    a fixed amount of work however many cycles fit in the run.
    """
    e2e = end_to_end(run)
    samples, facts = run["samples"], run["facts"]
    cycles = run["cycles"]
    calls = tracer.calls(cycles)
    st = {key: value / cycles for key, value in tracer.stats.items()}
    out = {}
    for name, *_ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and not name.startswith("traced."):
            count, own = calls.get(head, (0, 0.0))
            out[name] = count if stat == "calls" else own
    adj_calls, adj_self = calls.get("induced.adjacency_test", (0, 0.0))
    sat_calls = calls.get("compressor.verify_saturation", (0, 0.0))[0]
    host = [f for f in facts if "edges" in f]
    host_s = sum(sum(f["secs"]) for f in host)
    out.update(
        {
            "treeseq.LcpCodec.decode.max_bits": tracer.stats["decode.max_bits"],
            "unigraph.materialize.edges": st.get("materialize.edges", 0.0),
            "unigraph.vertex_bound_use": tracer.stats["vertex_bound_use"],
            "unigraph.edge_bound_use": tracer.stats["edge_bound_use"],
            "compressor.verify_saturation.pass_ratio": st["saturation.verified"] / sat_calls if sat_calls else 0.0,
            "compressor.compress.output_density": (
                st["compress.density_sum"] / st["compress.outputs"] if st.get("compress.outputs") else 0.0
            ),
            "induced.adjacency_test.self_us_per_call": 1e6 * adj_self / adj_calls if adj_calls else 0.0,
            "induced.adjacency_test.true_ratio": st["adjacency.true"] / adj_calls if adj_calls else 0.0,
            "induced.verify_labelling.pairs": st.get("verify_labelling.pairs", 0.0),
            "induced.assemble_universal.candidate_ratio": (
                tracer.hot_calls_under("induced.assemble_universal", "induced.adjacency_test")
                / tracer.stats["assemble.label_pairs"]
                if tracer.stats["assemble.label_pairs"]
                else 0.0
            ),
            "bounds.host_edges_per_s": sum(f["edges"] * len(f["secs"]) for f in host) / host_s if host_s else 0.0,
            "suites.compress_s": _median(samples.get("compress")) or 0.0,
            "suites.growth_s": _median(samples.get("growth")) or 0.0,
            "suites.growth_slope_fixed": _fact(facts, "slope_fixed") or 0.0,
            "suites.growth_slope_legacy": _fact(facts, "slope_legacy") or 0.0,
            "traced.embed_verify_s_p50": e2e["embed_verify_s_p50"],
            "traced.label_audit_s_p50": e2e["label_audit_s_p50"],
            "traced.assemble_s": e2e["assemble_s"],
            "traced.cycle_s": e2e["cycle_s"],
            "traced.spans": sum(c[0] for name, c in calls.items() if name not in HOT),
            "traced.hot_calls": sum(c[0] for name, c in calls.items() if name in HOT),
        }
    )
    return out


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
