"""In-memory span tracer installed around uniprod's public functions.

The tracer never edits the package: it replaces each public function in
every ``uniprod`` namespace that holds it (modules bind names such as
``embed_qt`` at import time) and wraps the listed class methods on their
class.  A wrapped call is either

* a span: one record with name, start, end, parent span, operation id,
  the CLI command it ran under, and its self time; or
* a hot leaf: no record per call, only a (parent span, name) aggregate of
  call count, total time and self time, so that functions called
  millions of times keep memory flat.

Self time is a call's duration minus the time its wrapped children
cover, hot or not.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "bitcore",
    "treeseq",
    "closure",
    "product",
    "decomp",
    "unigraph",
    "compressor",
    "induced",
    "harness",
    "cli",
)

# Public methods wrapped on their class: module -> class -> methods.
METHODS = {
    "treeseq": {"LcpCodec": ("encode", "decode")},
    "closure": {"IntervalRep": ("intersection_graph", "clique_number", "write_jsonl", "read_jsonl")},
    "product": {
        "Graph": ("has_edge", "write_jsonl", "read_jsonl", "induced_subgraph", "degree_sequence"),
        "ProductWitness": ("validate",),
    },
    "decomp": {
        "QtInstance": ("write_jsonl", "read_jsonl"),
        "TreeDecomposition": ("validate",),
        "TTree": ("validate", "family_decomposition"),
    },
    "compressor": {"Saturator": ("validate", "write_jsonl", "read_jsonl")},
    "induced": {"LabelledInstance": ("write_jsonl", "read_jsonl")},
    "harness": {"Report": ("write",)},
}

# Aggregated per parent span instead of recorded one span per call.
HOT = frozenset(
    {
        "bitcore.check_bits",
        "bitcore.successor_set",
        "treeseq.LcpCodec.encode",
        "treeseq.LcpCodec.decode",
        "closure.min_depth_in_range",
        "product.Graph.has_edge",
        "unigraph.is_edge",
        "induced.adjacency_test",
        "induced.pack_label",
        "induced.unpack_label",
    }
)

# Public functions left unwrapped: sub-microsecond bit predicates whose
# wrapper would cost more than their body (their time stays in the
# caller's self time), and generators, whose call returns before the work.
SKIP = frozenset(
    {
        "bitcore.is_prefix",
        "bitcore.compatible",
        "bitcore.lcp_len",
        "bitcore.render",
        "bitcore.signature",
        "bitcore.strip_successor",
        "bitcore.in_successor_set",
        "bitcore.enumerate_bsts",
        "unigraph.check_vertex",
        "unigraph.directed_edge",
    }
)


class Tracer:
    def __init__(self):
        self.originals = {}  # name -> unwrapped function
        self.spans = []  # [id, name, start, end, parent, op, stage, self]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> [calls, total, self]
        self.stats = defaultdict(float)  # counters taken from arguments and results
        self.op = None
        self.stage = None
        self._stack = []  # frames: [start, child_time, owner span id]
        self._next = 1

    # -- wrapping -------------------------------------------------------

    def _span(self, name, fn):
        stack, spans = self._stack, self.spans
        hook = HOOKS.get(name)
        split = SPLIT.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][2] if stack else None
            label = name
            if split is not None:
                label = f"{name}.{split(args, kwargs)}"
                if name == "cli.main":
                    self.stage = label[len(name) + 1:]
            frame = [perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                spans.append([sid, label, frame[0], end, parent, self.op, self.stage, dur - frame[1]])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapped

    def _hot(self, name, fn):
        stack, agg = self._stack, self.agg
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            owner = stack[-1][2] if stack else None
            frame = [perf_counter(), 0.0, owner]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                cell = agg[(owner, name)]
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapped

    def wrap(self, name, fn):
        self.originals[name] = fn
        return (self._hot if name in HOT else self._span)(name, fn)

    def install(self):
        """Wrap every public uniprod function and the listed methods."""
        mods = {m: importlib.import_module(f"uniprod.{m}") for m in MODULES}
        namespaces = [mod for key, mod in sys.modules.items() if key == "uniprod" or key.startswith("uniprod.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrapped = self.wrap(name, obj)
                for ns in namespaces:  # rebind the name wherever it was imported
                    for key, val in list(vars(ns).items()):
                        if val is obj:
                            setattr(ns, key, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))

    # -- results --------------------------------------------------------

    def calls(self, cycles):
        """name -> [calls, self seconds] per cycle, over spans and hot aggregates.

        Spans of operation ``setup`` and the hot calls under them are
        counted whole; everything else is divided by ``cycles``.
        """
        setup = {s[0] for s in self.spans if s[5] == "setup"}
        out = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            share = 1 if span[0] in setup else 1 / cycles
            cell = out[span[1]]
            cell[0] += share
            cell[1] += span[7] * share
        for (owner, name), (count, _, own) in self.agg.items():
            share = 1 if owner in setup else 1 / cycles
            cell = out[name]
            cell[0] += count * share
            cell[1] += own * share
        return out

    def hot_calls_under(self, span_name, hot_name):
        """Hot calls made directly under spans with the given name."""
        owners = {s[0] for s in self.spans if s[1] == span_name}
        return sum(c[0] for (owner, name), c in self.agg.items() if name == hot_name and owner in owners)

    def stage_breakdown(self):
        """CLI command -> module -> self seconds, hot leaves included."""
        stage_of = {s[0]: s[6] for s in self.spans}
        out = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s[6]][s[1].split(".")[0]] += s[7]
        for (owner, name), (_, _, own) in self.agg.items():
            out[stage_of.get(owner)][name.split(".")[0]] += own
        return {str(stage): dict(mods) for stage, mods in out.items()}

    def write(self, path):
        """Spans then hot aggregates, one JSON record per line."""
        keys = ("id", "name", "start", "end", "parent", "op", "stage", "self")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            for (owner, name), (count, total, own) in self.agg.items():
                fh.write(json.dumps({"hot": name, "parent": owner, "calls": count, "total": total, "self": own}) + "\n")


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


# Spans of these functions are named per first argument: the CLI command
# (``cli.main.embed``, ``cli.main.gen``) or the suite (``harness.run_suite.sizes``).
SPLIT = {
    "cli.main": lambda args, kwargs: (_first(args, kwargs) or ["none"])[0],
    "harness.run_suite": _first,
}


def _materialize(tr, args, kwargs, g):
    p = args[0]
    st = tr.stats
    st["materialize.edges"] += g.m
    vb = tr.originals["unigraph.vertex_count_bound"](p)
    eb = tr.originals["unigraph.edge_count_bound"](p)
    st["vertex_bound_use"] = max(st["vertex_bound_use"], g.n / vb)
    st["edge_bound_use"] = max(st["edge_bound_use"], g.m / eb)


def _compress(tr, args, kwargs, hn):
    n_u = args[1].n_u
    tr.stats["compress.density_sum"] += hn.m / math.comb(n_u, 2) if n_u > 1 else 1.0
    tr.stats["compress.outputs"] += 1


def _decode(tr, args, kwargs, result):
    tr.stats["decode.max_bits"] = max(tr.stats["decode.max_bits"], len(args[2]))


def _count(key, value=lambda result: 1 if result else 0):
    def hook(tr, args, kwargs, result):
        tr.stats[key] += value(result)

    return hook


# Counters read from arguments and results: name -> fn(tracer, args, kwargs, result).
HOOKS = {
    "unigraph.materialize": _materialize,
    "compressor.compress": _compress,
    "compressor.verify_saturation": _count("saturation.verified"),
    "treeseq.LcpCodec.decode": _decode,
    "induced.adjacency_test": _count("adjacency.true"),
    "induced.verify_labelling": _count("verify_labelling.pairs", int),
    "induced.assemble_universal": _count("assemble.label_pairs", lambda un: math.comb(un.n, 2)),
}
