"""Corpus generation, density experiments, and batch verification suites.

Besides random product instances, this module builds the adversarial
double-star family: a tree whose hub vertices sit next to one leaf of
each star, so the legacy labelling leaks the leaf's identity into the
hub labels and the label graph picks up a quadratic bipartite core.
The depth-fixup scheme caps that leak, and the growth suite measures
the two slopes side by side.

Suites bundle the end-to-end checks behind one entry point returning a
machine-readable report; the CLI maps report failures to exit codes.
Only the instance layer is imported with this module, so ``gen bad``
loads no more; each suite, and the family counts, import the host,
labelling or compression modules they run.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .closure import IntervalRep
from .decomp import QtInstance, TTree, generate_qt_instance, grow_ttree
from .io import SCHEMES, SUITES
from .product import Graph


@dataclass
class BadExample:
    """One member of the double-star family, on a single product row, with its prescribed host layout."""

    instance: QtInstance
    layout: tuple[TTree, IntervalRep]
    spine: dict  # role name -> vertex id


def gen_bad_example(n: int, i: int, j: int) -> BadExample:
    """Double-star tree member H_{i,j} with its prescribed intervals.

    The hub v spans everything, the star centers split the line, and
    every leaf is a unit interval; which leaves are present is steered
    by i on the left star and j on the right.  The left hub neighbour w
    is the leaf just past position n/12, so its position among the kept
    leaves shifts with i (and likewise u with j).  The 1-tree grows along
    a preorder from w, each vertex attached to and owned by its tree
    parent, making w the attach vertex of v.
    """
    if n % 12 or n < 24:
        raise ValueError("n must be a multiple of 12, at least 24")
    m = n // 12
    if not (1 <= i <= m and 1 <= j <= m):
        raise ValueError(f"need 1 <= i, j <= {m}")
    p = m + 1
    left = sorted({p} | set(range(1, i + 1)) | set(range(2 * m + 1, 3 * m - i + 1))
                  | set(range(n // 4 + 1, n // 4 + m + 1)))
    right = sorted({p} | set(range(1, j + 1)) | set(range(2 * m + 1, 3 * m - j + 1))
                   | set(range(n // 4 + 1, n // 4 + m + 1)))
    w, u = f"a{p}", f"b{p}"
    verts = ["v", "a", "b"] + [f"a{k}" for k in left] + [f"b{k}" for k in right]
    edges = [("v", w), ("v", u)] + [("a", f"a{k}") for k in left] + [("b", f"b{k}") for k in right]
    graph = Graph(verts, edges, name=f"double-star(n={n}, i={i}, j={j})")

    ivs = {"v": (1, n), "a": (1, Fraction(n - 1, 2)), "b": (n // 2 + 1, n - 1)}
    for k in left:
        ivs[f"a{k}"] = (k, k)
    for k in right:
        ivs[f"b{k}"] = (n // 2 + k, n // 2 + k)
    rep = IntervalRep(ivs)

    order, parent, stack = [], {w: None}, [w]
    while stack:
        v = stack.pop()
        order.append(v)
        for nb in sorted(graph.neighbors(v), reverse=True):
            if nb != parent[v]:
                parent[nb] = v
                stack.append(nb)
    tt = grow_ttree(1, order, lambda pos, cliques: (frozenset({parent[order[pos]]}), parent[order[pos]]))

    instance = QtInstance(graph, graph, {v: (v, 1) for v in verts}, tt.family_decomposition(), t=1, h=1, seed=0)
    return BadExample(instance, (tt, rep), {"v": "v", "u": u, "w": w, "alpha": "a", "beta": "b"})


def bad_family_counts(n: int) -> dict:
    """Hub-label statistics of both schemes over the diagonal family i = j = 1..n/12.

    Each member is built once and both schemes label its one context.
    Per scheme, counts the distinct labels the two hubs v and u take
    across the family and the tester edges between the two label sets;
    the legacy scheme gives a full bipartite pattern there, the fixup
    scheme a near-linear one.  Checks, per scheme:

    - every member: build_context's checks, and make_label's assertions
      plus its pack round trip on each hub label;
    - member 1: the full labelling (label_instance) and its audit on
      every vertex pair (verify_labelling).

    The non-hub labels of members 2..n/12 are not built.
    """
    from .induced import LabelParams, adjacency_test, build_context, label_instance, make_label, verify_labelling

    params = LabelParams(n=n, t=1)
    m = n // 12
    hubs = {scheme: ([], []) for scheme in SCHEMES}
    for i in range(1, m + 1):
        ex = gen_bad_example(n, i, i)
        ctx = build_context(ex.instance, params=params, layout=ex.layout)
        hv, hu = ex.spine["v"], ex.spine["u"]
        for scheme, (lv, lu) in hubs.items():
            if i == 1:
                li = label_instance(ctx, scheme)
                verify_labelling(li)
                lv.append(li.labels[hv])
                lu.append(li.labels[hu])
            else:
                lv.append(make_label(ctx, hv, scheme))
                lu.append(make_label(ctx, hu, scheme))
    points = {}
    for scheme, (lv, lu) in hubs.items():
        sv, su = ({label.bits: label for label in hub} for hub in (lv, lu))
        cross = sum(1 for a in sv for b in su if a != b and adjacency_test(sv[a], su[b]))
        points[scheme] = {"n": n, "family": m, "scheme": scheme, "labels_v": len(sv), "labels_u": len(su),
                          "cross_edges": cross}
    return points


def bad_family_slope(ns) -> dict:
    """Per scheme, the log-log growth rate of the cross-edge count from the first family size to the last."""
    if len(ns) < 2 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"need at least two family sizes in increasing order, got {list(ns)}")
    counts = [bad_family_counts(n) for n in ns]
    out = {}
    for scheme in SCHEMES:
        points = [c[scheme] for c in counts]
        lo, hi = points[0], points[-1]
        slope = math.log(hi["cross_edges"] / lo["cross_edges"]) / math.log(hi["n"] / lo["n"])
        out[scheme] = {"scheme": scheme, "points": points, "slope": slope}
    return out


@dataclass
class Report:
    """Suite outcome: every check recorded, config embedded, CSV-friendly."""

    name: str
    config: dict
    checks: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # plot data, one dict per point
    runtime: float = 0.0

    def add(self, check: str, ok, **metrics) -> None:
        self.checks.append({"check": check, "ok": bool(ok), **metrics})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "config": self.config,
            "ok": self.ok,
            "runtime_s": round(self.runtime, 3),
            "checks": self.checks,
            "rows": self.rows,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=str)
            fh.write("\n")

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            if not self.rows:
                fh.write("")
                return
            writer = csv.DictWriter(fh, fieldnames=sorted({k for r in self.rows for k in r}))
            writer.writeheader()
            writer.writerows(self.rows)

    def summary(self) -> str:
        lines = [f"suite {self.name}: {'PASS' if self.ok else 'FAIL'} ({len(self.checks)} checks, {self.runtime:.1f}s)"]
        for c in self.checks:
            extra = ", ".join(f"{k}={v}" for k, v in c.items() if k not in ("check", "ok"))
            lines.append(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['check']}" + (f" ({extra})" if extra else ""))
        return "\n".join(lines)


def run_suite(name: str, config: dict | None = None) -> Report:
    """Execute a named verification suite; unknown names raise."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(_SUITES)}")
    config = dict(config or {})
    report = Report(name, config)
    start = time.time()
    _SUITES[name](config, report)
    report.runtime = time.time() - start
    if not report.checks:
        raise ValueError(f"suite {name!r} produced no checks; refusing a vacuous pass")
    return report


def _suite_universality(cfg: dict, report: Report) -> None:
    from .unigraph import UgParams, embed_qt

    n = int(cfg.get("n", 128))
    t = int(cfg.get("t", 2))
    count = int(cfg.get("count", 5))
    seed = int(cfg.get("seed", 0))
    if count < 1:
        raise ValueError("count must be positive")
    if min(n, 32) < t + 2:  # instance sizes are drawn from t + 2 .. min(n, 32)
        raise ValueError(f"n = {n} is below t + 2 = {t + 2}, the smallest instance" if n < t + 2
                         else f"t + 2 = {t + 2} is above 32, the largest instance")
    rng = random.Random(seed)
    p = UgParams(n)
    report.add("parameters", True, n=n, d=p.d, lam=p.lam, budget=p.budget)
    for k in range(count):
        ni = rng.randint(t + 2, min(n, 32))
        hi = rng.randint(1, max(1, ni // 2))
        inst = generate_qt_instance(t, ni, hi, rng.randrange(1 << 30))
        try:
            emb = embed_qt(p, inst)
            report.add(f"embed instance {k}", True, vertices=ni, rows=hi, omega=emb.omega)
            report.rows.append({"instance": k, "vertices": ni, "rows": hi, "omega": emb.omega})
        except (AssertionError, ValueError) as exc:  # a failed check; anything else is a bug and propagates
            report.add(f"embed instance {k}", False, vertices=ni, rows=hi, error=str(exc))


def _suite_sizes(cfg: dict, report: Report) -> None:
    from .unigraph import HOST_CAP, UgParams, dominates_stars, edge_count_bound, host_degrees, vertex_count_bound

    n = int(cfg.get("n", 4))
    p = UgParams(n, lam=cfg.get("lam"))
    vb, eb = vertex_count_bound(p), edge_count_bound(p)
    report.add("bounds computed", True, n=n, lam=p.lam, vertex_bound=vb, edge_bound=eb)
    row = {"n": n, "lam": p.lam, "vertex_bound": vb, "edge_bound": eb}
    degrees = host_degrees(p)
    if degrees is not None:
        nv, ne = sum(m for _, m in degrees), sum(g * m for g, m in degrees) // 2
        report.add("counted within bounds", nv <= vb and ne <= eb, vertices=nv, edges=ne)
        report.add("degree domination", dominates_stars(degrees, n), n=n)
        row.update({"vertices": nv, "edges": ne})
    else:
        report.add("count skipped", True, reason=f"budget {p.budget}: class table over cap {HOST_CAP}")
    report.rows.append(row)


def _suite_labels(cfg: dict, report: Report) -> None:
    from .induced import (
        LabelParams,
        assemble_universal,
        bag_stats,
        build_context,
        growth_report,
        label_instance,
        verify_labelling,
    )

    n = int(cfg.get("n", 24))
    t = int(cfg.get("t", 2))
    count = int(cfg.get("count", 4))
    seed = int(cfg.get("seed", 0))
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    params = LabelParams(n=n, t=t)
    corpus = []
    for k in range(count):
        hi = rng.randint(1, max(1, n // 4))
        inst = generate_qt_instance(t, n, hi, rng.randrange(1 << 30))
        ctx = build_context(inst, params=params)
        stats = bag_stats(ctx)
        report.add(f"bags instance {k}", stats["max_bag_fixed"] <= stats["reference"], **stats)
        for scheme in sorted(SCHEMES):
            li = label_instance(ctx, scheme)
            pairs = verify_labelling(li)
            report.add(f"tester exact {scheme} instance {k}", True, pairs=pairs)
            if scheme == "fixed":
                corpus.append(li)
    un = assemble_universal(corpus)
    growth = growth_report(un, params)
    report.add("corpus induced in assembled graph", True, **growth)
    report.rows.append(growth)


def _suite_growth(cfg: dict, report: Report) -> None:
    ns = tuple(cfg.get("ns") or (48, 96, 192))
    res = bad_family_slope(ns=ns)
    for scheme in SCHEMES:
        report.rows.extend(res[scheme]["points"])
        report.add(f"{scheme} slope measured", True, slope=round(res[scheme]["slope"], 3))
    legacy, fixed = res["legacy"]["slope"], res["fixed"]["slope"]
    report.add("fixup grows slower than legacy", fixed < legacy, legacy=round(legacy, 3), fixed=round(fixed, 3))


def _suite_compression(cfg: dict, report: Report) -> None:
    from .compressor import build_saturator, compress, embed_compressed, verify_saturation

    n0 = int(cfg.get("n0", 16))
    k = int(cfg.get("k", 2))
    eps = float(cfg.get("eps", 0.5))
    count = int(cfg.get("count", 5))
    seed = int(cfg.get("seed", 0))
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    for idx in range(count):
        s = build_saturator(n0, k, eps, seed=rng.randrange(1 << 30))
        verdict = verify_saturation(s, n=min(4, s.n_u), samples=10, rng_seed=idx)
        report.add(f"saturation {idx}", bool(verdict), mode=verdict.mode, d_sat=s.d_sat)
        if not verdict:
            continue
        g = Graph(range(s.n_v))
        for _ in range(2 * s.n_v):
            a, b = rng.sample(range(s.n_v), 2)
            g.add_edge(a, b)
        hn = compress(g, s)
        edge = sorted(g.edges())[0]
        emb = embed_compressed(Graph(range(2), [(0, 1)]), {0: edge[0], 1: edge[1]}, s, g, hn)
        report.add(f"compressed embedding {idx}", True, u_vertices=hn.n, u_edges=hn.m, image=sorted(emb.values()))


_SUITES = dict(zip(SUITES, (_suite_universality, _suite_sizes, _suite_labels, _suite_growth, _suite_compression),
                   strict=True))
