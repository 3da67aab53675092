"""Command line front end.

One subcommand per pipeline stage: generate instances, embed them into
the universal graph, verify witness files, build or count the graph
itself, compress, label, test adjacency from labels alone, assemble the
induced-universal graph, and run batch suites.  Every command is
deterministic given its flags; artifacts default into a cache directory
overridable via UNIPROD_CACHE.

This module imports only io and the standard library.  Each command
imports the modules it runs when it runs, so ``gen qt`` loads the
instance layer alone (io, product, bitcore, closure, decomp), never the
host, labelling or compression modules.  The label schemes and suite
names that the parser offers are defined in io for that reason.

Exit codes: 0 success; 1 verification failed or an input was rejected
(AssertionError, ValueError, OSError); 2 bad usage; 3 internal error: any
other exception is a bug, RuntimeError included (embed raises it only as
"edge image ... fails adjacency", which cannot happen), and its traceback
goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import traceback

from .io import SCHEMES, SUITES, integer, json_id, key, read_records, write_lines


def _cache_dir() -> str:
    path = os.environ.get("UNIPROD_CACHE") or os.path.join(tempfile.gettempdir(), "uniprod")
    os.makedirs(path, exist_ok=True)
    return path


def _out_path(args, default_name: str) -> str:
    return args.out if args.out else os.path.join(_cache_dir(), default_name)


def _cmd_gen(args) -> int:
    if args.kind == "qt":
        from .decomp import generate_qt_instance

        inst = generate_qt_instance(args.t, args.n, args.h, args.seed)
        out = _out_path(args, f"qt_t{args.t}_n{args.n}_h{args.h}_s{args.seed}.jsonl")
        inst.write_jsonl(out)
        print(f"instance: {inst.graph.n} vertices, {inst.graph.m} edges, "
              f"t={inst.t}, rows={inst.h} -> {out}")
    else:
        from .harness import gen_bad_example

        ex = gen_bad_example(args.n, args.i, args.j)
        out = _out_path(args, f"bad_n{args.n}_i{args.i}_j{args.j}.jsonl")
        ex.instance.write_jsonl(out)
        ivs = os.path.splitext(out)[0] + ".intervals.jsonl"
        _, rep = ex.layout
        rep.write_jsonl(ivs)
        print(f"{ex.instance.graph.name}: {ex.instance.graph.n} vertices -> {out}")
        print(f"intervals -> {ivs}")
    return 0


def _cmd_embed(args) -> int:
    from .decomp import QtInstance
    from .unigraph import UgParams, embed_qt

    inst = QtInstance.read_jsonl(args.instance)
    p = UgParams(args.n or inst.graph.n, lam=args.lam)
    emb = embed_qt(p, inst)
    out = _out_path(args, os.path.basename(args.instance) + ".witness.jsonl")
    # the bytes of json.dumps on {"v": v, "i": col, "x": x, "y": y, "z": z}:
    # x and y are row-tree signatures, and col and z are ints
    lines = (
        f'{{"v": {json_id(v)}, "i": {col}, "x": "{x}", "y": "{y}", "z": {z}}}\n'
        for v, ((x, y, z), col) in sorted(emb.mapping.items(), key=lambda item: repr(item[0]))
    )
    write_lines(out, "qt-witness", {"n": p.n, "lam": p.lam, "omega": emb.omega}, lines)
    print(f"embedded {inst.graph.n} vertices into ug(n={p.n}) x K_{emb.omega} -> {out}")
    return 0


def _cmd_verify(args) -> int:
    from .decomp import QtInstance
    from .unigraph import QtEmbedding, UgParams, validate_qt_embedding

    inst = QtInstance.read_jsonl(args.instance)

    def parse(head, records):
        mapping, vertices = {}, inst.graph.vertices()
        for rec in records:
            v, x, y = key(rec["v"]), rec["x"], rec["y"]
            if v not in vertices:
                raise ValueError(f"vertex {v!r} is not in {args.instance}")
            if v in mapping:
                raise ValueError(f"vertex {v!r} is mapped twice")
            if type(x) is not str or type(y) is not str:
                raise ValueError(f"vertex {v!r}: x and y must be strings")
            # integer() is called only to raise its error
            z = rec["z"]
            if type(z) is not int:
                integer(z, "z")
            i = rec["i"]
            if type(i) is not int:
                integer(i, "i")
            mapping[v] = ((x, y, z), i)
        n, lam, omega = (integer(head[name], name) for name in ("n", "lam", "omega"))
        if omega < 1:
            raise ValueError("omega >= 1 required")
        return QtEmbedding(mapping=mapping, omega=omega, params=UgParams(n, lam=lam))

    emb = read_records(args.witness, "qt-witness", parse)
    validate_qt_embedding(emb.params, inst, emb)
    p = emb.params
    print(f"witness ok: {len(emb.mapping)} vertices, {inst.graph.m} edges verified "
          f"in ug(n={p.n}, lam={p.lam}) x K_{emb.omega}")
    return 0


def _cmd_build_ug(args) -> int:
    from .unigraph import UgParams, edge_count_bound, materialize, vertex_count_bound

    p = UgParams(args.n, lam=args.lam)
    vb, eb = vertex_count_bound(p), edge_count_bound(p)
    if args.mode == "implicit":
        print(f"n={p.n} d={p.d} lam={p.lam} budget={p.budget}")
        print(f"vertex bound {vb}, edge bound {eb}; adjacency via is_edge")
        return 0
    g = materialize(p)
    out = _out_path(args, f"ug_n{p.n}_lam{p.lam}.jsonl")
    g.write_jsonl(out)
    print(f"{g.name}: {g.n} vertices (bound {vb}), {g.m} edges (bound {eb}) -> {out}")
    return 0


def _cmd_count(args) -> int:
    from .unigraph import UgParams, edge_count_bound, host_degrees, vertex_count_bound

    p = UgParams(args.n, lam=args.lam)
    vb, eb = vertex_count_bound(p), edge_count_bound(p)
    row = {"n": p.n, "d": p.d, "lam": p.lam, "vertex_bound": vb, "edge_bound": eb}
    degrees = host_degrees(p)
    if degrees is not None:
        row.update({"vertices": sum(m for _, m in degrees), "edges": sum(g * m for g, m in degrees) // 2})
    print(json.dumps(row))
    return 0


def _cmd_compress(args) -> int:
    from .compressor import build_saturator, compress, verify_saturation
    from .product import Graph

    g = Graph.read_jsonl(args.graph)  # vertices 0..n-1, as saturators expect
    n0 = args.n0 if args.n0 is not None else g.n
    s = verdict = None
    for attempt in range(args.retries + 1):
        s = build_saturator(n0, args.k, args.eps, seed=args.seed + attempt)
        order = args.n if args.n is not None else min(4, s.n_u)
        verdict = verify_saturation(s, n=order, rng_seed=args.seed)
        if verdict:
            if attempt:
                print(f"saturator verified after {attempt} regeneration(s)")
            break
        print(f"seed {args.seed + attempt}: saturation failed ({verdict.mode}), "
              f"witness {sorted(verdict.witness)}", file=sys.stderr)
    if not verdict:
        return 1
    hn = compress(g, s)
    out = _out_path(args, os.path.basename(args.graph) + ".compressed.jsonl")
    hn.write_jsonl(out)
    sat_out = os.path.splitext(out)[0] + ".saturator.jsonl"
    s.write_jsonl(sat_out)
    print(f"{hn.name}: {hn.n} vertices, {hn.m} edges (cap {s.d_sat ** 2 * g.m}) -> {out}")
    print(f"saturator (d_sat={s.d_sat}, verified {verdict.mode}) -> {sat_out}")
    return 0


def _cmd_label(args) -> int:
    from .decomp import QtInstance
    from .induced import LabelParams, build_context, label_instance

    inst = QtInstance.read_jsonl(args.instance)
    params = LabelParams(n=args.n or inst.graph.n, t=inst.t)
    ctx = build_context(inst, params=params)
    li = label_instance(ctx, scheme=args.scheme)
    out = _out_path(args, os.path.basename(args.instance) + f".{args.scheme}.labels.jsonl")
    li.write_jsonl(out)
    bits = max(len(label.bits) for label in li.labels.values())
    print(f"{len(li.labels)} {args.scheme} labels, longest {bits} bits -> {out}")
    return 0


def _cmd_test_adjacency(args) -> int:
    from .induced import LabelledInstance, adjacency_test, verify_labelling

    li = LabelledInstance.read_jsonl(args.labels)
    if (args.u is None) != (args.v is None):
        raise ValueError("--u needs --v" if args.v is None else "--v needs --u")
    if args.u is None:
        pairs = verify_labelling(li)
        print(f"tester agrees with the graph on all {pairs} vertex pairs")
        return 0
    keys = {repr(v): v for v in li.labels}
    try:
        u, v = keys[args.u], keys[args.v]
    except KeyError as missing:
        raise ValueError(f"no vertex {missing} in {args.labels}") from None
    verdict = adjacency_test(li.labels[u], li.labels[v])
    print("adjacent" if verdict else "not adjacent")
    return 0


def _cmd_assemble(args) -> int:
    from .induced import LabelledInstance, assemble_universal

    corpus = [LabelledInstance.read_jsonl(path) for path in args.labels]
    un = assemble_universal(corpus)
    out = _out_path(args, "universal.jsonl")
    un.write_jsonl(out)
    total = sum(len(li.labels) for li in corpus)
    print(f"{un.name}: {un.n} vertices, {un.m} edges from {len(corpus)} instances "
          f"({total} labelled vertices) -> {out}")
    return 0


def _cmd_run_suite(args) -> int:
    from .harness import run_suite

    cfg = {"seed": args.seed}
    for key in ("n", "t", "count", "n0", "k", "eps"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.ns:
        cfg["ns"] = args.ns
    if args.lam is not None:
        cfg["lam"] = args.lam
    report = run_suite(args.suite, cfg)
    out = _out_path(args, f"report_{args.suite}.json")
    report.write(out)
    if args.csv:
        report.write_csv(args.csv)
    print(report.summary())
    print(f"report -> {out}" + (f", plot data -> {args.csv}" if args.csv else ""))
    return 0 if report.ok else 1


def _cmd_report(args) -> int:
    from .harness import Report

    try:
        with open(args.path) as fh:
            data = json.load(fh)
    except RecursionError as exc:
        raise ValueError(f"{args.path} is not a suite report: {exc!r}") from None
    try:
        rep = Report(data["suite"], data.get("config", {}), checks=data.get("checks", []),
                     rows=data.get("rows", []), runtime=data.get("runtime_s", 0.0))
        print(rep.summary())
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{args.path} is not a suite report: {exc!r}") from None
    return 0 if rep.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each ``parse_args`` returns a new Namespace."""
    ap = argparse.ArgumentParser(prog="uniprod",
                                 description="universal graphs for tree-times-path products")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gq = gen_sub.add_parser("qt", help="random subgraph of (t-tree) x path")
    gq.add_argument("--t", type=int, default=2)
    gq.add_argument("--n", type=int, default=24)
    gq.add_argument("--h", type=int, default=4)
    gq.add_argument("--seed", type=int, default=0)
    gq.add_argument("--out")
    gq.set_defaults(func=_cmd_gen, kind="qt")
    gb = gen_sub.add_parser("bad", help="double-star family member")
    gb.add_argument("--n", type=int, required=True)
    gb.add_argument("--i", type=int, default=1)
    gb.add_argument("--j", type=int, default=1)
    gb.add_argument("--out")
    gb.set_defaults(func=_cmd_gen, kind="bad")

    em = sub.add_parser("embed", help="embed an instance into the universal graph")
    em.add_argument("--instance", required=True)
    em.add_argument("--n", type=int)
    em.add_argument("--lambda", dest="lam", type=int)
    em.add_argument("--out")
    em.set_defaults(func=_cmd_embed)

    ve = sub.add_parser("verify", help="re-validate a witness file")
    ve.add_argument("--instance", required=True)
    ve.add_argument("--witness", required=True)
    ve.set_defaults(func=_cmd_verify)

    bu = sub.add_parser("build-ug", help="materialize the universal graph or print its parameters")
    bu.add_argument("--n", type=int, required=True)
    bu.add_argument("--lambda", dest="lam", type=int)
    bu.add_argument("--mode", choices=("explicit", "implicit"), default="implicit")
    bu.add_argument("--out")
    bu.set_defaults(func=_cmd_build_ug)

    co = sub.add_parser("count", help="size bounds, plus exact counts when the class table is within the cap")
    co.add_argument("--n", type=int, required=True)
    co.add_argument("--lambda", dest="lam", type=int)
    co.set_defaults(func=_cmd_count)

    cp = sub.add_parser("compress", help="contract a graph through a verified saturator")
    cp.add_argument("--graph", required=True)
    cp.add_argument("--n0", type=int, help="saturator domain size; default is the graph order")
    cp.add_argument("--k", type=int, required=True)
    cp.add_argument("--eps", type=float, default=0.5)
    cp.add_argument("--n", type=int, help="saturation order to verify; default min(4, |U|)")
    cp.add_argument("--retries", type=int, default=8)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--out")
    cp.set_defaults(func=_cmd_compress)

    la = sub.add_parser("label", help="compute adjacency labels for an instance")
    la.add_argument("--instance", required=True)
    la.add_argument("--scheme", choices=sorted(SCHEMES), default="fixed")
    la.add_argument("--n", type=int)
    la.add_argument("--out")
    la.set_defaults(func=_cmd_label)

    ta = sub.add_parser("test-adjacency", help="query labels, or audit all pairs")
    ta.add_argument("--labels", required=True)
    ta.add_argument("--u", help="vertex id (repr form); omit to audit every pair")
    ta.add_argument("--v")
    ta.set_defaults(func=_cmd_test_adjacency)

    asm = sub.add_parser("assemble", help="union labelled instances into one induced-universal graph")
    asm.add_argument("--labels", nargs="+", required=True)
    asm.add_argument("--out")
    asm.set_defaults(func=_cmd_assemble)

    rs = sub.add_parser("run-suite", help="run a named verification suite")
    rs.add_argument("suite", choices=SUITES)
    rs.add_argument("--n", type=int)
    rs.add_argument("--t", type=int)
    rs.add_argument("--count", type=int)
    rs.add_argument("--seed", type=int, default=0)
    rs.add_argument("--ns", type=int, nargs="+")
    rs.add_argument("--lambda", dest="lam", type=int)
    rs.add_argument("--n0", type=int)
    rs.add_argument("--k", type=int)
    rs.add_argument("--eps", type=float)
    rs.add_argument("--csv")
    rs.add_argument("--out")
    rs.set_defaults(func=_cmd_run_suite)

    rp = sub.add_parser("report", help="pretty-print a stored report")
    rp.add_argument("path")
    rp.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AssertionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
