"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line with its measurements (visible with
pytest -s; pytest -v shows the per-criterion verdict either way).  The
criteria pin exact budgets, instance counts, and time limits; numbers
here are contract values, not tuning knobs.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from graphs import check_tree_sequence, degree_runs, enumerate_bsts, host_degree_sequence, in_successor_set, path_graph

from uniprod.bitcore import build_biased_bst, successor_set
from uniprod.closure import ClosureGraph, IntervalRep, embed_interval_graph, interval_separator, perturb_left_endpoints
from uniprod.compressor import build_saturator, compress, embed_compressed, verify_saturation
from uniprod.decomp import build_ttree, generate_qt_instance
from uniprod.harness import bad_family_slope
from uniprod.induced import (
    LabelParams,
    adjacency_test,
    assemble_universal,
    bag_stats,
    build_context,
    fixup,
    label_instance,
    verify_labelling,
)
from uniprod.product import Graph, PathFactor, ProductWitness
from uniprod.treeseq import LcpCodec, build_tree_sequence
from uniprod.unigraph import (
    UgParams,
    dominates_stars,
    edge_count_bound,
    embed,
    embed_qt,
    host_degrees,
    is_edge,
    materialize,
    validate_qt_embedding,
    vertex_count_bound,
)


def report(line: str) -> None:
    print(f"\n{line}")


def test_c01_biased_bst_depth_bound():
    # 10^4 random weighted trees; weight-w key in a weight-W tree must
    # sit at depth <= log2(W / w); integer form: 2^depth * w <= W
    start = time.monotonic()
    rng = random.Random(101)
    violations = 0
    for _ in range(10_000):
        keys = rng.sample(range(10_000), rng.randint(1, 16))
        w = {k: rng.randint(1, 100) for k in keys}
        t = build_biased_bst(keys, w)
        total = sum(w.values())
        for k in keys:
            if (1 << t.depth(k)) * w[k] > total:
                violations += 1
    took = time.monotonic() - start
    assert violations == 0
    assert took < 10.0
    report(f"criterion 01 PASS: 10000 weighted trees, 0 depth violations, {took:.1f}s")


def test_c02_successor_sets_exhaustive():
    # every BST on every subset of {1..7}: consecutive keys' signatures
    # must lie in the candidate set; candidate sets stay within h+1
    start = time.monotonic()
    trees = pairs = 0
    for size in range(1, 8):
        for keys in itertools.combinations(range(1, 8), size):
            for t in enumerate_bsts(keys):
                trees += 1
                h = t.height
                ordered = t.keys()
                for a, b in zip(ordered, ordered[1:]):
                    sa, sb = t.signature(a), t.signature(b)
                    assert sb in successor_set(sa, h), (keys, sa, sb)
                    assert in_successor_set(sa, sb, h)
                    pairs += 1
    sets_checked = 0
    for h in range(13):
        for length in range(h + 1):
            for bits in range(1 << length):
                sigma = format(bits, f"0{length}b") if length else ""
                assert len(successor_set(sigma, h)) <= h + 1
                sets_checked += 1
    took = time.monotonic() - start
    assert took < 30.0
    report(
        f"criterion 02 PASS: {trees} trees, {pairs} consecutive pairs, "
        f"{sets_checked} candidate sets <= h+1, {took:.1f}s"
    )


def test_c03_tree_sequence_contract():
    # every built sequence satisfies the cover/size/height clauses and
    # every shared key's transition code rewrites one signature into the next
    rng = random.Random(103)
    built = codes = 0
    for trial in range(300):
        rows = [rng.sample(range(200), rng.randint(1, 14)) for _ in range(rng.randint(1, 9))]
        trees = build_tree_sequence(rows)
        check_tree_sequence(rows, trees)
        built += 1
        seq_codec = LcpCodec(max(1, max(t.height for t in trees)))
        for t0, t1 in zip(trees, trees[1:]):
            for z in set(t0.keys()) & set(t1.keys()):
                nu = seq_codec.encode(t0.signature(z), t1.signature(z))
                assert seq_codec.decode(t0.signature(z), nu) == t1.signature(z)
                codes += 1
    strings = [""]
    for length in range(1, 6):
        strings += ["".join(b) for b in itertools.product("01", repeat=length)]
    codec = LcpCodec(5)
    roundtrips = 0
    for before in strings:
        for after in strings:
            assert codec.decode(before, codec.encode(before, after)) == after
            roundtrips += 1
    assert roundtrips == 63 * 63
    report(f"criterion 03 PASS: {built} sequences checked, {codes} transition codes, {roundtrips} codec roundtrips")


def test_c04_interval_universality():
    # >= 10^4 representation-distinct interval graphs on <= 8 vertices,
    # each embedded injectively and homomorphically into closure x clique
    start = time.monotonic()
    rng = random.Random(104)
    seen = set()
    embedded = 0
    while embedded < 10_000:
        n = rng.randint(1, 8)
        ivs = {}
        for v in range(n):
            a = Fraction(rng.randint(0, 20), rng.choice((1, 2, 3)))
            ivs[v] = (a, a + Fraction(rng.randint(0, 12), rng.choice((1, 2))))
        key = tuple(sorted(ivs.items()))
        if key in seen:
            continue
        seen.add(key)
        rep = IntervalRep(ivs)
        omega = max(1, rep.clique_number())
        w = embed_interval_graph(rep)
        cg, kf = w.factors
        assert kf.k == omega
        assert cg.d == max(0, (rep.n - 1).bit_length())
        assert len(set(w.coords.values())) == rep.n
        g = rep.intersection_graph()
        for u, v in g.edges():
            (cu, i), (cv, j) = w.coords[u], w.coords[v]
            assert (cu == cv and i != j) or cg.adjacent(cu, cv), (u, v)
            assert 1 <= i <= omega and 1 <= j <= omega
        embedded += 1
    took = time.monotonic() - start
    assert took < 60.0
    report(f"criterion 04 PASS: {embedded} distinct representations embedded, {took:.1f}s")


def test_c05_interval_separator():
    # 10^4 random instances: separator clique <= omega, sides <= n/2, no
    # edge crosses the split
    start = time.monotonic()
    rng = random.Random(105)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        ivs = {}
        for v in range(n):
            a = rng.randint(0, 30)
            ivs[v] = (Fraction(a), Fraction(a + rng.randint(0, 15)))
        rep = perturb_left_endpoints(IntervalRep(ivs))
        omega = rep.clique_number()
        x1, x2, z = interval_separator(rep, omega)
        assert len(z) <= omega
        assert len(x1) <= n // 2 and len(x2) <= n // 2
        assert set(x1) | set(x2) | z == set(rep.intervals)
        for u in x1:
            for v in x2:
                assert not rep.meets(u, v)
    took = time.monotonic() - start
    report(f"criterion 05 PASS: 10000 separator instances, 0 violations, {took:.1f}s")


def test_c06_universal_graph_size_bounds():
    # enumerate |V|, |E| for the whole small-parameter grid and compare
    # against the closed forms 2^(d+lam+3)(d+lam+3)^2, 2^(d+2lam+5)(d+lam+3)^6
    checked = []
    by_shape = {}
    for n in range(1, 17):
        for lam in range(0, 4):
            p = UgParams(n, lam=lam)
            key = (p.d, lam)
            if key not in by_shape:
                g = materialize(p)
                by_shape[key] = (g.n, g.m)
            nv, ne = by_shape[key]
            vb = (1 << (p.d + lam + 3)) * (p.d + lam + 3) ** 2
            eb = (1 << (p.d + 2 * lam + 5)) * (p.d + lam + 3) ** 6
            assert vertex_count_bound(p) == vb
            assert edge_count_bound(p) == eb
            assert nv <= vb and ne <= eb, (n, lam)
            checked.append((n, lam))
    report(f"criterion 06 PASS: {len(checked)} (n, lam) pairs enumerated, all within bounds")


def _random_layer_witness(rng: random.Random, n: int) -> ProductWitness:
    d = (n - 1).bit_length()
    cg = ClosureGraph(d)
    h = rng.randint(1, 6)
    coords, used, g = {}, set(), Graph()
    for v in range(rng.randint(1, 36)):
        c = (rng.randint(1, cg.n), rng.randint(1, h))
        if c in used:
            continue
        used.add(c)
        coords[v] = c
        g.add_vertex(v)
    vs = sorted(coords)
    for a, b in itertools.combinations(vs, 2):
        (c1, y1), (c2, y2) = coords[a], coords[b]
        if abs(y1 - y2) <= 1 and (c1 == c2 or cg.adjacent(c1, c2)) and coords[a] != coords[b]:
            if rng.random() < 0.6:
                g.add_edge(a, b)
    return ProductWitness(g, (cg, PathFactor(h)), coords)


def test_c07_universal_graph_universality():
    # 10^3 random layered instances over n in {16..512}, plus every
    # induced subgraph on <= 6 vertices of closure(2) x path(3)
    start = time.monotonic()
    rng = random.Random(107)
    for trial in range(1000):
        n = rng.choice((16, 32, 64, 128, 256, 512))
        w = _random_layer_witness(rng, n)
        p = UgParams(n)
        zeta = embed(p, w)
        assert len(set(zeta.values())) == len(zeta)
        for a, b in w.graph.edges():
            assert is_edge(p, zeta[a], zeta[b])
    cg = ClosureGraph(2)
    prod = [(c, y) for c in cg.vertices() for y in (1, 2, 3)]
    p6 = UgParams(6)
    subgraphs = 0
    for k in range(1, 7):
        for sub in itertools.combinations(prod, k):
            g = Graph(range(k))
            for i, j in itertools.combinations(range(k), 2):
                (c1, y1), (c2, y2) = sub[i], sub[j]
                if abs(y1 - y2) <= 1 and (c1 == c2 or cg.adjacent(c1, c2)):
                    g.add_edge(i, j)
            w = ProductWitness(g, (cg, PathFactor(3)), dict(enumerate(sub)))
            zeta = embed(p6, w)
            assert len(set(zeta.values())) == k
            for a, b in g.edges():
                assert is_edge(p6, zeta[a], zeta[b])
            subgraphs += 1
    took = time.monotonic() - start
    assert took < 300.0
    report(f"criterion 07 PASS: 1000 random instances + {subgraphs} exhaustive subgraphs, {took:.1f}s")


def test_c08_qt_pipeline():
    # 200 random bounded-treewidth instances through the full pipeline,
    # each end-to-end witness revalidated
    start = time.monotonic()
    rng = random.Random(108)
    sizes = []
    for trial in range(200):
        t = rng.randint(1, 3)
        n = rng.randint(t + 2, 64) if trial % 10 else rng.randint(65, 256)
        h = rng.randint(1, max(1, n // 3))
        inst = generate_qt_instance(t, n, h, rng_seed=trial)
        p = UgParams(n)
        emb = embed_qt(p, inst)
        validate_qt_embedding(p, inst, emb)
        sizes.append(n)
    took = time.monotonic() - start
    report(
        f"criterion 08 PASS: 200 pipeline runs (n up to {max(sizes)}), "
        f"all witnesses valid, {took:.1f}s"
    )


def test_c09_degree_domination():
    # the real graph passes the star-packing certificate; a path fails it
    for n, lam in ((4, 1), (8, 2)):
        p = UgParams(n, lam=lam)
        assert host_degrees(p) == degree_runs(host_degree_sequence(p))
        assert dominates_stars(host_degrees(p), n)
    assert not dominates_stars(degree_runs(path_graph(4).degree_sequence()), 4)
    report("criterion 09 PASS: materialized hosts certified, path control rejected")


def test_c10_compressor():
    # 100 seeded saturators verified by the exhaustive Hall scan
    # (regenerating failures), then 200 compressed-embedding runs
    start = time.monotonic()
    rng = random.Random(110)
    failures = 0
    saturators = []
    for i in range(100):
        k = rng.choice((1, 2, 3))
        n_u = rng.randint(2, min(7, 20 // k))
        n = min(8, n_u)
        seed = 1000 * i
        while True:
            s = build_saturator(k * n_u, k, eps=1.0, seed=seed)
            assert s.n_v <= 20
            verdict = verify_saturation(s, n=n)
            assert verdict.mode == "exhaustive"
            if verdict:
                break
            failures += 1
            seed += 1
        saturators.append((s, n))
    runs = 0
    while runs < 200:
        s, n = saturators[runs % len(saturators)]
        g = Graph(range(s.n_v), name=f"corpus{runs}")
        for _ in range(2 * s.n_v):
            a, b = rng.sample(range(s.n_v), 2)
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b)
        hn = compress(g, s)
        assert hn.m <= s.d_sat**2 * g.m
        fsize = rng.randint(1, max(1, n - 1))
        picks = rng.sample(sorted(g.vertices()), fsize)
        f = g.induced_subgraph(picks)
        emb = embed_compressed(f, {v: v for v in picks}, s, g, hn)
        assert len(set(emb.values())) == fsize
        runs += 1
    took = time.monotonic() - start
    rate = failures / (failures + 100)
    report(
        f"criterion 10 PASS: 100 exhaustive saturators (regen rate {rate:.2f}), "
        f"200 compressed embeddings, {took:.1f}s"
    )


def _label_corpus(count: int, nmax: int, seed: int, tmax: int = 3):
    rng = random.Random(seed)
    for i in range(count):
        t = rng.randint(1, tmax)
        if nmax > 64 and i % 20 == 0:
            n = rng.randint(65, nmax)
        else:
            n = rng.randint(t + 3, min(48, nmax))
        h = rng.randint(1, max(1, n // 3))
        yield build_context(generate_qt_instance(t, n, h, rng_seed=seed + i))


def test_c11_fixup_contract_everywhere():
    # reassigned nodes stay on their root paths, clique parents end at
    # most one level deeper, and a second pass is the identity
    instances = 0
    for ctx in _label_corpus(40, 40, seed=111):
        for y in range(1, ctx.h + 1):
            tree = ctx.trees[y]
            present = set(ctx.s_plus[y])
            for v in ctx.s_plus[y]:
                assert tree.is_ancestor(ctx.fixed.node[y][v], ctx.raw.node[y][v])
                for w in ctx.tt.cliques[v]:
                    if w in present:
                        assert tree.depth(ctx.fixed.node[y][w]) <= tree.depth(ctx.fixed.node[y][v]) + 1
        before = ctx.fixed
        ctx.raw = before
        fixup(ctx)
        assert ctx.fixed == before
        instances += 1
    report(f"criterion 11 PASS: {instances} instances, ancestor/depth/idempotence all hold")


def test_c12_adjacency_tester_exact():
    # >= 100 instances with t <= 3, n <= 256: the tester must reproduce
    # the instance graph on every vertex pair, from labels alone, in
    # either argument order
    start = time.monotonic()
    instances = pairs = 0
    for ctx in _label_corpus(100, 256, seed=112):
        li = label_instance(ctx, "fixed")
        pairs += verify_labelling(li)
        if instances % 7 == 0:
            pairs += verify_labelling(label_instance(ctx, "legacy"))
        if instances % 11 == 0:
            for a, b in itertools.combinations(sorted(li.labels, key=repr), 2):
                assert adjacency_test(li.labels[b], li.labels[a]) == li.graph.has_edge(a, b)
        instances += 1
    took = time.monotonic() - start
    assert instances >= 100
    assert took < 600.0
    report(f"criterion 12 PASS: {instances} instances, {pairs} pairs, 0 mismatches, {took:.1f}s")


def test_c13_assembled_graph_induces_corpus():
    # one shared label space; every member must reappear induced in the
    # assembled graph when vertices are looked up by label
    params = LabelParams(n=24, t=2)
    rng = random.Random(113)
    corpus = []
    for seed in range(8):
        inst = generate_qt_instance(2, 24, rng.randint(1, 8), rng_seed=600 + seed)
        ctx = build_context(inst, params=params)
        corpus.append(label_instance(ctx, "fixed"))
    un = assemble_universal(corpus)
    members = 0
    for li in corpus:
        verts = sorted(li.labels, key=repr)
        assert len({label.bits for label in li.labels.values()}) == li.graph.n
        for a, b in itertools.combinations(verts, 2):
            assert un.has_edge(li.labels[a].bits, li.labels[b].bits) == li.graph.has_edge(a, b)
        members += 1
    report(f"criterion 13 PASS: {members} corpus members induced in a {un.n}-vertex assembled graph")


def test_c14_adversarial_family_growth_gap():
    # the double-star family at n in {120, 240, 480}: legacy labels give
    # a near-quadratic cross-edge curve, the fixup scheme a subquadratic one
    start = time.monotonic()
    slopes = bad_family_slope(ns=(120, 240, 480))
    legacy, fixed = slopes["legacy"], slopes["fixed"]
    assert legacy["slope"] >= 1.8, legacy
    assert fixed["slope"] <= 1.5, fixed
    took = time.monotonic() - start
    report(
        f"criterion 14 PASS: legacy slope {legacy['slope']:.2f} >= 1.8, "
        f"fixup slope {fixed['slope']:.2f} <= 1.5, {took:.1f}s"
    )


def test_c15_bag_bound_trend():
    # report max bag sizes against t * (log2 n)^(t+2) over growing n;
    # the only hard assertion is the binomial reachability bound, which
    # bag_stats certifies exhaustively on hosts of at most 40 vertices
    rng = random.Random(115)
    trend = []
    for n in (64, 128, 256, 512):
        for t in (1, 2):
            inst = generate_qt_instance(t, n, max(2, n // 16), rng_seed=n + t)
            ctx = build_context(inst)
            stats = bag_stats(ctx)
            trend.append((n, t, stats["max_bag_fixed"], round(stats["reference"], 1)))
    fitted = max(row[2] / (row[1] * math.log2(row[0]) ** (row[1] + 2)) for row in trend)
    small = 0
    for trial in range(25):
        t = rng.randint(1, 3)
        tt = build_ttree(t, rng.randint(t + 1, 40), rng_seed=trial)
        for v in tt.order:
            for dist in range(4):
                assert len(tt.reachable_ancestors(v, dist)) <= tt.ancestor_count_bound(dist)
        small += 1
    report(
        f"criterion 15 PASS: trend {trend} (fitted constant {fitted:.3f}), "
        f"binomial reachability exact on {small} small hosts"
    )
