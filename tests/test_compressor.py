import itertools
import random

import pytest
from graphs import path_graph

from uniprod.compressor import (
    Saturator,
    build_saturator,
    compress,
    embed_compressed,
    maximum_matching,
    verify_saturation,
)
from uniprod.product import Graph, WitnessError


def brute_matching_size(lefts, neighbors) -> int:
    best = 0
    rights = sorted({u for v in lefts for u in neighbors(v)}, key=repr)
    for size in range(min(len(lefts), len(rights)), 0, -1):
        for ls in itertools.combinations(lefts, size):
            for rs in itertools.permutations(rights, size):
                if all(r in neighbors(l) for l, r in zip(ls, rs)):
                    return size
    return best


def brute_hall_ok(s: Saturator, n: int) -> bool:
    for size in range(1, min(n, s.n_v) + 1):
        for x in itertools.combinations(range(s.n_v), size):
            nbhd = set().union(*(s.adj[v] for v in x))
            if len(nbhd) < size:
                return False
    return True


def test_maximum_matching_matches_brute_force():
    rng = random.Random(21)
    for trial in range(150):
        nl, nr = rng.randint(0, 5), rng.randint(1, 5)
        adj = {v: frozenset(rng.sample(range(nr), rng.randint(0, nr))) for v in range(nl)}
        got = maximum_matching(sorted(adj), lambda v: sorted(adj[v]))
        for l, r in got.items():
            assert r in adj[l]
        assert len(set(got.values())) == len(got)
        assert len(got) == brute_matching_size(sorted(adj), adj.__getitem__)


def test_build_saturator_shape():
    s = build_saturator(10, 3, 0.5, seed=4)
    assert s.n_v == 12 and s.n_u == 4
    assert s.d_sat == 4  # the 2^8 k^2 / eps^2 window clamps at |U|
    for v in range(s.n_v):
        assert 1 <= len(s.adj[v]) <= s.d_sat
        assert all(0 <= u < s.n_u for u in s.adj[v])
    again = build_saturator(10, 3, 0.5, seed=4)
    assert again.adj == s.adj
    with pytest.raises(ValueError):
        build_saturator(0, 2, 0.5)
    with pytest.raises(ValueError):
        build_saturator(8, 2, 0.0)


def test_exhaustive_verdict_agrees_with_hall():
    for seed in range(40):
        s = build_saturator(12, 2, 1.5, seed=seed)
        assert s.n_v <= 20
        for n in (2, 3, 4):
            verdict = verify_saturation(s, n=n)
            assert verdict.mode == "exhaustive"
            assert bool(verdict) == brute_hall_ok(s, n), (seed, n)
            if not verdict:
                nbhd = set().union(*(s.adj[v] for v in verdict.witness))
                assert len(nbhd) < len(verdict.witness)


def test_sampled_verdict_on_larger_saturators():
    s = build_saturator(48, 2, 0.5, seed=1)
    verdict = verify_saturation(s, n=6, samples=30, rng_seed=2)
    assert verdict.mode == "sampled"
    assert verdict


def check_compress_exact(g: Graph, s: Saturator) -> None:
    """compress(g, s) has exactly the pairs u != u' attached across an edge of g."""
    hn = compress(g, s)
    assert hn.n == s.n_u
    assert hn.m <= s.d_sat**2 * g.m
    for u, up in hn.edges():
        hit = any(
            (u in s.adj[a] and up in s.adj[b]) or (u in s.adj[b] and up in s.adj[a])
            for a, b in g.edges()
        )
        assert hit, (u, up)
    for a, b in g.edges():
        for u in s.adj[a]:
            for up in s.adj[b]:
                assert u == up or hn.has_edge(u, up), (a, b, u, up)


def random_graph(rng, n: int) -> Graph:
    g = Graph(range(n))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(n), 2)
        g.add_edge(a, b)
    return g


def test_compress_edge_bound_and_soundness():
    rng = random.Random(31)
    for trial in range(30):
        s = build_saturator(rng.randint(4, 14), rng.randint(1, 3), 1.0, seed=trial)
        check_compress_exact(random_graph(rng, s.n_v), s)


def test_compress_is_exact_on_sparse_saturators():
    # hand-built: each V-vertex attached to 0..d_sat random U-vertices, far
    # from complete bipartite, so the saturated-set shortcut rarely applies
    rng = random.Random(37)
    for trial in range(40):
        k, n_u, d_sat = rng.randint(1, 4), rng.randint(2, 12), rng.randint(1, 3)
        n_v = k * n_u
        adj = {v: frozenset(rng.sample(range(n_u), rng.randint(0, d_sat))) for v in range(n_v)}
        s = Saturator(n0=n_v, k=k, eps=1.0, seed=trial, d_sat=d_sat, n_v=n_v, adj=adj)
        s.validate()
        check_compress_exact(random_graph(rng, n_v), s)


def test_compress_rejects_foreign_vertices():
    s = build_saturator(4, 2, 1.0)
    with pytest.raises(ValueError):
        compress(Graph([99]), s)


def test_embed_compressed_produces_valid_embedding():
    rng = random.Random(41)
    done = 0
    for seed in range(60):
        s = build_saturator(12, 2, 0.8, seed=seed)
        if not verify_saturation(s, n=4):
            continue  # randomness can miss; skip unsaturated draws
        g = Graph(range(s.n_v))
        for _ in range(24):
            a, b = rng.sample(range(s.n_v), 2)
            g.add_edge(a, b)
        f = path_graph(3)
        verts = sorted(g.vertices())
        emb = {1: verts[0], 2: verts[1], 3: verts[2]}
        for u, v in f.edges():
            if not g.has_edge(emb[u], emb[v]):
                g.add_edge(emb[u], emb[v])
        hn = compress(g, s)
        out = embed_compressed(f, emb, s, g, hn)
        assert len(set(out.values())) == 3
        for u, v in f.edges():
            assert hn.has_edge(out[u], out[v])
        done += 1
    assert done >= 10


def test_embed_compressed_rejects_bad_premise():
    s = build_saturator(6, 2, 1.0, seed=2)
    g = Graph(range(1, 4), itertools.combinations(range(1, 4), 2))
    gz = Graph(range(s.n_v), [(0, 1), (1, 2)])
    with pytest.raises(WitnessError):
        embed_compressed(g, {1: 0, 2: 1, 3: 2}, s, gz, compress(gz, s))


def test_saturator_jsonl_roundtrip(tmp_path):
    s = build_saturator(9, 2, 0.7, seed=8)
    path = tmp_path / "sat.jsonl"
    s.write_jsonl(path)
    back = Saturator.read_jsonl(path)
    assert back == s
