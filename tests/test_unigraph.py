import itertools
import random
from collections import Counter

import pytest
from graphs import (
    assert_is_edge_graph,
    degree_runs,
    host_degree_sequence,
    is_edge_exhaustive,
    path_graph,
    read_host,
    reference_host,
    strip_instance,
)
from hypothesis import given, settings, strategies as st

from uniprod import unigraph
from uniprod.bitcore import successor_set
from uniprod.closure import ClosureGraph
from uniprod.decomp import generate_qt_instance
from uniprod.harness import gen_bad_example
from uniprod.product import Graph, PathFactor, ProductWitness
from uniprod.unigraph import (
    QtEmbedding,
    UgParams,
    check_vertex,
    dominates_stars,
    edge_count_bound,
    embed,
    embed_qt,
    host_counts,
    host_degrees,
    is_edge,
    materialize,
    row_graph,
    validate_qt_embedding,
    vertex_count_bound,
)


def all_vertices(p: UgParams, max_len: int):
    strings = [""]
    for L in range(1, max_len + 1):
        strings += ["".join(t) for t in itertools.product("01", repeat=L)]
    for x in strings:
        for y in strings:
            if len(x) + len(y) <= p.budget:
                for z in range(p.d + 1):
                    yield (x, y, z)


def test_params_defaults():
    p = UgParams(128)
    assert p.d == 7
    assert p.budget == p.d + p.lam + 2
    # the default slack is large enough to re-encode any signature
    assert p.codec.width + p.d + 2 <= p.lam
    with pytest.raises(ValueError):
        UgParams(0)
    with pytest.raises(ValueError):
        UgParams(4, lam=-1)


def test_check_vertex():
    p = UgParams(4, lam=1)
    check_vertex(p, ("01", "0", 2))
    with pytest.raises(ValueError):
        check_vertex(p, ("01", "0", p.d + 1))
    with pytest.raises(ValueError):
        check_vertex(p, ("0" * p.budget, "1", 0))
    with pytest.raises(ValueError):
        check_vertex(p, ("2", "", 0))
    for z in (0.5, 1.0, True, 1j):  # 1.0 and True compare equal to 1, but a depth is an int
        with pytest.raises(ValueError, match="is not an int"):
            check_vertex(p, ("0", "", z))


def test_params_are_a_host_factor():
    # has_vertex is False exactly where check_vertex raises; on vertices, adjacent is is_edge
    p = UgParams(4, lam=1)
    inside = [("01", "0", 2), ("", "", 0), ("0", "", p.d)]
    outside = [("01", "0", p.d + 1), ("0" * p.budget, "1", 0), ("2", "", 0), ("0", "", "1"), ("0", ""), 7,
               ("0", "", 0.5), ("0", "", 1.0), ("0", "", True), ("0", "", 1j)]
    for v in inside:
        check_vertex(p, v)
        assert p.has_vertex(v)
    for v in outside:
        with pytest.raises((TypeError, ValueError)):
            check_vertex(p, v)
        assert not p.has_vertex(v)
    vs = list(all_vertices(p, 2))
    for u, v in itertools.product(vs, repeat=2):
        assert p.adjacent(u, v) == is_edge(p, u, v)


def checked_is_edge(p: UgParams, u, v) -> bool:
    """is_edge without its memo: both ends through check_vertex on every call."""
    check_vertex(p, u)
    check_vertex(p, v)
    return p.adjacent(u, v)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_is_edge_checks_each_vertex_once_per_params(monkeypatch):
    p = UgParams(4, lam=1)
    vs = list(all_vertices(p, 2))
    checked = Counter()

    def counted(q, v):
        checked[v] += 1
        check_vertex(q, v)

    monkeypatch.setattr(unigraph, "check_vertex", counted)
    for u, v in itertools.product(vs[:40], repeat=2):
        assert is_edge(p, u, v) == checked_is_edge(p, u, v)
    assert set(checked.values()) == {1} and len(checked) == 40 == len(p.checked)
    # fresh params check again; the memo is no part of their equality or hash
    q = UgParams(4, lam=1)
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p) and not q.checked
    is_edge(q, vs[0], vs[1])
    assert checked[vs[0]] == checked[vs[1]] == 2


def test_is_edge_memo_keeps_every_verdict_and_error():
    p = UgParams(4, lam=1)
    good = ("01", "0", 2)
    bad = [("01", "0", p.d + 1), ("2", "", 0), ("0" * p.budget, "1", 0), ("0", "", "1"), ("0", ""), 7,
           ["2", "", 0], ("01", "0", [2]), ("01", "0", 2 + 0j)]
    odd = [["01", "0", 2], ["", "", 0], ("01", "0", 2.0), ("01", "0", True), ("", "", False)]
    is_edge(p, good, ("", "", 0))  # both ends kept; a bad or odd triple equal to one must still be checked
    for v in bad + odd:
        for u in (good, ("", "", 0), ("0", "", 1)):
            for _ in range(2):  # the second call is not answered from the memo
                assert outcome(is_edge, p, u, v) == outcome(checked_is_edge, p, u, v), (u, v)
                assert outcome(is_edge, p, v, u) == outcome(checked_is_edge, p, v, u), (v, u)
    for v in bad:
        with pytest.raises((TypeError, ValueError)):
            is_edge(p, good, v)
    # only tuples with an int z that passed are kept: a list, a float or bool z, a bad triple never
    assert p.checked == {good, ("", "", 0), ("0", "", 1)}
    assert all(type(v) is tuple and type(v[2]) is int for v in p.checked)


def test_closed_form_matches_exhaustive_adjacency():
    # the oracle tries every candidate prefix cut and code; the closed
    # form must agree on every pair in a small parameter grid
    rng = random.Random(13)
    for n, lam in [(2, 1), (4, 1), (4, 2), (8, 2)]:
        p = UgParams(n, lam=lam)
        vs = [v for v in all_vertices(p, min(p.budget, 4)) if len(v[0]) + len(v[1]) <= 4]
        pairs = [(u, v) for u in vs for v in vs]
        rng.shuffle(pairs)
        for u, v in pairs[:4000]:
            assert is_edge(p, u, v) == is_edge_exhaustive(p, u, v), (u, v, n, lam)


@st.composite
def full_budget_pairs(draw):
    """Two vertices of a tiny UgParams with lam >= codec.width, up to the
    full budget; the second row is often a successor and the second
    position often shares a prefix with the first, so that both edge
    types come into play."""
    p = draw(st.sampled_from([UgParams(2, lam=3), UgParams(4, lam=3)]))
    y1 = draw(st.text("01", max_size=p.horizon))
    y2 = draw(st.sampled_from(sorted(successor_set(y1, p.horizon) | {y1})) | st.text("01", max_size=p.budget))
    x1 = draw(st.text("01", max_size=p.budget - len(y1)))
    room = p.budget - len(y2)
    keep = draw(st.integers(0, min(len(x1), room)))
    x2 = x1[:keep] + draw(st.text("01", max_size=room - keep))
    return p, (x1, y1, draw(st.integers(0, p.d))), (x2, y2, draw(st.integers(0, p.d)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(full_budget_pairs())
def test_closed_form_matches_exhaustive_adjacency_at_full_budget(case):
    p, u, v = case
    assert p.lam >= p.codec.width
    assert is_edge(p, u, v) == is_edge_exhaustive(p, u, v)


def test_adjacency_is_symmetric_and_irreflexive():
    p = UgParams(8, lam=2)
    vs = list(all_vertices(p, 3))
    rng = random.Random(14)
    for _ in range(2000):
        u, v = rng.choice(vs), rng.choice(vs)
        assert is_edge(p, u, v) == is_edge(p, v, u)
    for v in vs[:200]:
        assert not is_edge(p, v, v)


def test_same_row_adjacency_is_prefix_order():
    p = UgParams(8, lam=2)
    # same y: u-v edge iff one x is a prefix of the other (type 1)
    for x1, x2 in [("", "0101"), ("01", "0110"), ("01", "00")]:
        u, v = (x1, "1", 0), (x2, "1", 1)
        want = x2.startswith(x1) or x1.startswith(x2)
        assert is_edge(p, u, v) == want


def test_materialized_counts_stay_under_bounds(tmp_path):
    for n, lam in [(2, 1), (4, 1), (4, 2), (8, 1)]:
        p = UgParams(n, lam=lam)
        host = materialize(p)
        assert host.n <= vertex_count_bound(p)
        assert host.m <= edge_count_bound(p)
        host.write_jsonl(tmp_path / "ug.jsonl")
        for (u, v) in itertools.islice(read_host(tmp_path / "ug.jsonl", p).edges(), 500):
            assert is_edge(p, u, v)
    with pytest.raises(ValueError):
        materialize(UgParams(1 << 16))


def test_materialize_builds_exactly_the_is_edge_graph(tmp_path):
    for n, lam in [(2, 1), (4, 0), (2, 2), (1, 3), (4, 1)]:
        p = UgParams(n, lam=lam)
        materialize(p).write_jsonl(tmp_path / "ug.jsonl")
        assert_is_edge_graph(p, read_host(tmp_path / "ug.jsonl", p))


# one n for each d that criterion 06 enumerates (n = 1..16)
SHAPES = [(n, lam) for n in (1, 2, 3, 5, 9) for lam in range(4)]


@pytest.mark.parametrize("n, lam", SHAPES)
def test_host_file_is_the_reference_file(tmp_path, n, lam):
    p = UgParams(n, lam=lam)
    host, ref = materialize(p), reference_host(p)
    assert (host.n, host.m) == (ref.n, ref.m)
    host.write_jsonl(tmp_path / "host.jsonl")
    ref.write_jsonl(tmp_path / "ref.jsonl")
    assert (tmp_path / "host.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()


def test_plain_row_order_is_the_triple_repr_order():
    # Host.write_jsonl numbers the rows in sorted order, the reference host in repr order
    for n in range(1, 17):
        for lam in range(4):
            rows = row_graph(UgParams(n, lam=lam))
            assert sorted(rows) == sorted(rows, key=lambda r: repr((*r, 0))), (n, lam)


def test_row_graph_gives_the_host_sizes():
    grid = [(n, lam) for n in range(1, 9) for lam in range(4)] + [(16, 1)]
    for n, lam in grid:
        p = UgParams(n, lam=lam)
        ref = reference_host(p)
        rows = row_graph(p)
        assert all(r not in nbrs and all(r in rows[s] for s in nbrs) for r, nbrs in rows.items())
        assert (p.d + 1) * len(rows) == ref.n, (n, lam)
        seq = host_degree_sequence(p)
        assert seq == ref.degree_sequence(), (n, lam)
        assert (len(seq), sum(seq) // 2) == (ref.n, ref.m), (n, lam)
        assert host_degrees(p) == degree_runs(seq), (n, lam)
    with pytest.raises(ValueError):
        row_graph(UgParams(1 << 16))


def test_degree_domination():
    p = UgParams(4, lam=1)
    assert dominates_stars(host_degrees(p), 4)
    assert dominates_stars(degree_runs(host_degree_sequence(p)), 4)
    assert not dominates_stars(degree_runs(path_graph(4).degree_sequence()), 4)


def test_dominates_stars_reads_runs_as_the_expanded_sequence():
    def expanded(seq, n):
        return len(seq) >= n and all(seq[i] >= n // (i + 1) - 1 for i in range(n))

    rng = random.Random(19)
    for _ in range(2000):
        n = rng.randint(1, 12)
        seq = sorted((rng.randint(0, 12) for _ in range(rng.randint(0, 14))), reverse=True)
        assert dominates_stars(degree_runs(seq), n) == expanded(seq, n), (seq, n)


# every n <= 9 at lam <= 3, then wider rows at the smaller lam; type-2 edges need
# codec width <= lam, which few of those reach, so the last shapes take a larger lam
COUNT_GRID = [(n, lam) for n in range(1, 10) for lam in range(4)] + [(16, lam) for lam in range(4)] + [
    (32, 0), (32, 1), (64, 0)] + [(1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6), (4, 4), (4, 5), (8, 4)]


@pytest.mark.parametrize("n, lam", COUNT_GRID)
def test_host_counts_is_the_row_graph_degree_multiset(n, lam):
    p = UgParams(n, lam=lam)
    want = Counter(len(nbrs) for nbrs in row_graph(p).values())
    assert host_counts(p) == sorted(want.items(), reverse=True)


@pytest.mark.parametrize("n", [120, 1024, 1 << 16])
def test_host_counts_at_default_lambda(n):
    p = UgParams(n)
    b, k = p.budget, p.d + 1
    counts = host_counts(p)
    assert [deg for deg, _ in counts] == sorted({deg for deg, _ in counts}, reverse=True)
    assert sum(m for _, m in counts) == sum((1 << ly) * ((2 << (b - ly)) - 1) for ly in range(b + 1))
    assert sum(deg * m for deg, m in counts) % 2 == 0
    degrees = host_degrees(p)
    nv, ne = sum(m for _, m in degrees), sum(g * m for g, m in degrees) // 2
    assert nv == k * sum(m for _, m in counts)
    assert nv <= vertex_count_bound(p) and ne <= edge_count_bound(p)


def test_embed_closure_path_witness():
    rng = random.Random(15)
    for trial in range(60):
        n = rng.choice([16, 64, 256])
        d = (n - 1).bit_length()
        cg = ClosureGraph(d)
        h = rng.randint(1, 5)
        coords, used = {}, set()
        g = Graph()
        for v in range(rng.randint(1, 30)):
            c = (rng.randint(1, cg.n), rng.randint(1, h))
            if c in used:
                continue
            used.add(c)
            coords[v] = c
            g.add_vertex(v)
        vs = sorted(coords)
        for a, b in itertools.combinations(vs, 2):
            (c1, y1), (c2, y2) = coords[a], coords[b]
            if abs(y1 - y2) <= 1 and (c1 == c2 or cg.adjacent(c1, c2)) and rng.random() < 0.6:
                if (c1, y1) != (c2, y2):
                    g.add_edge(a, b)
        w = ProductWitness(g, (cg, PathFactor(h)), coords)
        w.validate()
        p = UgParams(n)
        zeta = embed(p, w)
        assert len(set(zeta.values())) == len(zeta)
        for a, b in g.edges():
            assert is_edge(p, zeta[a], zeta[b])


def test_embed_rejects_wrong_factor():
    g = Graph([0])
    w = ProductWitness(g, (PathFactor(1), PathFactor(1)), {0: (1, 1)})
    with pytest.raises(TypeError):
        embed(UgParams(4), w)
    big = ClosureGraph(4)
    w2 = ProductWitness(g, (big, PathFactor(1)), {0: (big.root, 1)})
    with pytest.raises(ValueError):
        embed(UgParams(4), w2)  # closure taller than params allow


def test_embed_refuses_signatures_over_the_budget():
    # sixteen one-vertex rows make row signatures of up to 4 bits, and
    # n = 2 at lam = 0 leaves a budget of d + lam + 2 = 3
    cg = ClosureGraph(1)
    coords = {y: (cg.root, y) for y in range(1, 17)}
    w = ProductWitness(Graph(coords), (cg, PathFactor(16)), coords)
    with pytest.raises(ValueError) as info:
        embed(UgParams(2, lam=0), w)
    assert str(info.value) == "lambda too small: signatures take 4 bits, budget is 3"


def test_embed_qt_end_to_end():
    rng = random.Random(16)
    for trial in range(30):
        t = rng.randint(1, 3)
        n = rng.randint(t + 2, 48)
        h = rng.randint(1, max(1, n // 3))
        inst = generate_qt_instance(t, n, h, rng_seed=trial)
        emb = embed_qt(UgParams(n), inst)
        assert emb.omega >= 1
        validate_qt_embedding(emb.params, inst, emb)


def test_embed_qt_output_is_a_witness_on_strips_and_double_stars():
    # embed_qt does not check its output again; strips carry suffix codes,
    # double stars string ids
    insts = [strip_instance(k, h, s) for k, h, s in ((3, 4, 1), (8, 6, 2), (5, 3, 5), (4, 9, 3))]
    insts += [gen_bad_example(n, i, j).instance for n, i, j in ((24, 1, 1), (48, 2, 3), (120, 3, 2))]
    for inst in insts:
        p = UgParams(inst.graph.n)
        validate_qt_embedding(p, inst, embed_qt(p, inst))


def test_validate_qt_embedding_catches_corruption():
    inst = generate_qt_instance(2, 12, 3, rng_seed=4)
    p = UgParams(12)
    emb = embed_qt(p, inst)
    broken = dict(emb.mapping)
    a, b = sorted(broken, key=repr)[:2]
    broken[a] = broken[b]
    with pytest.raises(ValueError):
        validate_qt_embedding(p, inst, QtEmbedding(broken, emb.omega, p))
    # a colour outside 1..omega, a triple outside G_n, an edge onto a non-edge
    triple = emb.mapping[a][0]
    u, w = next(iter(inst.graph.edges()))
    for bad in ({a: (triple, emb.omega + 1)}, {a: (("2", "", 0), 1)}):
        with pytest.raises(ValueError):
            validate_qt_embedding(p, inst, QtEmbedding({**emb.mapping, **bad}, emb.omega, p))
    far = next(
        t for t in ((x, "1" * (p.budget - len(x)), 0) for x in ("", "0", "1", "00"))
        if t != emb.mapping[w][0] and not is_edge(p, t, emb.mapping[w][0])
    )
    with pytest.raises(ValueError, match="not equal or adjacent"):
        validate_qt_embedding(p, inst, QtEmbedding({**emb.mapping, u: (far, 1)}, emb.omega, p))
