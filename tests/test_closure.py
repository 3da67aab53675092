import random
from fractions import Fraction

import pytest

from uniprod.bitcore import build_biased_bst
from uniprod.closure import (
    ClosureGraph,
    IntervalRep,
    embed_interval_graph,
    interval_separator,
    min_depth_in_range,
    perturb_left_endpoints,
)


def random_rep(rng: random.Random, n: int, span: int = 24) -> IntervalRep:
    ivs = {}
    for v in range(n):
        a = Fraction(rng.randint(0, span), rng.randint(1, 4))
        ivs[v] = (a, a + Fraction(rng.randint(0, span), rng.randint(1, 4)))
    return IntervalRep(ivs)


def brute_clique_number(rep: IntervalRep) -> int:
    # Helly: some left endpoint lies in every max clique's common point
    best = 0
    for a, _ in rep.intervals.values():
        load = sum(1 for aa, bb in rep.intervals.values() if aa <= a <= bb)
        best = max(best, load)
    return best


def test_closure_graph_structure():
    cg = ClosureGraph(3)
    assert cg.n == 15 and cg.root == 8
    assert cg.depth(8) == 0 and cg.depth(1) == 3 and cg.depth(12) == 1
    assert cg.descendant_interval(4) == (1, 7)
    assert cg.children(8) == (4, 12)
    assert cg.children(1) == ()
    for v in cg.vertices():
        # walk down from the root by children(); every node passed is an ancestor
        path = [cg.root]
        while path[-1] != v:
            path.append(next(c for c in cg.children(path[-1]) if cg.is_ancestor(c, v)))
        assert [cg.depth(u) for u in path] == list(range(len(path)))
        for u in path:
            assert cg.is_ancestor(u, v)


def test_closure_adjacency_is_ancestry():
    cg = ClosureGraph(2)

    def below(v):  # v and its descendants, found through children() alone
        return {v}.union(*(below(c) for c in cg.children(v)))

    for u in cg.vertices():
        for v in cg.vertices():
            assert cg.adjacent(u, v) == (u != v and (v in below(u) or u in below(v)))
    with pytest.raises(ValueError):
        ClosureGraph(-1)


def test_min_depth_in_range_matches_scan():
    rng = random.Random(9)
    for _ in range(100):
        keys = rng.sample(range(100), rng.randint(1, 20))
        t = build_biased_bst(keys, {k: rng.randint(1, 9) for k in keys})
        for _ in range(10):
            lo = rng.randint(0, 100)
            hi = rng.randint(lo, 101)
            inside = [k for k in keys if lo <= k <= hi]
            if not inside:
                with pytest.raises(ValueError):
                    min_depth_in_range(t, lo, hi)
            else:
                got = min_depth_in_range(t, lo, hi)
                assert got in inside
                assert t.depth(got) == min(t.depth(k) for k in inside)
                for k in inside:
                    assert t.is_ancestor(got, k)


def test_interval_basics():
    rep = IntervalRep({"u": (0, 2), "v": (2, 3), "w": (Fraction(7, 2), 5)})
    assert rep.meets("u", "v") and not rep.meets("u", "w")
    g = rep.intersection_graph()
    assert g.has_edge("u", "v") and not g.has_edge("v", "w")
    assert rep.clique_number() == 2
    # integral endpoints are stored as int, the others stay Fraction
    assert [type(x) for x in IntervalRep({0: (Fraction(4, 2), Fraction(7, 2))}).intervals[0]] == [int, Fraction]
    with pytest.raises(ValueError):
        IntervalRep({"x": (3, 1)})


def test_clique_number_matches_brute_force():
    rng = random.Random(4)
    for _ in range(300):
        rep = random_rep(rng, rng.randint(0, 10))
        assert rep.clique_number() == brute_clique_number(rep)


def test_perturbation_keeps_the_graph():
    rng = random.Random(5)
    for _ in range(200):
        rep = random_rep(rng, rng.randint(1, 12))
        pert = perturb_left_endpoints(rep)
        # rank form: left endpoints 0..n-1 in left_order() order
        assert [pert.intervals[v][0] for v in rep.left_order()] == list(range(rep.n))
        for u, (au, _) in rep.intervals.items():
            for v, (_, bv) in rep.intervals.items():
                assert (au <= bv) == (pert.intervals[u][0] <= pert.intervals[v][1]), (u, v)
                if u != v:
                    assert rep.meets(u, v) == pert.meets(u, v), (u, v)
        assert perturb_left_endpoints(pert) == pert


def test_left_order_is_the_sorted_order():
    # distinct or tied left endpoints, keyed in left order or not; int keys,
    # so repr breaks ties in another order than the ints do
    rng = random.Random(11)
    for trial in range(400):
        n = rng.randint(0, 12)
        lefts = rng.sample(range(40), n) if trial % 2 else [rng.randint(0, 3) for _ in range(n)]
        if trial % 4 < 2:
            lefts.sort()
        keys = rng.sample(range(100), n)
        rep = IntervalRep({v: (a, a + rng.randint(0, 5)) for v, a in zip(keys, lefts)})
        assert rep.left_order() == sorted(rep.intervals, key=lambda v: (rep.intervals[v][0], repr(v)))


def test_intersection_graph_matches_pairwise_meets():
    rng = random.Random(8)
    for _ in range(400):
        ivs = {}
        for i in range(rng.randint(0, 12)):
            a = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))
            b = a + Fraction(rng.randint(0, 8), rng.choice((1, 2)))
            ivs[i if rng.random() < 0.5 else f"v{i}"] = (a, b)
        rep = IntervalRep(ivs)
        g = rep.intersection_graph()
        assert set(g.vertices()) == set(ivs)
        vs = list(ivs)
        want = {frozenset((u, v)) for i, u in enumerate(vs) for v in vs[i + 1 :] if rep.meets(u, v)}
        assert {frozenset(e) for e in g.edges()} == want


def test_separator_postconditions():
    rng = random.Random(6)
    for _ in range(300):
        rep = perturb_left_endpoints(random_rep(rng, rng.randint(1, 14)))
        omega = rep.clique_number()
        x1, x2, z = interval_separator(rep, omega)
        assert len(z) <= omega
        assert len(x1) <= rep.n // 2 and len(x2) <= rep.n // 2
        assert set(x1) | set(x2) | z == set(rep.intervals)
        for u in x1:
            for v in x2:
                assert not rep.meets(u, v)


def test_separator_requires_distinct_lefts():
    rep = IntervalRep({0: (1, 2), 1: (1, 3)})
    with pytest.raises(ValueError):
        interval_separator(rep, 2)


def test_embed_interval_graph_is_induced():
    rng = random.Random(7)
    for trial in range(150):
        rep = random_rep(rng, rng.randint(1, 12))
        w = embed_interval_graph(rep)
        cg = w.factors[0]
        g = rep.intersection_graph()
        coords = w.coords
        assert len(set(coords.values())) == len(coords)
        for u in g.vertices():
            for v in g.vertices():
                if repr(u) < repr(v):
                    (cu, i), (cv, j) = coords[u], coords[v]
                    image_edge = (cu == cv and i != j) or cg.adjacent(cu, cv)
                    assert g.has_edge(u, v) <= image_edge
                    # the embedding is a homomorphism, not necessarily induced:
                    # non-adjacent intervals may share a tree path


def test_interval_jsonl_roundtrip(tmp_path):
    rep = IntervalRep({"a": (Fraction(1, 3), 2), ("b", 1): (0, Fraction(9, 7))})
    path = tmp_path / "rep.jsonl"
    rep.write_jsonl(path)
    back = IntervalRep.read_jsonl(path)
    assert back.intervals == rep.intervals
