import dataclasses
import gc
import itertools
import math
import random
import re
from collections import Counter

import pytest
from graphs import normalize_decomposition, path_shaped, reference_path_decomposition, reference_ttree, strip_instance

from uniprod.decomp import (
    QtInstance,
    TTree,
    TreeDecomposition,
    build_ttree,
    generate_qt_instance,
    host_layout,
    path_decomposition_to_intervals,
    tree_to_path_decomposition,
    ttree_from_decomposition,
)
from uniprod.harness import gen_bad_example
from uniprod.product import Graph, PathFactor, ProductWitness


def sample_tree_decomposition():
    # a binary-ish caterpillar over 7 vertices, width 2
    g = Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (0, 2)])
    bags = {
        "a": {0, 1, 2},
        "b": {2, 3},
        "c": {3, 4},
        "d": {2, 5},
        "e": {5, 6},
    }
    td = TreeDecomposition(bags, [("a", "b"), ("b", "c"), ("a", "d"), ("d", "e")])
    return g, td


def test_tree_decomposition_validates():
    g, td = sample_tree_decomposition()
    td.validate(g)
    assert td.width == 2

    missing_edge = TreeDecomposition({0: {0, 1}, 1: {2}}, [(0, 1)])
    with pytest.raises(ValueError):
        missing_edge.validate(Graph(range(3), [(0, 1), (1, 2)]))
    disconnected = TreeDecomposition({0: {0, 1}, 1: {1, 2}, 2: {1}}, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        disconnected.validate(Graph(range(3), [(0, 1), (1, 2)]))
    split_track = TreeDecomposition(
        {0: {0, 1}, 1: {1, 2}, 2: {0, 2}}, [(0, 1), (1, 2)]
    )
    with pytest.raises(ValueError):
        split_track.validate(Graph(range(3), [(0, 1), (1, 2), (0, 2)]))


def test_normalize_keeps_validity_and_width():
    g, td = sample_tree_decomposition()
    norm = normalize_decomposition(td)
    norm.validate(g)
    assert norm.width <= td.width


def test_path_decomposition_contiguity():
    bags = [{0, 1}, {1, 2}, {2, 3}]
    path_shaped(bags).validate(Graph(range(4), [(0, 1), (1, 2), (2, 3)]))
    broken = [{0, 1}, {2}, {0, 2}]
    with pytest.raises(ValueError):
        path_shaped(broken).validate(Graph(range(3), [(0, 1), (0, 2)]))


def test_tree_to_path_width_bound():
    rng = random.Random(0)
    for trial in range(40):
        t = rng.randint(1, 3)
        n = rng.randint(t + 1, 40)
        tt = build_ttree(t, n, rng_seed=trial)
        td = tt.family_decomposition()
        td.validate(tt.graph)
        pd = tree_to_path_decomposition(tt)
        path_shaped(pd).validate(tt.graph)
        cap = (td.width + 1) * (max(1, n - 1).bit_length() + 1) - 1
        assert max(map(len, pd)) - 1 <= cap


def test_path_shaped_input_passes_through():
    # the family tree of this 2-tree is the path 0-1-2-3-4-5: each vertex
    # past the initial triangle attaches to the last two and is owned by
    # the one before it
    order = list(range(6))
    attach = {v: frozenset(range(v)) if v <= 2 else frozenset({v - 2, v - 1}) for v in order}
    tt = TTree(2, order, attach, {v: v - 1 for v in order[1:]})
    pd = tree_to_path_decomposition(tt)
    assert pd == [tt.cliques[v] for v in order]
    # the t + 1 copies of the initial clique are kept, not merged
    assert pd[:3] == [frozenset({0, 1, 2})] * 3
    assert max(map(len, pd)) - 1 == tt.t


def test_intervals_from_path_decomposition():
    rep = path_decomposition_to_intervals([{0, 1}, {1, 2}, {2, 3}])
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    for u, v in itertools.combinations(range(4), 2):
        assert rep.meets(u, v) == g.has_edge(u, v)


def test_ttree_structure():
    rng = random.Random(1)
    for trial in range(30):
        t = rng.randint(1, 4)
        n = rng.randint(t + 1, 30)
        tt = build_ttree(t, n, rng_seed=trial)
        assert tt.graph.m == t * (t + 1) // 2 + (n - t - 1) * t
        for v in tt.order:
            cq = tt.cliques[v]
            assert v in cq and len(cq) == t + 1
            assert len({tt.colour[w] for w in cq}) == t + 1
            par = tt.parents(v)
            assert par[tt.colour[v]] == v
            assert set(par) == set(range(1, t + 2))


def test_ttree_family_decomposition():
    tt = build_ttree(2, 15, rng_seed=5)
    td = tt.family_decomposition()
    td.validate(tt.graph)
    assert td.width == 2


def test_ttree_reachable_ancestors_bound():
    # family-clique hops from any vertex fan out at most binomially
    rng = random.Random(2)
    for trial in range(20):
        t = rng.randint(1, 3)
        tt = build_ttree(t, rng.randint(t + 1, 35), rng_seed=trial + 40)
        pos = {v: i for i, v in enumerate(tt.order)}
        for v in tt.order:
            for dist in range(4):
                reach = tt.reachable_ancestors(v, dist)
                older = {w for w in reach if pos[w] <= pos[v]}
                assert len(older) <= tt.ancestor_count_bound(dist), (v, dist)


def test_ttree_rejects_bad_shapes():
    # 4 attaches to {2, 3}, which no attach set joins
    attach = {0: frozenset(), 1: frozenset({0}), 2: frozenset({0, 1}), 3: frozenset({0, 1}), 4: frozenset({2, 3})}
    with pytest.raises(ValueError, match="owner clique does not cover attach set of 4"):
        TTree(t=2, order=list(range(5)), attach=attach, owner={1: 0, 2: 1, 3: 2, 4: 3})
    with pytest.raises(ValueError, match="need at least t \\+ 1 vertices"):
        TTree(t=2, order=[0, 1], attach={0: frozenset(), 1: frozenset({0})}, owner={1: 0})
    with pytest.raises(ValueError, match="attach set of 1 names a vertex that is not earlier"):
        TTree(t=1, order=[0, 1, 2], attach={0: frozenset(), 1: frozenset({2}), 2: frozenset({0})}, owner={1: 0, 2: 0})
    with pytest.raises(ValueError, match="order repeats a vertex"):
        TTree(t=1, order=[0, 1, 1], attach={0: frozenset(), 1: frozenset({0})}, owner={1: 0})


def refusal(t, order, attach, owner):
    """The message TTree raises at construction."""
    with pytest.raises(ValueError) as info:
        TTree(t, order, attach, owner)
    return str(info.value)


def test_ttree_names_a_malformed_attach_set_before_deriving_from_it():
    path = {0: frozenset(), 1: frozenset({0})}
    # an oversized attach set used to leave no free colour: min() of an empty sequence
    assert refusal(1, [0, 1, 2], {**path, 2: frozenset({0, 1})}, {1: 0, 2: 1}) == "attach set of 2 has wrong size"
    # a vertex without an attach entry used to raise a bare KeyError
    assert refusal(1, [0, 1, 2], path, {1: 0, 2: 1}) == "2 has no attach set"


def test_ttree_checks_owners_at_construction():
    # the triangle 0 1 2, then 3 on the edge {1, 2}, a 2-tree
    attach = {0: frozenset(), 1: frozenset({0}), 2: frozenset({0, 1}), 3: frozenset({1, 2})}
    tt = TTree(2, [0, 1, 2, 3], attach, {1: 0, 2: 1, 3: 2})
    assert tt.cliques[3] == {1, 2, 3}
    assert refusal(2, [0, 1, 2, 3], attach, {1: 0, 2: 1}) == "owner of 3 missing or too late"
    assert refusal(2, [0, 1, 2, 3], attach, {1: 0, 2: 1, 3: 3}) == "owner of 3 missing or too late"
    assert refusal(2, [0, 1, 2, 3], attach, {1: 0, 2: 1, 3: 9}) == "owner of 3 missing or too late"
    # 4 attaches to {1, 3}, which lies in the family clique of 3 but not of 2
    attach[4] = frozenset({1, 3})
    assert TTree(2, [0, 1, 2, 3, 4], attach, {1: 0, 2: 1, 3: 2, 4: 3}).cliques[4] == {1, 3, 4}
    assert refusal(2, [0, 1, 2, 3, 4], attach, {1: 0, 2: 1, 3: 2, 4: 2}) == (
        "owner clique does not cover attach set of 4"
    )


def test_every_accepted_ttree_has_clique_attach_sets_and_full_colour_cliques():
    # TTree checks only the order, attach sets and owners; on random shapes
    # (attach sets of the right size, random earlier owners) every tree it
    # accepts has clique attach sets and t + 1 colours in each family clique
    rng = random.Random(27)
    accepted = refused = 0
    for _ in range(2000):
        t = rng.randint(1, 3)
        order = list(range(rng.randint(t + 1, 9)))
        attach = {v: frozenset(range(v)) if v <= t else frozenset(rng.sample(range(v), t)) for v in order}
        owner = {v: rng.randrange(v) for v in order[1:]}
        try:
            tt = TTree(t, order, attach, owner)
        except ValueError as exc:
            assert str(exc).startswith("owner clique does not cover attach set of ")
            refused += 1
            continue
        accepted += 1
        for v in order:
            assert all(tt.graph.has_edge(a, b) for a, b in itertools.combinations(attach[v], 2))
            assert len(tt.cliques[v]) == t + 1
            assert {tt.colour[w] for w in tt.cliques[v]} == set(range(1, t + 2))
    assert accepted > 100 and refused > 100, (accepted, refused)


def test_ttree_from_decomposition_completes_host():
    g, td = sample_tree_decomposition()
    tt = ttree_from_decomposition(td)
    for u, v in g.edges():
        assert tt.graph.has_edge(u, v)
    assert tt.t == td.width


def completion_sweep():
    """Decompositions for the completion oracle: gen qt hosts, double stars and string-id paths."""
    for t in range(1, 5):
        for h in range(1, 6):
            for n in (8, 9, 10, 12, 15, 20, 26, 34, 45, 60, 80, 110, 150, 200, 300):
                yield generate_qt_instance(t, n, h, rng_seed=7 * n + h).decomposition
    for n, i, j in ((24, 1, 1), (48, 2, 3), (120, 3, 2), (120, 10, 1)):
        yield gen_bad_example(n, i, j).instance.decomposition
    rng = random.Random(5)
    for w in (1, 2, 3):
        names = [f"s{k}" for k in range(40)]
        rng.shuffle(names)  # so repr order is not path order
        yield path_shaped([set(names[k:k + w + 1]) for k in range(len(names) - w)])


def test_ttree_completion_matches_the_quadratic_oracle():
    count = 0
    for td in completion_sweep():
        tt = ttree_from_decomposition(td)
        assert (tt.order, tt.attach, tt.owner) == reference_ttree(td)
        count += 1
    assert count == 307


def test_path_decomposition_matches_the_rewalking_oracle():
    # the completion of each sweep decomposition, which is what host_layout converts
    count = 0
    for td in completion_sweep():
        tt = ttree_from_decomposition(td)
        assert tree_to_path_decomposition(tt) == reference_path_decomposition(tt.family_decomposition())
        count += 1
    assert count == 307


def ttree_sweep():
    """t-trees from all three growers: build_ttree, ttree_from_decomposition and the double star's."""
    rng = random.Random(29)
    for _ in range(220):
        t = rng.randint(1, 4)
        yield build_ttree(t, rng.randint(t + 1, 60), rng_seed=rng.randrange(1 << 30))
    for _ in range(80):
        t, h = rng.randint(1, 3), rng.randint(1, 8)
        inst = generate_qt_instance(t, rng.randint(max(h, 2), 120), h, rng_seed=rng.randrange(1 << 30))
        yield ttree_from_decomposition(inst.decomposition)
    for n in (24, 48, 120):
        for i in range(1, n // 12 + 1):
            yield gen_bad_example(n, i, n // 12 + 1 - i).layout[0]


def test_path_decomposition_matches_the_oracle_on_every_grower():
    count = paths = 0
    for tt in ttree_sweep():
        assert tree_to_path_decomposition(tt) == reference_path_decomposition(tt.family_decomposition())
        degree = Counter(tt.owner.values()) + Counter(tt.order[1:])
        paths += max(degree.values()) <= 2
        count += 1
    assert count >= 300
    # both routes run: some family trees are paths, and most are not
    assert 0 < paths < count // 2, (paths, count)


def test_path_decomposition_and_host_layout_leave_no_cyclic_garbage():
    # what they build is freed by reference counts alone, not left for the
    # cyclic collector, so a long pipeline does not hold the t-tree's
    # family tree until the next collection
    inst = generate_qt_instance(2, 2048, 2, rng_seed=1)
    tt = ttree_from_decomposition(inst.decomposition)
    gc.collect()
    gc.disable()
    try:
        bags = tree_to_path_decomposition(tt)
        assert gc.collect() == 0
        layout = host_layout(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert bags == reference_path_decomposition(tt.family_decomposition())
    assert layout[1] == path_decomposition_to_intervals(bags)


def test_ttree_completion_attaches_a_vertex_with_no_earlier_neighbour():
    # x meets nothing visited before it, so its owner is the vertex just before
    # it; an isolated vertex 3 does the same at the end of the order
    for bags, edges in (
        ({0: {"a", "b"}, 1: {"b", "c"}, 2: {"x", "y"}}, [(0, 1), (1, 2)]),
        ({0: {0, 1}, 1: {1, 2}, 2: {3}}, [(0, 1), (1, 2)]),
    ):
        td = TreeDecomposition(bags, edges)
        tt = ttree_from_decomposition(td)
        assert (tt.order, tt.attach, tt.owner) == reference_ttree(td)
        lone = tt.order[3]
        assert lone in ("x", 3) and tt.owner[lone] == tt.order[2] and len(tt.attach[lone]) == 1


def test_generate_qt_instance_contract():
    rng = random.Random(3)
    for trial in range(25):
        t = rng.randint(1, 3)
        n = rng.randint(t + 2, 60)
        h = rng.randint(1, max(1, n // 2))
        inst = generate_qt_instance(t, n, h, rng_seed=trial)
        assert inst.graph.n == n
        ProductWitness(inst.graph, (inst.host, PathFactor(h)), inst.coords).validate()
        inst.decomposition.validate(inst.host)
        assert inst.decomposition.width == t
        rows = {y for _, y in inst.coords.values()}
        assert rows == set(range(1, h + 1))
    with pytest.raises(ValueError):
        generate_qt_instance(2, 3, 5)


def test_qt_instance_jsonl_roundtrip(tmp_path):
    inst = generate_qt_instance(2, 18, 4, rng_seed=11)
    path = tmp_path / "inst.jsonl"
    inst.write_jsonl(path)
    back = QtInstance.read_jsonl(path)
    assert (back.t, back.h, back.seed) == (inst.t, inst.h, inst.seed)
    assert sorted(back.graph.vertices()) == sorted(inst.graph.vertices())
    assert sorted(map(sorted, back.graph.edges())) == sorted(map(sorted, inst.graph.edges()))
    assert back.coords == inst.coords
    assert back.decomposition.bags == inst.decomposition.bags


def test_a_qt_instance_is_checked_when_it_is_built():
    # each mutant breaks a claim that embed and label no longer check again
    inst = generate_qt_instance(2, 20, 3, rng_seed=5)
    coords, host = inst.coords, inst.host
    a, b = next((a, b) for a, b in itertools.combinations(sorted(coords), 2)
                if coords[a][1] == coords[b][1] and not host.has_edge(coords[a][0], coords[b][0])
                and coords[a][0] != coords[b][0])
    graph = Graph(inst.graph.vertices(), [*inst.graph.edges(), (a, b)])
    wider = Graph([*host.vertices(), 99], host.edges())
    mutants = {
        f"edge {a}-{b}: {coords[a][0]},{coords[b][0]} not equal or adjacent in {host!r}": {"graph": graph},
        "vertices not covered: ['99']": {"host": wider},
        "header says t = 3 but the decomposition has width 2": {"t": 3},
        "t >= 1 required": {"t": 0},
    }
    for message, change in mutants.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(inst, **change)


def test_host_layouts_keep_the_host_and_family_decompositions_are_valid():
    # host_layout does not check that the t-tree completion keeps every host
    # edge, nor family_decomposition its bags: both hold by construction
    rng = random.Random(8)
    insts = []
    for seed in range(30):
        t = rng.randint(1, 3)
        n = rng.randint(t + 2, 80)
        insts.append(generate_qt_instance(t, n, rng.randint(1, n // 2), rng_seed=seed))
    insts += [strip_instance(k, h, s) for k, h, s in ((3, 4, 1), (8, 6, 2), (5, 3, 5))]
    bad = [gen_bad_example(n, i, j) for n, i, j in ((24, 1, 2), (48, 3, 1), (120, 10, 10))]
    ttrees = [ex.layout[0] for ex in bad]
    for inst in insts + [ex.instance for ex in bad]:
        tt, _ = host_layout(inst)
        assert inst.host.vertices() <= tt.graph.vertices()
        assert all(tt.graph.has_edge(u, v) for u, v in inst.host.edges())
        ttrees.append(tt)
    for tt in ttrees:
        tt.family_decomposition().validate(tt.graph)
