import itertools
import json
import random
import re
from collections import Counter

import pytest
from graphs import path_graph, reference_validate

from uniprod.closure import ClosureGraph
from uniprod.decomp import generate_qt_instance
from uniprod.product import (
    CliqueFactor,
    Graph,
    PathFactor,
    ProductWitness,
    WitnessError,
)
from uniprod.unigraph import UgParams, embed_qt, row_graph


def test_graph_basics():
    g = Graph("abc", [("a", "b")])
    g.add_edge("b", "c")
    assert g.n == 3 and g.m == 2
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.neighbors("b") == {"a", "c"}
    assert sorted(map(sorted, g.edges())) == [["a", "b"], ["b", "c"]]
    assert g.degree_sequence() == [2, 1, 1]
    with pytest.raises(ValueError):
        g.add_edge("a", "a")


def test_induced_subgraph():
    g = Graph(range(1, 5), itertools.combinations(range(1, 5), 2))
    sub = g.induced_subgraph([1, 2, 3])
    assert sub.n == 3 and sub.m == 3
    assert not sub.has_vertex(4)


def test_graph_jsonl_roundtrip(tmp_path):
    g = Graph(["x", "y", "z", "w"], [("x", "y"), ("y", "z")], name="demo")
    path = tmp_path / "g.jsonl"
    g.write_jsonl(path)
    back = Graph.read_jsonl(path)
    # ids are densified on write, so compare by isomorphism invariant shape
    assert back.n == g.n and back.m == g.m
    assert back.degree_sequence() == g.degree_sequence()
    assert back.name == "demo"
    with pytest.raises(ValueError):
        Graph.read_jsonl(__file__)


def test_graph_reader_rejects_edge_outside_header_range(tmp_path):
    path = tmp_path / "g.jsonl"
    lines = [{"kind": "graph", "n": 3, "name": ""}, {"edge": [0, 1]}, {"edge": [0, 99]}]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
        Graph.read_jsonl(path)


def test_factor_contracts():
    p = PathFactor(4)
    assert p.has_vertex(1) and p.has_vertex(4) and not p.has_vertex(5)
    assert p.adjacent(2, 3) and not p.adjacent(2, 4)
    k = CliqueFactor(3)
    assert k.adjacent(1, 3) and not k.adjacent(2, 2)
    e = path_graph(3)  # a graph is a factor as it is
    assert e.has_vertex(3) and not e.has_vertex(4)
    assert e.adjacent(1, 2) and not e.adjacent(1, 3)
    with pytest.raises(ValueError):
        PathFactor(0)


def test_witness_validates_membership():
    g = Graph(range(3), [(0, 1), (1, 2)])
    w = ProductWitness(g, (PathFactor(2), CliqueFactor(2)), {0: (1, 1), 1: (1, 2), 2: (2, 2)})
    w.validate()

    bad = ProductWitness(g, (PathFactor(2), CliqueFactor(2)), {0: (1, 1), 1: (1, 1), 2: (2, 2)})
    with pytest.raises(WitnessError):
        bad.validate()
    gap = ProductWitness(g, (PathFactor(3), CliqueFactor(2)), {0: (1, 1), 1: (3, 2), 2: (2, 2)})
    with pytest.raises(WitnessError):
        gap.validate()
    outside = ProductWitness(g, (PathFactor(2), CliqueFactor(2)), {0: (0, 1), 1: (1, 2), 2: (2, 2)})
    with pytest.raises(WitnessError):
        outside.validate()


def test_graph_factor_witness_is_a_subgraph_embedding():
    # a one-factor witness over a graph checks a subgraph embedding:
    # injective, into the host's vertices, every edge onto a host edge
    g = path_graph(3)
    host = Graph(range(1, 5), itertools.combinations(range(1, 5), 2))

    def check(mapping, into):
        ProductWitness(g, (into,), {v: (x,) for v, x in mapping.items()}).validate()

    check({1: 2, 2: 3, 3: 4}, host)
    with pytest.raises(WitnessError):
        check({1: 2, 2: 2, 3: 4}, host)
    with pytest.raises(WitnessError):
        check({1: 2, 2: 3}, host)
    with pytest.raises(WitnessError):
        check({1: 2, 2: 3, 3: 5}, host)
    sparse = path_graph(4)
    with pytest.raises(WitnessError):
        check({1: 1, 2: 2, 3: 4}, sparse)


def raised(witness) -> str:
    with pytest.raises(WitnessError) as info:
        witness.validate()
    return str(info.value)


def test_witness_error_separates_the_ends_of_the_edge():
    # without a separator, edge 12-3 and edge 1-23 would both read "edge 123"
    coords = {12: (1,), 3: (3,), 1: (2,), 23: (5,)}
    g = Graph([12, 3, 1, 23], [(12, 3)])
    assert raised(ProductWitness(g, (PathFactor(5),), coords)) == "edge 12-3: 1,3 not equal or adjacent in PathFactor(5)"
    g = Graph([1, 23, 12, 3], [(1, 23)])
    assert raised(ProductWitness(g, (PathFactor(5),), coords)) == "edge 1-23: 2,5 not equal or adjacent in PathFactor(5)"


def test_witness_error_names_the_first_failing_edge_then_factor():
    # edge 2-3 fails in factor 1 only, the later 4-5 in factor 0 only,
    # and 6-7 puts 2-3's failing pair side by side again
    factors = (PathFactor(4), PathFactor(5))
    g = Graph(range(8), [(0, 1), (2, 3), (4, 5), (6, 7)])
    coords = {0: (1, 1), 1: (2, 1), 2: (3, 2), 3: (3, 4), 4: (1, 5), 5: (4, 5), 6: (2, 2), 7: (2, 4)}
    assert raised(ProductWitness(g, factors, coords)) == "edge 2-3: 2,4 not equal or adjacent in PathFactor(5)"
    # an edge that fails in both factors is named with its first one
    coords[3] = (1, 4)
    assert raised(ProductWitness(g, factors, coords)) == "edge 2-3: 3,1 not equal or adjacent in PathFactor(4)"
    # a pair that fails on edges 0-1 and 4-5 is named at 0-1, before 2-3 fails in factor 0
    host = Graph("xyz", [("x", "y")])
    g = Graph(range(6), [(0, 1), (2, 3), (4, 5)])
    coords = {0: (1, "z"), 1: (1, "x"), 2: (1, "y"), 3: (3, "y"), 4: (2, "z"), 5: (2, "x")}
    assert raised(ProductWitness(g, (PathFactor(3), host), coords)) == (
        "edge 0-1: 'z','x' not equal or adjacent in Graph(3 vertices, 1 edges)"
    )


def test_witness_coverage_error_names_a_vertex():
    # the first vertex without coordinates in graph order, else the first coordinate holder that is no vertex
    g = Graph("cab", [("a", "b")])
    factors = (PathFactor(3),)
    assert raised(ProductWitness(g, factors, {"a": (1,), "z": (3,)})) == "vertex 'c' has no coordinates"
    assert raised(ProductWitness(g, factors, {"c": (3,), "z": (3,), "a": (1,), "b": (2,)})) == (
        "coordinates given for 'z', which is not a vertex"
    )


def test_witness_checks_the_type_of_every_coordinate():
    # 1.0 == 1 and True == 1, but neither is a row: each vertex's coordinates are checked
    g = Graph("ab", [("a", "b")])
    coords = {"a": (1, 1), "b": (2, 1.0)}
    assert raised(ProductWitness(g, (PathFactor(2), PathFactor(2)), coords)) == "coordinate 1.0 outside factor PathFactor(2)"
    coords = {"a": (True,), "b": (2,)}
    assert raised(ProductWitness(g, (PathFactor(2),), coords)) == "coordinate True outside factor PathFactor(2)"
    for factor in (PathFactor(2), CliqueFactor(2), ClosureGraph(1)):
        assert factor.has_vertex(1) and not factor.has_vertex(True) and not factor.has_vertex(1.0)
    # a host triple whose depth is True stands beside the equal triple with depth 1
    p = UgParams(4, lam=1)
    coords = {"a": (("0", "", 1), 1), "b": (("0", "", True), 2)}
    assert raised(ProductWitness(g, (p, CliqueFactor(2)), coords)) == "coordinate ('0', '', True) outside factor UgParams(n=4, lam=1)"


class Counted:
    """A factor that counts its adjacency tests."""

    def __init__(self, factor):
        self.factor, self.calls = factor, 0

    @classmethod
    def wrap(cls, factors) -> tuple:
        return tuple(map(cls, factors))

    def has_vertex(self, v):
        return self.factor.has_vertex(v)

    def adjacent(self, u, v):
        self.calls += 1
        return self.factor.adjacent(u, v)

    def __repr__(self):
        return repr(self.factor)


def test_witness_tests_each_unordered_coordinate_pair_once():
    # every factor is symmetric, so a pair and its reverse share one verdict;
    # this embedding puts some pairs side by side both ways round
    inst = generate_qt_instance(2, 128, 8, rng_seed=1)
    p = UgParams(128)
    emb = embed_qt(p, inst)
    factors = (Counted(p), Counted(CliqueFactor(emb.omega)))
    ProductWitness(inst.graph, factors, emb.mapping).validate()
    for k, f in enumerate(factors):
        ordered = {(emb.mapping[u][k], emb.mapping[v][k]) for u, v in inst.graph.edges()}
        ordered = {(x, y) for x, y in ordered if x != y}
        unordered = {frozenset(pair) for pair in ordered}
        assert f.calls == len(unordered) < len(ordered)
        assert len(unordered) == 205 if k == 0 else 7


def test_witness_names_the_first_edge_of_a_pair_that_recurs_reversed():
    # 1,3 fails on edge 0-1 and again, reversed, on the later 4-5; 2-3 fails in between
    factors = (PathFactor(5), CliqueFactor(6))
    g = Graph(range(6), [(0, 1), (2, 3), (4, 5)])
    coords = {0: (1, 1), 1: (3, 2), 2: (2, 3), 3: (5, 4), 4: (3, 5), 5: (1, 6)}
    assert raised(ProductWitness(g, factors, coords)) == "edge 0-1: 1,3 not equal or adjacent in PathFactor(5)"
    # with 0-1 mended, 2-3 comes first, and with 2-3 mended too, the reversed pair at 4-5
    coords[1] = (2, 2)
    assert raised(ProductWitness(g, factors, coords)) == "edge 2-3: 2,5 not equal or adjacent in PathFactor(5)"
    coords[3] = (3, 4)
    assert raised(ProductWitness(g, factors, coords)) == "edge 4-5: 3,1 not equal or adjacent in PathFactor(5)"


# A seeded fault-injection sweep: validate against reference_validate, the
# sequential check it replaces, over every kind of factor the package uses.


def factor_kinds(rng):
    """name -> (factor, valid coordinates, coordinates outside it)."""
    host = Graph(range(6), [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.5], name="host")
    p = UgParams(4, lam=1)
    rows = row_graph(p)
    r0 = rng.choice(sorted(rows))
    near = [r0, *rng.sample(sorted(rows[r0]), min(4, len(rows[r0])))]
    triples = [(x, y, z) for x, y in near for z in range(p.d + 1)]
    x, y, _ = triples[0]
    return {
        "path": (PathFactor(4), [1, 2, 3, 4], [0, 5, 1.0, True, "1", None]),
        "clique": (CliqueFactor(3), [1, 2, 3], [0, 4, 1.0, True, "2"]),
        "graph": (host, list(range(6)), [6, "a", (1,), 1.0, True, [1]]),
        "ug": (p, triples, [("2", y, 0), (x, y, p.d + 1), (x, y), [x, y, 0], (x, y, 1.0), "abc", None]),
        "closure": (ClosureGraph(2), list(range(1, 8)), [0, 8, 2.0, True, "3"]),
    }


def fresh_coords(rng, pools, taken, fixed=None):
    """A coordinate tuple not among taken, with position k set to fixed[k] where given."""
    fixed = fixed or {}
    for _ in range(100):
        c = tuple(fixed[k] if k in fixed else rng.choice(pool) for k, pool in enumerate(pools))
        if c not in taken:
            return c
    return c


def inside(factors, c):
    try:
        return len(c) == len(factors) and all(f.has_vertex(x) for f, x in zip(factors, c))
    except TypeError:  # unhashable, in a Graph
        return False


def fits(factors, cu, cv):
    return all(a == b or f.adjacent(a, b) for f, a, b in zip(factors, cu, cv))


def base_witness(rng, factors, pools):
    n = rng.randint(4, 9)
    coords = {}
    for v in range(n):
        coords[v] = fresh_coords(rng, pools, list(coords.values()))
    order = list(coords)
    rng.shuffle(order)
    edges = [(u, v) for u, v in itertools.combinations(order, 2)
             if fits(factors, coords[u], coords[v]) and rng.random() < 0.7]
    return order, edges, coords


def inject(rng, fault, factors, pools, bad, order, edges, coords):
    """Apply one fault in place to (order, edges, coords)."""
    vs = list(coords)
    if fault == "missing":
        del coords[rng.choice(vs)]
    elif fault == "extra":
        coords["ghost"] = fresh_coords(rng, pools, list(coords.values()))
    elif fault == "arity":
        v = rng.choice(vs)
        coords[v] = coords[v] + coords[v][:1] if rng.random() < 0.5 else coords[v][:1]
    elif fault == "outside":
        v, k = rng.choice(vs), rng.randrange(len(factors))
        value = rng.choice(bad[k])
        if value in (1.0, True) and 1 in pools[k] and len(vs) > 1:
            # the float or bool stands beside a plain 1 in the same factor
            u = rng.choice([u for u in vs if u != v])
            coords[u] = coords[u][:k] + (1,) + coords[u][k + 1:]
        coords[v] = coords[v][:k] + (value,) + coords[v][k + 1:]
    elif fault == "collision":
        u, v = rng.sample(vs, 2)
        coords[v] = coords[u]
    elif fault == "nonadjacent":
        members = [v for v in vs if inside(factors, coords[v])]  # not broken by an earlier fault
        pairs = [(u, v) for u, v in itertools.permutations(members, 2) if not fits(factors, coords[u], coords[v])]
        if pairs:
            edges.append(rng.choice(pairs))
    elif fault == "reversed":
        # a, b put the failing pair x, y side by side in factor k, and the later c, d put y, x
        failing = [(k, x, y) for k, f in enumerate(factors) for x in pools[k] for y in pools[k]
                   if x != y and not f.adjacent(x, y)]
        if not failing:  # every unequal pair is adjacent, in every factor
            return
        k, x, y = rng.choice(failing)
        taken = list(coords.values())
        for name, first, second in (("a", x, y), ("c", y, x)):
            cu = fresh_coords(rng, pools, taken, {k: first})
            cv = fresh_coords(rng, pools, taken + [cu], {**{j: cu[j] for j in range(len(pools)) if j != k}, k: second})
            taken += [cu, cv]
            coords[name + "0"], coords[name + "1"] = cu, cv
            order += [name + "0", name + "1"]
            edges.append((name + "0", name + "1"))


FAULTS = ("missing", "extra", "arity", "outside", "collision", "nonadjacent", "reversed")


def outcome(check, witness):
    try:
        check(witness)
    except (WitnessError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def test_validate_matches_the_sequential_reference_under_injected_faults():
    seen = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        kinds = factor_kinds(rng)
        for pair in itertools.permutations(sorted(kinds), 2):
            factors = tuple(kinds[name][0] for name in pair)
            pools = [kinds[name][1] for name in pair]
            bad = [kinds[name][2] for name in pair]
            order, edges, coords = base_witness(rng, factors, pools)
            faults = [()] + [(f,) for f in FAULTS] + [tuple(rng.sample(FAULTS, 2))]
            for chosen in faults:
                o, e, c = list(order), list(edges), dict(coords)
                for fault in chosen:
                    inject(rng, fault, factors, pools, bad, o, e, c)
                g = Graph(o, e)
                got, want = Counted.wrap(factors), Counted.wrap(factors)
                result = outcome(ProductWitness.validate, ProductWitness(g, got, c))
                assert result == outcome(reference_validate, ProductWitness(g, want, c)), (seed, pair, chosen)
                assert [f.calls for f in got] == [f.calls for f in want], (seed, pair, chosen)
                if result[0] == "ok" or "not equal or adjacent" in result[1]:
                    for k, f in enumerate(got):
                        unordered = {frozenset((c[u][k], c[v][k])) for u, v in g.edges() if c[u][k] != c[v][k]}
                        assert f.calls == len(unordered)
                kind, message = result
                seen[next((name for name, text in ERRORS.items() if text in message), kind)] += 1
    # every verdict the check can give is reached: each error, an unhashable coordinate's TypeError, a pass
    assert set(seen) == {*ERRORS, "TypeError", "ok"}, seen


# a fragment of each error text of validate
ERRORS = {"missing": "has no coordinates", "extra": "which is not a vertex", "arity": "arity mismatch",
          "outside": "outside factor", "collision": "collide at", "edge": "not equal or adjacent"}
