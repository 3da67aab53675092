import itertools
import json
import re

import pytest
from graphs import path_graph

from uniprod.product import (
    CliqueFactor,
    Graph,
    PathFactor,
    ProductWitness,
    WitnessError,
)


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
