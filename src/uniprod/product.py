"""Simple graphs, product factors, and product-membership witnesses.

A witness records an injection of a graph's vertices into coordinate
tuples over a list of host factors; validity means every edge maps to a
pair that is equal-or-adjacent in every coordinate and differs somewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Iterable

from .io import endpoints, integer, read_records, write_pairs


class Graph:
    """Undirected simple graph over hashable vertex ids."""

    def __init__(self, vertices: Iterable = (), edges: Iterable = (), name: str = ""):
        self.name = name
        self._adj: dict[Hashable, set] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    @classmethod
    def from_adjacency(cls, adj: dict, name: str = "") -> "Graph":
        """Adopt a vertex -> neighbour-set map as it is, without copying.

        The caller guarantees the map is symmetric and loop-free.
        """
        g = cls(name=name)
        g._adj = adj
        return g

    def add_vertex(self, v) -> None:
        self._adj.setdefault(v, set())

    def add_edge(self, u, v) -> None:
        if u == v:
            raise ValueError(f"loop at {u!r}")
        adj = self._adj
        if u in adj:
            adj[u].add(v)
        else:
            adj[u] = {v}
        if v in adj:
            adj[v].add(u)
        else:
            adj[v] = {u}

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    def vertices(self):
        return self._adj.keys()

    def edges(self):
        done = set()  # vertices whose edges have all been yielded
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in done:
                    yield u, v
            done.add(u)

    def has_vertex(self, v) -> bool:
        return v in self._adj

    def has_edge(self, u, v) -> bool:
        return u in self._adj and v in self._adj[u]

    def adjacent(self, u, v) -> bool:
        """The factor interface's adjacency test, so a graph is a host factor."""
        return self.has_edge(u, v)

    def neighbors(self, v):
        return self._adj[v]

    def degree_sequence(self) -> list[int]:
        return sorted((len(s) for s in self._adj.values()), reverse=True)

    def induced_subgraph(self, keep) -> "Graph":
        keep = set(keep)
        g = Graph(keep, name=self.name)
        for u, v in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v)
        return g

    def __repr__(self):
        return f"Graph({self.n} vertices, {self.m} edges{', ' + self.name if self.name else ''})"

    def write_jsonl(self, path) -> None:
        """Graph file: a header line then one record per edge (dense int ids).

        Ids follow the repr order of the vertices; edges come out sorted,
        vertex by vertex, each as its smaller id then the larger.
        """
        order = sorted(self._adj, key=repr)
        index = {v: i for i, v in enumerate(order)}

        def groups():
            for i, v in enumerate(order):
                ids = sorted(map(index.__getitem__, self._adj[v]))
                yield i, ids[bisect_right(ids, i):]

        write_pairs(path, "graph", {"n": self.n, "name": self.name}, "edge", groups())

    @classmethod
    def read_jsonl(cls, path) -> "Graph":
        def parse(head, records):
            n, name = integer(head["n"], "n"), head.get("name", "")
            if n < 0:
                raise ValueError(f"n must be >= 0, not {n}")
            if type(name) is not str:
                raise ValueError(f"name must be a string, not {name!r}")
            g = cls(range(n), name=name)
            for rec in records:
                g.add_edge(*endpoints(rec["edge"], g._adj))
            return g

        return read_records(path, "graph", parse)


# Host factors: anything exposing vertex membership and a symmetric
# adjacency test, a Graph included.


class PathFactor:
    def __init__(self, h: int):
        if h < 1:
            raise ValueError("path length >= 1")
        self.h = h

    def has_vertex(self, v):
        return isinstance(v, int) and 1 <= v <= self.h

    def adjacent(self, u, v):
        return abs(u - v) == 1

    def __repr__(self):
        return f"PathFactor({self.h})"


class CliqueFactor:
    def __init__(self, k: int):
        if k < 1:
            raise ValueError("clique size >= 1")
        self.k = k

    def has_vertex(self, v):
        return isinstance(v, int) and 1 <= v <= self.k

    def adjacent(self, u, v):
        return u != v

    def __repr__(self):
        return f"CliqueFactor({self.k})"


def row_numbers(coords: dict) -> dict:
    """Each row that a (host vertex, row) coordinate uses, numbered 1.. in order.

    Vertices two rows apart share no edge, so closing the gaps between the
    rows in use keeps every edge between equal or adjacent rows.
    """
    return {y: i for i, y in enumerate(sorted({y for _, y in coords.values()}), start=1)}


class WitnessError(ValueError):
    pass


@dataclass
class ProductWitness:
    graph: Graph
    factors: tuple
    coords: dict

    def validate(self) -> None:
        """Raise WitnessError unless this is a valid product embedding.

        Every factor is symmetric: adjacent(x, y) == adjacent(y, x).
        has_vertex checks every coordinate of every vertex.  Each factor's
        adjacency test then runs once per distinct unordered pair of unequal
        coordinates that some edge puts side by side: it reads only the two
        values, which has_vertex has accepted, so the verdict of one pair
        is the verdict of every edge that carries it, in either orientation.
        The error names the first failing edge in graph.edges() order and,
        within that edge, the first failing factor.
        """
        factors, coords = self.factors, self.coords
        n = len(factors)
        if coords.keys() != self.graph.vertices():
            raise WitnessError("coordinate map does not cover the vertex set")
        seen = {}
        for v, c in coords.items():
            if len(c) != n:
                raise WitnessError(f"coordinate arity mismatch at {v!r}")
            for f, x in zip(factors, c):
                if not f.has_vertex(x):
                    raise WitnessError(f"coordinate {x!r} outside factor {f!r}")
            if c in seen:
                raise WitnessError(f"vertices {seen[c]!r} and {v!r} collide at {c}")
            seen[c] = v
        edges = list(self.graph.edges())
        ends = [(coords[u], coords[v]) for u, v in edges]
        failures = []  # (edge index, factor index)
        for k, f in enumerate(factors):
            first = {}  # (x, y) -> index of the first edge that puts x beside y, either way round, in factor k
            for i, (cu, cv) in enumerate(ends):
                x, y = pair = cu[k], cv[k]
                if pair not in first and (y, x) not in first:
                    first[pair] = i
            failures += ((i, k) for (x, y), i in first.items() if x != y and not f.adjacent(x, y))
        # an edge whose coordinates are all equal cannot occur: coords are injective
        if failures:
            i, k = min(failures)
            (u, v), (cu, cv) = edges[i], ends[i]
            raise WitnessError(f"edge {u!r}-{v!r}: {cu[k]!r},{cv[k]!r} not equal or adjacent in {factors[k]!r}")
