"""Simple graphs, product factors, and product-membership witnesses.

A witness records an injection of a graph's vertices into coordinate
tuples over a list of host factors; validity means every edge maps to a
pair that is equal-or-adjacent in every coordinate and differs somewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Hashable, Iterable

from .io import add_edge_record, integer, read_records, write_pairs


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
            adj = {v: set() for v in range(n)}
            for rec in records:
                add_edge_record(adj, rec["edge"])
            return cls.from_adjacency(adj, name=name)

        return read_records(path, "graph", parse)


# Host factors: anything exposing vertex membership and a symmetric
# adjacency test, a Graph included.


class PathFactor:
    def __init__(self, h: int):
        if h < 1:
            raise ValueError("path length >= 1")
        self.h = h

    def has_vertex(self, v):
        return type(v) is int and 1 <= v <= self.h

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
        return type(v) is int and 1 <= v <= self.k

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

        Every factor is symmetric: adjacent(x, y) == adjacent(y, x).  So
        pass or fail is decided in bulk: coverage, arity and injectivity
        over the whole map; has_vertex on every coordinate of each factor,
        so a 1.0 or True beside a 1 is checked on its own (a set of the
        distinct coordinates costs more to build than the calls it saves);
        then each factor's adjacency test once per distinct unordered pair
        of unequal coordinates that some edge puts side by side, in the
        orientation of its first edge.  The test reads only the two values,
        which has_vertex has accepted, so the verdict of one pair is the
        verdict of every edge that carries it, in either orientation.  A
        coverage error names the first vertex without coordinates, in
        graph order, or else the first coordinate holder that is no vertex.
        Only when another check fails is the map scanned again in order,
        reusing the pair verdicts: the error names the first failing
        vertex, or else the first failing edge in graph.edges() order and,
        within that edge, the first failing factor.
        """
        factors, coords = self.factors, self.coords
        if coords.keys() != self.graph.vertices():
            for v in self.graph.vertices():
                if v not in coords:
                    raise WitnessError(f"vertex {v!r} has no coordinates")
            extra = next(v for v in coords if not self.graph.has_vertex(v))
            raise WitnessError(f"coordinates given for {extra!r}, which is not a vertex")
        cs = coords.values()
        try:
            ok = (
                {len(c) for c in cs} <= {len(factors)}
                and len(set(cs)) == len(cs)
                and all(f.has_vertex(x) for f, xs in zip(factors, zip(*cs)) for x in xs)
            )
        except TypeError:  # an unhashable coordinate: the scan meets it in its place
            ok = False
        if not ok:
            self._scan_vertices()
        ends = [(coords[u], coords[v]) for u, v in self.graph.edges()]
        verdicts = []  # per factor: (x, y) -> adjacent(x, y), one orientation per unordered pair
        for k, f in enumerate(factors):
            verdict = {}
            for x, y in dict.fromkeys((cu[k], cv[k]) for cu, cv in ends):
                if x != y and (y, x) not in verdict:
                    verdict[x, y] = f.adjacent(x, y)
            verdicts.append(verdict)
        # an edge whose coordinates are all equal cannot occur: coords are injective
        if not all(all(verdict.values()) for verdict in verdicts):
            for (u, v), (cu, cv) in zip(self.graph.edges(), ends):
                for k, verdict in enumerate(verdicts):
                    x, y = cu[k], cv[k]
                    if x != y and not verdict.get((x, y), verdict.get((y, x))):
                        raise WitnessError(f"edge {u!r}-{v!r}: {x!r},{y!r} not equal or adjacent in {factors[k]!r}")

    def _scan_vertices(self) -> None:
        """Check the vertices one by one, each coordinate then the collisions, and raise at the first failure."""
        factors, n = self.factors, len(self.factors)
        seen = {}
        for v, c in self.coords.items():
            if len(c) != n:
                raise WitnessError(f"coordinate arity mismatch at {v!r}")
            for f, x in zip(factors, c):
                if not f.has_vertex(x):
                    raise WitnessError(f"coordinate {x!r} outside factor {f!r}")
            if c in seen:
                raise WitnessError(f"vertices {seen[c]!r} and {v!r} collide at {c}")
            seen[c] = v
