"""Tree decompositions, t-trees, and width conversions.

The pipeline here turns a width-t tree decomposition into three related
artifacts: a completed t-tree (a maximal graph of treewidth t, given by
its construction order and attach sets), a path decomposition (its bags
in path order) whose width grows only by a log factor, and an interval
representation realizing that path decomposition geometrically.  Random t-trees and random
subgraphs of ttree x path products act as test instances downstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from math import comb

from .closure import IntervalRep
from .io import add_edge_record, endpoints, integer, json_id, key, read_records, write_lines
from .product import Graph, PathFactor, ProductWitness


@dataclass
class TreeDecomposition:
    """Bags indexed by tree nodes plus the tree's edge list."""

    bags: dict
    edges: list

    def __post_init__(self):
        self.bags = {x: frozenset(b) for x, b in self.bags.items()}
        self.edges = [tuple(e) for e in self.edges]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def adjacency(self) -> dict:
        adj = {x: set() for x in self.bags}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def covered_vertices(self) -> set:
        out = set()
        for b in self.bags.values():
            out |= b
        return out

    def validate(self, g: Graph) -> None:
        """Check that the bags cover exactly the vertices of g, and its edges, plus bag connectivity."""
        if not self.bags:
            raise ValueError("decomposition has no nodes")
        adj = self.adjacency()
        if len(self.edges) != len(self.bags) - 1:
            raise ValueError("tree edge count is off")
        seen = set()
        stack = [next(iter(self.bags))]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
        if len(seen) != len(self.bags):
            raise ValueError("decomposition tree is disconnected")
        where = {}  # vertex -> nodes whose bag holds it
        for x, b in self.bags.items():
            for v in b:
                where.setdefault(v, set()).add(x)
        stray = where.keys() - set(g.vertices())
        if stray:
            raise ValueError(f"bags name non-vertices: {sorted(map(repr, stray))[:5]}")
        missing = set(g.vertices()) - where.keys()
        if missing:
            raise ValueError(f"vertices not covered: {sorted(map(repr, missing))[:5]}")
        for u, v in g.edges():
            if where[u].isdisjoint(where[v]):
                raise ValueError(f"edge {u!r}-{v!r} in no bag")
        # the nodes holding v induce a forest of the tree, which is a
        # subtree exactly when it has len(where[v]) - 1 edges
        inner = dict.fromkeys(where, 0)
        for a, b in self.edges:
            for v in self.bags[a] & self.bags[b]:
                inner[v] += 1
        for v, nodes in where.items():
            if inner[v] != len(nodes) - 1:
                raise ValueError(f"bags containing {v!r} are disconnected")


def _centroid(nodes: set, adj: dict, rank: dict):
    """Tree node whose removal leaves components of at most len(nodes)//2.

    adj lists each node's neighbours in rank order.  The search starts
    at the node of least rank and visits neighbours in that order, so
    the centroid chosen does not follow set iteration order.
    """
    n = len(nodes)
    start = min(nodes, key=rank.__getitem__)
    order, parent = [], {start: None}
    stack = [start]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in adj[x]:
            if y in nodes and y != parent[x]:
                parent[y] = x
                stack.append(y)
    size = {x: 1 for x in nodes}
    for x in reversed(order):
        if parent[x] is not None:
            size[parent[x]] += size[x]
    for x in order:
        heaviest = n - size[x]
        for y in adj[x]:
            if y in nodes and parent.get(y) == x:
                heaviest = max(heaviest, size[y])
        if heaviest <= n // 2:
            return x
    raise AssertionError("tree has no centroid")


def tree_to_path_decomposition(tt: TTree) -> list:
    """Convert a t-tree's family tree into a path decomposition: its bags in path order.

    The family tree has one node per vertex, whose bag is its family
    clique, and an edge from each vertex past the first to its owner.  A
    path-shaped family tree passes through: its bags in the order of a
    walk from its end of least repr.  Otherwise the first t + 1 nodes,
    whose bags are all the initial clique, merge into order[t]; no other
    bag contains a neighbour's, as each later bag holds its own vertex,
    which no earlier bag holds.  The merged tree is split at a centroid
    whose bag is unioned into every bag of the recursively built
    segments, so the width of the result is below
    (t + 1) * (ceil(log2 n) + 1).
    """
    order, owner, t = tt.order, tt.owner, tt.t
    adj = {v: [] for v in order}
    for v in order[1:]:
        adj[v].append(owner[v])
        adj[owner[v]].append(v)
    if all(len(ys) <= 2 for ys in adj.values()):
        x, prev = min((v for v in order if len(adj[v]) <= 1), key=repr), None
        walk = [x]
        while len(walk) < tt.n:
            x, prev = next(y for y in adj[x] if y != prev), x
            walk.append(x)
        return [tt.cliques[x] for x in walk]
    top, initial = order[t], set(order[: t + 1])
    adj[top] = [y for x in order[: t + 1] for y in adj.pop(x) if y not in initial]
    for y in adj[top]:
        adj[y] = [top if u in initial else u for u in adj[y]]
    rank = {x: r for r, x in enumerate(sorted(order[t:], key=repr))}
    adj = {x: sorted(ys, key=rank.__getitem__) for x, ys in adj.items()}
    # each task (nodes, above) appends the bags of nodes, each unioned with
    # above, the bags of the centroids above them; a task's components are
    # done in order of least rank, before any later task
    bags, tasks = [], [(set(adj), frozenset())]
    while tasks:
        nodes, above = tasks.pop()
        c = _centroid(nodes, adj, rank)
        above = above | tt.cliques[c]
        comps = []  # (least rank, component), one per neighbour of c in nodes
        for first in adj[c]:
            if first in nodes:
                comp, stack = {first}, [first]
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y != c and y in nodes and y not in comp:
                            comp.add(y)
                            stack.append(y)
                comps.append((min(map(rank.__getitem__, comp)), comp))
        if not comps:
            bags.append(above)
        tasks += [(comp, above) for _, comp in sorted(comps, key=lambda item: item[0], reverse=True)]
    width = max(map(len, bags)) - 1
    cap = (t + 1) * ((tt.n - 1).bit_length() + 1) - 1
    if width > cap:
        raise AssertionError(f"pathwidth {width} exceeds bound {cap}")
    return bags


def path_decomposition_to_intervals(bags: list) -> IntervalRep:
    """Each vertex becomes the index range of the path-ordered bags containing it."""
    first, last = {}, {}
    for i, b in enumerate(bags):
        for v in b:
            first.setdefault(v, i)
            last[v] = i
    return IntervalRep({v: (first[v], last[v]) for v in first})


# ---------------------------------------------------------------------------
# t-trees


@dataclass
class TTree:
    """A maximal graph of treewidth t, as its construction order and attach sets.

    Vertices enter one at a time in order.  attach[v] is the set of
    earlier vertices that v joins: all of them for the first t + 1
    vertices, else a t-clique of the graph built so far.  owner[v] names
    an earlier vertex whose family clique contains v's attach set.  The
    rest is derived: graph holds the attach edges, added in construction
    order; cliques[v] is the family clique of v (its attach set plus v
    itself, or the initial clique for the first t + 1 vertices); colour
    is a proper greedy colouring with t + 1 colours.  It is checked when
    it is built, so an invalid TTree raises ValueError and never exists.

    Only the order, the attach sets and the owners are checked; the rest
    follows by induction.  The first t + 1 attach sets are all the
    earlier vertices, so the initial clique is a clique with t + 1
    colours.  After that attach[v] lies in cliques[owner[v]], a clique
    with t + 1 colours, so attach[v] is a clique with t colours, and the
    greedy colouring gives v the one missing colour.
    """

    t: int
    order: list
    attach: dict
    owner: dict
    graph: Graph = field(init=False)
    cliques: dict = field(init=False)
    colour: dict = field(init=False)

    def __post_init__(self):
        pos = self._positions()
        self.graph = Graph(self.order, name=f"ttree(t={self.t}, n={self.n})")
        for v in self.order:
            for w in self.attach[v]:
                self.graph.add_edge(v, w)
        base = frozenset(self.order[: self.t + 1])
        self.cliques = {v: base if i <= self.t else self.attach[v] | {v} for i, v in enumerate(self.order)}
        self.colour = {}
        for v in self.order:
            used = {self.colour[w] for w in self.attach[v]}
            self.colour[v] = min(c for c in range(1, self.t + 2) if c not in used)
        self._check_owners(pos)

    @property
    def n(self) -> int:
        return len(self.order)

    def parents(self, v) -> dict:
        return {self.colour[w]: w for w in self.cliques[v]}

    def reachable_ancestors(self, v, dist: int) -> set:
        """Vertices reachable from v by at most dist family-clique hops."""
        reach = {v}
        for _ in range(dist):
            nxt = set(reach)
            for z in reach:
                nxt |= self.cliques[z]
            if nxt == reach:
                break
            reach = nxt
        return reach

    def ancestor_count_bound(self, dist: int) -> int:
        return comb(dist + self.t, self.t)

    def validate(self) -> None:
        """The checks every TTree passed when it was built, run again."""
        self._check_owners(self._positions())

    def _positions(self) -> dict:
        """Each vertex's index in order, once order and attach sets are fit to derive the rest from."""
        if self.n < self.t + 1:
            raise ValueError("need at least t + 1 vertices")
        pos = {v: i for i, v in enumerate(self.order)}
        if len(pos) != self.n:
            raise ValueError("order repeats a vertex")
        for i, v in enumerate(self.order):
            if v not in self.attach:
                raise ValueError(f"{v!r} has no attach set")
            if any(pos.get(w, i) >= i for w in self.attach[v]):
                raise ValueError(f"attach set of {v!r} names a vertex that is not earlier")
            if len(self.attach[v]) != min(i, self.t):
                raise ValueError(f"attach set of {v!r} has wrong size")
        return pos

    def _check_owners(self, pos: dict) -> None:
        """Every owner is earlier, and past the initial clique its family clique covers the attach set."""
        for v in self.order[1:]:
            u = self.owner.get(v)
            if u is None or pos.get(u, pos[v]) >= pos[v]:
                raise ValueError(f"owner of {v!r} missing or too late")
            if pos[v] > self.t and not self.attach[v] <= self.cliques[u]:
                raise ValueError(f"owner clique does not cover attach set of {v!r}")

    def family_decomposition(self) -> TreeDecomposition:
        """Tree decomposition whose bags are the family cliques.

        It is one by construction, so it is not checked again.  The
        parent of each node is its owner, which is earlier, so the nodes
        form a tree.  Vertex v lies in its own bag, and so does each
        attach edge (v, w), as w is in attach[v].  The first t + 1 nodes
        all hold the initial clique and form a subtree.  Any vertex w in
        a later bag other than its own lies in that bag's attach set,
        hence also in the owner's bag, so the bags containing w chain
        down to w's own node or to the initial nodes, and form a subtree.
        """
        bags = {v: self.cliques[v] for v in self.order}
        edges = [(v, self.owner[v]) for v in self.order[1:]]
        return TreeDecomposition(bags, edges)


def grow_ttree(t: int, order: list, pick) -> TTree:
    """The t-tree that grows along order; every t-tree of the package is built here.

    The first t + 1 vertices form the initial clique, each attached to
    every vertex before it and owned by the one just before.  For i > t,
    pick(i, cliques) returns the attach set and owner of order[i], read
    from cliques, the family cliques of the vertices before it.
    """
    attach, owner = {}, {}
    cliques = dict.fromkeys(order[: t + 1], frozenset(order[: t + 1]))
    for i, v in enumerate(order):
        if i <= t:
            attach[v] = frozenset(order[:i])
            if i:
                owner[v] = order[i - 1]
        else:
            attach[v], owner[v] = pick(i, cliques)
            cliques[v] = attach[v] | {v}
    return TTree(t, order, attach, owner)


def build_ttree(t: int, n: int, rng_seed: int = 0) -> TTree:
    """Random t-tree on vertices 0..n-1 in construction order.

    Each new vertex drops one random member from the family clique of a
    random earlier vertex and attaches to the remaining t-clique.
    """
    if t < 1 or n < t + 1:
        raise ValueError("need t >= 1 and n >= t + 1")
    rng = random.Random(rng_seed)

    def pick(i: int, cliques: dict):
        u = rng.randrange(i)
        return cliques[u] - {rng.choice(sorted(cliques[u]))}, u

    return grow_ttree(t, list(range(n)), pick)


def _mcs_order(verts: list, adj: dict) -> list:
    """Maximum cardinality search; ties go to the earliest vertex of verts.

    A bucket queue: heaps[k] holds the positions in verts of unvisited
    vertices pushed at weight k.  Weights only grow, so an entry is stale
    exactly when its vertex was visited or has since gained weight, and
    stale entries are dropped as they surface.
    """
    index = {v: i for i, v in enumerate(verts)}
    weight = [0] * len(verts)
    heaps = [list(range(len(verts)))]  # an ascending list is a heap
    top, out = 0, []
    while len(out) < len(verts):
        heap = heaps[top]
        if not heap:
            top -= 1
            continue
        i = heappop(heap)
        if weight[i] != top:
            continue
        weight[i] = -1  # visited
        v = verts[i]
        out.append(v)
        for w in adj[v]:
            j = index[w]
            k = weight[j] + 1
            if k:
                weight[j] = k
                if k == len(heaps):
                    heaps.append([])
                heappush(heaps[k], j)
                if k > top:
                    top = k
    return out


def ttree_from_decomposition(td: TreeDecomposition) -> TTree:
    """Complete the graph described by a tree decomposition to a t-tree.

    t is the width of the decomposition.  The union of bag cliques is
    chordal, so a maximum cardinality search yields an order in which
    each vertex's earlier neighbours form a clique of size at most t.
    Attach sets are padded to exactly t vertices out of an enclosing
    family clique, which always exists because every clique of a t-tree
    lies inside some family clique.
    """
    t = td.width
    verts = sorted(td.covered_vertices(), key=repr)
    if len(verts) < t + 1:
        raise ValueError("decomposition covers fewer than t + 1 vertices")
    adj = {v: set() for v in verts}
    for b in td.bags.values():
        bl = sorted(b, key=repr)
        for i, u in enumerate(bl):
            for w in bl[i + 1 :]:
                adj[u].add(w)
                adj[w].add(u)
    order = _mcs_order(verts, adj)
    pos = {v: i for i, v in enumerate(order)}
    # w -> ascending positions whose family clique contains w
    holders = {w: list(range(t + 1)) if pos[w] <= t else [] for w in verts}

    def pick(i: int, cliques: dict):
        v = order[i]
        ni = {w for w in adj[v] if pos[w] < i}
        if len(ni) > t:
            raise ValueError("decomposition width below the cliques it induces")
        if ni:
            # the latest family clique containing ni is in every holders[w], w in ni
            scan = holders[min(ni, key=lambda w: len(holders[w]))]
            hull = next((order[p] for p in reversed(scan) if ni <= cliques[order[p]]), None)
        else:
            hull = order[i - 1]
        if hull is None:
            raise AssertionError("earlier neighbours do not form a clique")
        att = set(ni)
        for w in sorted(cliques[hull] - ni, key=repr):
            if len(att) == t:
                break
            att.add(w)
        for w in att:
            holders[w].append(i)
        holders[v].append(i)
        return frozenset(att), hull

    return grow_ttree(t, order, pick)


# ---------------------------------------------------------------------------
# random product instances


@dataclass
class QtInstance:
    """A graph drawn inside host x path, with the host's decomposition.

    coords places each graph vertex at a (host vertex, row) pair.  It is
    checked when it is built: t >= 1, the graph has a vertex, coords is
    a product witness in host x P_h, the decomposition is a tree
    decomposition of the host, and its width is t.  So an invalid
    QtInstance raises ValueError and never exists.
    """

    graph: Graph
    host: Graph
    coords: dict
    decomposition: TreeDecomposition
    t: int
    h: int
    seed: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t >= 1 required")
        if not self.graph.n:
            raise ValueError("instance has no vertices")
        ProductWitness(self.graph, (self.host, PathFactor(self.h)), self.coords).validate()
        self.decomposition.validate(self.host)
        if self.decomposition.width != self.t:
            raise ValueError(f"header says t = {self.t} but the decomposition has width {self.decomposition.width}")

    def write_jsonl(self, path) -> None:
        """Write the instance file, its lines formatted from ids each formatted once.

        The bytes are those of ``json.dumps`` on each record.  ``gv`` and
        ``hv`` records follow the repr order of the ids, ``ge`` and ``he``
        the repr order of the pairs, each pair as it is given; ``dnode``
        (members in repr order) and ``de`` follow the decomposition.  A
        row is an int, as the witness check refuses any other.
        """
        coords, bags = self.coords, self.decomposition.bags
        gids = sorted(coords, key=repr)
        gtext = {g: json_id(g) for g in gids}
        htext = {v: json_id(v) for v in sorted(self.host.vertices(), key=repr)}
        ntext = {x: json_id(x) for x in bags}

        def vertex(g):
            v, y = coords[g]
            return f'{{"gv": {gtext[g]}, "c": [{htext[v]}, {y}]}}\n'

        def bag(x):
            members = ", ".join([htext[v] for v in sorted(bags[x], key=repr)])
            return f'{{"dnode": {ntext[x]}, "bag": [{members}]}}\n'

        lines = chain(
            map(vertex, gids),
            (f'{{"ge": [{gtext[a]}, {gtext[b]}]}}\n' for a, b in sorted(self.graph.edges(), key=repr)),
            (f'{{"hv": {text}}}\n' for text in htext.values()),
            (f'{{"he": [{htext[a]}, {htext[b]}]}}\n' for a, b in sorted(self.host.edges(), key=repr)),
            map(bag, bags),
            (f'{{"de": [{ntext[a]}, {ntext[b]}]}}\n' for a, b in self.decomposition.edges),
        )
        write_lines(path, "qt-instance", {"t": self.t, "h": self.h, "seed": self.seed}, lines)

    @classmethod
    def read_jsonl(cls, path) -> "QtInstance":
        """Read an instance file; its checks run as it is built, so their errors name the file."""

        def parse(head, records):
            adj, host_adj, coords, bags, d_edges = {}, {}, {}, {}, []  # adj: vertex -> neighbour set, as Graph keeps it
            for rec in records:
                if "gv" in rec:
                    v = key(rec["gv"])
                    if v in coords:
                        raise ValueError(f"vertex {v!r} is placed twice")
                    c, y = rec["c"]
                    coords[v] = (key(c), integer(y, "row"))
                    adj[v] = set()
                elif "ge" in rec:
                    add_edge_record(adj, rec["ge"])
                elif "hv" in rec:
                    host_adj.setdefault(key(rec["hv"]), set())
                elif "he" in rec:
                    add_edge_record(host_adj, rec["he"])
                elif "dnode" in rec:
                    x = key(rec["dnode"])
                    if x in bags:
                        raise ValueError(f"decomposition node {x!r} is given twice")
                    bags[x] = frozenset(key(v) for v in rec["bag"])
                else:
                    d_edges.append(endpoints(rec["de"], bags))
            t, h, seed = (integer(head[name], name) for name in ("t", "h", "seed"))
            graph, host = Graph.from_adjacency(adj, name="qt instance"), Graph.from_adjacency(host_adj, name="host")
            return cls(graph, host, coords, TreeDecomposition(bags, d_edges), t=t, h=h, seed=seed)

        return read_records(path, "qt-instance", parse)


def host_layout(inst: QtInstance) -> tuple[TTree, IntervalRep]:
    """The host layout that embedding and labelling both start from.

    The host's decomposition is completed to a t-tree, which keeps every
    host edge: the decomposition covers each host edge with a bag, and
    ttree_from_decomposition attaches each vertex to all its earlier
    bag-clique neighbours.  The intervals are those of the path
    decomposition converted from the t-tree's family tree.
    """
    tt = ttree_from_decomposition(inst.decomposition)
    return tt, path_decomposition_to_intervals(tree_to_path_decomposition(tt))


def generate_qt_instance(t: int, n: int, h: int, rng_seed: int = 0) -> QtInstance:
    """Random n-vertex subgraph of (random t-tree) x (path on h rows).

    Every row hosts at least one vertex.  The returned coords place the
    graph inside host x P_h; the decomposition is the host t-tree's
    own family decomposition, so its width is exactly t.
    """
    if h < 1 or n < h:
        raise ValueError("need 1 <= h <= n")
    rng = random.Random(rng_seed)
    n_host = max(t + 1, -(-n // h))
    tt = build_ttree(t, n_host, rng.randrange(1 << 30))
    host = tt.graph
    grid = [(u, y) for y in range(1, h + 1) for u in range(n_host)]
    chosen = set()
    for y in range(1, h + 1):
        chosen.add((rng.randrange(n_host), y))
    pool = [p for p in grid if p not in chosen]
    chosen.update(rng.sample(pool, n - len(chosen)))
    coords = {i: p for i, p in enumerate(sorted(chosen))}
    index = {p: i for i, p in coords.items()}
    g = Graph(range(n), name=f"qt(t={t}, n={n}, h={h})")
    # candidates j > i share or neighbour i's row and host vertex; each is
    # offered one coin, in increasing (i, j) order
    closed = [(u, *host.neighbors(u)) for u in range(n_host)]
    for i in range(n):
        u, y = coords[i]
        near = [j for w in closed[u] for z in (y - 1, y, y + 1) if (j := index.get((w, z), -1)) > i]
        near.sort()
        for j in near:
            if rng.random() < 0.5:
                g.add_edge(i, j)
    return QtInstance(g, host, coords, tt.family_decomposition(), t=t, h=h, seed=rng_seed)
