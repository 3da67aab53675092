"""Small graphs, contract checks and brute-force oracles the tests share."""

import itertools
import json
import math
from collections import Counter
from collections.abc import Iterator, Sequence

from uniprod.bitcore import Bst, check_bits, is_prefix, strip_successor, successor_set
from uniprod.decomp import QtInstance, TTree, TreeDecomposition
from uniprod.induced import Label, LabelParams, LabelledInstance, _derive_tester_view, adjacency_test
from uniprod.io import write_lines
from uniprod.product import Graph, ProductWitness, WitnessError
from uniprod.treeseq import LcpCodec
from uniprod.unigraph import UgParams, check_vertex, is_edge, row_graph


def path_graph(h: int) -> Graph:
    return Graph(range(1, h + 1), ((i, i + 1) for i in range(1, h)), name=f"P_{h}")


def compatible(x: str, y: str) -> bool:
    """True iff one of x, y is a prefix of the other."""
    return x.startswith(y) or y.startswith(x)


def enumerate_bsts(keys: Sequence[int]) -> Iterator[Bst]:
    """Yield every BST shape over the given keys (Catalan many)."""
    ks = sorted(keys)

    def shapes(lo, hi):
        if lo >= hi:
            yield None, {}, {}
            return
        for r in range(lo, hi):
            for lroot, llft, lrgt in shapes(lo, r):
                for rroot, rlft, rrgt in shapes(r + 1, hi):
                    lft = dict(llft)
                    rgt = dict(lrgt)
                    lft.update(rlft)
                    rgt.update(rrgt)
                    lft[ks[r]] = lroot
                    rgt[ks[r]] = rroot
                    yield ks[r], lft, rgt

    for root, lft, rgt in shapes(0, len(ks)):
        if root is not None:
            yield Bst(root, lft, rgt)


def in_successor_set(sigma: str, tau: str, h: int) -> bool:
    """Membership test for successor_set without materialising it."""
    if len(sigma) > h or len(tau) > h:
        return False
    if tau == strip_successor(sigma):
        return True
    k = len(sigma)
    return len(tau) > k and tau[:k] == sigma and tau[k] == "1" and not tau[k + 1 :].strip("0")


def is_edge_exhaustive(p: UgParams, u, v) -> bool:
    """Slow cross-check: search all stand-ins and codes directly.

    Only usable when budgets are tiny; the closed form in is_edge must
    agree with this on every pair.
    """
    check_vertex(p, u)
    check_vertex(p, v)
    if u == v:
        return False

    def one_way(a, b) -> bool:
        x1, y1, _ = a
        x2, y2, _ = b
        if y1 == y2:
            return is_prefix(x2, x1)
        if len(y1) > p.horizon or y2 not in successor_set(y1, p.horizon):
            return False
        w = p.codec.width
        for lx in range(p.budget - len(y1) + 1):
            for bits in itertools.product("01", repeat=lx):
                stand_in = "".join(bits)
                if not compatible(stand_in, x1):
                    continue
                for ln in range(w, p.lam + 1):
                    for nb in itertools.product("01", repeat=ln):
                        if p.codec.decode(stand_in, "".join(nb)) == x2:
                            return True
        return False

    return one_way(u, v) or one_way(v, u)


def reference_host(p: UgParams) -> Graph:
    """The host R x K_{d+1} built as a graph on its (x, y, z) triples.

    Each triple (r, z) is given the set of every other triple of r and of
    r's R-neighbours; materialize(p).write_jsonl must write this graph's file.
    """
    rows = row_graph(p)
    triples = {r: [(*r, z) for z in range(p.d + 1)] for r in rows}
    adj = {}
    for r, nbrs in rows.items():
        block = set(triples[r])
        for s in nbrs:
            block.update(triples[s])
        for t in triples[r]:
            adj[t] = block - {t}
    return Graph.from_adjacency(adj, name=f"ug(n={p.n}, lam={p.lam})")


def host_degree_sequence(p: UgParams) -> list[int]:
    """The host's degree sequence, sorted descending, read off row_graph.

    In R x K_{d+1} each of the d+1 triples of r has degree
    (d+1)(deg_R(r) + 1) - 1; so |V| is the length and |E| half the sum.
    """
    k = p.d + 1
    degrees = sorted((len(nbrs) for nbrs in row_graph(p).values()), reverse=True)
    return [k * (deg + 1) - 1 for deg in degrees for _ in range(k)]


def degree_runs(seq) -> list[tuple[int, int]]:
    """A degree sequence as (degree, multiplicity) pairs, degree descending."""
    return sorted(Counter(seq).items(), reverse=True)


def write_records(path, kind: str, head: dict, records) -> None:
    """Write the header ``{"kind": kind, **head}``, then one ``json.dumps`` line per record.

    The byte oracle of every pipeline writer, each of which formats its
    own lines.
    """
    write_lines(path, kind, head, (json.dumps(rec) + "\n" for rec in records))


def edge_records(name: str, edges):
    """One record ``{name: [a, b]}`` per edge, in the repr order of the pairs.

    Each pair keeps the orientation it is given; only the order of the
    records is sorted, so a file does not follow set iteration order.
    """
    return ({name: [a, b]} for a, b in sorted(edges, key=repr))


def read_host(path, p: UgParams) -> Graph:
    """A host graph file read back onto the triples, whose ids follow repr order."""
    g = Graph.read_jsonl(path)
    order = sorted(((*r, z) for r in row_graph(p) for z in range(p.d + 1)), key=repr)
    assert g.n == len(order)
    return Graph(order, ((order[a], order[b]) for a, b in g.edges()), name=g.name)


def assert_is_edge_graph(p: UgParams, g: Graph) -> None:
    """Every pair of g's vertices is an edge of g exactly when is_edge says so."""
    for u, v in itertools.combinations(g.vertices(), 2):
        assert g.has_edge(u, v) == is_edge(p, u, v), (p.n, p.lam, u, v)


def reference_validate(w: ProductWitness) -> None:
    """ProductWitness.validate's oracle: every check in order, edge by edge.

    Coverage names the first vertex without coordinates, in graph order,
    or else the first coordinate holder that is no vertex.  Then each
    vertex in turn: its arity, each coordinate's membership, a collision
    with an earlier vertex.  Then each factor's adjacency test once per
    unordered pair of unequal coordinates, charged to the first edge
    that carries the pair either way round; the error names the failing
    (edge, factor) that comes first, edges in graph.edges() order.
    """
    factors, coords = w.factors, w.coords
    n = len(factors)
    if coords.keys() != w.graph.vertices():
        for v in w.graph.vertices():
            if v not in coords:
                raise WitnessError(f"vertex {v!r} has no coordinates")
        extra = next(v for v in coords if not w.graph.has_vertex(v))
        raise WitnessError(f"coordinates given for {extra!r}, which is not a vertex")
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
    edges = list(w.graph.edges())
    ends = [(coords[u], coords[v]) for u, v in edges]
    failures = []  # (edge index, factor index)
    for k, f in enumerate(factors):
        first = {}  # (x, y) -> index of the first edge that puts x beside y, either way round, in factor k
        for i, (cu, cv) in enumerate(ends):
            x, y = pair = cu[k], cv[k]
            if pair not in first and (y, x) not in first:
                first[pair] = i
        failures += ((i, k) for (x, y), i in first.items() if x != y and not f.adjacent(x, y))
    if failures:
        i, k = min(failures)
        (u, v), (cu, cv) = edges[i], ends[i]
        raise WitnessError(f"edge {u!r}-{v!r}: {cu[k]!r},{cv[k]!r} not equal or adjacent in {factors[k]!r}")


def path_shaped(bags: list) -> TreeDecomposition:
    """A path decomposition, its bags in path order, as the tree decomposition on a path of them."""
    return TreeDecomposition(dict(enumerate(bags)), [(i, i + 1) for i in range(len(bags) - 1)])


def reference_ttree(td: TreeDecomposition) -> tuple[list, dict, dict]:
    """The t-tree completion of td by quadratic scans, the oracle ttree_from_decomposition must match.

    Returns its order, attach sets and owners.  The order is a maximum
    cardinality search that takes the first vertex of greatest weight in
    repr order; each later vertex's owner is the latest vertex whose
    family clique holds its earlier neighbours, found by scanning back,
    and its attach set is padded to t out of that clique in repr order.
    """
    t = td.width
    verts = sorted(td.covered_vertices(), key=repr)
    adj = {v: set() for v in verts}
    for bag in td.bags.values():
        for u, w in itertools.permutations(bag, 2):
            adj[u].add(w)
    weight = dict.fromkeys(verts, 0)
    order = []
    while weight:
        v = max(weight, key=weight.__getitem__)
        order.append(v)
        del weight[v]
        for w in adj[v]:
            if w in weight:
                weight[w] += 1
    base = frozenset(order[: t + 1])
    attach, owner, cliques = {}, {}, {}
    for i, v in enumerate(order):
        if i <= t:
            attach[v], cliques[v] = frozenset(order[:i]), base
            if i:
                owner[v] = order[i - 1]
            continue
        ni = adj[v] & set(order[:i])
        hull = next(u for u in order[i - 1 :: -1] if ni <= cliques[u])
        pad = sorted(cliques[hull] - ni, key=repr)[: t - len(ni)]
        attach[v], owner[v] = frozenset(ni | set(pad)), hull
        cliques[v] = attach[v] | {v}
    return order, attach, owner


def normalize_decomposition(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges whose one bag contains the other.

    Afterwards no bag is a subset of a neighbouring bag, which caps the
    node count at the number of covered vertices (each leaf then owns a
    private vertex).  Neighbours are visited in repr order, so the result
    does not follow set iteration order.
    """
    bags = dict(td.bags)
    adj = {x: set(ys) for x, ys in td.adjacency().items()}
    changed = True
    while changed:
        changed = False
        for a in list(bags):
            for b in sorted(adj[a], key=repr):
                if bags[a] <= bags[b]:
                    for c in adj[a]:
                        if c != b:
                            adj[c].discard(a)
                            adj[c].add(b)
                            adj[b].add(c)
                    adj[b].discard(a)
                    del adj[a], bags[a]
                    changed = True
                    break
            if changed:
                break
    seen, edges = set(), []
    for a, ys in adj.items():
        for b in ys:
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                edges.append((a, b))
    return TreeDecomposition(bags, edges)


def _is_path(td: TreeDecomposition):
    """The nodes of a path-shaped td in walk order from its end of least repr, else None."""
    adj = td.adjacency()
    if any(len(ys) > 2 for ys in adj.values()):
        return None
    if len(td.edges) != len(td.bags) - 1:
        return None
    start = min(
        (x for x in td.bags if len(adj[x]) <= 1), key=repr, default=None
    )
    if start is None:
        return None
    order, prev = [start], None
    while True:
        nxt = [y for y in adj[order[-1]] if y != prev]
        if not nxt:
            break
        prev = order[-1]
        order.append(nxt[0])
    if len(order) != len(td.bags):
        return None
    return order


def spine_width_bound(tt: TTree) -> int:
    """(t + 1)(R + 1) - 1, the width bound of tree_to_path_decomposition(tt).

    R is the Strahler rank of tt's family tree, its first t + 1 nodes
    contracted into order[t], rooted at its leaf of least repr.  It is
    computed here apart from the conversion, by recursion over each
    node's children.
    """
    t, top = tt.t, tt.order[tt.t]
    adj = {x: set() for x in tt.order[t:]}
    for v in tt.order[t + 1 :]:
        u = tt.owner[v] if tt.owner[v] in adj else top
        adj[v].add(u)
        adj[u].add(v)

    def rank(x, parent) -> int:
        ranks = sorted((rank(y, x) for y in adj[x] if y != parent), reverse=True)
        if len(ranks) < 2:
            return ranks[0] if ranks else 0
        return ranks[0] + (ranks[0] == ranks[1])

    return (t + 1) * (rank(min((x for x in adj if len(adj[x]) <= 1), key=repr), None) + 1) - 1


def reference_path_decomposition(td: TreeDecomposition) -> list:
    """The path decomposition of td by the centroid route, re-walking every level.

    It is the comparator for tree_to_path_decomposition(tt) on td =
    tt.family_decomposition(): on the test sweeps the spine routine is
    no wider, but for the trees they name.  It merges td with the generic
    normalize_decomposition.  A path-shaped td passes through.
    Otherwise each call re-sorts the neighbours of every node by repr to
    find a centroid, re-walks what is left for its components in the
    repr order of their least members, and unions the centroid's bag
    into every bag its components return.
    """
    path_order = _is_path(td)
    if path_order is not None:
        return [td.bags[x] for x in path_order]
    norm = normalize_decomposition(td)
    adj = norm.adjacency()

    def centroid(nodes: set):
        n = len(nodes)
        start = min(nodes, key=repr)
        order, parent = [], {start: None}
        stack = [start]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in sorted(adj[x], key=repr):
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

    def rec(nodes: set) -> list:
        if not nodes:
            return []
        c = centroid(nodes)
        rest = nodes - {c}
        segs = []
        for first in sorted(rest, key=repr):
            if first not in rest:
                continue
            comp = {first}
            stack = list(comp)
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in rest and y not in comp:
                        comp.add(y)
                        stack.append(y)
            segs.extend(rec(comp))
            rest -= comp
        if not segs:
            segs = [frozenset()]
        return [b | norm.bags[c] for b in segs]

    return rec(set(norm.bags))


def strip_instance(k: int, h: int, s: int) -> QtInstance:
    """A staircase of h rows, each k host vertices wide and s to the right of the last.

    The host is a path on (h - 1)s + k vertices, with the path
    decomposition of its edges.  Row y holds host vertices (y - 1)s ..
    (y - 1)s + k - 1, and the edges are the grid edges (u, y)-(u + 1, y)
    and (u, y)-(u, y + 1).  Consecutive rows overlap in shifted windows,
    so the next row's signature of a vertex need not extend its own, and
    transition codes carry a suffix.
    """
    width = (h - 1) * s + k
    host = Graph(range(width), ((u, u + 1) for u in range(width - 1)), name=f"P_{width}")
    decomposition = TreeDecomposition({u: {u, u + 1} for u in range(width - 1)}, [(u, u + 1) for u in range(width - 2)])
    cells = sorted((u, y) for y in range(1, h + 1) for u in range((y - 1) * s, (y - 1) * s + k))
    coords = dict(enumerate(cells))
    index = {c: i for i, c in coords.items()}
    edges = [(i, index[u + du, y + dy]) for i, (u, y) in coords.items() for du, dy in ((1, 0), (0, 1))
             if (u + du, y + dy) in index]
    graph = Graph(coords, edges, name=f"strip(k={k}, h={h}, s={s})")
    return QtInstance(graph, host, coords, decomposition, t=1, h=h, seed=0)


def check_tree_sequence(rows, trees) -> None:
    """Assert the construction contract: cover, total size and height.

    A half-weight tree over unit weights puts each key at depth at most
    log2 |V(T)|, the unit-weight case of the biased depth bound.
    """
    rows = [frozenset(r) for r in rows]
    assert len(trees) == len(rows)
    for y, tree in enumerate(trees):
        want = rows[y] | (rows[y + 1] if y + 1 < len(rows) else frozenset())
        got = set(tree.keys())
        assert want <= got, f"tree {y + 1} misses keys {want - got}"
    total_rows = sum(len(r) for r in rows)
    total_trees = sum(len(t) for t in trees)
    assert total_trees <= 4 * total_rows, (total_trees, total_rows)
    for y, t in enumerate(trees):
        assert t.height <= math.log2(len(t)), (y + 1, t.height, len(t))


def max_code_len(trees, codec: LcpCodec) -> int:
    """Longest transition code of a key shared by two consecutive trees."""
    worst = 0
    for t0, t1 in zip(trees, trees[1:]):
        for z in set(t0.keys()).intersection(t1.keys()):
            worst = max(worst, len(codec.encode(t0.signature(z), t1.signature(z))))
    return worst


def all_pairs_disagreements(li: LabelledInstance) -> list:
    """Brute-force audit: every vertex pair on which the tester and the instance disagree."""
    keys = sorted(li.labels, key=repr)
    return [
        (g1, g2)
        for g1, g2 in itertools.combinations(keys, 2)
        if adjacency_test(li.labels[g1], li.labels[g2]) != li.graph.has_edge(g1, g2)
    ]


class BitWriter:
    """Append-only bit buffer with the field encodings the label format uses."""

    def __init__(self):
        self._parts: list[str] = []

    def bits(self, s: str):
        self._parts.append(check_bits(s))

    def fixed(self, value: int, width: int):
        if value < 0 or value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        self._parts.append(format(value, f"0{width}b") if width else "")

    def gamma(self, value: int):
        """Elias gamma; value >= 1."""
        if value < 1:
            raise ValueError("gamma codes positive integers")
        b = format(value, "b")
        self._parts.append("0" * (len(b) - 1) + b)

    def prefixed(self, s: str):
        """Length-prefixed bitstring (possibly empty)."""
        self.gamma(len(s) + 1)
        self.bits(s)

    def getvalue(self) -> str:
        return "".join(self._parts)


class BitReader:
    def __init__(self, data: str):
        self._data = check_bits(data)
        self._pos = 0

    def bits(self, n: int) -> str:
        if self._pos + n > len(self._data):
            raise ValueError("bit underrun")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def fixed(self, width: int) -> int:
        return int(self.bits(width), 2) if width else 0

    def gamma(self) -> int:
        end = self._data.find("1", self._pos)
        if end < 0:
            raise ValueError("bit underrun")
        zeros = end - self._pos
        self._pos = end
        return self.fixed(zeros + 1)

    def prefixed(self) -> str:
        return self.bits(self.gamma() - 1)

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)


_HINT_CODES = {"end": 0, "strip": 1, "append": 2}
_HINT_KINDS = {c: k for k, c in _HINT_CODES.items()}


def _rows(has_prev: bool, has_next: bool):
    return [b for b in (-1, 0, 1) if (b != -1 or has_prev) and (b != 1 or has_next)]


def _slots(t: int, has_prev: bool, has_next: bool):
    return [(i, b) for b in _rows(has_prev, has_next) for i in range(1, t + 2)]


def reference_pack(label: Label, params: LabelParams) -> str:
    """The label codec's writer as a field-by-field bit buffer, the oracle pack_label must match."""
    w = BitWriter()
    w.bits("1" if label.scheme == "legacy" else "0")
    w.bits("1" if label.has_prev else "0")
    w.bits("1" if label.has_next else "0")
    w.prefixed(label.alpha1)
    kind, delta = label.hint
    w.fixed(_HINT_CODES[kind], 2)
    if kind != "end":
        w.gamma(delta + 1)
    w.prefixed(label.sig)
    if label.has_next:
        w.prefixed(label.mu)
    w.fixed(label.phi - 1, params.phi_bits)
    # the slot fields hold one entry per slot of _slots, r one suffix per row of _rows
    slots = range(len(_slots(label.t, label.has_prev, label.has_next)))
    for k in slots:
        w.fixed(label.depths[k], params.depth_bits)
    for k in slots:
        w.gamma(label.psi[k])
    for k in slots:
        w.bits(str(label.abits[k]))
    if label.scheme != "legacy":
        for k in range(len(_rows(label.has_prev, label.has_next))):
            rv = label.r[k]
            w.bits("0" if rv == "" else "1" + rv)
    return w.getvalue()


def reference_unpack(bits: str, params: LabelParams) -> Label:
    """The label codec's reader as a field-by-field bit cursor, the oracle unpack_label must match.

    Raises ValueError with the same text as unpack_label.
    """
    try:
        return _reference_unpack(bits, params)
    except (ValueError, KeyError, IndexError) as exc:
        raise ValueError(f"undecodable label: {exc}") from None


def _reference_unpack(bits: str, params: LabelParams) -> Label:
    r = BitReader(bits)
    scheme = "legacy" if r.bits(1) == "1" else "fixed"
    has_prev = r.bits(1) == "1"
    has_next = r.bits(1) == "1"
    alpha1 = r.prefixed()
    kind = _HINT_KINDS[r.fixed(2)]
    if has_next != (kind != "end"):
        raise ValueError(f"successor hint {kind!r} contradicts has_next = {has_next}")
    delta = r.gamma() - 1 if kind != "end" else 0
    if kind == "append" and len(alpha1) + 1 + delta > min(params.n - 1, params.maxheight):
        raise ValueError(f"successor hint {delta} overruns a row tree of height {params.maxheight} over {params.n} rows")
    sig = r.prefixed()
    if max(len(alpha1), len(sig)) > params.maxheight:
        raise ValueError(f"a {max(len(alpha1), len(sig))}-bit signature is deeper than maxheight {params.maxheight}")
    mu = r.prefixed() if has_next else None
    phi = r.fixed(params.phi_bits) + 1
    if phi > params.t + 1:
        raise ValueError(f"colour {phi} out of range")
    rows = _rows(has_prev, has_next)
    if len(rows) * (params.t + 1) * (params.depth_bits + 2) > r.remaining():
        raise ValueError(f"{r.remaining()} bits left cannot hold {len(rows)} rows of {params.t + 1} parent slots")
    slots = _slots(params.t, has_prev, has_next)
    depths = tuple(r.fixed(params.depth_bits) for _ in slots)
    if max(depths) > params.maxheight:
        raise ValueError(f"depth {max(depths)} beyond layout cap")
    psi = tuple(r.gamma() for _ in slots)
    if max(psi) > (params.t + 1) * params.n:
        raise ValueError(f"bag colour {max(psi)} exceeds (t + 1) n = {(params.t + 1) * params.n}")
    abits = tuple(int(r.bits(1)) for _ in slots)
    rsuf = ()
    if scheme != "legacy":
        rsuf = tuple("" if r.bits(1) == "0" else r.bits(1) for _ in _rows(has_prev, has_next))
    if not r.at_end():
        raise ValueError("trailing bits")
    label = Label(scheme, params.t, alpha1, (kind, delta), sig, mu, phi, depths, psi, abits, rsuf, has_prev)
    _derive_tester_view(label, params)
    label.bits = bits
    return label
