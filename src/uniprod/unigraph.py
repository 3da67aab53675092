"""The explicit universal graph and its embedding machinery.

Vertices are triples (x, y, z): two bitstrings naming positions in a
per-row tree and in a tree over the rows, plus a depth coordinate used
only to keep embeddings injective.  Adjacency is pure bit arithmetic, so
the graph exists implicitly at any size.  Adjacency never reads z, so the
host is the strong product R x K_{d+1} of a row graph R on (x, y) pairs
with a clique on the depths.  R's degree multiset is counted by length
classes without building R (host_counts, for count and the sizes suite,
at any n); small hosts are written out from R itself (materialize, for
build-ug).  embed realizes an arbitrary
subgraph of closure(d) x P_h in here, and embed_qt runs the whole
small-treewidth pipeline, landing in an implicit clique product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

from .bitcore import (
    build_biased_bst,
    check_bits,
    is_prefix,
    lcp_len,
    successor_set,
)
from .closure import ClosureGraph, embed_interval_graph, min_depth_in_range
from .decomp import QtInstance, host_layout
from .io import write_lines
from .product import CliqueFactor, Graph, PathFactor, ProductWitness, row_numbers
from .treeseq import LcpCodec, build_tree_sequence, lambda_default


@dataclass(frozen=True)
class UgParams:
    """Size parameters: n fixes d = ceil(log2 n), lam is the code slack.

    lam defaults to the smallest value that lets embed certify every
    transition with the default codec (one code is a length field plus a
    suffix of a signature, so width + d + 2 bits always suffice).  The
    derived values are set once, at construction.
    """

    n: int
    lam: int | None = None
    d: int = field(init=False, repr=False, compare=False)
    horizon: int = field(init=False, repr=False, compare=False)  # cap on row-signature lengths in the successor condition
    budget: int = field(init=False, repr=False, compare=False)  # cap on |x| + |y| for a vertex
    codec: LcpCodec = field(init=False, repr=False, compare=False)
    # row signature y1 -> frozenset(successor_set(y1, horizon)), filled by _type2_need
    successors: dict = field(init=False, repr=False, compare=False)
    # tuples with an int z that have passed check_vertex, kept by is_edge
    checked: set = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n >= 1 required")
        d = (self.n - 1).bit_length()
        lam = self.lam
        if lam is None:
            lam = max(1, lambda_default(max(self.n, 2)))
            while True:
                need = LcpCodec(d + lam + 2).width + d + 2
                if need <= lam:
                    break
                lam = need
        if lam < 0:
            raise ValueError("lam >= 0 required")
        derived = {"lam": lam, "d": d, "horizon": d + 2, "budget": d + lam + 2, "codec": LcpCodec(d + lam + 2),
                   "successors": {}, "checked": set()}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    # the host factor interface, so a witness can land in G_n

    def has_vertex(self, v) -> bool:
        """False exactly where check_vertex raises."""
        try:
            check_vertex(self, v)
        except (TypeError, ValueError):
            return False
        return True

    def adjacent(self, u, v) -> bool:
        """Adjacency of two valid vertices; is_edge checks them first.

        ProductWitness.validate reaches this only after has_vertex has
        passed on every coordinate, so each host vertex is checked once,
        not once per incident edge.
        """
        return u != v and (directed_edge(self, u, v) or directed_edge(self, v, u))


def check_vertex(p: UgParams, v) -> None:
    x, y, z = v
    check_bits(x)
    check_bits(y)
    if len(x) + len(y) > p.budget:
        raise ValueError(f"|x| + |y| = {len(x) + len(y)} exceeds budget {p.budget}")
    if type(z) is not int:
        raise ValueError(f"z = {z!r} is not an int")
    if not 0 <= z <= p.d:
        raise ValueError(f"z = {z} outside 0..{p.d}")


def _best_prefix_keep(p: UgParams, x1: str, len_y1: int, x2: str) -> int:
    """Longest prefix of x2 recoverable from a stand-in compatible with x1.

    Stand-ins run over prefixes and extensions of x1 up to the length
    budget; only their shared prefix with x2 matters, and the length
    field of the codec caps what a code can claim.
    """
    cap = p.budget - len_y1
    reach = len(x2) if is_prefix(x1, x2) else lcp_len(x1, x2)
    return min(reach, cap, (1 << p.codec.width) - 1)


def _type2_need(p: UgParams, u, v) -> int | None:
    """Bits the cheapest type-2 certificate for u -> v takes, if any.

    The successor set of each row signature is built once per UgParams.
    """
    x1, y1, _ = u
    x2, y2, _ = v
    if len(y1) > p.horizon:
        return None
    successors = p.successors.get(y1)
    if successors is None:
        successors = p.successors[y1] = frozenset(successor_set(y1, p.horizon))
    if y2 not in successors:
        return None
    return p.codec.width + len(x2) - _best_prefix_keep(p, x1, len(y1), x2)


def directed_edge(p: UgParams, u, v) -> bool:
    """The one-way condition; is_edge symmetrizes it."""
    x1, y1, _ = u
    x2, y2, _ = v
    if y1 == y2:
        return is_prefix(x2, x1)
    need = _type2_need(p, u, v)
    return need is not None and need <= p.lam


def is_edge(p: UgParams, u, v) -> bool:
    """Adjacency of two triples, each checked with check_vertex first.

    A tuple that passes is kept in p.checked, so these params check it
    once: check_vertex gives one verdict for triples that compare equal
    and have an int z (x and y pass or fail as strings, z must be an int
    from 0 to d).  A triple equal to a kept one counts as checked only
    if its z is an int too, as True and 1.0 compare equal to 1.  Any
    other triple, an invalid or an unhashable one included, is checked
    on every call and never kept.
    """
    checked = p.checked
    for w in (u, v):
        try:
            if w in checked and type(w[2]) is int:
                continue
        except TypeError:  # unhashable
            pass
        check_vertex(p, w)
        if type(w) is tuple:
            checked.add(w)
    return p.adjacent(u, v)


# ---------------------------------------------------------------------------
# materialization and counting


# Largest vertex-count bound up to which the host is enumerated.
HOST_CAP = 200_000


def vertex_count_bound(p: UgParams) -> int:
    return (1 << (p.budget + 1)) * (p.budget + 1) ** 2


def edge_count_bound(p: UgParams) -> int:
    return (1 << (p.d + 2 * p.lam + 5)) * (p.budget + 1) ** 6


def row_graph(p: UgParams) -> dict:
    """The row graph R: each (x, y) pair mapped to the set of its R-neighbours.

    Adjacency never reads z: on equal (x, y) the one-way condition is
    is_prefix(x, x), which holds.  So two distinct triples are adjacent
    exactly when their (x, y) parts are equal or adjacent in R, and the
    host is the strong product R x K_{d+1}.

    Refuses when the vertex-count bound passes HOST_CAP; at that point
    the implicit interface (is_edge) is the only sensible access path.
    Only build-ug builds R; host_counts gives its degree multiset at any
    n, and the tests hold the two to each other.
    """
    bound = vertex_count_bound(p)
    if bound > HOST_CAP:
        raise ValueError(
            f"vertex bound {bound} exceeds cap {HOST_CAP}; query is_edge implicitly instead"
        )
    b, lam = p.budget, p.lam
    by_len = [["".join(t) for t in iter_product("01", repeat=L)] for L in range(b + 1)]
    rows = {
        (x, y): set()
        for ly in range(b + 1)
        for y in by_len[ly]
        for lx in range(b - ly + 1)
        for x in by_len[lx]
    }
    # type 1: proper prefix pairs within a row
    for r, nbrs in rows.items():
        x1, y = r
        for k in range(len(x1)):
            prefix = (x1[:k], y)
            nbrs.add(prefix)
            rows[prefix].add(r)
    # type 2: successor rows, enumerated by reachable targets
    w = p.codec.width
    capw = (1 << w) - 1
    for ly1 in range(p.horizon + 1):
        for y1 in by_len[ly1]:
            budget1 = b - ly1
            for y2 in successor_set(y1, p.horizon):
                ly2 = len(y2)
                for lx2 in range(b - ly2 + 1):
                    for x2 in by_len[lx2]:
                        need = w + lx2 - lam
                        if need > min(lx2, budget1, capw):
                            continue
                        if need <= 0:
                            srcs = (
                                x
                                for lx1 in range(budget1 + 1)
                                for x in by_len[lx1]
                            )
                        else:
                            head = x2[:need]
                            srcs = [x2[:k] for k in range(min(need, budget1 + 1, lx2 + 1))]
                            srcs += [
                                head + tail
                                for lt in range(budget1 - need + 1)
                                for tail in by_len[lt]
                            ]
                        target = rows[x2, y2]
                        for x1 in srcs:
                            rows[x1, y1].add((x2, y2))
                            target.add((x1, y1))
    return rows


@dataclass(frozen=True)
class Host:
    """The explicit host R x K_k, kept as its row graph R and k = d + 1.

    Triple (r, z) meets every triple of r and of r's R-neighbours, so the
    sizes follow from R in closed form and the graph file is written from
    R, one closed neighbourhood per R-vertex, without building the triples.
    """

    rows: dict
    k: int
    name: str

    @property
    def n(self) -> int:
        return self.k * len(self.rows)

    @property
    def m(self) -> int:
        k = self.k
        return len(self.rows) * k * (k - 1) // 2 + k * k * (sum(map(len, self.rows.values())) // 2)

    def write_jsonl(self, path) -> None:
        """The bytes of the triple graph's Graph.write_jsonl.

        A repr comparison of two triples with different (x, y) is decided
        before z, so the k triples of r, which share one closed
        neighbourhood, are consecutive in repr order: r gets the ids
        b_r .. b_r + k - 1, its closed neighbourhood is sorted once, and
        each of its triples writes the tail of that list after its own id.
        That order is sorted(rows): between pairs of bitstrings repr puts
        the closing quote, which sorts below 0 and 1, where a proper
        prefix ends, just as plain string comparison puts the prefix first.
        Each triple's records are formatted as one string, from ids each
        formatted once, with the bytes json.dumps gives them.
        """
        k, rows = self.k, self.rows
        order = sorted(rows)
        base = {r: k * i for i, r in enumerate(order)}
        names = list(map(str, range(self.n)))

        def lines():
            zs = range(k)
            for r in order:
                b = base[r]
                firsts = sorted([b, *map(base.__getitem__, rows[r])])
                ids = [names[f + z] for f in firsts for z in zs]
                at = k * firsts.index(b) + 1
                for z in zs:
                    tail = ids[at + z:]
                    if tail:
                        head = f'{{"edge": [{names[b + z]}, '
                        yield head + (']}\n' + head).join(tail) + ']}\n'

        write_lines(path, "graph", {"n": self.n, "name": self.name}, lines())


def materialize(p: UgParams) -> Host:
    """The host R x K_{d+1} (see row_graph), ready to be written out.

    Only build-ug needs it, for its sizes and its graph file; count and
    the sizes suite take the sizes from host_counts instead.
    """
    return Host(row_graph(p), p.d + 1, f"ug(n={p.n}, lam={p.lam})")


def host_counts(p: UgParams) -> list[tuple[int, int]]:
    """R's degree multiset as (degree, multiplicity) pairs, degree descending.

    Counted by length classes, with exact integers, in O(b^3) steps for
    the budget b, whatever the host's size.  The three kinds of edge of
    row_graph are disjoint (type 2 joins different rows, and no two rows
    are each other's successor), so the degree of (x, y) is the sum of:
    - type 1: the |x| proper prefixes of x and its 2^(b-|y|-|x|+1) - 2
      extensions in the row;
    - type 2 out: over y2 in successor_set(y) and each |x2|, the x2 that
      x has a code for, by row_graph's need cases;
    - type 2 in: over the predecessors y1 of y, the x1 in row y1 that have
      a code for x.  They are y + "0" + "1"^r for |y1| = |y|+1 .. horizon,
      and, when y has a 1 and |y| <= horizon, y less its last "1" and the
      "0"s after it.
    So a degree depends only on |x|, |y| and y's trailing run, and each
    such class holds a power of two strings.
    """
    b, lam, w = p.budget, p.lam, p.codec.width
    top = p.horizon  # the longest row signature that has successors
    capw = (1 << w) - 1
    type2 = w <= lam  # need = w + |x2| - lam, which must not pass |x2|
    # Tables indexed [|x|][length], each with a last column of 0 that index -1 reads:
    # runs[lx][m]: the x2 with |x2| <= m that one x of length lx has a code for;
    # sums[lx][m]: runs[lx][0..m] summed;
    # into[lx][l1]: the x1 of a row of length l1 that have a code for one x of length lx;
    # above[lx][ly]: into[lx][ly+1..top] summed, over the predecessors y + "0" + "1"^r.
    runs, sums, into, above = ([[0] * (b + 2) for _ in range(b + 1)] for _ in range(4))
    for lx in range(b + 1 if type2 else 0):
        run = acc = 0
        for l2 in range(b + 1):
            need = w + l2 - lam
            run += 1 << (l2 if need <= 0 else l2 - lx if lx < need else l2 - need)
            acc += run
            runs[lx][l2], sums[lx][l2] = run, acc
        need = w + lx - lam
        for l1 in range(b + 1):
            budget1 = b - l1
            if need <= 0:
                into[lx][l1] = (2 << budget1) - 1
            elif need <= min(budget1, capw):
                into[lx][l1] = need + (2 << (budget1 - need)) - 1
        for ly in range(top - 1, -1, -1):
            above[lx][ly] = above[lx][ly + 1] + into[lx][ly + 1]
    degrees = {}
    for ly in range(b + 1):
        cap = min(b, lam - w + min(b - ly, capw)) if type2 else -1  # longest x2 a row-ly source reaches
        # (strings, runs column of the strip successor, length of the other predecessor) per trailing run
        # of y; the empty y has neither
        classes = [] if ly else [(1, -1, -1)]
        pred = ly <= p.horizon
        for r in range(1, ly + 1):
            count = 1 << (ly - r - 1) if r < ly else 1
            # y ends in "0" + "1"^r, or is "1"^ly
            strip = min(r + 1 + b - ly, cap) if r < ly and ly <= top else -1
            classes.append((count, strip, ly - 1 if pred else -1))
            # y ends in "1" + "0"^r, or is "0"^ly
            strip = min(1 + b - ly, cap) if ly <= top else -1
            classes.append((count, strip, ly - r - 1 if pred and r < ly else -1))
        # the extension successors y + "1" + "0"^j have lengths ly+1 .. top, so |x2| <= b-top .. b-ly-1
        lo, hi = b - top, b - ly - 1
        mid = min(hi, cap)
        flat = max(0, hi - max(lo, cap + 1) + 1)  # caps past the reach, each worth runs[lx][cap]
        for lx in range(b - ly + 1):
            ext = (sums[lx][mid] - sums[lx][lo - 1] if mid >= lo else 0) + flat * runs[lx][cap]
            base = lx + (2 << (b - ly - lx)) - 2 + above[lx][ly] + ext
            out, inn = runs[lx], into[lx]
            for count, strip, e in classes:
                deg = base + out[strip] + inn[e]
                degrees[deg] = degrees.get(deg, 0) + (count << lx)
    return sorted(degrees.items(), reverse=True)


def host_degrees(p: UgParams) -> list[tuple[int, int]] | None:
    """The host's degree multiset as (degree, multiplicity) pairs, degree descending.

    In R x K_{d+1} each of the d+1 triples of r has degree
    (d+1)(deg_R(r) + 1) - 1; so |V| is the sum of the multiplicities and
    |E| half the sum of their products with the degrees.  None where
    host_counts' class table, about (b+1)^3 cells, would pass HOST_CAP.
    """
    if (p.budget + 1) ** 3 > HOST_CAP:
        return None
    k = p.d + 1
    return [(k * (deg + 1) - 1, k * mult) for deg, mult in host_counts(p)]


def dominates_stars(degrees: list[tuple[int, int]], n: int) -> bool:
    """Necessary condition on hosts of all n-vertex bounded-degree forests.

    The degree sequence, given as (degree, multiplicity) pairs with the
    degrees descending, must pointwise dominate (n-1, n//2 - 1, n//3 - 1,
    ...), since t disjoint stars with n//t - 1 leaves each must fit
    simultaneously.  The first place of a run of equal degrees is its
    tightest, so the pairs are never expanded.
    """
    i = 0
    for deg, mult in degrees:
        if i >= n:
            break
        if deg < n // (i + 1) - 1:
            return False
        i += mult
    return i >= n


# ---------------------------------------------------------------------------
# embeddings


def embed(p: UgParams, w: ProductWitness) -> dict:
    """Map a subgraph of closure(d) x P_h injectively onto edges here.

    Per-row trees come from the tree-sequence builder over the closure
    nodes each row uses; the row tree is biased by tree sizes, so the
    two signature lengths always fit the vertex budget.  The map is
    injective by construction: two cells of one row at one closure depth
    have disjoint descendant intervals, each holding its own key, so
    min_depth_in_range gives them different nodes; any other two cells
    differ in y or in z.  Every edge image is checked with is_edge; a
    failing transition certificate reports its length against lam.
    """
    if len(w.factors) != 2:
        raise ValueError("expected a closure x path witness")
    cg = w.factors[0]
    if not isinstance(cg, ClosureGraph):
        raise TypeError("first factor must be a ClosureGraph")
    if cg.d > p.d:
        raise ValueError(f"closure height {cg.d} exceeds params d = {p.d}")
    if not w.coords:
        raise ValueError("empty instance")
    row = row_numbers(w.coords)
    h = len(row)
    coords = {v: (c, row[y]) for v, (c, y) in w.coords.items()}
    occupied = [set() for _ in range(h)]
    for c, i in coords.values():
        occupied[i - 1].add(c)
    trees = build_tree_sequence(occupied)
    row_tree = build_biased_bst(range(1, h + 1), {i: len(trees[i - 1]) for i in range(1, h + 1)})
    zeta = {}
    for v, (c, i) in coords.items():
        lo, hi = cg.descendant_interval(c)
        node = min_depth_in_range(trees[i - 1], lo, hi)
        x = trees[i - 1].signature(node)
        y = row_tree.signature(i)
        if len(x) + len(y) > p.budget:
            raise ValueError(
                f"lambda too small: signatures take {len(x) + len(y)} bits, budget is {p.budget}"
            )
        zeta[v] = (x, y, cg.depth(c))
    for a, b in w.graph.edges():
        if not is_edge(p, zeta[a], zeta[b]):
            needs = [
                need
                for need in (_type2_need(p, zeta[a], zeta[b]), _type2_need(p, zeta[b], zeta[a]))
                if need is not None
            ]
            if needs and min(needs) > p.lam:
                raise ValueError(
                    f"lambda too small: transition code needs {min(needs)} bits, lam = {p.lam}"
                )
            raise RuntimeError(f"edge image {zeta[a]} - {zeta[b]} fails adjacency")
    return zeta


@dataclass
class QtEmbedding:
    """Result of the pipeline: triple plus colour per instance vertex."""

    mapping: dict
    omega: int
    params: UgParams


def embed_qt(p: UgParams, inst: QtInstance) -> QtEmbedding:
    """Full pipeline into (universal graph) x K_omega, implicitly.

    Stages: lay the host out as intervals (host_layout), embed those into
    closure x clique, project the instance through that embedding
    (colours absorb the contracted pairs), then apply embed over
    closure x path.  The projection is a witness in closure x path
    without a check: an instance edge joins equal or host-adjacent
    vertices in equal or adjacent rows, each host edge is a t-tree edge
    whose intervals meet, and the checked row witness maps meeting
    intervals to equal or adjacent closure nodes.

    The result is a witness in G_n x K_omega without a second check,
    which verify runs on a witness file: each triple is two row-tree
    signatures within embed's budget check, with z a closure depth at
    most host_cg.d <= p.d; each colour is in 1..omega, by the row
    witness; (triple, colour) is injective, as the row witness, the
    instance coords and embed are; an edge whose two ends project to one
    cell joins two different colours; and every other edge image passed
    embed's is_edge.
    """
    _, rep = host_layout(inst)
    row_witness = embed_interval_graph(rep)
    host_cg, omega = row_witness.factors[0], row_witness.factors[1].k
    if host_cg.d > p.d:
        raise ValueError(f"host closure needs d = {host_cg.d} but params give {p.d}")
    proj, colour = {}, {}
    for v, (u, y) in inst.coords.items():
        node, col = row_witness.coords[u]
        proj[v] = (node, y)
        colour[v] = col
    pg = Graph(sorted(set(proj.values())), name="row projection")
    for a, b in inst.graph.edges():
        if proj[a] != proj[b]:
            pg.add_edge(proj[a], proj[b])
    zeta = embed(p, ProductWitness(pg, (host_cg, PathFactor(inst.h)), {q: q for q in pg.vertices()}))
    mapping = {v: (zeta[proj[v]], colour[v]) for v in inst.graph.vertices()}
    return QtEmbedding(mapping=mapping, omega=omega, params=p)


def validate_qt_embedding(p: UgParams, inst: QtInstance, emb: QtEmbedding) -> None:
    """Edge-by-edge audit of an embedding as a witness over G_n x K_omega; verify runs it on a witness file."""
    ProductWitness(inst.graph, (p, CliqueFactor(emb.omega)), emb.mapping).validate()
