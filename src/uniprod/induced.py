"""Adjacency labels for product instances, and the graph their tester induces.

Vertices of an instance live in (completed host) x path.  Each one gets a
bitstring label built from per-row search trees over interval ranks: the
label stores the vertex's own tree position, transition codes to the next
row, and the positions, bag colours and adjacency bits of its clique
parents.  A standalone tester maps two labels to an adjacency verdict, so
the set of all labels plus the tester is a graph containing every labelled
instance as an induced subgraph.

A Placement says where the clique parents of a row sit in its row tree:
their nodes, bags, first-fit bag colours and clique chain tops.  Each
context holds two.  The raw placement puts every vertex at the shallowest
node of its interval; the fixed one is raw after a fixup pass that drags
every parent's node to within one level of its child's.  The two schemes
differ only in which one they read.  The legacy scheme reads raw and
ships the full clique path signature, whose depth can leak unbounded
detail about clique parents into a label.  The default scheme reads fixed
and ships only the vertex's own signature plus one overflow bit per row;
bag colours stay injective per bag, so the tester keeps exact.

A Label is its bits, the packed string it carries, and unpack_label is
the only producer of the labels the tester reads: make_label too returns
the label that its bits decode to.  A label keeps its parent slots as
flat tuples.  The decoder derives what the tester reads once per
distinct tuple of the fields it depends on, and keeps it in the
LabelParams it decodes with: the next row's signature is decoded from its
transition code, and each parent slot is keyed by (node signature, bag
colour).  Rows of an instance repeat its host's layout, so the labels of
one file share few views; each label command and each file read builds
its own LabelParams, so no view outlives them.  Testing a pair is then
one dict lookup per direction, so the full-pair audit and the assembly
decode nothing.

The tester can say True only where one label's own key meets a parent
slot key of the other in the same row.  The tester graph on a set of
labels therefore joins own keys with parent-slot keys and puts only the
pairs that meet to the tester, at most two per parent slot of an
instance; every other pair is False without a lookup.  The audit and
the assembly both build it and check, vertex by vertex, that it induces
each instance's graph, which settles all C(n, 2) pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb

from .bitcore import Bst, build_biased_bst, check_bits, strip_successor
from .closure import IntervalRep, min_depth_in_range, perturb_left_endpoints
from .decomp import QtInstance, TTree, host_layout
from .io import SCHEMES, add_edge_record, integer, json_id, key, read_records, write_lines
from .product import Graph, row_numbers
from .treeseq import LcpCodec, build_tree_sequence


@dataclass(frozen=True)
class LabelParams:
    """Global label-layout parameters; must match across a whole corpus."""

    n: int
    t: int
    maxheight: int | None = None  # covers every tree depth a label may store
    codec: LcpCodec = field(init=False, repr=False, compare=False)
    # wide enough for maxheight + 1; unpack rejects the codes above maxheight
    depth_bits: int = field(init=False, repr=False, compare=False)
    phi_bits: int = field(init=False, repr=False, compare=False)
    # the tester views _derive_tester_view has derived with these params:
    # (alpha1, hint) -> next_alpha, and
    # (scheme, has_prev, sig, mu, phi, depths, psi, r) -> (own_key, parent_slot)
    views: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.t < 1:
            raise ValueError("need n >= 1 and t >= 1")
        if self.maxheight is None:
            guess = (max(self.n, 2) - 1).bit_length() + (self.t + 1).bit_length() + 8
            object.__setattr__(self, "maxheight", guess)
        object.__setattr__(self, "codec", LcpCodec(self.maxheight))
        object.__setattr__(self, "depth_bits", (self.maxheight + 1).bit_length())
        object.__setattr__(self, "phi_bits", max(1, self.t.bit_length()))
        object.__setattr__(self, "views", {})


def _ancestor_at_depth(tree: Bst, key, depth: int):
    """Node at the given depth on the root path of key."""
    node = tree.root
    for _ in range(depth):
        if node == key:
            raise ValueError(f"key {key!r} is shallower than depth {depth}")
        node = tree.left(node) if key < node else tree.right(node)
    return node


def _chain_top(sig: dict, nodes):
    """Deepest of a set of nodes that must lie on one root path; sig maps each node to its signature."""
    ordered = sorted(set(nodes), key=lambda k: len(sig[k]))
    for a, b in zip(ordered, ordered[1:]):
        if not sig[b].startswith(sig[a]):
            raise AssertionError(f"nodes {a!r} and {b!r} are not on one root path")
    return ordered[-1]


@dataclass
class Placement:
    """Where one label scheme puts the carriers of each row in its row tree.

    node maps each member of the row's clique union to a tree key, and
    depth to that key's depth; bags group the members by node in rank
    order, and psi is each member's first-fit colour (1-based slot) in
    its bag.  tops holds, for every carrier of the row (a vertex of rows
    y-1, y or y+1), the signature of its deepest clique-parent node,
    which the root-path check finds.
    """

    node: dict  # y -> {vertex: tree key}
    depth: dict  # y -> {vertex: depth of its tree key}
    bags: dict  # y -> {tree key: members sorted by rank}
    psi: dict  # y -> {vertex: 1-based slot in its bag}
    tops: dict  # y -> {carrier: signature of its deepest clique-parent node}


@dataclass
class LabelContext:
    """Everything derived from one instance that labelling needs.

    Rows, clique unions and their per-row search trees are built once by
    build_context, over the instance's rows in use renumbered 1..h as
    embed renumbers them; row maps each instance row to its number here.
    Two placements share them: raw puts every vertex at the shallowest
    node of its interval, and fixed is raw after fixup.  The legacy
    scheme reads raw, the default scheme reads fixed.
    """

    instance: QtInstance
    params: LabelParams
    tt: TTree
    h: int
    row: dict  # instance row -> y
    rank: dict
    rows: dict  # y -> sorted row members
    s_plus: dict  # y -> sorted clique-union superset
    trees: dict  # y -> Bst over ranks
    alpha1: dict
    hint: dict
    nbrs: dict  # (host vertex, y) -> its neighbours in the instance, as (host vertex, y)
    raw: Placement = field(init=False)
    fixed: Placement = field(init=False)

    def sig(self, y: int, key) -> str:
        return self.trees[y].signature(key)


def build_context(
    instance: QtInstance,
    params: LabelParams | None = None,
    layout: tuple[TTree, IntervalRep] | None = None,
) -> LabelContext:
    """Derive rows, clique unions, rank trees and row machinery for labelling.

    layout is the host layout (tt, rep), host_layout(instance) unless one
    is prescribed; tt was checked when it was built, so every family
    clique carries every colour.  Every layout, computed or prescribed,
    is checked here once: tt holds every host vertex and host edge,
    every t-tree vertex has an interval, and every t-tree edge is
    covered by the interval representation.  The instance was checked
    when it was built, so its coords are then a product witness in
    (t-tree) x P_h, also once the rows in use are renumbered 1..h as
    embed renumbers them (no edge joins rows two apart).  Each clique's
    node set is checked to sit on a single root path of its row tree.
    The context is returned after fixup, so both label schemes can read
    it.
    """
    tt, rep = host_layout(instance) if layout is None else layout
    if params is None:
        params = LabelParams(n=instance.graph.n, t=tt.t)
    if params.t != tt.t:
        raise ValueError(f"instance is a {tt.t}-tree but params.t = {params.t}")
    if instance.graph.n > params.n:
        raise ValueError(f"instance has {instance.graph.n} vertices but params.n = {params.n}")
    rep = perturb_left_endpoints(rep)
    for v in instance.host.vertices():
        if not tt.graph.has_vertex(v):
            raise ValueError(f"layout t-tree misses host vertex {v!r}")
    for u, v in instance.host.edges():
        if not tt.graph.has_edge(u, v):
            raise ValueError(f"layout t-tree misses host edge {u!r}-{v!r}")
    for v in tt.graph.vertices():
        if v not in rep.intervals:
            raise ValueError(f"no interval for host vertex {v!r}")
    for u, v in tt.graph.edges():
        if not rep.meets(u, v):
            raise ValueError(f"interval supergraph misses edge {u!r}-{v!r}")

    rank = {v: lo for v, (lo, _) in rep.intervals.items()}

    row = row_numbers(instance.coords)
    h = len(row)
    coords = {g: (v, row[y]) for g, (v, y) in instance.coords.items()}
    rows = {y: set() for y in range(1, h + 1)}
    for v, y in coords.values():
        rows[y].add(v)
    s = {0: set(), h + 1: set()}
    for y in range(1, h + 1):
        s[y] = set().union(*(tt.cliques[v] for v in rows[y]))
    s_plus = {y: sorted(s[y - 1] | s[y] | s[y + 1], key=rank.__getitem__) for y in range(1, h + 1)}

    key_rows = [sorted(rank[v] for v in s_plus[y]) for y in range(1, h + 1)]
    trees = dict(enumerate(build_tree_sequence(key_rows), start=1))
    row_tree = build_biased_bst(range(1, h + 1), {y: max(1, len(s_plus[y])) for y in range(1, h + 1)})
    # the row tree's signatures are what a label's successor hint can lengthen
    worst = max(t.height for t in chain(trees.values(), [row_tree]))
    if worst > params.maxheight:
        raise ValueError(f"tree height {worst} exceeds the layout cap {params.maxheight}")

    alpha1 = {y: row_tree.signature(y) for y in range(1, h + 1)}
    hint = {y: _successor_hint(alpha1, y, h) for y in range(1, h + 1)}

    graph = instance.graph
    nbrs = {coords[g]: {coords[u] for u in graph.neighbors(g)} for g in graph.vertices()}

    ctx = LabelContext(
        instance=instance,
        params=params,
        tt=tt,
        h=h,
        row=row,
        rank=rank,
        rows={y: sorted(rows[y], key=rank.__getitem__) for y in rows},
        s_plus=s_plus,
        trees=trees,
        alpha1=alpha1,
        hint=hint,
        nbrs=nbrs,
    )
    # raw: each vertex at the shallowest node of its interval
    raw = {y: {v: min_depth_in_range(trees[y], *rep.intervals[v]) for v in s_plus[y]} for y in range(1, h + 1)}
    ctx.raw = _place(ctx, raw)
    return fixup(ctx)


def _successor_hint(alpha1: dict, y: int, h: int) -> tuple:
    if y == h:
        return ("end", 0)
    s1, s2 = alpha1[y], alpha1[y + 1]
    if s2.startswith(s1 + "1") and set(s2[len(s1) + 1:]) <= {"0"}:
        return ("append", len(s2) - len(s1) - 1)
    if s2 == strip_successor(s1):
        return ("strip", len(s1) - len(s2) - 1)
    raise AssertionError(f"rows {y} and {y + 1} break the in-order successor shape")


def _place(ctx: LabelContext, node: dict) -> Placement:
    """The placement of a node map: bags, first-fit colours and chain tops.

    Checks that every clique with a labelled member lands on one root
    path per row; the chain top of a carrier's clique is the deepest of
    its nodes.
    """
    depth, bags, psi, tops = {}, {}, {}, {}
    for y in range(1, ctx.h + 1):
        sig = ctx.trees[y].signatures()
        depth[y] = {v: len(sig[k]) for v, k in node[y].items()}
        grouped = defaultdict(list)
        for v in sorted(node[y], key=ctx.rank.__getitem__):
            grouped[node[y][v]].append(v)
        bags[y] = dict(grouped)
        psi[y] = {v: i + 1 for members in bags[y].values() for i, v in enumerate(members)}
        carriers = set().union(*(ctx.rows.get(y + b, []) for b in (-1, 0, 1) if 1 <= y + b <= ctx.h))
        tops[y] = {
            v: sig[_chain_top(sig, [node[y][w] for w in ctx.tt.cliques[v]])]
            for v in sorted(carriers, key=ctx.rank.__getitem__)
        }
    return Placement(node, depth, bags, psi, tops)


def fixup(ctx: LabelContext) -> LabelContext:
    """Bound every clique parent's node depth by its child's plus one.

    Sets ctx.fixed to the placement of one top-down pass per row over
    ctx.raw.  The pass visits the row tree's nodes in preorder, left
    subtree first, which is the order of their signatures; whenever a
    vertex sitting at the visited node has a clique parent whose node is more than one
    level deeper, that parent's node is replaced by its ancestor one
    level below the visited node.  So the pass only ever moves a node to
    an ancestor of its current one, and a second pass is a no-op.
    Checks that every clique parent lies at most one level below its
    child.  build_context runs it; running it again recomputes it.
    """
    cliques, by_rank = ctx.tt.cliques, ctx.rank.__getitem__
    node = {}
    for y in range(1, ctx.h + 1):
        tree, present = ctx.trees[y], set(ctx.s_plus[y])
        sig = tree.signatures()
        node[y] = xp = dict(ctx.raw.node[y])
        bags = defaultdict(set)
        for v in present:
            bags[xp[v]].add(v)
        for at in sorted(sig, key=sig.__getitem__):
            base = len(sig[at])
            for v in sorted(bags.get(at, ()), key=by_rank):
                for w in sorted(cliques[v] & present, key=by_rank):
                    if len(sig[xp[w]]) > base + 1:
                        target = _ancestor_at_depth(tree, xp[w], base + 1)
                        bags[xp[w]].discard(w)
                        xp[w] = target
                        bags[target].add(w)
        for v in ctx.s_plus[y]:
            below = len(sig[xp[v]]) + 1
            for w in cliques[v]:
                if w in present and len(sig[xp[w]]) > below:
                    raise AssertionError(f"parent {w!r} of {v!r} still too deep in row {y}")
    ctx.fixed = _place(ctx, node)
    return ctx


def bag_stats(ctx: LabelContext) -> dict:
    """Bag-size measurements against the polylog reference curve.

    On hosts of at most 40 vertices the report also certifies the two
    counting facts behind the bound: clique-hop reachability within
    distance d stays under C(d+t, t), and each post-fixup bag is covered
    by pre-fixup bags of the node's ancestors weighted by those counts.
    """
    t = ctx.params.t
    max_bag = max(len(m) for bags in ctx.raw.bags.values() for m in bags.values())
    max_bag_p = max(len(m) for bags in ctx.fixed.bags.values() for m in bags.values())
    nref = max(ctx.params.n, 4)
    report = {
        "rows": ctx.h,
        "max_bag": max_bag,
        "max_bag_fixed": max_bag_p,
        "reference": t * math.log2(nref) ** (t + 2),
    }
    if ctx.tt.n <= 40:
        for v in ctx.tt.order:
            for dist in range(4):
                found = len(ctx.tt.reachable_ancestors(v, dist))
                if found > ctx.tt.ancestor_count_bound(dist):
                    raise AssertionError(f"{found} vertices reachable from {v!r} within {dist} hops")
        for y in range(1, ctx.h + 1):
            tree = ctx.trees[y]
            for node, members in ctx.fixed.bags[y].items():
                cover = 0
                for d in range(tree.depth(node) + 1):
                    anc = _ancestor_at_depth(tree, node, tree.depth(node) - d)
                    cover += len(ctx.raw.bags[y].get(anc, [])) * comb(d + t, t)
                if len(members) > cover:
                    raise AssertionError(f"bag at row {y} node {node} beats its ancestor covering")
        report["accounting_ok"] = True
    return report


@dataclass(slots=True)
class Label:
    """Decoded label; bits, its packed string, is its identity.

    Its parent slots (i, b) are colour i = 1..t+1 in each row y+b that
    exists, b = -1, 0, 1 in that order.  depths, psi and abits are flat
    tuples with one entry per slot, row by row and colour by colour
    within a row; r holds the default scheme's overflow suffix of each
    existing row, and is empty in the legacy scheme.

    unpack_label also sets, by _derive_tester_view, what the tester reads:
    the next row's alpha1 and, for rows y and y+1, the vertex's own (node
    signature, bag colour) key and a map from each parent slot's (node
    signature, bag colour) to the first colour holding it; row y+1's
    signature is decoded from mu.  Labels decoded with one LabelParams
    share these views wherever the fields they derive from agree.  These
    fields stay out of equality, and a label built from fields alone, as
    make_label drafts one, has none.
    """

    scheme: str
    t: int
    alpha1: str
    hint: tuple
    sig: str
    mu: str | None
    phi: int
    depths: tuple
    psi: tuple
    abits: tuple
    r: tuple
    has_prev: bool
    bits: str | None = field(default=None, init=False, compare=False)  # set by unpack_label
    next_alpha: str | None = field(init=False, repr=False, compare=False)
    own_key: tuple = field(init=False, repr=False, compare=False)  # b -> (signature, colour) or None
    parent_slot: tuple = field(init=False, repr=False, compare=False)  # b -> {(signature, colour): slot}

    @property
    def has_next(self) -> bool:
        return self.hint[0] != "end"


def _next_alpha(alpha1: str, hint: tuple) -> str | None:
    """Row signature of row y+1, rebuilt from alpha1 and the successor hint."""
    kind, delta = hint
    if kind == "end":
        return None
    if kind == "append":
        return alpha1 + "1" + "0" * delta
    up = strip_successor(alpha1)
    if up is None or len(alpha1) - len(up) - 1 != delta:
        raise ValueError("successor hint contradicts the row signature")
    return up


def _derive_tester_view(label: Label, params: LabelParams) -> None:
    """Set the fields the tester reads on a label whose other fields were just decoded.

    Fields that contradict each other, as unpack_label lists, raise
    ValueError here, so the tester never meets such a label.  Each view
    is derived once per distinct tuple of the fields it depends on and
    kept in params.views; an error is raised again on every label that
    carries it, as nothing is kept for it.
    """
    views = params.views
    key = (label.alpha1, label.hint)
    if key not in views:
        views[key] = _next_alpha(*key)
    label.next_alpha = views[key]
    key = (label.scheme, label.has_prev, label.sig, label.mu, label.phi, label.depths, label.psi, label.r)
    view = views.get(key)
    if view is None:
        view = views[key] = _tester_view(*key, params)
    label.own_key, label.parent_slot = view


def _tester_view(scheme, has_prev, sig, mu, phi, depths, psi, r, params: LabelParams) -> tuple:
    """own_key and parent_slot of a label with these fields."""
    next_sig = params.codec.decode(sig, mu) if mu is not None else None
    # build_context refuses a row tree taller than maxheight
    if next_sig is not None and len(next_sig) > params.maxheight:
        raise ValueError(f"mu decodes to a {len(next_sig)}-bit signature, deeper than maxheight {params.maxheight}")
    k = params.t + 1
    own, slots = [], []
    for b, base in ((0, sig), (1, next_sig)):
        if base is None:
            own.append(None)
            slots.append({})
            continue
        row = b + has_prev  # position of row y+b among the label's rows
        d = depths[row * k + phi - 1]
        if d > len(base):
            raise ValueError(f"own colour slot of row y{b:+d} is deeper than its {len(base)}-bit signature")
        own.append((base[:d], psi[row * k + phi - 1]))
        # signature of the deepest clique-parent node in row y+b
        path = base if scheme == "legacy" else base[:d] + r[row]
        first = {}
        for i in range(k):
            di = depths[row * k + i]
            if di <= len(path):
                first.setdefault((path[:di], psi[row * k + i]), i + 1)
        slots.append(first)
    return tuple(own), tuple(slots)


def make_label(ctx: LabelContext, g, scheme: str = "fixed") -> Label:
    """Label of the instance vertex g, as unpack_label decodes it from its bits.

    The legacy scheme reads the raw placement and ships the full clique
    path signature; the default scheme reads the fixed placement and ships
    the vertex's own raw node signature plus one overflow bit per row.
    The label is checked where it is made: its transition code must
    decode to the next row's signature, and the fields it is drafted
    from must survive a pack round trip.  Each overflow suffix r is at
    most one bit without a check: _place's chain check puts v's own node
    on its clique's root path, and fixup checks that every clique parent
    of every member of s_plus, which holds every carrier, lies at most
    one level below that member.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown label scheme {scheme!r}")
    if g not in ctx.instance.coords:
        raise ValueError(f"{g!r} is not a vertex of the instance")
    v, y = ctx.instance.coords[g]
    y = ctx.row[y]
    legacy = scheme == "legacy"
    place = ctx.raw if legacy else ctx.fixed
    t, J = ctx.params.t, ctx.params.codec

    def shipped(yb: int) -> str:
        """The signature the label ships for row yb."""
        return ctx.raw.tops[yb][v] if legacy else ctx.sig(yb, ctx.raw.node[yb][v])

    base = shipped(y)
    following = shipped(y + 1) if y < ctx.h else None
    mu = None if following is None else J.encode(base, following)
    if mu is not None and J.decode(base, mu) != following:
        raise AssertionError(f"transition code for {v!r}@{y} does not round-trip")

    by_colour = ctx.tt.parents(v)
    parents = [by_colour[i] for i in range(1, t + 2)]
    near = ctx.nbrs[v, y]
    depths, psi, abits, rsuf = [], [], [], []
    for b in _layout(t, y > 1, y < ctx.h)[0]:
        yb = y + b
        depth_yb, psi_yb = place.depth[yb], place.psi[yb]
        for p in parents:
            depths.append(depth_yb[p])
            psi.append(psi_yb[p])
            abits.append(1 if (p, yb) in near else 0)
        if not legacy:
            rsuf.append(ctx.fixed.tops[yb][v][ctx.fixed.depth[yb][v]:])

    draft = Label(
        scheme=scheme,
        t=t,
        alpha1=ctx.alpha1[y],
        hint=ctx.hint[y],
        sig=base,
        mu=mu,
        phi=ctx.tt.colour[v],
        depths=tuple(depths),
        psi=tuple(psi),
        abits=tuple(abits),
        r=tuple(rsuf),
        has_prev=y > 1,
    )
    label = unpack_label(pack_label(draft, ctx.params), ctx.params)
    if label != draft:
        raise AssertionError(f"label of {v!r}@{y} does not survive a pack round-trip")
    return label


_HINT_CODES = {"end": "00", "strip": "01", "append": "10"}
_HINT_KINDS = {int(c, 2): k for k, c in _HINT_CODES.items()}  # int keys: code 11 reads as "undecodable label: 3"
_BIT_VALUE = {"0": 0, "1": 1}


@lru_cache(maxsize=32)
def _layout(t: int, has_prev: bool, has_next: bool) -> tuple:
    """Row offsets b in (-1, 0, 1) whose row y+b exists, and the parent slots (i, b) in field order."""
    rows = tuple(b for b in (-1, 0, 1) if (b != -1 or has_prev) and (b != 1 or has_next))
    return rows, tuple((i, b) for b in rows for i in range(1, t + 2))


@lru_cache(maxsize=4096)
def _gamma(value: int) -> str:
    """Elias gamma code of a positive integer."""
    if value < 1:
        raise ValueError("gamma codes positive integers")
    return "0" * (value.bit_length() - 1) + format(value, "b")


@lru_cache(maxsize=4096)
def _fixed(value: int, width: int) -> str:
    """value in exactly width bits."""
    if not 0 <= value < 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def pack_label(label: Label, params: LabelParams) -> str:
    """Serialize a label; bit-exact, and the one statement of the label format.

    Fields, in order (gamma is the Elias gamma code; a prefixed string is
    gamma(length + 1) and the string): three flags (legacy scheme,
    has_prev, has_next); alpha1, prefixed; the successor hint in 2 bits
    (00 end, 01 strip, 10 append), then gamma(delta + 1) unless it is
    "end"; sig, prefixed; mu, prefixed, if there is a next row; phi - 1 in
    phi_bits; over the parent slots in Label's order, each depth in
    depth_bits, then each psi as gamma, then each adjacency bit; and in
    the default scheme only, per existing row, "0" for an empty overflow
    suffix, else "1" and its one bit.  A label whose slot tuples do not
    hold one entry per slot, or whose r does not hold one suffix per row
    (none in the legacy scheme), raises ValueError.
    """
    rows, slots = _layout(label.t, label.has_prev, label.has_next)
    if not len(label.depths) == len(label.psi) == len(label.abits) == len(slots):
        raise ValueError(f"a label of {len(rows)} rows needs {len(slots)} parent slots")
    if len(label.r) != (0 if label.scheme == "legacy" else len(rows)):
        raise ValueError(f"a {label.scheme} label of {len(rows)} rows carries {len(label.r)} overflow suffixes")
    kind, delta = label.hint
    parts = ["1" if label.scheme == "legacy" else "0", "1" if label.has_prev else "0",
             "1" if label.has_next else "0", _gamma(len(label.alpha1) + 1), label.alpha1, _HINT_CODES[kind]]
    if kind != "end":
        parts.append(_gamma(delta + 1))
    parts += (_gamma(len(label.sig) + 1), label.sig)
    if label.has_next:
        parts += (_gamma(len(label.mu) + 1), label.mu)
    parts.append(_fixed(label.phi - 1, params.phi_bits))
    parts += [_fixed(d, params.depth_bits) for d in label.depths]
    parts += map(_gamma, label.psi)
    parts += map(str, label.abits)
    parts += ["0" if r == "" else "1" + r for r in label.r]
    return check_bits("".join(parts))


def unpack_label(bits: str, params: LabelParams) -> Label:
    """Inverse of pack_label; malformed input raises, never misreads.

    Besides the layout itself, the decoded fields must agree with each
    other: the bits left after phi can hold every parent slot, mu parses
    against the codec, alpha1, sig and the next row's signature that mu
    decodes to are no longer than maxheight, the successor hint is "end"
    exactly when there is no next row and fits alpha1, the row count n
    and maxheight, every slot depth is within maxheight, and the own
    colour's slots in rows y and y+1 are no deeper than that row's
    signature.  The label keeps bits as its bits.
    """
    try:
        return _unpack(bits, params)
    except (ValueError, KeyError, IndexError) as exc:
        raise ValueError(f"undecodable label: {exc}") from None


# every 8-bit window that starts with a whole gamma code of 1..15 -> (value, code length)
_GAMMA8 = {
    code + format(rest, f"0{8 - len(code)}b"): (value, len(code))
    for value in range(1, 16)
    for code in [_gamma(value)]
    for rest in range(1 << (8 - len(code)))
}


def _gamma_at(bits: str, pos: int) -> tuple:
    """The gamma-coded value at pos, and the offset just past it."""
    hit = _GAMMA8.get(bits[pos:pos + 8])
    if hit is not None:
        return hit[0], pos + hit[1]
    one = bits.find("1", pos)
    stop = 2 * one - pos + 1
    if one < 0 or stop > len(bits):
        raise ValueError("bit underrun")
    return int(bits[one:stop], 2), stop


def _prefixed_at(bits: str, pos: int) -> tuple:
    """The length-prefixed string at pos, and the offset just past it."""
    size, pos = _gamma_at(bits, pos)
    stop = pos + size - 1
    if stop > len(bits):
        raise ValueError("bit underrun")
    return bits[pos:stop], stop


def _unpack(bits: str, params: LabelParams) -> Label:
    """Read the fields of pack_label in one pass over bits, slicing fixed-width fields at their offsets."""
    end = len(check_bits(bits))
    if end < 3:
        raise ValueError("bit underrun")
    scheme = "legacy" if bits[0] == "1" else "fixed"
    has_prev = bits[1] == "1"
    has_next = bits[2] == "1"
    alpha1, pos = _prefixed_at(bits, 3)
    if pos + 2 > end:
        raise ValueError("bit underrun")
    kind = _HINT_KINDS[int(bits[pos:pos + 2], 2)]
    pos += 2
    if has_next != (kind != "end"):
        raise ValueError(f"successor hint {kind!r} contradicts has_next = {has_next}")
    delta, pos = _gamma_at(bits, pos) if kind != "end" else (1, pos)
    delta -= 1
    # the row tree has at most n nodes and, as build_context checks, height at most maxheight
    if kind == "append" and len(alpha1) + 1 + delta > min(params.n - 1, params.maxheight):
        raise ValueError(f"successor hint {delta} overruns a row tree of height {params.maxheight} over {params.n} rows")
    sig, pos = _prefixed_at(bits, pos)
    if max(len(alpha1), len(sig)) > params.maxheight:
        raise ValueError(f"a {max(len(alpha1), len(sig))}-bit signature is deeper than maxheight {params.maxheight}")
    mu, pos = _prefixed_at(bits, pos) if has_next else (None, pos)
    w = params.phi_bits
    if pos + w > end:
        raise ValueError("bit underrun")
    phi = int(bits[pos:pos + w], 2) + 1
    pos += w
    if phi > params.t + 1:
        raise ValueError(f"colour {phi} out of range")
    # a slot takes its depth field, at least one gamma bit and its adjacency bit;
    # checked before the (t + 1) slots per row are built, as t comes from a header
    nrows = 1 + has_prev + has_next
    if nrows * (params.t + 1) * (params.depth_bits + 2) > end - pos:
        raise ValueError(f"{end - pos} bits left cannot hold {nrows} rows of {params.t + 1} parent slots")
    rows, slots = _layout(params.t, has_prev, has_next)
    w = params.depth_bits
    stop = pos + w * len(slots)
    block, mask = int(bits[pos:stop], 2), (1 << w) - 1
    depths = tuple([block >> shift & mask for shift in range(stop - pos - w, -1, -w)])
    pos = stop
    if max(depths) > params.maxheight:
        raise ValueError(f"depth {max(depths)} beyond layout cap")
    psi = []
    for _ in slots:
        hit = _GAMMA8.get(bits[pos:pos + 8])
        if hit is None:
            value, pos = _gamma_at(bits, pos)
        else:
            value = hit[0]
            pos += hit[1]
        psi.append(value)
    stop = pos + len(slots)
    if stop > end:
        raise ValueError("bit underrun")
    abits = tuple(map(_BIT_VALUE.__getitem__, bits[pos:stop]))
    pos = stop
    rsuf = []
    if scheme != "legacy":
        for _ in rows:
            if pos >= end or (bits[pos] == "1" and pos + 1 >= end):
                raise ValueError("bit underrun")
            rsuf.append("" if bits[pos] == "0" else bits[pos + 1])
            pos += 1 + len(rsuf[-1])
    if pos != end:
        raise ValueError("trailing bits")
    label = Label(scheme, params.t, alpha1, (kind, delta), sig, mu, phi, depths, tuple(psi), abits, tuple(rsuf),
                  has_prev)
    _derive_tester_view(label, params)
    label.bits = bits
    return label


def adjacency_test(l1: Label, l2: Label) -> bool:
    """Decide adjacency of the two labelled vertices from labels alone.

    Row signatures classify the pair: same row, consecutive rows (either
    order), or too far apart.  Within reach, each side is checked as a
    clique parent of the other (a duo) by looking up its own node
    signature and bag colour among the other's parent slots; a hit reads
    the matching adjacency bit.  The answer is True exactly when some duo
    hits with adjacency bit 1, so it does not depend on the argument
    order.  Within one instance the two duos never disagree; labels of
    different instances can hit in both duos with different bits.
    """
    if l1.scheme != l2.scheme or l1.t != l2.t:
        raise ValueError("labels come from different schemes")
    if l1.alpha1 == l2.alpha1:
        return bool(_parent_bit(l1, 0, l2, 0) or _parent_bit(l2, 0, l1, 0))
    if l1.next_alpha == l2.alpha1:
        return bool(_parent_bit(l1, 1, l2, 0) or _parent_bit(l2, 0, l1, 1))
    if l2.next_alpha == l1.alpha1:
        return bool(_parent_bit(l2, 1, l1, 0) or _parent_bit(l1, 0, l2, 1))
    return False


def _parent_bit(la: Label, ba: int, lb: Label, bb: int):
    """Adjacency bit of lb for slot i if la's vertex is its colour-i parent."""
    key = la.own_key[ba]
    if key is None:
        return None
    i = lb.parent_slot[bb].get(key)
    if i is None:
        return None
    k = lb.t + 1
    row = bb - ba + lb.has_prev  # bb - ba: row offset of la's vertex from lb's; a row lb lacks reads 0
    return lb.abits[row * k + i - 1] if 0 <= row * k < len(lb.abits) else 0


LABEL_FILE_VERSION = 1


@dataclass
class LabelledInstance:
    """One instance's labels, and its graph for ground truth."""

    params: LabelParams
    scheme: str
    labels: dict
    graph: Graph

    def write_jsonl(self, path) -> None:
        head = {
            "version": LABEL_FILE_VERSION,
            "n": self.params.n,
            "t": self.params.t,
            "maxheight": self.params.maxheight,
            "codec_id": LcpCodec.codec_id,
            "scheme": self.scheme,
            "count": len(self.labels),
        }
        ids = sorted(self.labels, key=repr)
        for g in ids:
            bits = self.labels[g].bits
            if type(bits) is not str or bits.strip("01"):
                raise ValueError(f"label of {g!r} carries {bits!r}, not a bitstring")
        text = {g: json_id(g) for g in chain(ids, self.graph.vertices())}
        # the bytes of json.dumps on {"v": g, "bits": ...} and on {"ge": [a, b]}, pairs in repr order
        labels = (f'{{"v": {text[g]}, "bits": "{self.labels[g].bits}"}}\n' for g in ids)
        edges = (f'{{"ge": [{text[a]}, {text[b]}]}}\n' for a, b in sorted(self.graph.edges(), key=repr))
        write_lines(path, "labels", head, chain(labels, edges))

    @classmethod
    def read_jsonl(cls, path) -> "LabelledInstance":
        def parse(head, records):
            version, codec_id, n, t, maxheight, count = (
                integer(head[name], name) for name in ("version", "codec_id", "n", "t", "maxheight", "count")
            )
            if version != LABEL_FILE_VERSION:
                raise ValueError(f"label file version {version!r}, expected {LABEL_FILE_VERSION}")
            if codec_id != LcpCodec.codec_id:
                raise ValueError("codec mismatch")
            scheme = head["scheme"]
            if scheme not in SCHEMES:
                raise ValueError(f"unknown label scheme {scheme!r}")
            params = LabelParams(n=n, t=t, maxheight=maxheight)
            labels, adj = {}, {}  # adj: the graph's vertex -> neighbour-set map
            owner = {}  # bits -> the vertex they label
            for rec in records:
                if "v" in rec:
                    v = key(rec["v"])
                    if v in labels:
                        raise ValueError(f"vertex {v!r} is labelled twice")
                    if rec["bits"] in owner:
                        raise ValueError(f"vertices {owner[rec['bits']]!r} and {v!r} share one label")
                    owner[rec["bits"]] = v
                    labels[v] = unpack_label(rec["bits"], params)
                    if labels[v].scheme != scheme:
                        raise ValueError(f"label of {v!r} is {labels[v].scheme} but the header says {scheme!r}")
                    adj[v] = set()
                else:
                    add_edge_record(adj, rec["ge"])
            if len(labels) != count:
                raise ValueError(f"header count {count} but {len(labels)} labelled vertices")
            return cls(params, scheme, labels, Graph.from_adjacency(adj, name="labelled instance"))

        return read_records(path, "labels", parse)


def _check_distinct(li: LabelledInstance) -> None:
    """Two vertices of one instance never share a label."""
    seen = {}
    for g, label in li.labels.items():
        if label.bits in seen:
            raise AssertionError(f"vertices {seen[label.bits]!r} and {g!r} share a label")
        seen[label.bits] = g


def label_instance(ctx: LabelContext, scheme: str = "fixed") -> LabelledInstance:
    """Label every vertex and run the per-instance assertion suite."""
    labels = {g: make_label(ctx, g, scheme) for g in sorted(ctx.instance.coords, key=repr)}
    li = LabelledInstance(ctx.params, scheme, labels, ctx.instance.graph)
    _check_distinct(li)
    return li


def _key_join(labels: dict) -> tuple:
    """The ids in repr order, and each position's set of later positions whose keys meet.

    Every duo of the tester compares keys of one row, so adjacency_test
    answers True only where one label's own (node signature, colour) key
    in some row is a parent-slot key of the other in that same row; the
    join finds exactly those pairs.  Within one instance a (row, key) has
    at most two owners, (v, y) and (v, y + 1), since bag colours are
    injective per bag; so it finds at most 2 x (parent slots) pairs.
    """
    ids = sorted(labels, key=repr)
    owners = defaultdict(list)  # (row signature, own key) -> positions in ids
    for k, g in enumerate(ids):
        label = labels[g]
        owners[label.alpha1, label.own_key[0]].append(k)
        if label.own_key[1] is not None:
            owners[label.next_alpha, label.own_key[1]].append(k)
    later = defaultdict(set)  # position -> later positions it meets
    for k, g in enumerate(ids):
        label = labels[g]
        for row, slots in ((label.alpha1, label.parent_slot[0]), (label.next_alpha, label.parent_slot[1])):
            for slot_key in slots:
                for j in owners.get((row, slot_key), ()):
                    if j != k:
                        later[min(j, k)].add(max(j, k))
    return ids, later


def _tester_graph(labels: dict) -> dict:
    """Each id's set of tester neighbours among the labels.

    Each pair the key join finds is put to the tester once; every other
    pair is False without a lookup.
    """
    ids, later = _key_join(labels)
    nbrs = {g: set() for g in ids}
    for k, partners in later.items():
        g1 = ids[k]
        for j in partners:
            g2 = ids[j]
            if adjacency_test(labels[g1], labels[g2]):
                nbrs[g1].add(g2)
                nbrs[g2].add(g1)
    return nbrs


def _check_induced(li: LabelledInstance, tester_nbrs: dict) -> None:
    """Check that each vertex's tester neighbours (an id -> ids map) are its neighbours in li.graph.

    Vertices are scanned in graph order.  The first pair that differs is
    named with its cause: the tester says True on a non-edge, or False on
    an edge whose keys meet, whose keys never meet, or whose rows are out
    of reach.
    """
    for g1 in li.graph.vertices():
        got, want = tester_nbrs[g1], li.graph.neighbors(g1)
        if got == want:
            continue
        g2 = min(got ^ want, key=repr)
        if g2 in got:
            raise AssertionError(f"pair {g1!r},{g2!r}: tester says True, instance says False")
        l1, l2 = li.labels[g1], li.labels[g2]
        if _key_join({g1: l1, g2: l2})[1]:
            raise AssertionError(f"pair {g1!r},{g2!r}: tester says False, instance says True")
        rows = f"edge {g1!r}-{g2!r} joins rows {l1.alpha1!r} and {l2.alpha1!r}"
        if l1.alpha1 == l2.alpha1 or l1.next_alpha == l2.alpha1 or l2.next_alpha == l1.alpha1:
            raise AssertionError(f"{rows}, but no own key of either label meets a parent slot of the other")
        raise AssertionError(f"{rows}, which the tester never pairs")


def verify_labelling(li: LabelledInstance) -> int:
    """Check every vertex pair against the tester; returns C(n, 2), the pairs checked.

    The tester graph on the labels must be the instance graph; the pairs
    it leaves out are False without a lookup, so all pairs are settled.
    """
    _check_induced(li, _tester_graph(li.labels))
    return comb(len(li.labels), 2)


def assemble_universal(corpus: list) -> Graph:
    """The tester graph on the corpus labels, whose vertices are the distinct label bits.

    Every corpus member, whose labels must be distinct, is checked to be
    an induced subgraph through its own labels.  A (row, key) has at most
    two owners per member, so the pairs put to the tester number at most
    2 x (members) x (parent slots of the corpus).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    first = corpus[0]
    for li in corpus[1:]:
        if li.params != first.params or li.scheme != first.scheme:
            raise ValueError("corpus labelled with different parameters")
    for li in corpus:
        _check_distinct(li)
    decoded = {label.bits: label for li in corpus for label in li.labels.values()}
    un = Graph.from_adjacency(_tester_graph(decoded), name=f"universal(n={first.params.n}, t={first.params.t})")
    for k, li in enumerate(corpus):
        owner = {label.bits: g for g, label in li.labels.items()}
        member = {g: {owner[b] for b in un.neighbors(label.bits) if b in owner} for g, label in li.labels.items()}
        try:
            _check_induced(li, member)
        except AssertionError as exc:
            raise AssertionError(f"corpus member {k} is not induced faithfully: {exc}") from None
    return un


def growth_report(un: Graph, params: LabelParams) -> dict:
    """Measured size against the near-linear reference curve."""
    n = max(params.n, 4)
    ln = math.log2(n)
    reference = n * 2 ** math.sqrt(ln * math.log2(ln)) * ln ** (params.t**2)
    return {
        "vertices": un.n,
        "edges": un.m,
        "reference": reference,
        "vertices_within": un.n <= reference,
        "edges_within": un.m <= reference,
    }
