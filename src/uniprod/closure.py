"""Closures of complete binary trees and interval-graph embeddings.

The closure of the complete binary tree of height d joins every node to
all of its ancestors.  With nodes numbered 1..2^(d+1)-1 in symmetric
order, all tree relations reduce to arithmetic on trailing zeros, so the
graph never has to be materialized to be queried.

Interval graphs with clique number w embed into the strong product of
such a closure with K_w by balanced separator recursion; that embedding
is the workhorse behind the small-treewidth hosts elsewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import lt
from typing import Hashable

from .bitcore import Bst
from .io import integer, json_id, key, read_records, write_lines
from .product import CliqueFactor, Graph, ProductWitness


def _tz(v: int) -> int:
    return (v & -v).bit_length() - 1


class ClosureGraph:
    """Closure of the complete binary tree with nodes 1..2^(d+1)-1.

    Node v sits at depth d - j where j is the number of trailing zero
    bits of v; its subtree covers exactly [v - 2^j + 1, v + 2^j - 1].
    """

    def __init__(self, d: int):
        if d < 0:
            raise ValueError("height must be >= 0")
        self.d = d
        self.root = 1 << d

    @property
    def n(self) -> int:
        return (1 << (self.d + 1)) - 1

    def has_vertex(self, v) -> bool:
        return type(v) is int and 1 <= v <= self.n

    def vertices(self):
        return range(1, self.n + 1)

    def depth(self, v: int) -> int:
        return self.d - _tz(v)

    def descendant_interval(self, v: int) -> tuple[int, int]:
        j = _tz(v)
        return v - (1 << j) + 1, v + (1 << j) - 1

    def children(self, v: int) -> tuple[int, ...]:
        j = _tz(v)
        if j == 0:
            return ()
        return v - (1 << (j - 1)), v + (1 << (j - 1))

    def is_ancestor(self, u: int, v: int) -> bool:
        """True when u lies on the root path of v (u == v counts)."""
        lo, hi = self.descendant_interval(u)
        return lo <= v <= hi

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and (self.is_ancestor(u, v) or self.is_ancestor(v, u))

    def __repr__(self):
        return f"ClosureGraph(d={self.d})"


def min_depth_in_range(t: Bst, lo, hi):
    """The unique shallowest key of t lying in [lo, hi].

    Standard root descent: the first node whose key falls inside the
    range is an ancestor of every other in-range key, hence the minimum
    depth is unique.  Raises if no key of t lies in the range.
    """
    node = t.root
    while node is not None:
        if node < lo:
            node = t.right(node)
        elif node > hi:
            node = t.left(node)
        else:
            return node
    raise ValueError(f"no key of the tree lies in [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# Interval representations


def _exact(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass
class IntervalRep:
    """Closed intervals [a_v, b_v] with exact rational endpoints, one per vertex.

    Integral endpoints are stored as int and only the others as Fraction,
    so the rank form and path decompositions compare plain ints.
    """

    intervals: dict[Hashable, tuple]

    def __post_init__(self):
        norm = {}
        for v, (a, b) in self.intervals.items():
            a, b = _exact(a), _exact(b)
            if a > b:
                raise ValueError(f"empty interval for {v!r}")
            norm[v] = (a, b)
        self.intervals = norm

    @property
    def n(self) -> int:
        return len(self.intervals)

    def meets(self, u, v) -> bool:
        au, bu = self.intervals[u]
        av, bv = self.intervals[v]
        return max(au, av) <= min(bu, bv)

    def intersection_graph(self) -> Graph:
        """The meeting pairs, read off the rank form in O(n log n + m).

        In rank form the interval of rank r meets exactly ranks r+1..b'
        among the later ones, b' being its right endpoint.
        """
        g = Graph(self.intervals, name="interval graph")
        ranked = perturb_left_endpoints(self).intervals
        order = list(ranked)
        for r, (u, (_, hi)) in enumerate(ranked.items()):
            for v in order[r + 1 : hi + 1]:
                g.add_edge(u, v)
        return g

    def clique_number(self) -> int:
        """Maximum point load; attained at a left endpoint by Helly."""
        # starts open before ends at the same coordinate (closed intervals)
        ivs = self.intervals.values()
        events = sorted([(a, -1) for a, _ in ivs] + [(b, 1) for _, b in ivs])
        best = cur = 0
        for _, kind in events:
            cur -= kind
            best = max(best, cur)
        return best

    def left_order(self) -> list:
        """Vertices by left endpoint, ties broken by repr for determinism.

        A rep keyed in strictly increasing left order, as the rank form
        and every sub-rep of its separator recursion are, is that order.
        """
        ivs = self.intervals
        lefts = [a for a, _ in ivs.values()]
        if all(map(lt, lefts, islice(lefts, 1, None))):
            return list(ivs)
        return sorted(ivs, key=lambda v: (ivs[v][0], repr(v)))

    def write_jsonl(self, path) -> None:
        """One line ``{"v": v, "a": [num, den], "b": [num, den]}`` per interval, in dict order.

        The bytes are those of ``json.dumps`` on each record; numerators
        and denominators are exact ints.
        """
        lines = (
            f'{{"v": {json_id(v)}, "a": [{a.numerator}, {a.denominator}], "b": [{b.numerator}, {b.denominator}]}}\n'
            for v, (a, b) in self.intervals.items()
        )
        write_lines(path, "intervals", {"n": self.n}, lines)

    @classmethod
    def read_jsonl(cls, path) -> "IntervalRep":
        def parse(head, records):
            ivs = {}
            for rec in records:
                v = key(rec["v"])
                if v in ivs:
                    raise ValueError(f"vertex {v!r} has two intervals")
                (an, ad), (bn, bd) = rec["a"], rec["b"]
                ivs[v] = (Fraction(integer(an), integer(ad)), Fraction(integer(bn), integer(bd)))
            return cls(ivs)

        return read_records(path, "intervals", parse)


def perturb_left_endpoints(rep: IntervalRep) -> IntervalRep:
    """The rank form of rep: left endpoints 0..n-1, the same graph.

    Vertex order[r] of order = rep.left_order() gets [r, q], q being the
    last rank whose old left endpoint is at most its old right one, so
    a_u <= b_v holds exactly when a'_u <= b'_v and every meeting,
    clique and separator is unchanged.  The result is keyed in rank
    order, and a rep already in rank form maps to itself.
    """
    order = rep.left_order()
    lefts = [rep.intervals[v][0] for v in order]
    return IntervalRep({v: (r, bisect_right(lefts, rep.intervals[v][1]) - 1) for r, v in enumerate(order)})


def interval_separator(rep: IntervalRep, omega: int):
    """Split on the median left endpoint.

    Returns (x1, x2, z): z is the clique of intervals covering the
    (n // 2 + 1)-th smallest left endpoint, and no interval of x1 meets
    any interval of x2.  Both sides have at most n // 2 vertices and z
    has at most omega.  Left endpoints must be pairwise distinct.
    """
    order = rep.left_order()
    n = len(order)
    if n == 0:
        return [], [], set()
    lefts = [rep.intervals[v][0] for v in order]
    if len(set(lefts)) != n:
        raise ValueError("left endpoints must be distinct; perturb first")
    pivot = lefts[n // 2]
    z = {v for v, (a, b) in rep.intervals.items() if a <= pivot <= b}
    if len(z) > omega:
        raise ValueError(f"separator clique has {len(z)} > omega = {omega} members")
    x1 = [v for v in order[: n // 2] if v not in z]
    x2 = [v for v in order[n // 2 + 1 :] if v not in z]
    return x1, x2, z


def embed_interval_graph(rep: IntervalRep) -> ProductWitness:
    """Embed the intersection graph into closure(ceil(log2 n)) x K_omega, n = rep.n.

    omega is the clique number, at least 1.  Separator recursion: the
    separator clique goes to a tree node with distinct colours, the two
    sides go to the two child subtrees.  A subtree of height h absorbs up
    to 2^(h+1)-1 vertices, so the height ceil(log2 n) is always enough.
    """
    rep = perturb_left_endpoints(rep)
    omega = max(1, rep.clique_number())
    d = (rep.n - 1).bit_length() if rep.n else 0
    host = ClosureGraph(d)
    coords = {}

    def place(sub: dict, node: int) -> None:
        if not sub:
            return
        x1, x2, z = interval_separator(IntervalRep(sub), omega)
        for c, v in enumerate(sorted(z, key=repr), start=1):
            coords[v] = (node, c)
        kids = host.children(node)
        if x1:
            place({v: sub[v] for v in x1}, kids[0])
        if x2:
            place({v: sub[v] for v in x2}, kids[1])

    place(dict(rep.intervals), host.root)
    witness = ProductWitness(rep.intersection_graph(), (host, CliqueFactor(omega)), coords)
    witness.validate()
    return witness
