"""Vertex-count compression through bipartite saturators.

A saturator is a sparse bipartite graph on parts V (size N) and U (size
N/k) in which every small vertex subset of V can be matched injectively
into U.  Contracting a universal graph on V through such a saturator
divides the vertex count by k while every embedding survives: compose
it with a matching that saturates the image.

The construction is seeded-random (a union of k-to-1 contractions of
random permutations) and the matching property is verified directly,
exhaustively at toy sizes and by sampled matching checks beyond.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .io import integer, read_records, write_pairs
from .product import Graph, ProductWitness


@dataclass
class Saturator:
    """Bipartite V-to-U graph with bounded V-degrees."""

    n0: int
    k: int
    eps: float
    seed: int
    d_sat: int
    n_v: int
    adj: dict

    @property
    def n_u(self) -> int:
        return self.n_v // self.k

    def validate(self) -> None:
        """Checks a saturator read from a file; build_saturator's are valid by construction."""
        if self.n_v % self.k:
            raise ValueError("N must be divisible by k")
        if set(self.adj) != set(range(self.n_v)):
            raise ValueError("V side must be exactly 0..N-1")
        for v, us in self.adj.items():
            if len(us) > self.d_sat:
                raise ValueError(f"degree of {v} exceeds d_sat = {self.d_sat}")
            if any(not 0 <= u < self.n_u for u in us):
                raise ValueError(f"neighbour of {v} outside U")

    def write_jsonl(self, path) -> None:
        head = {"n0": self.n0, "k": self.k, "eps": self.eps, "seed": self.seed, "d_sat": self.d_sat, "n_v": self.n_v}
        groups = ((v, sorted(self.adj[v])) for v in range(self.n_v))
        write_pairs(path, "saturator", head, "e", groups)

    @classmethod
    def read_jsonl(cls, path) -> "Saturator":
        def parse(head, records):
            n0, k, seed, d_sat, n_v = (integer(head[name], name) for name in ("n0", "k", "seed", "d_sat", "n_v"))
            adj = {v: set() for v in range(n_v)}
            u_side = range(n_v // k)
            for rec in records:
                v, u = map(integer, rec["e"])
                if v not in adj or u not in u_side:
                    raise ValueError(f"edge {v!r}-{u!r} leaves V = 0..{n_v - 1} or U = 0..{len(u_side) - 1}")
                adj[v].add(u)
            adj = {v: frozenset(us) for v, us in adj.items()}
            return cls(n0, k, head["eps"], seed, d_sat, n_v, adj)

        s = read_records(path, "saturator", parse)
        s.validate()
        return s


def build_saturator(n0: int, k: int, eps: float, seed: int = 0) -> Saturator:
    """Union of d_sat seeded k-to-1 contraction maps.

    Each round contracts a fresh random permutation of V in blocks of k,
    so every V-vertex gains at most one neighbour per round.  The round
    count d_sat follows the 2^8 k^2 / eps^2 window, clamped to |U|.  The
    rounds draw neighbours independently, so even at d_sat = |U| a
    V-vertex meets only about 1 - 1/e of U, not all of it.  The result is
    valid by construction, so it is not checked: k divides N, and each
    round gives each v one neighbour perm[v] // k < N / k, so every
    degree is at most d_sat and every neighbour lies in U.
    """
    if n0 < 1 or k < 1 or eps <= 0:
        raise ValueError("need n0 >= 1, k >= 1, eps > 0")
    n_v = k * -(-n0 // k)
    n_u = n_v // k
    d_sat = max(1, min(math.ceil(256 * k * k / (eps * eps)), n_u))
    rng = random.Random(seed)
    adj = {v: set() for v in range(n_v)}
    perm = list(range(n_v))
    for _ in range(d_sat):
        rng.shuffle(perm)
        for v in range(n_v):
            adj[v].add(perm[v] // k)
    return Saturator(
        n0=n0,
        k=k,
        eps=eps,
        seed=seed,
        d_sat=d_sat,
        n_v=n_v,
        adj={v: frozenset(us) for v, us in adj.items()},
    )


@dataclass
class SaturationReport:
    """Truthy verdict carrying a violating subset when one exists."""

    ok: bool
    witness: set | None
    mode: str

    def __bool__(self) -> bool:
        return self.ok


def verify_saturation(
    s: Saturator, n: int, samples: int = 20, rng_seed: int = 0
) -> SaturationReport:
    """Can every subset of V with at most n vertices be matched into U?

    Small instances get a complete verdict: a Hall violator X with
    |X| <= n exists iff some Y subset of U with |Y| <= n-1 has more than
    |Y| V-vertices whose whole neighbourhood sits inside Y, so scanning
    the (smaller) U side is exhaustive.  Larger instances run maximum
    matchings over sampled n-subsets.
    """
    if s.n_v <= 20:
        us = range(s.n_u)
        for size in range(min(n - 1, s.n_u) + 1):
            for combo in combinations(us, size):
                y = set(combo)
                trapped = [v for v in range(s.n_v) if s.adj[v] <= y]
                if len(trapped) > size:
                    return SaturationReport(False, set(trapped[: size + 1]), "exhaustive")
        return SaturationReport(True, None, "exhaustive")
    rng = random.Random(rng_seed)
    pool = list(range(s.n_v))
    size = min(n, s.n_v)
    for _ in range(samples):
        x = rng.sample(pool, size)
        matching = maximum_matching(sorted(x), lambda v: sorted(s.adj[v]))
        if len(matching) < size:
            return SaturationReport(False, set(x), "sampled")
    return SaturationReport(True, None, "sampled")


def maximum_matching(lefts, neighbors) -> dict:
    """Left-to-right maximum bipartite matching by augmenting paths."""
    match_l: dict = {}
    match_r: dict = {}
    for s in lefts:
        if s in match_l:
            continue
        prev_r: dict = {}
        prev_l: dict = {s: None}
        frontier = [s]
        found = None
        while frontier and found is None:
            nxt = []
            for v in frontier:
                for u in neighbors(v):
                    if u in prev_r:
                        continue
                    prev_r[u] = v
                    if u not in match_r:
                        found = u
                        break
                    w = match_r[u]
                    if w not in prev_l:
                        prev_l[w] = u
                        nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        u = found
        while u is not None:
            v = prev_r[u]
            nxt_u = prev_l[v]
            match_r[u] = v
            match_l[v] = u
            u = nxt_u
    return match_l


def compress(gU: Graph, s: Saturator) -> Graph:
    """Push a graph on V through the saturator onto U.

    Output vertices are all of U; u and u' are adjacent when some input
    edge has one endpoint attached to u and the other to u', so the edge
    count multiplies by at most d_sat squared.  Each u attached to v
    gains, in one union, the U-neighbours of all of v's neighbours, unless
    u's set already holds all of U (at d_sat = |U| it does within a few v).
    """
    for v in gU.vertices():
        if not (isinstance(v, int) and 0 <= v < s.n_v):
            raise ValueError(f"vertex {v!r} outside the saturator's V part")
    full = s.n_u
    near = {u: set() for u in range(full)}
    for v in gU.vertices():
        far = set().union(*(s.adj[w] for w in gU.neighbors(v)))
        for u in s.adj[v]:
            if len(near[u]) < full:
                near[u] |= far
    edges = ((u, up) for u, ups in near.items() for up in ups if up > u)
    hn = Graph(range(s.n_u), edges, name=f"compressed({gU.name or 'graph'})")
    if hn.m > s.d_sat**2 * gU.m:
        raise AssertionError("edge bound d_sat^2 |E| violated")
    return hn


def embed_compressed(F: Graph, emb: dict, s: Saturator, gU: Graph, hn: Graph) -> dict:
    """Carry an embedding F -> gU over to hn, the compressed graph compress(gU, s).

    A maximum matching between the embedding's image and U assigns each
    image vertex a private U-partner; composing gives an embedding into
    hn by the definition of its edges.  Both maps are checked
    as one-factor witnesses over their graphs.
    """
    ProductWitness(F, (gU,), {a: (x,) for a, x in emb.items()}).validate()
    image = sorted(set(emb.values()))
    matching = maximum_matching(image, lambda v: sorted(s.adj[v]))
    if len(matching) < len(image):
        raise ValueError(
            f"saturation violated: matched {len(matching)} of {len(image)} image vertices"
        )
    out = {a: matching[emb[a]] for a in F.vertices()}
    ProductWitness(F, (hn,), {a: (x,) for a, x in out.items()}).validate()
    return out
