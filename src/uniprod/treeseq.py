"""Per-row search trees with transition codes between consecutive rows.

Given rows S_1..S_h of integer keys, the builder produces trees T_1..T_h
with V(T_y) = S_y | S_{y+1} (T_h covers S_h alone), so a key alive in two
consecutive rows has a node in both trees and its signature change can be
shipped as a short code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from .bitcore import Bst, build_biased_bst, check_bits, lcp_len


def lambda_default(n: int) -> int:
    """Default slack budget: ceil(sqrt(log2 n * log2 log2 n)).

    The inner log is clamped below at 1 so tiny n still get a positive
    budget.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    lg = math.log2(n)
    return math.ceil(math.sqrt(lg * max(1.0, math.log2(lg))))


@dataclass(frozen=True)
class LcpCodec:
    """Prefix-rewrite codes: <kept-prefix length, fixed width><new suffix>.

    decode(before, nu) keeps the first ell characters of `before` and
    appends the rest of nu, so decode is total on well-formed codes no
    matter where nu came from.  codec_id versions the bit layout in files.
    """

    codec_id: ClassVar[int] = 1
    max_len: int  # largest signature length the length field must cover
    width: int = field(init=False, repr=False, compare=False)  # bits of the length field

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len >= 1 required")
        object.__setattr__(self, "width", max(1, math.ceil(math.log2(self.max_len + 1))))

    def encode(self, before: str, after: str) -> str:
        check_bits(before)
        check_bits(after)
        ell = min(lcp_len(before, after), (1 << self.width) - 1)
        return format(ell, f"0{self.width}b") + after[ell:]

    def decode(self, before: str, nu: str) -> str:
        """B(before, nu); raises on codes too short to parse."""
        check_bits(nu)
        if len(nu) < self.width:
            raise ValueError(f"code shorter than length field ({len(nu)} < {self.width})")
        ell = int(nu[: self.width], 2)
        return before[:ell] + nu[self.width :]

    def code_len(self, before: str, after: str) -> int:
        """Length of encode(before, after) without building it."""
        ell = min(lcp_len(before, after), (1 << self.width) - 1)
        return self.width + len(after) - ell


@dataclass
class TreeSequence:
    rows: list[frozenset[int]]
    trees: list[Bst]
    codec: LcpCodec
    lambda_height: int
    max_code_len: int = field(default=0)

    @property
    def h(self) -> int:
        return len(self.rows)


def build_tree_sequence(rows, codec: LcpCodec | None = None) -> TreeSequence:
    """Half-weight trees over S_y | S_{y+1} for each row y.

    Height slack is measured, not assumed: lambda_height is the smallest
    nonnegative integer making height <= log2|V(T_y)| + lambda_height hold
    for every tree.
    """
    rs = [frozenset(r) for r in rows]
    if not rs or any(not r for r in rs):
        raise ValueError("rows must be nonempty")
    trees = []
    for y in range(len(rs)):
        keys = rs[y] | (rs[y + 1] if y + 1 < len(rs) else frozenset())
        trees.append(build_biased_bst(keys))
    lam = max(0, max(t.height - (len(t).bit_length() - 1) for t in trees))
    if codec is None:
        codec = LcpCodec(max(1, max(t.height for t in trees)))
    ts = TreeSequence(rs, trees, codec, lam)
    worst = 0
    for y in range(1, ts.h):
        t0, t1 = trees[y - 1], trees[y]
        for z in t0.keys():
            if z in t1:
                worst = max(worst, codec.code_len(t0.signature(z), t1.signature(z)))
    ts.max_code_len = worst
    return ts
