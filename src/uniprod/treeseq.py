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


def build_tree_sequence(rows) -> list[Bst]:
    """Half-weight trees T_1..T_h, T_y over S_y | S_{y+1} and T_h over S_h."""
    rs = [frozenset(r) for r in rows]
    if not rs or any(not r for r in rs):
        raise ValueError("rows must be nonempty")
    return [build_biased_bst(r | nxt) for r, nxt in zip(rs, rs[1:] + [frozenset()])]
