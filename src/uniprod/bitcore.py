"""Bitstrings, binary search trees and signature arithmetic.

Bitstrings are plain ``str`` values over the alphabet "01".  A node's
signature is the bitstring of left/right turns on the path from the root
(0 = left), so the root has the empty signature and ancestor-of equals
prefix-of.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Mapping


def check_bits(s: str) -> str:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a bitstring: {s!r}")
    return s


def is_prefix(x: str, y: str) -> bool:
    """True iff x is a (not necessarily proper) prefix of y."""
    return y.startswith(x)


def lcp_len(x: str, y: str) -> int:
    n = min(len(x), len(y))
    i = 0
    while i < n and x[i] == y[i]:
        i += 1
    return i


class Bst:
    """Immutable binary search tree over distinct integer keys."""

    __slots__ = ("root", "_left", "_right", "_sig")

    def __init__(self, root, left, right):
        self.root = root
        self._left = left
        self._right = right
        self._sig = {}
        if root is not None:
            stack = [(root, "")]
            while stack:
                k, sig = stack.pop()
                self._sig[k] = sig
                if left[k] is not None:
                    stack.append((left[k], sig + "0"))
                if right[k] is not None:
                    stack.append((right[k], sig + "1"))

    def __len__(self):
        return len(self._left)

    def keys(self):
        return sorted(self._left)

    def left(self, key):
        return self._left[key]

    def right(self, key):
        return self._right[key]

    def depth(self, key) -> int:
        return len(self._sig[key])

    @property
    def height(self) -> int:
        return max(map(len, self._sig.values()), default=0)

    def signature(self, key) -> str:
        return self._sig[key]

    def signatures(self) -> dict:
        """The map from each key to its signature, for loops that read many; callers must not change it."""
        return self._sig

    def is_ancestor(self, a, b) -> bool:
        """True iff a is an ancestor of b (every node is its own ancestor)."""
        return self._sig[b].startswith(self._sig[a])

    def __repr__(self):
        return f"Bst({len(self)} keys, root={self.root}, height={self.height})"


def build_biased_bst(keys: Iterable[int], weights: Mapping[int, int] | None = None) -> Bst:
    """Build a BST by the half-weight rule; weights maps each key to its weight, 1 if None.

    The root of each subtree is the smallest key whose cumulative weight
    (in key order) reaches half the subtree's total; both children then
    carry at most half the weight, so a key of weight w sits at depth at
    most log2(W/w).
    """
    ks = sorted(keys)
    if not ks:
        raise ValueError("empty key set")
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate keys")
    if weights is None:
        ws = [1] * len(ks)
    else:
        ws = [weights[k] for k in ks]
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")

    cum = [0] + list(accumulate(ws))  # cum[i] = weight of ks[:i]
    left: dict = {}
    right: dict = {}

    def build(lo, hi):  # keys ks[lo:hi], nonempty
        total = cum[hi] - cum[lo]
        # smallest m in (lo, hi] with 2*(cum[m]-cum[lo]) >= total; root is ks[m-1]
        a, b = lo + 1, hi
        while a < b:
            mid = (a + b) // 2
            if 2 * (cum[mid] - cum[lo]) >= total:
                b = mid
            else:
                a = mid + 1
        r = a - 1
        k = ks[r]
        left[k] = build(lo, r) if r > lo else None
        right[k] = build(r + 1, hi) if r + 1 < hi else None
        return k

    root = build(0, len(ks))
    return Bst(root, left, right)


def strip_successor(sigma: str) -> str | None:
    """Signature reached by dropping trailing 1s and one 0, or None.

    This is the successor's signature when the node has no right child;
    an all-ones (or empty) signature belongs to the tree maximum, which
    has no successor, so None is returned.
    """
    t = sigma.rstrip("1")
    if not t:
        return None
    return t[:-1]


def successor_set(sigma: str, h: int) -> set[str]:
    """All signatures the in-order successor can have in a tree of height <= h.

    Consecutive keys x < y in any BST satisfy either sig(y) = strip(sig(x))
    (x has no right child) or sig(y) = sig(x) + "1" + "0"*j with
    |sig(x)| + 1 + j <= h.  The set has at most h+1 elements.
    """
    check_bits(sigma)
    if len(sigma) > h:
        raise ValueError(f"|sigma| = {len(sigma)} exceeds height {h}")
    out = set()
    s = strip_successor(sigma)
    if s is not None:
        out.add(s)
    for j in range(h - len(sigma)):
        out.add(sigma + "1" + "0" * j)
    return out
