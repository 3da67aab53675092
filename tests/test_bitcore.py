import random

import pytest
from graphs import compatible, enumerate_bsts, in_successor_set
from hypothesis import given, strategies as st

from uniprod.bitcore import (
    Bst,
    build_biased_bst,
    check_bits,
    is_prefix,
    lcp_len,
    strip_successor,
    successor_set,
)


def naive_lcp(x: str, y: str) -> int:
    n = 0
    for a, b in zip(x, y):
        if a != b:
            break
        n += 1
    return n


def walk_depths(t: Bst) -> dict:
    """Recompute depths by walking left/right links from the root."""
    out = {}
    stack = [(t.root, 0)]
    while stack:
        k, d = stack.pop()
        out[k] = d
        for child in (t.left(k), t.right(k)):
            if child is not None:
                stack.append((child, d + 1))
    return out


def inorder(t: Bst) -> list:
    out, stack, k = [], [], t.root
    while stack or k is not None:
        while k is not None:
            stack.append(k)
            k = t.left(k)
        k = stack.pop()
        out.append(k)
        k = t.right(k)
    return out


def test_bit_string_predicates():
    assert is_prefix("", "0110")
    assert is_prefix("01", "0110")
    assert not is_prefix("11", "0110")
    assert compatible("010", "01")
    assert compatible("01", "010")
    assert not compatible("00", "01")
    assert lcp_len("0110", "0100") == 2
    with pytest.raises(ValueError):
        check_bits("012")


@given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", max_size=12))
def test_lcp_matches_naive(x, y):
    assert lcp_len(x, y) == naive_lcp(x, y)


def test_biased_bst_is_a_search_tree():
    rng = random.Random(3)
    for _ in range(200):
        ks = rng.sample(range(200), rng.randint(1, 25))
        t = build_biased_bst(ks)
        assert inorder(t) == sorted(ks)
        assert walk_depths(t) == {k: t.depth(k) for k in t.keys()}


def test_biased_bst_depth_bound():
    # weight-w key in a weight-W tree sits at depth <= log2(W / w)
    rng = random.Random(11)
    for _ in range(500):
        ks = rng.sample(range(1000), rng.randint(1, 20))
        w = {k: rng.randint(1, 50) for k in ks}
        t = build_biased_bst(ks, w)
        total = sum(w.values())
        for k in ks:
            assert (1 << t.depth(k)) * w[k] <= total, (k, w[k], total)


def test_biased_bst_rejects_bad_input():
    with pytest.raises(ValueError):
        build_biased_bst([])
    with pytest.raises(ValueError):
        build_biased_bst([1, 1])
    with pytest.raises(ValueError):
        build_biased_bst([1, 2], {1: 0, 2: 1})


def test_signatures_encode_ancestry():
    t = build_biased_bst(range(10), {k: k + 1 for k in range(10)})
    for a in t.keys():
        for b in t.keys():
            assert t.is_ancestor(a, b) == t.signature(b).startswith(t.signature(a))
    root = [k for k in t.keys() if t.signature(k) == ""]
    assert root == [t.root]


def test_enumerate_bsts_counts_catalan():
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(1, 6):
        shapes = list(enumerate_bsts(range(n)))
        assert len(shapes) == catalan[n]
        assert len({frozenset((k, t.signature(k)) for k in t.keys()) for t in shapes}) == len(shapes)
        for t in shapes:
            assert inorder(t) == list(range(n))


def test_strip_successor_examples():
    assert strip_successor("0011") == "0"
    assert strip_successor("010") == "01"
    assert strip_successor("0") == ""
    assert strip_successor("") is None
    assert strip_successor("111") is None


def test_successor_set_covers_every_tree():
    # oracle: in every BST shape on <= 6 keys, consecutive keys' signatures
    # must land in the candidate set computed from the predecessor alone
    for n in range(2, 7):
        for t in enumerate_bsts(range(n)):
            h = t.height
            for a, b in zip(inorder(t), inorder(t)[1:]):
                sa, sb = t.signature(a), t.signature(b)
                assert sb in successor_set(sa, h), (sa, sb, h)
                assert in_successor_set(sa, sb, h)


def test_successor_set_size_bound():
    for h in range(13):
        for bits in range(1 << min(h, 8)):
            for length in range(min(h, 8) + 1):
                sigma = format(bits, "b").zfill(length)[:length]
                s = successor_set(sigma, h)
                assert len(s) <= h + 1
                for tau in s:
                    assert in_successor_set(sigma, tau, h)


def test_in_successor_set_rejects_non_members():
    assert not in_successor_set("01", "00", 6)
    assert not in_successor_set("01", "0111", 3)  # too deep for the height
    assert not in_successor_set("0", "011", 6)  # j-run must be zeros
