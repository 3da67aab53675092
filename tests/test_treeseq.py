import math
import random

import pytest
from graphs import check_tree_sequence, max_code_len
from hypothesis import given, strategies as st

from uniprod.treeseq import LcpCodec, build_tree_sequence, lambda_default


def random_rows(rng: random.Random, h: int, universe: int = 60) -> list:
    return [rng.sample(range(universe), rng.randint(1, 12)) for _ in range(h)]


def test_lambda_default_values():
    assert lambda_default(2) == 1
    assert lambda_default(16) == 3  # ceil(sqrt(4 * 2))
    assert lambda_default(1 << 10) >= lambda_default(1 << 6)
    with pytest.raises(ValueError):
        lambda_default(1)


def test_codec_width():
    assert LcpCodec(1).width == 1
    assert LcpCodec(7).width == 3
    assert LcpCodec(8).width == 4
    with pytest.raises(ValueError):
        LcpCodec(0)


@given(st.text(alphabet="01", max_size=20), st.text(alphabet="01", max_size=20))
def test_codec_roundtrip(before, after):
    codec = LcpCodec(20)
    nu = codec.encode(before, after)
    assert codec.decode(before, nu) == after


def test_codec_decode_is_total_on_wellformed_codes():
    codec = LcpCodec(6)
    # a code produced against one string still decodes against another;
    # the result just keeps the other string's prefix
    nu = codec.encode("000111", "000110")
    assert codec.decode("111111", nu) == "111110"
    with pytest.raises(ValueError):
        codec.decode("0", nu[: codec.width - 1])


def test_codec_clamps_long_prefixes():
    codec = LcpCodec(2)  # width 2 -> lcp field caps at 3
    before = "010101"
    nu = codec.encode(before, before)
    assert codec.decode(before, nu) == before
    assert len(nu) == codec.width + len(before) - 3


def test_tree_sequence_trees_cover_consecutive_rows():
    rng = random.Random(5)
    for trial in range(50):
        rows = random_rows(rng, rng.randint(1, 8))
        trees = build_tree_sequence(rows)
        check_tree_sequence(rows, trees)
        for y, tree in enumerate(trees):
            keys = set(tree.keys())
            assert set(rows[y]) <= keys
            if y + 1 < len(trees):
                assert set(rows[y + 1]) <= keys


def test_tree_sequence_total_size_bound():
    rng = random.Random(6)
    for trial in range(50):
        rows = random_rows(rng, rng.randint(1, 8))
        trees = build_tree_sequence(rows)
        assert sum(len(t) for t in trees) <= 4 * sum(len(r) for r in rows)


def test_tree_sequence_height_slack():
    rng = random.Random(7)
    for trial in range(50):
        rows = random_rows(rng, rng.randint(1, 8))
        for t in build_tree_sequence(rows):
            # unit weights: the biased depth bound log2(W / w) is log2 |V(T)|
            assert t.height <= math.log2(len(t))


def test_transition_codes_decode_to_next_signature():
    rng = random.Random(8)
    for trial in range(50):
        rows = random_rows(rng, rng.randint(2, 8))
        trees = build_tree_sequence(rows)
        codec = LcpCodec(max(1, max(t.height for t in trees)))
        for y in range(1, len(trees)):
            t0, t1 = trees[y - 1], trees[y]
            shared = set(t0.keys()) & set(t1.keys())
            assert set(rows[y]) <= shared
            for z in shared:
                nu = codec.encode(t0.signature(z), t1.signature(z))
                assert len(nu) <= codec.width + len(t1.signature(z))
                assert codec.decode(t0.signature(z), nu) == t1.signature(z)
        assert max_code_len(trees, codec) <= codec.width + max(t.height for t in trees)


def test_build_rejects_empty_rows():
    with pytest.raises(ValueError):
        build_tree_sequence([])
    with pytest.raises(ValueError):
        build_tree_sequence([[1], []])
