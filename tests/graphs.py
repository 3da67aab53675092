"""Small graphs and contract checks the tests share."""

import itertools
import math

from uniprod.decomp import PathDecomposition, TreeDecomposition
from uniprod.induced import LabelledInstance, adjacency_test
from uniprod.product import Graph
from uniprod.treeseq import LcpCodec


def path_graph(h: int) -> Graph:
    return Graph(range(1, h + 1), ((i, i + 1) for i in range(1, h)), name=f"P_{h}")


def path_shaped(pd: PathDecomposition) -> TreeDecomposition:
    """A path decomposition as the tree decomposition on a path of its bags."""
    return TreeDecomposition(dict(enumerate(pd.bags)), [(i, i + 1) for i in range(len(pd.bags) - 1)])


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
        for z in t0.keys():
            if z in t1:
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
