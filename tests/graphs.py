"""Small graphs and contract checks the tests share."""

import itertools
import math

from uniprod.decomp import PathDecomposition, TreeDecomposition
from uniprod.induced import LabelledInstance, adjacency_test
from uniprod.product import Graph
from uniprod.treeseq import TreeSequence


def path_graph(h: int) -> Graph:
    return Graph(range(1, h + 1), ((i, i + 1) for i in range(1, h)), name=f"P_{h}")


def path_shaped(pd: PathDecomposition) -> TreeDecomposition:
    """A path decomposition as the tree decomposition on a path of its bags."""
    return TreeDecomposition(dict(enumerate(pd.bags)), [(i, i + 1) for i in range(len(pd.bags) - 1)])


def check_tree_sequence(ts: TreeSequence) -> None:
    """Assert the construction contract: cover, total size and height slack."""
    assert len(ts.trees) == ts.h
    for y in range(ts.h):
        want = ts.rows[y] | (ts.rows[y + 1] if y + 1 < ts.h else frozenset())
        got = set(ts.trees[y].keys())
        assert want <= got, f"tree {y + 1} misses keys {want - got}"
    total_rows = sum(len(r) for r in ts.rows)
    total_trees = sum(len(t) for t in ts.trees)
    assert total_trees <= 4 * total_rows, (total_trees, total_rows)
    for y, t in enumerate(ts.trees):
        assert t.height <= math.log2(len(t)) + ts.lambda_height, (y + 1, t.height, len(t), ts.lambda_height)


def all_pairs_disagreements(li: LabelledInstance) -> list:
    """Brute-force audit: every vertex pair on which the tester and the instance disagree."""
    keys = sorted(li.labels, key=repr)
    return [
        (g1, g2)
        for g1, g2 in itertools.combinations(keys, 2)
        if adjacency_test(li.labels[g1], li.labels[g2]) != li.graph.has_edge(g1, g2)
    ]
