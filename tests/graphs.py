"""Small graphs the tests share."""

from uniprod.product import Graph


def path_graph(h: int) -> Graph:
    return Graph(range(1, h + 1), ((i, i + 1) for i in range(1, h)), name=f"P_{h}")
