"""Universal graphs and adjacency labels for product-structured graphs.

Graphs that live inside (bounded-treewidth graph) x (path) admit one
shared host graph with near-linear size: this package builds that host
explicitly, embeds concrete instances into it with verified witnesses,
and derives the matching adjacency labelling scheme whose tester decides
edges from two labels alone.  Each pipeline stage (biased search trees,
tree sequences, interval embeddings, product witnesses, labelling,
vertex compression) is its own module with exact validity checks.
"""

from .bitcore import Bst, build_biased_bst, successor_set
from .closure import ClosureGraph, IntervalRep, embed_interval_graph, interval_separator
from .compressor import build_saturator, compress, embed_compressed, verify_saturation
from .decomp import (
    QtInstance,
    TTree,
    TreeDecomposition,
    build_ttree,
    generate_qt_instance,
    tree_to_path_decomposition,
    ttree_from_decomposition,
)
from .harness import Report, gen_bad_example, run_suite
from .induced import (
    LabelParams,
    adjacency_test,
    assemble_universal,
    build_context,
    fixup,
    label_instance,
    verify_labelling,
)
from .product import CliqueFactor, Graph, PathFactor, ProductWitness
from .treeseq import LcpCodec, build_tree_sequence
from .unigraph import UgParams, embed_qt, is_edge, materialize, validate_qt_embedding

__version__ = "0.1.0"

__all__ = [
    "Bst",
    "build_biased_bst",
    "successor_set",
    "ClosureGraph",
    "IntervalRep",
    "embed_interval_graph",
    "interval_separator",
    "build_saturator",
    "verify_saturation",
    "compress",
    "embed_compressed",
    "TreeDecomposition",
    "TTree",
    "QtInstance",
    "build_ttree",
    "ttree_from_decomposition",
    "tree_to_path_decomposition",
    "generate_qt_instance",
    "Report",
    "gen_bad_example",
    "run_suite",
    "LabelParams",
    "build_context",
    "fixup",
    "label_instance",
    "adjacency_test",
    "verify_labelling",
    "assemble_universal",
    "Graph",
    "PathFactor",
    "CliqueFactor",
    "ProductWitness",
    "LcpCodec",
    "build_tree_sequence",
    "UgParams",
    "is_edge",
    "materialize",
    "embed_qt",
    "validate_qt_embedding",
    "__version__",
]
