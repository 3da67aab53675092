"""Universal graphs and adjacency labels for product-structured graphs.

Graphs that live inside (bounded-treewidth graph) x (path) admit one
shared host graph with near-linear size: this package builds that host
explicitly, embeds concrete instances into it with verified witnesses,
and derives the matching adjacency labelling scheme whose tester decides
edges from two labels alone.  Each pipeline stage (biased search trees,
tree sequences, interval embeddings, product witnesses, labelling,
vertex compression) is its own module with exact validity checks.

Each claim is checked once per command, by one function:

- an instance is a product witness in host x P_h, its decomposition is
  a tree decomposition of the host, and its width is t >= 1:
  QtInstance, when it is built (so inside the reader, and in every
  generator);
- a t-tree is well formed: TTree, when it is built;
- the host's intervals embed in closure x K_omega: embed_interval_graph;
- a host layout is fit to label: build_context checks every layout it
  gets, computed or prescribed (its t-tree holds every host vertex and
  host edge, every t-tree vertex has an interval, every t-tree edge's
  intervals meet);
- an embedding is a witness in G_n x K_omega: validate_qt_embedding,
  in embed and in verify (embed's is_edge pass over the edge images
  comes first, to say why an image fails);
- labels decide the instance's graph: verify_labelling, and
  assemble_universal for each instance it takes.

So embed runs three product witness checks (instance, intervals,
output) and one decomposition check, verify two and one, label one and
one, test-adjacency and assemble none.  These checks are not run, as
the checks above imply them:

- the projection of an instance onto closure x P_h in embed_qt: an
  instance edge joins equal or host-adjacent vertices in equal or
  adjacent rows, each host edge is a t-tree edge whose intervals meet,
  and the row witness maps meeting intervals to equal or adjacent
  closure nodes;
- host_layout's check that the t-tree completion keeps each host edge:
  a bag holds each host edge, and ttree_from_decomposition attaches
  each vertex to all its earlier bag-clique neighbours;
- the decomposition check in TTree.family_decomposition: its bags form
  a tree decomposition of any valid t-tree, as its docstring proves;
- the instance as a witness in (t-tree) x P_h in build_context: it is
  one in host x P_h, and the layout check puts every host vertex and
  host edge in the t-tree.
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
