"""Universal graphs and adjacency labels for product-structured graphs.

Graphs that live inside (bounded-treewidth graph) x (path) admit one
shared host graph with near-linear size: this package builds that host
explicitly, embeds concrete instances into it with verified witnesses,
and derives the matching adjacency labelling scheme whose tester decides
edges from two labels alone.  Each pipeline stage (biased search trees,
tree sequences, interval embeddings, product witnesses, labelling,
vertex compression) is its own module with exact validity checks.

Importing the package imports none of those modules.  Each name in
__all__ is looked up in a table of the module that defines it, and that
module is imported on the name's first use (a module ``__getattr__``).
So ``import uniprod.cli`` loads only the package, cli and io, and each
command then imports the modules it runs.

Each claim is checked once per command, by one function:

- an instance is a product witness in host x P_h, its decomposition is
  a tree decomposition of the host, its width is t >= 1, and it has a
  vertex: QtInstance, when it is built (so inside the reader, and in
  every generator);
- a t-tree is well formed: TTree, when it is built (its order, attach
  sets and owners);
- the host's intervals embed in closure x K_omega: embed_interval_graph;
- a host layout is fit to label: build_context checks every layout it
  gets, computed or prescribed (its t-tree holds every host vertex and
  host edge, every t-tree vertex has an interval, every t-tree edge's
  intervals meet);
- an embedding is a witness in G_n x K_omega: in embed, embed's own
  budget check and its is_edge pass over the edge images, which names
  the lambda cause of a failure; in verify, validate_qt_embedding on
  the witness file, the one check that the file maps every instance
  vertex (its reader refuses only an unknown or a repeated one);
- labels decide the instance's graph: verify_labelling, and
  assemble_universal for each instance it takes;
- no two vertices of one instance share a label: label_instance, and
  assemble_universal for each instance it takes (the label file reader
  refuses a shared label on its line);
- a saturator read from a file is well formed: Saturator.validate; a
  saturator saturates: verify_saturation.

So embed runs two product witness checks (instance, intervals) and one
decomposition check, verify two and one, label one and one,
test-adjacency, assemble and compress none.  These checks are not run,
as the checks above, or the construction, imply them:

- the projection of an instance onto closure x P_h in embed_qt: an
  instance edge joins equal or host-adjacent vertices in equal or
  adjacent rows, each host edge is a t-tree edge whose intervals meet,
  and the row witness maps meeting intervals to equal or adjacent
  closure nodes;
- validate_qt_embedding in embed_qt: each triple passed embed's budget
  check, z is a closure depth at most d, each colour is in 1..omega by
  the row witness, (triple, colour) is injective as the row witness,
  the instance coords and embed's placement are, an edge whose ends
  project to one cell joins two colours, and every other edge image
  passed is_edge;
- embed's collision check: two cells of one row at one closure depth
  have disjoint descendant intervals, each holding its own key, so they
  get different nodes; any other two cells differ in y or in z;
- host_layout's check that the t-tree completion keeps each host edge:
  a bag holds each host edge, and ttree_from_decomposition attaches
  each vertex to all its earlier bag-clique neighbours;
- TTree's clique and colour checks: the first t + 1 attach sets are all
  the earlier vertices, and each later one lies in its owner's family
  clique, a clique with t + 1 colours, so by induction it is a clique
  and greedy colouring gives its vertex the one missing colour;
- the decomposition check in TTree.family_decomposition: its bags form
  a tree decomposition of any valid t-tree, as its docstring proves;
- the instance as a witness in (t-tree) x P_h in build_context: it is
  one in host x P_h, and the layout check puts every host vertex and
  host edge in the t-tree;
- fixup's check that each node stays on its root path: its pass only
  ever moves a node to an ancestor of its current one;
- make_label's check that each clique path ends at most one level
  below the vertex's own node: _place's chain check puts the vertex's
  own node on its clique's root path, and fixup checks that every
  clique parent of every member of s_plus, which holds every carrier,
  lies at most one level below that member;
- Saturator.validate in build_saturator: k divides N, and each round
  gives each v one neighbour perm[v] // k < N / k, so every degree is at
  most d_sat and every neighbour lies in U.

The call sites of these checks, as "module.function: check" (the test
of the package surface pins them):

    cli._cmd_compress: verify_saturation
    cli._cmd_test_adjacency: verify_labelling
    cli._cmd_verify: validate_qt_embedding
    closure.embed_interval_graph: validate
    compressor.Saturator.read_jsonl: validate
    compressor.embed_compressed: validate
    decomp.QtInstance.__post_init__: validate
    decomp.TTree.__post_init__: _check_owners
    decomp.TTree.validate: _check_owners
    harness._suite_compression: verify_saturation
    harness._suite_labels: verify_labelling
    harness.bad_family_counts: verify_labelling
    induced.assemble_universal: _check_distinct
    induced.assemble_universal: _check_induced
    induced.label_instance: _check_distinct
    induced.verify_labelling: _check_induced
    unigraph.validate_qt_embedding: validate
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it, in __all__ order.
_EXPORTS = {
    "bitcore": ("Bst", "build_biased_bst", "successor_set"),
    "closure": ("ClosureGraph", "IntervalRep", "embed_interval_graph", "interval_separator"),
    "compressor": ("build_saturator", "verify_saturation", "compress", "embed_compressed"),
    "decomp": (
        "TreeDecomposition",
        "TTree",
        "QtInstance",
        "build_ttree",
        "ttree_from_decomposition",
        "tree_to_path_decomposition",
        "generate_qt_instance",
    ),
    "harness": ("Report", "gen_bad_example", "run_suite"),
    "induced": (
        "LabelParams",
        "build_context",
        "fixup",
        "label_instance",
        "adjacency_test",
        "verify_labelling",
        "assemble_universal",
    ),
    "product": ("Graph", "PathFactor", "CliqueFactor", "ProductWitness"),
    "treeseq": ("LcpCodec", "build_tree_sequence"),
    "unigraph": ("UgParams", "is_edge", "materialize", "embed_qt", "validate_qt_embedding"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """Import the module that defines a public name on its first use, and keep the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
