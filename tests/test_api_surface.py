"""Every public definition of the package has a reader in it.

A top-level function or class counts as used when its name is loaded in
its own module, or in another module that imports it from there;
``__init__.py`` re-exports are not uses.  A public method, property or
dataclass field counts as used when its name is loaded as an attribute
somewhere in the package outside its own definition.  Private
module-level functions and private methods need a reader by the same
rules, so a helper whose last caller goes is caught.  Test oracles, whose
whole purpose is to cross-check the pipeline, live in tests/graphs.py;
members pinned by the benchmark are listed with the reason they stay.
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import uniprod

SRC = Path(__file__).resolve().parent.parent / "src" / "uniprod"

# perfbench/tracer.py METHODS wraps these by reading cls.__dict__, so they
# stay until the benchmark's method list changes.
PINNED = (
    "product.Graph.degree_sequence",
    "product.Graph.induced_subgraph",
)


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"}


def _public_defs(tree):
    kinds = (ast.FunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def _loads(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imports(tree):
    """(source module, name) for every ``from .module import name``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.update((node.module, alias.name) for alias in node.names)
    return out


def unused_definitions():
    mods = _modules()
    loads = {m: _loads(tree) for m, tree in mods.items()}
    imports = {m: _imports(tree) for m, tree in mods.items()}
    unused = []
    for mod, tree in mods.items():
        for name in _public_defs(tree):
            if name in loads[mod]:
                continue
            if any((mod, name) in imports[other] and name in loads[other] for other in mods if other != mod):
                continue
            unused.append(f"{mod}.{name}")
    return sorted(unused)


def test_every_public_definition_has_a_caller_in_the_package():
    # a definition only the tests call belongs in tests/graphs.py
    assert unused_definitions() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _name_loads(node) -> Counter:
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def orphaned_private_helpers():
    """Private module-level functions and private methods that nothing in the package reads.

    A function is read when its name is loaded in its own module, or in
    another module that imports it from there; a method when its name is
    loaded as an attribute anywhere in the package.  Loads inside the
    definition itself, a recursive call's, do not count.
    """
    mods = _modules()
    names = {m: _name_loads(tree) for m, tree in mods.items()}
    attrs = sum((_attribute_loads(tree) for tree in mods.values()), Counter())
    imports = {m: _imports(tree) for m, tree in mods.items()}
    orphans = []
    for mod, tree in mods.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                loads = names[mod][node.name] + sum(
                    names[other][node.name] for other in mods if (mod, node.name) in imports[other])
                if loads == _name_loads(node)[node.name]:
                    orphans.append(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _private(item.name):
                        if attrs[item.name] == _attribute_loads(item)[item.name]:
                            orphans.append(f"{mod}.{node.name}.{item.name}")
    return sorted(orphans)


def test_every_private_helper_has_a_reader_in_the_package():
    # a helper left behind when its last caller goes, goes with it
    assert orphaned_private_helpers() == []


def _attribute_loads(node) -> Counter:
    return Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _public_members(cls):
    """(name, defining node) for each public method, property and annotated field of a class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if not node.target.id.startswith("_"):
                yield node.target.id, node


def unused_members():
    mods = _modules()
    loads = sum((_attribute_loads(tree) for tree in mods.values()), Counter())
    unused = []
    for mod, tree in mods.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _public_members(cls):
                if loads[name] == _attribute_loads(node)[name]:
                    unused.append(f"{mod}.{cls.name}.{name}")
    return sorted(unused)


def test_every_public_member_has_a_reader_in_the_package():
    # a pinned member the package starts reading, or deletes, leaves this list too
    assert unused_members() == sorted(PINNED)


# Every pipeline file goes through io.write_lines and its chunked writes;
# only the suite report writers open files of their own.
WRITERS = ("harness.Report.write", "harness.Report.write_csv", "io.write_lines")


def _writes(call) -> bool:
    """Whether a call may write a file: write_text, write_bytes, or an open not in a literal read mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode) takes the path first; path.open(mode) does not
    modes = call.args[1:] if isinstance(func, ast.Name) else call.args
    modes = [*modes, *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return not all(isinstance(m, ast.Constant) and isinstance(m.value, str) and not set(m.value) & set("wax+") for m in modes)


def file_writers():
    """The qualified name of every function in the package that may write a file."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _writes(child):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for mod, tree in _modules().items():
        visit(tree, mod)
    return sorted(found)


def test_only_the_line_writer_and_the_report_writers_open_files_for_writing():
    assert file_writers() == sorted(WRITERS)


# Writers format their own records; json.dumps is left to a header, an id
# that is not an int, a record name, the count row and the suite report.
DUMPERS = ("cli._cmd_count", "harness.Report.write", "io.json_id", "io.write_lines", "io.write_pairs")


def json_dumpers():
    """The qualified name of every function in the package that calls json.dump or json.dumps."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                        and isinstance(func.value, ast.Name) and func.value.id == "json"):
                    found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for mod, tree in _modules().items():
        visit(tree, mod)
    return sorted(found)


def test_json_dumps_runs_only_outside_the_record_writers():
    assert json_dumpers() == sorted(DUMPERS)


# The ledger in the uniprod docstring names the one function that checks
# each claim; these are the calls that run those checks.
CHECKS = ("validate", "validate_qt_embedding", "verify_labelling", "verify_saturation",
          "_check_induced", "_check_distinct", "_check_owners")
CHECK_SITES = (
    "cli._cmd_compress: verify_saturation",
    "cli._cmd_test_adjacency: verify_labelling",
    "cli._cmd_verify: validate_qt_embedding",
    "closure.embed_interval_graph: validate",
    "compressor.Saturator.read_jsonl: validate",
    "compressor.embed_compressed: validate",
    "decomp.QtInstance.__post_init__: validate",
    "decomp.TTree.__post_init__: _check_owners",
    "decomp.TTree.validate: _check_owners",
    "harness._suite_compression: verify_saturation",
    "harness._suite_labels: verify_labelling",
    "harness.bad_family_counts: verify_labelling",
    "induced.assemble_universal: _check_distinct",
    "induced.assemble_universal: _check_induced",
    "induced.label_instance: _check_distinct",
    "induced.verify_labelling: _check_induced",
    "unigraph.validate_qt_embedding: validate",
)


def check_sites():
    """Each distinct "function: check" pair of a call to a check in the package."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name in CHECKS:
                    found.add(f"{scope}: {name}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for mod, tree in _modules().items():
        visit(tree, mod)
    return sorted(found)


def test_every_check_runs_where_the_ledger_says():
    # a check added, moved or removed changes this list, and the ledger with it
    assert check_sites() == sorted(CHECK_SITES)
    ledger = {line.strip() for line in ast.get_docstring(ast.parse((SRC / "__init__.py").read_text())).splitlines()}
    assert [site for site in CHECK_SITES if site not in ledger] == []


def test_the_lazy_export_table_names_each_exports_home():
    # every public name resolves, on first use, to the object its module defines
    for name in uniprod.__all__:
        assert name in dir(uniprod), name
        if name == "__version__":
            continue
        module = importlib.import_module(f"uniprod.{uniprod._MODULE_OF[name]}")
        obj = getattr(uniprod, name)
        assert obj is getattr(module, name), name
        assert inspect.getmodule(obj) is module, name


def test_a_name_missing_from_the_export_table_is_no_attribute(monkeypatch):
    monkeypatch.delitem(uniprod._MODULE_OF, "embed_qt")
    monkeypatch.delitem(vars(uniprod), "embed_qt", raising=False)
    with pytest.raises(AttributeError, match="has no attribute 'embed_qt'"):
        uniprod.embed_qt
    with pytest.raises(AttributeError):
        uniprod.make_label  # defined in induced, never exported
