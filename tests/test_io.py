"""Every reader names the file and line of a malformed record."""

import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from graphs import edge_records, write_records

from uniprod import cli, induced
from uniprod.cli import main
from uniprod.closure import IntervalRep
from uniprod.compressor import Saturator, build_saturator
from uniprod.decomp import QtInstance, TreeDecomposition, generate_qt_instance
from uniprod.harness import gen_bad_example
from uniprod.induced import LabelledInstance, LabelParams, build_context, label_instance
from uniprod.io import CHUNK, read_records, write_lines, write_pairs
from uniprod.product import Graph


def corruptions(path, missing, undeclared):
    """(case, file text, line the reader must name) for each malformation.

    missing: a field of the record on line 2 to drop; undeclared: a record
    naming a vertex the file never declares, appended last (None for a
    format without edges).
    """
    lines = path.read_text().splitlines()
    head, first = json.loads(lines[0]), json.loads(lines[1])
    del first[missing]
    cases = [
        ("empty file", [], 1),
        ("header not an object", ["[1]"] + lines[1:], 1),
        ("wrong kind", [json.dumps({**head, "kind": "other"})] + lines[1:], 1),
        ("not JSON", lines + ["{oops"], len(lines) + 1),
        ("missing field", [lines[0], json.dumps(first)] + lines[2:], 2),
    ]
    if undeclared is not None:
        cases.append(("undeclared vertex", lines + [json.dumps(undeclared)], len(lines) + 1))
    return [(case, "".join(line + "\n" for line in text), k) for case, text, k in cases]


def write_graph(path):
    Graph(range(4), [(0, 1), (1, 2), (2, 3)], name="p4").write_jsonl(path)
    return Graph.read_jsonl, "edge", {"edge": [0, 4]}


def write_intervals(path):
    IntervalRep({0: (0, 1), (1, "b"): (Fraction(1, 2), 2)}).write_jsonl(path)
    return IntervalRep.read_jsonl, "b", None  # interval files have no edges


def write_instance(path):
    generate_qt_instance(1, 8, 2, rng_seed=3).write_jsonl(path)
    return QtInstance.read_jsonl, "c", {"ge": [0, 99]}


def write_saturator(path):
    build_saturator(6, 2, 1.0, seed=2).write_jsonl(path)
    return Saturator.read_jsonl, "e", {"e": [0, 99]}


def write_labels(path):
    inst = generate_qt_instance(1, 8, 2, rng_seed=3)
    label_instance(build_context(inst, params=LabelParams(n=8, t=1))).write_jsonl(path)
    return LabelledInstance.read_jsonl, "bits", {"ge": [0, 99]}


@pytest.mark.parametrize("write", [write_graph, write_intervals, write_instance, write_saturator, write_labels])
def test_readers_name_path_and_line(tmp_path, write):
    good = tmp_path / "good.jsonl"
    read, missing, undeclared = write(good)
    read(good)
    for case, text, k in corruptions(good, missing, undeclared):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{bad}:{k}:")):
            read(bad)


def test_verify_names_witness_path_and_line(tmp_path, capsys):
    inst, good = tmp_path / "inst.jsonl", tmp_path / "good.jsonl"
    assert main(["gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--seed", "3", "--out", str(inst)]) == 0
    assert main(["embed", "--instance", str(inst), "--out", str(good)]) == 0
    assert main(["verify", "--instance", str(inst), "--witness", str(good)]) == 0
    for case, text, k in corruptions(good, "z", {"v": 99, "i": 1, "x": "", "y": "", "z": 0}):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--instance", str(inst), "--witness", str(bad)]) == 1, case
        assert f"{bad}:{k}:" in capsys.readouterr().err, case
    # a field of the wrong type is rejected by the reader, not by a TypeError later
    lines = good.read_text().splitlines()
    rec = json.loads(lines[1])
    bad.write_text("\n".join([lines[0], json.dumps({**rec, "z": str(rec["z"])})] + lines[2:]) + "\n")
    assert main(["verify", "--instance", str(inst), "--witness", str(bad)]) == 1
    assert f"{bad}:2:" in capsys.readouterr().err


def mutate(path, line, change):
    """Rewrite the JSON object on 1-based line `line` of path through change(obj)."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line - 1])
    change(obj)
    lines[line - 1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def set_field(name, value):
    return lambda obj: obj.__setitem__(name, value)


def set_coordinate(value):
    return lambda obj: obj["c"].__setitem__(0, value)


# (file, line, change, command reading it, line the error must name)
MUTANTS = {
    "label-t-float": ("lab", 1, set_field("t", 1.5), "test-adjacency", 1),
    "label-t-bool": ("lab", 1, set_field("t", True), "test-adjacency", 1),
    "label-maxheight-float": ("lab", 1, set_field("maxheight", 1.5), "test-adjacency", 1),
    "label-t-huge": ("lab", 1, set_field("t", 10**9), "test-adjacency", 2),
    "witness-n-float": ("wit", 1, set_field("n", 1.5), "verify", 1),
    "instance-coordinate-object": ("inst", 2, set_coordinate({}), "embed", 2),
    "instance-coordinate-nested-list": ("inst", 2, set_coordinate([[1, 2]]), "embed", 2),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_reader_mutants_exit_1_naming_the_line(tmp_path, capsys, monkeypatch, mutant):
    which, line, change, command, named = MUTANTS[mutant]
    files = {name: tmp_path / f"{name}.jsonl" for name in ("inst", "wit", "lab")}
    assert main(["gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--seed", "3", "--out", str(files["inst"])]) == 0
    assert main(["embed", "--instance", str(files["inst"]), "--out", str(files["wit"])]) == 0
    assert main(["label", "--instance", str(files["inst"]), "--out", str(files["lab"])]) == 0
    mutate(files[which], line, change)
    # the parent slots of a label must never be built for a header t the bits cannot hold
    layout = induced._layout
    monkeypatch.setattr(induced, "_layout", lambda t, *rows: layout(t, *rows) if t < 64 else pytest.fail(f"t = {t}"))
    argv = {
        "test-adjacency": ["test-adjacency", "--labels", str(files["lab"])],
        "verify": ["verify", "--instance", str(files["inst"]), "--witness", str(files["wit"])],
        "embed": ["embed", "--instance", str(files["inst"]), "--out", str(tmp_path / "w2.jsonl")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert f"{files[which]}:{named}:" in capsys.readouterr().err


def test_instance_header_t_must_be_the_decomposition_width(tmp_path, capsys):
    # a width-2 instance whose header claims t = 5: every command that reads it refuses
    inst, bad, witness = tmp_path / "inst.jsonl", tmp_path / "bad.jsonl", tmp_path / "w.jsonl"
    assert main(["gen", "qt", "--t", "2", "--n", "12", "--h", "3", "--seed", "4", "--out", str(inst)]) == 0
    assert main(["embed", "--instance", str(inst), "--out", str(witness)]) == 0
    lines = inst.read_text().splitlines()
    bad.write_text("\n".join([json.dumps({**json.loads(lines[0]), "t": 5})] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:1:") + ".*width 2"):
        QtInstance.read_jsonl(bad)
    for argv in (
        ["embed", "--instance", str(bad), "--out", str(tmp_path / "w2.jsonl")],
        ["verify", "--instance", str(bad), "--witness", str(witness)],
        ["label", "--instance", str(bad), "--out", str(tmp_path / "l.jsonl")],
    ):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert f"{bad}:1:" in capsys.readouterr().err, argv[0]


@pytest.mark.parametrize("field, value", [("n", -3), ("name", 7)])
def test_graph_header_mutants_exit_1_naming_line_1(tmp_path, capsys, field, value):
    # a negative n once read as an empty graph, and a number as the name
    path = tmp_path / "g.jsonl"
    Graph(range(4), [(0, 1), (1, 2)], name="x").write_jsonl(path)
    mutate(path, 1, set_field(field, value))
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: {field} must be")):
        Graph.read_jsonl(path)
    for argv in (["--n0", "4"], []):
        capsys.readouterr()
        assert main(["compress", "--graph", str(path), "--k", "2", *argv, "--out", str(tmp_path / "c.jsonl")]) == 1
        assert f"{path}:1: {field} must be" in capsys.readouterr().err


def test_interval_reader_rejects_a_repeated_vertex(tmp_path):
    path = tmp_path / "rep.jsonl"
    path.write_text('{"kind": "intervals", "n": 1}\n{"v": 0, "a": [1, 1], "b": [2, 1]}\n{"v": 0, "a": [5, 1], "b": [6, 1]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: vertex 0 has two intervals")):
        IntervalRep.read_jsonl(path)


def test_interval_reader_rejects_zero_denominator(tmp_path):
    path = tmp_path / "rep.jsonl"
    path.write_text('{"kind": "intervals", "n": 1}\n{"v": 0, "a": [1, 0], "b": [2, 1]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
        IntervalRep.read_jsonl(path)



ODD_NAME = 'say "hi" \\ ü λ 図'


@pytest.mark.parametrize("pairs", [[], [(0, 0), (0, 1), (3, 2**31), (2**31 + 5, 2**63 + 1)]])
@pytest.mark.parametrize("name", ["edge", "e"])
def test_pair_writer_matches_write_records(tmp_path, name, pairs):
    head = {"n": 3, "name": ODD_NAME}
    # the writer takes (a, bs) groups; an empty group writes nothing
    groups = [(a, [b for _, b in group]) for a, group in itertools.groupby(pairs, key=lambda p: p[0])]
    write_pairs(tmp_path / "fast.jsonl", "graph", head, name, iter(groups + [(7, [])]))
    write_records(tmp_path / "slow.jsonl", "graph", head, ({name: [a, b]} for a, b in pairs))
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "slow.jsonl").read_bytes()


def edge_lines(count: int):
    return (f'{{"edge": [{i}, {i + 1}]}}\n' for i in range(count))


@pytest.mark.parametrize(
    "lines",
    [
        [],
        list(edge_lines(3 * CHUNK // 10)),  # several chunks and a part chunk
        ["short\n", "x" * (2 * CHUNK) + "\n", "two\nlines\n"],  # one item longer than a chunk
    ],
    ids=["empty", "several-chunks", "longer-than-a-chunk"],
)
def test_line_writer_writes_the_lines_unchanged(tmp_path, lines):
    write_lines(tmp_path / "chunked.jsonl", "graph", {"n": 3, "name": ODD_NAME}, iter(lines))
    with open(tmp_path / "plain.jsonl", "w") as fh:
        fh.write(json.dumps({"kind": "graph", "n": 3, "name": ODD_NAME}) + "\n")
        fh.writelines(lines)
    assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def test_line_writer_holds_one_chunk_at_a_time(tmp_path):
    count = 400_000  # about 9 MB of lines
    tracemalloc.start()
    try:
        write_lines(tmp_path / "big.jsonl", "graph", {"n": count + 1}, edge_lines(count))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.jsonl").stat().st_size >= 8_000_000
    assert peak < 1 << 20


def test_graph_and_saturator_files_match_write_records(tmp_path):
    g = Graph(range(12), [(0, 11), (10, 2), (3, 4), (11, 3), (5, 0)], name=ODD_NAME)
    g.add_vertex(12)  # isolated, so the file has a vertex without records
    g.write_jsonl(tmp_path / "g.jsonl")
    order = sorted(g.vertices(), key=repr)
    index = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted((index[a], index[b]))) for a, b in g.edges())
    head = {"n": g.n, "name": g.name}
    write_records(tmp_path / "g0.jsonl", "graph", head, ({"edge": list(e)} for e in edges))
    assert (tmp_path / "g.jsonl").read_bytes() == (tmp_path / "g0.jsonl").read_bytes()
    assert Graph.read_jsonl(tmp_path / "g.jsonl").name == ODD_NAME
    Graph(range(3), name=ODD_NAME).write_jsonl(tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_text(encoding="utf-8").count("\n") == 1

    s = build_saturator(10, 2, 3.0, seed=4)
    s.write_jsonl(tmp_path / "s.jsonl")
    head = {"n0": s.n0, "k": s.k, "eps": s.eps, "seed": s.seed, "d_sat": s.d_sat, "n_v": s.n_v}
    recs = ({"e": [v, u]} for v in range(s.n_v) for u in sorted(s.adj[v]))
    write_records(tmp_path / "s0.jsonl", "saturator", head, recs)
    assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "s0.jsonl").read_bytes()
    assert Saturator.read_jsonl(tmp_path / "s.jsonl").adj == s.adj


def instance_records(inst):
    """The records of an instance file, in file order, as json.dumps would take them."""
    coords = inst.coords
    for g in sorted(coords, key=repr):
        v, y = coords[g]
        yield {"gv": g, "c": [v, y]}
    yield from edge_records("ge", inst.graph.edges())
    for v in sorted(inst.host.vertices(), key=repr):
        yield {"hv": v}
    yield from edge_records("he", inst.host.edges())
    for x, bag in inst.decomposition.bags.items():
        yield {"dnode": x, "bag": sorted(bag, key=repr)}
    for a, b in inst.decomposition.edges:
        yield {"de": [a, b]}


def odd_instance(first_row=1) -> QtInstance:
    """A triangle host with str and tuple ids, one decomposition node, and a graph on six cells."""
    host_ids = [ODD_NAME, ("x", 1), (2, 'q"\\')]
    host = Graph(host_ids, [(host_ids[0], host_ids[1]), (host_ids[1], host_ids[2]), (host_ids[2], host_ids[0])])
    names = ['v"0\\', ("ü", -3), "", "\n\t", 7, ("a", 2**70)]
    coords = {g: (host_ids[k % 3], 1 + k // 3) for k, g in enumerate(names)}
    coords[names[0]] = (host_ids[0], first_row)
    graph = Graph(names, [(names[0], names[4]), (names[5], names[1]), (names[2], names[3]), (names[3], names[0])])
    return QtInstance(graph, host, coords, TreeDecomposition({"only": host_ids}, []), t=2, h=2, seed=5)


def test_instance_and_interval_files_match_write_records(tmp_path):
    bad = gen_bad_example(24, 1, 1)
    cases = {
        "t1": generate_qt_instance(1, 40, 5, rng_seed=2),
        "t2": generate_qt_instance(2, 30, 3, rng_seed=4),
        "t3-chunks": generate_qt_instance(3, 2048, 16, rng_seed=1),
        "bad": bad.instance,
        "odd": odd_instance(),
    }
    for name, inst in cases.items():
        got, want = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.want.jsonl"
        inst.write_jsonl(got)
        write_records(want, "qt-instance", {"t": inst.t, "h": inst.h, "seed": inst.seed}, instance_records(inst))
        assert got.read_bytes() == want.read_bytes(), name
        back = QtInstance.read_jsonl(got)
        for g0, g1 in ((inst.graph, back.graph), (inst.host, back.host)):
            assert set(g1.vertices()) == set(g0.vertices()), name
            assert set(map(frozenset, g1.edges())) == set(map(frozenset, g0.edges())), name
        assert back.coords == inst.coords, name
        assert back.decomposition.bags == inst.decomposition.bags, name
        assert back.decomposition.edges == inst.decomposition.edges, name
        assert (back.t, back.h, back.seed) == (inst.t, inst.h, inst.seed), name
    assert (tmp_path / "t3-chunks.jsonl").stat().st_size > 3 * CHUNK
    assert '"de"' not in (tmp_path / "odd.jsonl").read_text()

    # a bool row is no row: the witness check refuses it when an instance is
    # built, and the reader on its line
    with pytest.raises(ValueError, match=re.escape("coordinate True outside factor PathFactor(2)")):
        odd_instance(first_row=True)
    records = list(instance_records(odd_instance()))
    for rec in records:
        if rec.get("gv") == 'v"0\\':
            rec["c"][1] = True
    got = tmp_path / "bool.jsonl"
    write_records(got, "qt-instance", {"t": 2, "h": 2, "seed": 5}, records)
    assert ", true]}" in got.read_text()
    with pytest.raises(ValueError, match=re.escape(f"{got}:4: row must be an integer, not True")):
        QtInstance.read_jsonl(got)

    reps = {"bad": bad.layout[1], "odd": IntervalRep({("x", 1): (Fraction(1, 3), 2), ODD_NAME: (0, Fraction(7, 2)), 5: (2, 2)})}
    for name, rep in reps.items():
        got, want = tmp_path / f"{name}.iv.jsonl", tmp_path / f"{name}.iv.want.jsonl"
        rep.write_jsonl(got)
        recs = ({"v": v, "a": [a.numerator, a.denominator], "b": [b.numerator, b.denominator]}
                for v, (a, b) in rep.intervals.items())
        write_records(want, "intervals", {"n": rep.n}, recs)
        assert got.read_bytes() == want.read_bytes(), name
        assert IntervalRep.read_jsonl(got).intervals == rep.intervals, name


NESTED = "[" * 100_000 + "]" * 100_000


def test_a_line_nested_too_deeply_exits_1_naming_it(tmp_path, capsys):
    files = {name: tmp_path / f"{name}.jsonl" for name in ("inst", "wit", "lab", "graph")}
    assert main(["gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--seed", "3", "--out", str(files["inst"])]) == 0
    assert main(["embed", "--instance", str(files["inst"]), "--out", str(files["wit"])]) == 0
    assert main(["label", "--instance", str(files["inst"]), "--out", str(files["lab"])]) == 0
    write_graph(files["graph"])
    for name, good in files.items():
        text = good.read_text()
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text + NESTED + "\n")
        arg = {key: str(bad if key == name else path) for key, path in files.items()}
        argv = {
            "inst": ["embed", "--instance", arg["inst"], "--out", str(tmp_path / "w2.jsonl")],
            "wit": ["verify", "--instance", arg["inst"], "--witness", arg["wit"]],
            "lab": ["test-adjacency", "--labels", arg["lab"]],
            "graph": ["compress", "--graph", arg["graph"], "--k", "2", "--out", str(tmp_path / "c.jsonl")],
        }[name]
        capsys.readouterr()
        assert main(argv) == 1, name
        err = capsys.readouterr().err
        assert f"{bad}:{text.count(chr(10)) + 1}:" in err and "Traceback" not in err, name
    report = tmp_path / "rep.json"
    report.write_text(NESTED)
    assert main(["report", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"{report} is not a suite report" in err and "Traceback" not in err


def test_a_recursion_error_inside_parse_is_a_bug(tmp_path, monkeypatch, capsys):
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    assert main(["gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--seed", "3", "--out", str(inst)]) == 0
    assert main(["embed", "--instance", str(inst), "--out", str(wit)]) == 0

    def deep(v):
        raise RecursionError("a bug")

    monkeypatch.setattr(cli, "key", deep)  # verify's witness parse reads each vertex id through it
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--witness", str(wit)]) == 3
    assert "RecursionError: a bug" in capsys.readouterr().err


# Lines that one C decode does not take whole: each must read as json.loads
# reads it, or fail with the error json.loads raises, on its own line.
OFF_FAST_PATH = {
    "leading spaces": '  {"a": [1, 2]}\n',
    "whitespace only": "   \n",
    "trailing spaces": '{"a": 1}   \n',
    "trailing tab": '[1, "b"]\t\n',
    "no final newline": '{"a": 1}',
    "byte order mark": '\ufeff{"a": 1}\n',
    "NaN": '{"x": NaN, "y": -Infinity}\n',
    "bare NaN": "NaN\n",
    "two values": "[1] [2]\n",
    "two objects": '{"a": 1}{"b": 2}\n',
    "empty line": "\n",
    "bad escape": '"\\q"\n',
    "unterminated": '{"a": "b\n',
}


@pytest.mark.parametrize("case", sorted(OFF_FAST_PATH))
def test_lines_off_the_fast_path_read_as_json_loads(tmp_path, case):
    path = tmp_path / "recs.jsonl"
    text = OFF_FAST_PATH[case]
    after = "" if case == "no final newline" else '{"after": true}\n'
    path.write_text('{"kind": "t"}\n[0, "fast"]\n' + text + after, encoding="utf-8")
    with open(path) as fh:  # the reader's own encoding and newline handling
        lines = fh.readlines()[1:]
    try:
        want = [json.loads(line) for line in lines]
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_records(path, "t", lambda head, records: list(records))
        assert str(got.value) == f"{path}:3: {exc}"
    else:
        got = read_records(path, "t", lambda head, records: list(records))
        assert repr(got) == repr(want)  # repr, as NaN is not equal to itself


def test_a_header_off_the_fast_path_reads_as_json_loads(tmp_path):
    path = tmp_path / "recs.jsonl"
    path.write_text(' {"kind": "t", "n": 1}\t\n[1]\n')
    assert read_records(path, "t", lambda head, records: (head, list(records))) == ({"kind": "t", "n": 1}, [[1]])
    path.write_text('{"kind": "t"} {"n": 1}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: Extra data")):
        read_records(path, "t", lambda head, records: list(records))


@pytest.mark.parametrize("pair, error", [
    (5, "'int' object is not iterable"),
    (None, "'NoneType' object is not iterable"),
    ([0], "not enough values to unpack (expected 2, got 1)"),
    ([0, 1, 2], "too many values to unpack (expected 2)"),
    ([0, 1, {}], "vertex id {} is not a str, an int or a flat list of them"),
    ([{}, 9], "vertex id {} is not a str, an int or a flat list of them"),
    ([0, 1.0], "vertex id 1.0 is not a str, an int or a flat list of them"),
    ([True, 0], "vertex id True is not a str, an int or a flat list of them"),
    ([0, [1, [2]]], "vertex id [1, [2]] is not a str, an int or a flat list of them"),
    ([0, 9], "edge 0-9 names an undeclared vertex"),
    (["0", 1], "edge '0'-1 names an undeclared vertex"),
])
def test_an_edge_record_that_is_not_a_declared_pair_is_named(tmp_path, pair, error):
    # int ends skip the id check; every other record keeps the error it always had
    path = tmp_path / "g.jsonl"
    Graph(range(3), [(0, 1), (1, 2)]).write_jsonl(path)
    path.write_text(path.read_text() + json.dumps({"edge": pair}) + "\n")
    with pytest.raises(ValueError) as info:
        Graph.read_jsonl(path)
    assert str(info.value) == f"{path}:4: {error}"
