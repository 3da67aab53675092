"""Every reader names the file and line of a malformed record."""

import json
import re
from fractions import Fraction

import pytest

from uniprod.cli import main
from uniprod.closure import IntervalRep
from uniprod.compressor import Saturator, build_saturator
from uniprod.decomp import QtInstance, generate_qt_instance
from uniprod.induced import LabelledInstance, LabelParams, build_context, fixup, label_instance
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
    label_instance(fixup(build_context(inst, params=LabelParams(n=8, t=1)))).write_jsonl(path)
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


def test_interval_reader_rejects_zero_denominator(tmp_path):
    path = tmp_path / "rep.jsonl"
    path.write_text('{"kind": "intervals", "n": 1}\n{"v": 0, "a": [1, 0], "b": [2, 1]}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
        IntervalRep.read_jsonl(path)

