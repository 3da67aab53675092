import collections
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from graphs import assert_is_edge_graph, read_host, strip_instance, write_records

import uniprod
from uniprod import cli, induced, unigraph
from uniprod.cli import main
from uniprod.compressor import Saturator
from uniprod.decomp import QtInstance, TreeDecomposition, generate_qt_instance
from uniprod.induced import build_context, label_instance
from uniprod.product import Graph, ProductWitness
from uniprod.treeseq import LcpCodec
from uniprod.unigraph import UgParams, embed_qt


def run(*argv, check=0):
    code = main(list(argv))
    assert code == check, argv


def test_gen_embed_verify_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))
    inst = tmp_path / "inst.jsonl"
    wit = tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "12", "--h", "2", "--seed", "3", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    run("verify", "--instance", str(inst), "--witness", str(wit))
    head = json.loads(wit.read_text().splitlines()[0])
    assert head["kind"] == "qt-witness"

    # corrupting one coordinate must flip the exit code
    lines = wit.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["z"] = head["n"].bit_length() + 99
    lines[1] = json.dumps(rec)
    wit.write_text("\n".join(lines) + "\n")
    run("verify", "--instance", str(inst), "--witness", str(wit), check=1)


def test_verify_names_a_vertex_the_witness_leaves_out(tmp_path, capsys):
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--seed", "3", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    lines = wit.read_text().splitlines(keepends=True)
    assert json.loads(lines[2])["v"] == 1
    wit.write_text("".join(lines[:2] + lines[3:]))
    capsys.readouterr()
    run("verify", "--instance", str(inst), "--witness", str(wit), check=1)
    assert capsys.readouterr().err == "error: vertex 1 has no coordinates\n"


def test_verify_names_the_host_it_checked(tmp_path, capsys):
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "2", "--n", "40", "--h", "4", "--seed", "2", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    lines = wit.read_text().splitlines()
    head = json.loads(lines[0])
    m = QtInstance.read_jsonl(inst).graph.m
    capsys.readouterr()
    run("verify", "--instance", str(inst), "--witness", str(wit))
    assert capsys.readouterr().out == (
        f"witness ok: 40 vertices, {m} edges verified in ug(n=40, lam={head['lam']}) x K_{head['omega']}\n"
    )
    # a witness still holds with lambda raised, so the line must say which host it holds in
    wit.write_text("\n".join([json.dumps({**head, "lam": 10**12})] + lines[1:]) + "\n")
    run("verify", "--instance", str(inst), "--witness", str(wit))
    assert capsys.readouterr().out.endswith(f" verified in ug(n=40, lam=1000000000000) x K_{head['omega']}\n")


def test_embed_writes_the_bytes_of_write_records(tmp_path):
    inst = generate_qt_instance(2, 30, 3, rng_seed=4)
    odd = [7, -3, 2**70, "a", 'say "hi" \\ ü λ 図', ("x", 1), (2, 'q"\\'), "", "ü", "\n\t"]
    names = odd + [f'v"{k}\\' for k in range(inst.graph.n - len(odd))]
    rename = dict(zip(sorted(inst.graph.vertices(), key=repr), names))
    graph = Graph(map(rename.__getitem__, inst.graph.vertices()), [(rename[a], rename[b]) for a, b in inst.graph.edges()])
    coords = {rename[g]: c for g, c in inst.coords.items()}
    path, got, want = tmp_path / "inst.jsonl", tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    dataclasses.replace(inst, graph=graph, coords=coords).write_jsonl(path)
    run("embed", "--instance", str(path), "--out", str(got))
    p = UgParams(inst.graph.n)
    emb = embed_qt(p, QtInstance.read_jsonl(path))
    assert set(emb.mapping) == set(names)
    records = (
        {"v": v, "i": col, "x": x, "y": y, "z": z}
        for v, ((x, y, z), col) in sorted(emb.mapping.items(), key=lambda item: repr(item[0]))
    )
    write_records(want, "qt-witness", {"n": p.n, "lam": p.lam, "omega": emb.omega}, records)
    assert got.read_bytes() == want.read_bytes()
    run("verify", "--instance", str(path), "--witness", str(got))


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run("gen", "qt", "--t", "2", "--n", "16", "--h", "3", "--seed", "9", "--out", str(a))
    run("gen", "qt", "--t", "2", "--n", "16", "--h", "3", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_build_ug_and_count(tmp_path, capsys):
    out = tmp_path / "ug.jsonl"
    run("build-ug", "--n", "2", "--lambda", "1", "--mode", "explicit", "--out", str(out))
    capsys.readouterr()
    run("count", "--n", "2", "--lambda", "1")
    row = json.loads(capsys.readouterr().out)
    assert row["vertices"] <= row["vertex_bound"]
    assert row["edges"] <= row["edge_bound"]
    head = json.loads(out.read_text().splitlines()[0])
    assert head["n"] == row["vertices"]


def test_build_ug_implicit_prints_parameters_and_bounds(capsys):
    run("build-ug", "--n", "8")
    assert capsys.readouterr().out.splitlines() == [
        "n=8 d=3 lam=9 budget=14",
        "vertex bound 7372800, edge bound 764411904000000; adjacency via is_edge",
    ]


def test_embed_refuses_a_lambda_below_the_transition_code(tmp_path, capsys):
    # the smallest lambda this instance embeds at is 4
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "2", "--n", "64", "--h", "4", "--seed", "0", "--out", str(inst))
    for lam in (0, 3):
        capsys.readouterr()
        run("embed", "--instance", str(inst), "--lambda", str(lam), "--out", str(wit), check=1)
        err = capsys.readouterr().err
        assert err == f"error: lambda too small: transition code needs 4 bits, lam = {lam}\n"
    run("embed", "--instance", str(inst), "--lambda", "4", "--out", str(wit))
    run("verify", "--instance", str(inst), "--witness", str(wit))


def test_embed_refuses_a_host_closure_taller_than_the_params(tmp_path, capsys):
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "2", "--n", "14", "--h", "3", "--seed", "5", "--out", str(inst))
    capsys.readouterr()
    run("embed", "--instance", str(inst), "--n", "1", "--out", str(tmp_path / "wit.jsonl"), check=1)
    assert capsys.readouterr().err == "error: host closure needs d = 3 but params give 0\n"


@pytest.mark.parametrize("omega", [0, -1])
def test_verify_names_the_witness_file_when_omega_is_below_1(tmp_path, capsys, omega):
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "12", "--h", "2", "--seed", "3", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    lines = wit.read_text().splitlines()
    wit.write_text("\n".join([json.dumps({**json.loads(lines[0]), "omega": omega})] + lines[1:]) + "\n")
    capsys.readouterr()
    run("verify", "--instance", str(inst), "--witness", str(wit), check=1)
    assert capsys.readouterr().err == f"error: {wit}:1: omega >= 1 required\n"


def test_verify_refuses_signatures_that_are_not_strings(tmp_path, capsys):
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "12", "--h", "2", "--seed", "3", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    lines = wit.read_text().splitlines()
    rec = json.loads(lines[1])
    for field in ("x", "y"):
        wit.write_text("\n".join([lines[0], json.dumps({**rec, field: 1})] + lines[2:]) + "\n")
        capsys.readouterr()
        run("verify", "--instance", str(inst), "--witness", str(wit), check=1)
        assert capsys.readouterr().err == f"error: {wit}:2: vertex {rec['v']!r}: x and y must be strings\n"


# (n, lam): (|V|, |E|) of the materialized host, on the bounds grid.
HOST_SIZES = {
    (1, 0): (17, 14), (1, 1): (49, 62), (1, 2): (129, 222), (1, 3): (321, 2_134),
    (2, 0): (98, 297), (2, 1): (258, 1_017), (2, 2): (642, 3_129), (2, 3): (1_538, 32_769),
    (4, 0): (387, 2_385), (4, 1): (963, 7_281), (4, 2): (2_307, 20_721), (4, 3): (5_379, 241_773),
    (8, 0): (1_284, 13_158), (8, 1): (3_076, 37_350), (8, 2): (7_172, 100_838), (8, 3): (16_388, 262_118),
    (16, 0): (3_845, 58_840), (16, 1): (8_965, 158_680), (16, 2): (20_485, 412_120),
    (16, 3): (46_085, 1_039_320),
}


def test_count_gives_the_exact_host_sizes(capsys):
    for (n, lam), want in HOST_SIZES.items():
        capsys.readouterr()
        run("count", "--n", str(n), "--lambda", str(lam))
        row = json.loads(capsys.readouterr().out)
        assert (row["vertices"], row["edges"]) == want, (n, lam)


def test_build_ug_prints_the_exact_host_sizes(tmp_path, capsys):
    for (n, lam), want in HOST_SIZES.items():
        if lam > 2:
            continue
        capsys.readouterr()
        run("build-ug", "--n", str(n), "--lambda", str(lam), "--mode", "explicit", "--out", str(tmp_path / "ug.jsonl"))
        line = capsys.readouterr().out
        got = re.match(r"ug\(n=\d+, lam=\d+\): (\d+) vertices \(bound \d+\), (\d+) edges \(bound \d+\) -> ", line)
        assert got and tuple(map(int, got.groups())) == want, (n, lam, line)


@pytest.mark.parametrize("n, lam", [(2, 1), (4, 0), (2, 2), (1, 3), (4, 1)])
def test_build_ug_file_is_the_is_edge_graph(tmp_path, n, lam):
    out = tmp_path / "ug.jsonl"
    run("build-ug", "--n", str(n), "--lambda", str(lam), "--mode", "explicit", "--out", str(out))
    p = unigraph.UgParams(n, lam=lam)
    assert_is_edge_graph(p, read_host(out, p))


def test_sizes_suite_reports_the_exact_host_sizes(tmp_path):
    for n, lam in [(1, 3), (4, 1), (8, 2), (16, 0)]:
        rep = tmp_path / f"sizes_{n}_{lam}.json"
        run("run-suite", "sizes", "--n", str(n), "--lambda", str(lam), "--out", str(rep))
        [row] = json.loads(rep.read_text())["rows"]
        assert (row["vertices"], row["edges"]) == HOST_SIZES[n, lam], (n, lam)


def test_count_and_sizes_give_exact_sizes_past_the_row_graph_cap(tmp_path, capsys):
    run("count", "--n", "1024")
    row = json.loads(capsys.readouterr().out)
    assert row["vertex_bound"] > unigraph.HOST_CAP
    assert 0 < row["vertices"] <= row["vertex_bound"] and 0 < row["edges"] <= row["edge_bound"]
    rep = tmp_path / "sizes.json"
    run("run-suite", "sizes", "--n", "1024", "--out", str(rep))
    report = json.loads(rep.read_text())
    assert report["ok"] and {c["check"] for c in report["checks"]} >= {"counted within bounds", "degree domination"}
    [srow] = report["rows"]
    assert (srow["vertices"], srow["edges"]) == (row["vertices"], row["edges"])


def test_count_prints_bounds_only_past_the_class_table_cap(tmp_path, capsys):
    run("count", "--n", "2", "--lambda", "1000")
    row = json.loads(capsys.readouterr().out)
    assert set(row) == {"n", "d", "lam", "vertex_bound", "edge_bound"}
    rep = tmp_path / "sizes.json"
    run("run-suite", "sizes", "--n", "2", "--lambda", "1000", "--out", str(rep))
    report = json.loads(rep.read_text())
    assert report["ok"] and "count skipped" in {c["check"] for c in report["checks"]}
    assert "vertices" not in report["rows"][0]


def test_label_test_adjacency_assemble(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))
    inst1 = tmp_path / "i1.jsonl"
    inst2 = tmp_path / "i2.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--seed", "1", "--out", str(inst1))
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "3", "--seed", "2", "--out", str(inst2))
    l1, l2 = tmp_path / "l1.jsonl", tmp_path / "l2.jsonl"
    run("label", "--instance", str(inst1), "--scheme", "fixed", "--out", str(l1))
    run("label", "--instance", str(inst2), "--scheme", "fixed", "--out", str(l2))
    run("test-adjacency", "--labels", str(l1))
    uni = tmp_path / "uni.jsonl"
    run("assemble", "--labels", str(l1), str(l2), "--out", str(uni))
    head = json.loads(uni.read_text().splitlines()[0])
    assert head["kind"] == "graph"


def label_audit_assemble(tmp_path, inst):
    """Label inst in both schemes, audit every pair and assemble, each exiting 0."""
    for scheme in ("fixed", "legacy"):
        labels, uni = tmp_path / f"{scheme}.jsonl", tmp_path / f"uni-{scheme}.jsonl"
        run("label", "--instance", str(inst), "--scheme", scheme, "--out", str(labels))
        run("test-adjacency", "--labels", str(labels))
        run("assemble", "--labels", str(labels), "--out", str(uni))


def test_label_accepts_an_instance_with_an_empty_row(tmp_path):
    # embed numbers the rows in use 1..h'; label numbers them the same way
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "12", "--h", "3", "--seed", "4", "--out", str(inst))
    recs = [json.loads(line) for line in inst.read_text().splitlines()]
    row2 = {rec["gv"] for rec in recs if "gv" in rec and rec["c"][1] == 2}
    assert len(row2) == 4
    kept = [rec for rec in recs if rec.get("gv") not in row2 and not row2 & set(rec.get("ge", ()))]
    inst.write_text("".join(json.dumps(rec) + "\n" for rec in kept))
    run("embed", "--instance", str(inst), "--out", str(wit))
    run("verify", "--instance", str(inst), "--witness", str(wit))
    label_audit_assemble(tmp_path, inst)


def test_strip_transition_codes_carry_a_suffix_end_to_end(tmp_path):
    # shifted rows make a vertex's next-row signature leave its own, so
    # mu runs past the bare length field in both schemes
    inst = strip_instance(8, 6, 2)
    ctx = build_context(inst)
    width = ctx.params.codec.width
    for scheme in ("fixed", "legacy"):
        labels = label_instance(ctx, scheme).labels.values()
        assert any(label.mu is not None and len(label.mu) > width for label in labels), scheme
    path, wit = tmp_path / "strip.jsonl", tmp_path / "wit.jsonl"
    inst.write_jsonl(path)
    label_audit_assemble(tmp_path, path)
    run("embed", "--instance", str(path), "--out", str(wit))
    run("verify", "--instance", str(path), "--witness", str(wit))


def test_adjacency_pair_query(tmp_path, capsys):
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "1", "--n", "8", "--h", "1", "--seed", "4", "--out", str(inst))
    labels = tmp_path / "labels.jsonl"
    run("label", "--instance", str(inst), "--out", str(labels))
    recs = [json.loads(l) for l in labels.read_text().splitlines()[1:] if "v" in json.loads(l)]
    ids = []
    for rec in recs[:2]:
        v = rec["v"]
        ids.append(repr(tuple(v) if isinstance(v, list) else v))
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), "--u", ids[0], "--v", ids[1])
    out = capsys.readouterr().out.strip()
    assert out in ("adjacent", "not adjacent")
    run("test-adjacency", "--labels", str(labels), "--u", ids[0], check=1)
    assert "--u needs --v" in capsys.readouterr().err
    run("test-adjacency", "--labels", str(labels), "--v", ids[1], check=1)
    captured = capsys.readouterr()
    assert "--v needs --u" in captured.err and captured.out == ""
    run("test-adjacency", "--labels", str(labels), "--u", "'nope'", "--v", ids[1], check=1)


def test_compress_command(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))
    g = tmp_path / "g.jsonl"
    with open(g, "w") as fh:
        fh.write(json.dumps({"kind": "graph", "n": 12, "name": "demo"}) + "\n")
        for i in range(11):
            fh.write(json.dumps({"edge": [i, i + 1]}) + "\n")
    out = tmp_path / "c.jsonl"
    run("compress", "--graph", str(g), "--k", "2", "--eps", "1.0", "--seed", "5", "--out", str(out))
    head = json.loads(out.read_text().splitlines()[0])
    assert head["n"] == 6


def test_compress_regenerates_a_saturator_that_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))
    g = tmp_path / "g.jsonl"
    Graph(range(8), [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)], name="demo").write_jsonl(g)
    out = tmp_path / "c.jsonl"
    run("compress", "--graph", str(g), "--k", "2", "--eps", "16", "--seed", "2", "--out", str(out))
    captured = capsys.readouterr()
    assert captured.err == "seed 2: saturation failed (exhaustive), witness [1, 4, 6, 7]\n"
    assert "saturator verified after 1 regeneration(s)" in captured.out.splitlines()
    assert out.exists()
    # every seed of 0, 1 and 2 fails, and no file is written
    out.unlink()
    run("compress", "--graph", str(g), "--k", "2", "--eps", "24", "--retries", "2", "--out", str(out), check=1)
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["seed 0", "seed 1", "seed 2"]
    assert captured.out == "" and not out.exists()


def test_run_suite_and_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))
    rep = tmp_path / "rep.json"
    csv = tmp_path / "rows.csv"
    run("run-suite", "sizes", "--n", "4", "--lambda", "2", "--out", str(rep), "--csv", str(csv))
    assert json.loads(rep.read_text())["ok"] is True
    assert csv.read_text().strip()
    capsys.readouterr()
    run("report", str(rep))
    assert "PASS" in capsys.readouterr().out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run-suite", "no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "qt", "--n", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["label", "--instance", "inst.jsonl", "--scheme", "bogus"])
    assert exc.value.code == 2


def test_main_can_be_called_again_and_again(tmp_path, capsys):
    # one parser serves every call; no option of one call leaks into the next
    assert cli.build_parser() is cli.build_parser()
    inst, wit, labels = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl", tmp_path / "labels.jsonl"
    run("gen", "qt", "--t", "1", "--n", "12", "--h", "2", "--seed", "3", "--out", str(inst))
    default = unigraph.UgParams(12).lam
    run("embed", "--instance", str(inst), "--lambda", str(default + 1), "--out", str(wit))
    assert json.loads(wit.read_text().splitlines()[0])["lam"] == default + 1
    run("embed", "--instance", str(inst), "--out", str(wit))
    assert json.loads(wit.read_text().splitlines()[0])["lam"] == default
    run("label", "--instance", str(inst), "--out", str(labels))
    ids = [repr(json.loads(line)["v"]) for line in labels.read_text().splitlines()[1:3]]
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), "--u", ids[0], "--v", ids[1])
    assert capsys.readouterr().out.strip() in ("adjacent", "not adjacent")
    run("test-adjacency", "--labels", str(labels))
    assert capsys.readouterr().out.strip() == "tester agrees with the graph on all 66 vertex pairs"
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--lambda", "1"])
    assert exc.value.code == 2
    run("verify", "--instance", str(inst), "--witness", str(wit))


def test_missing_file_exits_1(tmp_path):
    run("label", "--instance", str(tmp_path / "absent.jsonl"), check=1)


def test_malformed_header_exits_1_naming_the_line(tmp_path, capsys):
    inst = tmp_path / "inst.jsonl"
    inst.write_text("[1]\n")
    run("label", "--instance", str(inst), check=1)
    assert f"{inst}:1:" in capsys.readouterr().err


def test_bag_member_outside_the_host_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--out", str(inst))
    lines = inst.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if "dnode" in json.loads(line))
    rec = json.loads(lines[k])
    lines[k] = json.dumps({**rec, "bag": rec["bag"] + [999]})
    inst.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    run("embed", "--instance", str(inst), "--out", str(tmp_path / "wit.jsonl"), check=1)
    assert "999" in capsys.readouterr().err


def insert_line(path, k, rec):
    """Insert rec as JSON before line k + 1 of path (0-based index k)."""
    lines = path.read_text().splitlines()
    lines.insert(k, json.dumps(rec))
    path.write_text("\n".join(lines) + "\n")


def test_a_repeated_witness_vertex_exits_1(tmp_path, capsys):
    # the later record used to win, so a first copy with a bad z went unread
    inst, wit = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--seed", "1", "--out", str(inst))
    run("embed", "--instance", str(inst), "--out", str(wit))
    rec = json.loads(wit.read_text().splitlines()[1])
    insert_line(wit, 1, {**rec, "z": rec["z"] + 7})
    capsys.readouterr()
    run("verify", "--instance", str(inst), "--witness", str(wit), check=1)
    assert f"{wit}:3: vertex {rec['v']!r} is mapped twice" in capsys.readouterr().err


def test_a_repeated_instance_vertex_exits_1(tmp_path, capsys):
    # host vertex 99 does not exist, and the real record for vertex 0 used to hide it
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--seed", "1", "--out", str(inst))
    assert json.loads(inst.read_text().splitlines()[1])["gv"] == 0
    insert_line(inst, 1, {"gv": 0, "c": [99, 1]})
    for argv in (["embed", "--out", str(tmp_path / "wit.jsonl")], ["label", "--out", str(tmp_path / "labels.jsonl")]):
        capsys.readouterr()
        run(argv[0], "--instance", str(inst), *argv[1:], check=1)
        assert f"{inst}:3: vertex 0 is placed twice" in capsys.readouterr().err


def test_a_repeated_decomposition_node_exits_1(tmp_path, capsys):
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "2", "--n", "12", "--h", "2", "--seed", "1", "--out", str(inst))
    lines = inst.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if "dnode" in json.loads(line))
    rec = json.loads(lines[k])
    insert_line(inst, k, {**rec, "bag": rec["bag"][:1]})
    capsys.readouterr()
    run("embed", "--instance", str(inst), "--out", str(tmp_path / "wit.jsonl"), check=1)
    assert f"{inst}:{k + 2}: decomposition node {rec['dnode']!r} is given twice" in capsys.readouterr().err


def refused_by_every_instance_reader(tmp_path, capsys, inst, line):
    """embed, verify and label each exit 1 on inst, their one stderr line being line."""
    wit = tmp_path / "wit.jsonl"
    wit.write_text(json.dumps({"kind": "qt-witness", "n": 1, "lam": 1, "omega": 1}) + "\n")
    for argv in (["embed", "--out", str(tmp_path / "out.jsonl")], ["verify", "--witness", str(wit)],
                 ["label", "--out", str(tmp_path / "labels.jsonl")]):
        capsys.readouterr()
        run(argv[0], "--instance", str(inst), *argv[1:], check=1)
        assert capsys.readouterr().err == line, argv[0]


def test_an_instance_edge_between_rows_two_apart_names_the_file(tmp_path, capsys):
    # vertex 0 sits in row 1 and vertex 11 in row 3
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "2", "--n", "30", "--h", "3", "--seed", "4", "--out", str(inst))
    with inst.open("a") as fh:
        fh.write(json.dumps({"ge": [0, 11]}) + "\n")
    line = f"error: {inst}:1: edge 0-11: 1,3 not equal or adjacent in PathFactor(3)\n"
    refused_by_every_instance_reader(tmp_path, capsys, inst, line)


def test_a_bag_that_misses_a_host_edge_names_the_file(tmp_path, capsys):
    # in a 1-tree's family decomposition, the bag of a leaf v is {v, its parent};
    # dropping the parent leaves the edge between them in no bag
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--seed", "1", "--out", str(inst))
    host = QtInstance.read_jsonl(inst).host
    recs = [json.loads(line) for line in inst.read_text().splitlines()]
    parents = {rec["de"][1] for rec in recs if "de" in rec}
    k = next(k for k, rec in enumerate(recs) if "dnode" in rec and rec["dnode"] not in parents)
    v = recs[k]["dnode"]
    (parent,) = set(recs[k]["bag"]) - {v}
    recs[k] = {**recs[k], "bag": [v]}
    inst.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    a, b = next(e for e in host.edges() if set(e) == {v, parent})
    refused_by_every_instance_reader(tmp_path, capsys, inst, f"error: {inst}:1: edge {a}-{b} in no bag\n")


def test_a_width_0_instance_is_refused_naming_the_file(tmp_path, capsys):
    # an edgeless host with one-vertex bags has width 0, as its header says
    inst = tmp_path / "inst.jsonl"
    recs = [{"kind": "qt-instance", "t": 0, "h": 1, "seed": 0}, {"gv": 0, "c": [0, 1]}, {"gv": 1, "c": [1, 1]},
            {"hv": 0}, {"hv": 1}, {"dnode": 0, "bag": [0]}, {"dnode": 1, "bag": [1]}, {"de": [0, 1]}]
    inst.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    refused_by_every_instance_reader(tmp_path, capsys, inst, f"error: {inst}:1: t >= 1 required\n")


def count_checks(monkeypatch):
    """Count ProductWitness.validate, TreeDecomposition.validate and Saturator.validate calls, in a list."""
    calls = [0, 0, 0]
    for i, cls in enumerate((ProductWitness, TreeDecomposition, Saturator)):
        def counted(self, *args, _validate=cls.validate, _i=i):
            calls[_i] += 1
            return _validate(self, *args)

        monkeypatch.setattr(cls, "validate", counted)
    return calls


def test_each_claim_is_checked_once_per_command(tmp_path, monkeypatch):
    # the ledger in the uniprod docstring: the reader checks the instance,
    # embed_interval_graph the row witness, embed's is_edge pass its output
    # and validate_qt_embedding a witness file; nothing checks again what
    # these imply, and a saturator is checked only when it is read
    inst, wit, labels = tmp_path / "inst.jsonl", tmp_path / "wit.jsonl", tmp_path / "labels.jsonl"
    host = tmp_path / "ug4.jsonl"
    run("gen", "qt", "--t", "2", "--n", "64", "--h", "4", "--seed", "3", "--out", str(inst))
    run("build-ug", "--n", "4", "--lambda", "1", "--mode", "explicit", "--out", str(host))
    calls = count_checks(monkeypatch)
    counts = {}
    for argv in (["embed", "--instance", str(inst), "--out", str(wit)],
                 ["verify", "--instance", str(inst), "--witness", str(wit)],
                 ["label", "--instance", str(inst), "--out", str(labels)],
                 ["test-adjacency", "--labels", str(labels)],
                 ["assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl")],
                 ["compress", "--graph", str(host), "--k", "2", "--out", str(tmp_path / "c.jsonl")]):
        calls[:] = [0, 0, 0]
        run(*argv)
        counts[argv[0]] = tuple(calls)
    assert counts == {"embed": (2, 1, 0), "verify": (2, 1, 0), "label": (1, 1, 0), "test-adjacency": (0, 0, 0),
                      "assemble": (0, 0, 0), "compress": (0, 0, 0)}
    Saturator.read_jsonl(tmp_path / "c.saturator.jsonl")
    assert calls == [0, 0, 1]


def test_an_instance_with_no_vertices_is_refused_naming_its_file(tmp_path, capsys):
    # t = 1, host vertices 0 and 1, one host edge, one bag, no gv records
    inst = tmp_path / "empty.jsonl"
    write_records(inst, "qt-instance", {"t": 1, "h": 1, "seed": 0},
                  [{"hv": 0}, {"hv": 1}, {"he": [0, 1]}, {"dnode": 0, "bag": [0, 1]}])
    for argv in (["embed", "--instance", str(inst)], ["embed", "--instance", str(inst), "--n", "4"],
                 ["verify", "--instance", str(inst), "--witness", str(tmp_path / "none.jsonl")],
                 ["label", "--instance", str(inst)], ["label", "--instance", str(inst), "--n", "4"]):
        capsys.readouterr()
        run(*argv, check=1)
        assert capsys.readouterr().err == f"error: {inst}:1: instance has no vertices\n", argv


def test_label_header_scheme_must_match_the_labels(tmp_path, capsys):
    inst, labels = tmp_path / "inst.jsonl", tmp_path / "labels.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--out", str(inst))
    run("label", "--instance", str(inst), "--scheme", "fixed", "--out", str(labels))
    lines = labels.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "scheme": "legacy"})
    labels.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), check=1)
    assert f"{labels}:2:" in capsys.readouterr().err
    run("assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl"), check=1)
    assert f"{labels}:2:" in capsys.readouterr().err


# a label header whose scheme is missing or unknown, and the line-1 error that refuses it
BAD_SCHEMES = {
    "missing": (lambda head: {k: v for k, v in head.items() if k != "scheme"}, "missing field 'scheme'"),
    "unknown": (lambda head: {**head, "scheme": "weird"}, "unknown label scheme 'weird'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEMES))
def test_label_header_scheme_must_be_a_known_one(tmp_path, capsys, case):
    change, error = BAD_SCHEMES[case]
    inst, labels = tmp_path / "inst.jsonl", tmp_path / "labels.jsonl"
    run("gen", "qt", "--t", "1", "--n", "10", "--h", "2", "--out", str(inst))
    run("label", "--instance", str(inst), "--scheme", "fixed", "--out", str(labels))
    lines = labels.read_text().splitlines()
    lines[0] = json.dumps(change(json.loads(lines[0])))
    labels.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), check=1)
    assert capsys.readouterr().err == f"error: {labels}:1: {error}\n"
    run("assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl"), check=1)
    assert capsys.readouterr().err == f"error: {labels}:1: {error}\n"


def test_no_tester_view_outlives_its_command(tmp_path, monkeypatch):
    # each label command and each label-file read builds its own LabelParams,
    # whose memos start empty, so a second label -> test-adjacency ->
    # assemble pass in one process derives, formats and decodes as much as
    # the first, and fills its memos alike
    inst, labels = tmp_path / "inst.jsonl", tmp_path / "labels.jsonl"
    run("gen", "qt", "--t", "2", "--n", "256", "--h", "16", "--seed", "1", "--out", str(inst))
    made, misses = [], collections.Counter()
    init = induced.LabelParams.__post_init__
    monkeypatch.setattr(induced.LabelParams, "__post_init__", lambda self: made.append(self) or init(self))
    for name in ("_tester_view", "_head_bits", "_sig_bits", "_slot_bits", "_read_head", "_read_depths", "_read_psi",
                 "_read_tail"):
        monkeypatch.setattr(induced, name, lambda *a, _real=getattr(induced, name), _name=name:
                            misses.update([_name]) or _real(*a))
    encode = LcpCodec.encode
    monkeypatch.setattr(LcpCodec, "encode", lambda *a: misses.update(["encode"]) or encode(*a))
    commands = (("label", "--instance", str(inst), "--out", str(labels)),
                ("test-adjacency", "--labels", str(labels)),
                ("assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl")))
    passes = []
    for _ in range(2):
        seen = {}
        for argv in commands:
            made.clear()
            misses.clear()
            run(*argv)
            (params,) = made
            seen[argv[0]] = dict(misses), {name: len(getattr(params, name)) for name in induced._MEMOS}
        passes.append(seen)
    assert passes[0] == passes[1]
    for command, (missed, sizes) in passes[0].items():
        written = command == "label"
        read = ("views", "slot_maps", "heads", "depth_blocks", "psi_blocks", "abit_blocks", "tails")
        assert all(sizes[name] > 0 for name in read)
        assert (sizes["segments"] > 0, sizes["codes"] > 0, "encode" in missed, "_head_bits" in missed) == (written,) * 4
        assert missed["_tester_view"] > 0 and missed["_read_head"] > 0


def test_a_bag_colour_past_its_cap_exits_1(tmp_path, capsys):
    # every psi of the longest label of t=2 n=64 h=2 seed 1 raised by 1000:
    # its bag colours pass the cap (t + 1) n = 192, so the reader refuses it
    inst, labels = tmp_path / "inst.jsonl", tmp_path / "labels.jsonl"
    run("gen", "qt", "--t", "2", "--n", "64", "--h", "2", "--seed", "1", "--out", str(inst))
    run("label", "--instance", str(inst), "--out", str(labels))
    li = induced.LabelledInstance.read_jsonl(labels)
    label = max(li.labels.values(), key=lambda lab: len(lab.bits))
    bits = induced.pack_label(dataclasses.replace(label, psi=tuple(p + 1000 for p in label.psi)), li.params)
    assert len(bits) == 172
    recs = [json.loads(line) for line in labels.read_text().splitlines()]
    k = next(k for k, rec in enumerate(recs) if rec.get("bits") == label.bits)
    recs[k] = {**recs[k], "bits": bits}
    labels.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), check=1)
    assert f"{labels}:{k + 1}: undecodable label: bag colour 1007 exceeds (t + 1) n = 192" in capsys.readouterr().err
    run("assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl"), check=1)
    assert f"{labels}:{k + 1}:" in capsys.readouterr().err


def test_a_label_shared_by_two_vertices_exits_1(tmp_path, capsys):
    # leaves a1 and a10 of the double star are twins, so the tester cannot
    # tell a shared label apart; the reader must refuse it
    inst, labels = tmp_path / "bad.jsonl", tmp_path / "labels.jsonl"
    run("gen", "bad", "--n", "48", "--i", "2", "--j", "2", "--out", str(inst))
    run("label", "--instance", str(inst), "--out", str(labels))
    recs = [json.loads(line) for line in labels.read_text().splitlines()]
    bits = next(rec["bits"] for rec in recs if rec.get("v") == "a1")
    k = next(k for k, rec in enumerate(recs) if rec.get("v") == "a10")
    recs[k] = {**recs[k], "bits": bits}
    labels.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    run("test-adjacency", "--labels", str(labels), check=1)
    err = capsys.readouterr().err
    assert f"{labels}:{k + 1}:" in err and "'a1'" in err and "'a10'" in err
    run("assemble", "--labels", str(labels), "--out", str(tmp_path / "uni.jsonl"), check=1)
    assert f"{labels}:{k + 1}:" in capsys.readouterr().err


# run-suite parameter sets that no suite can run, each with a fragment of
# the error line that refuses it: a size below the smallest instance, a t
# above the largest, an empty or non-increasing family size list, a
# non-positive count
DEGENERATE = {
    "universality --n 1": "n = 1 is below t + 2 = 4",
    "universality --n 3": "n = 3 is below t + 2 = 4",
    "universality --n 4 --t 3": "n = 4 is below t + 2 = 5",
    "universality --t 0": "need t >= 1",
    "universality --t 31": "t + 2 = 33 is above 32",
    "universality --count 0": "count must be positive",
    "sizes --n 0": "n >= 1 required",
    "sizes --lambda -1": "lam >= 0 required",
    "labels --count 0": "count must be positive",
    "labels --t 0": "t >= 1",
    "growth --ns 48 48": "two family sizes in increasing order",
    "growth --ns 48": "two family sizes in increasing order",
    "growth --ns 96 48 96": "two family sizes in increasing order",
    "growth --ns 13 48": "multiple of 12",
    "growth --ns 0 48": "n >= 1",
    "compression --count 0": "count must be positive",
    "compression --n0 0": "n0 >= 1",
    "compression --eps 0": "eps > 0",
}


@pytest.mark.parametrize("argv", sorted(DEGENERATE))
def test_degenerate_suite_parameters_exit_1(tmp_path, capsys, argv):
    # a bad input is refused with an error line; it never looks like a bug
    run("run-suite", *argv.split(), "--out", str(tmp_path / "rep.json"), check=1)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and DEGENERATE[argv] in err, err


def test_malformed_report_exits_1(tmp_path):
    rep = tmp_path / "rep.json"
    for text in ("{}", "[1]", '{"suite": "sizes", "checks": [1]}'):
        rep.write_text(text)
        run("report", str(rep), check=1)


def test_internal_error_exits_3_with_traceback(monkeypatch, capsys):
    def broken(p):
        raise TypeError("a bug")

    monkeypatch.setattr(unigraph, "vertex_count_bound", broken)
    run("count", "--n", "4", check=3)
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: a bug" in err


def test_a_bug_inside_a_suite_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    # a suite records a failed check, never a bug: a TypeError inside embed_qt propagates
    def broken(p, w):
        raise TypeError("a bug")

    monkeypatch.setattr(unigraph, "embed", broken)
    run("run-suite", "universality", "--count", "1", "--out", str(tmp_path / "rep.json"), check=3)
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: a bug" in err
    assert not (tmp_path / "rep.json").exists()


def test_a_cannot_happen_runtime_error_exits_3(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst.jsonl"
    run("gen", "qt", "--t", "1", "--n", "8", "--h", "2", "--out", str(inst))

    def collided(p, w):
        raise RuntimeError("embedding collided")

    monkeypatch.setattr(unigraph, "embed", collided)
    capsys.readouterr()
    run("embed", "--instance", str(inst), "--out", str(tmp_path / "wit.jsonl"), check=3)
    assert "RuntimeError: embedding collided" in capsys.readouterr().err


def test_labels_do_not_follow_string_hashing(tmp_path):
    # double-star vertex ids are strings, so set iteration order changes
    # with PYTHONHASHSEED; the instance and label files must not
    src = os.path.dirname(os.path.dirname(uniprod.__file__))
    files = []
    for seed in ("0", "1"):
        inst, labels = tmp_path / f"bad{seed}.jsonl", tmp_path / f"labels{seed}.jsonl"
        script = (
            "import sys; from uniprod.cli import main; "
            f"main(['gen', 'bad', '--n', '120', '--i', '4', '--j', '4', '--out', {str(inst)!r}]); "
            f"sys.exit(main(['label', '--instance', {str(inst)!r}, '--out', {str(labels)!r}]))"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, timeout=120)
        files.append((inst.read_text(), labels.read_text()))
    assert '"bits"' in files[0][1] and files[0] == files[1]


# The modules each command loads beside the package, cli and io, which
# `import uniprod.cli` alone loads; names drop the "uniprod." prefix.
INSTANCE = {"product", "bitcore", "closure", "decomp"}
HOST = INSTANCE | {"treeseq", "unigraph"}
LABELS = INSTANCE | {"treeseq", "induced"}
COMMAND_MODULES = {
    "": set(),
    "gen qt --t 2 --n 20 --h 3 --out inst.jsonl": INSTANCE,
    "gen bad --n 24 --out bad.jsonl": INSTANCE | {"harness"},
    "embed --instance inst.jsonl --out wit.jsonl": HOST,
    "verify --instance inst.jsonl --witness wit.jsonl": HOST,
    "count --n 8": HOST,
    "build-ug --n 4 --lambda 1 --mode explicit --out ug.jsonl": HOST,
    "label --instance inst.jsonl --out lab.jsonl": LABELS,
    "test-adjacency --labels lab.jsonl": LABELS,
    "assemble --labels lab.jsonl --out uni.jsonl": LABELS,
    "compress --graph ug.jsonl --k 2 --out comp.jsonl": {"product", "compressor"},
    "run-suite sizes --n 4 --out sizes.json": HOST | {"harness"},
    "run-suite compression --count 1 --out comp.json": INSTANCE | {"harness", "compressor"},
    "report sizes.json": INSTANCE | {"harness"},
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # each command runs in a fresh process, after the inputs it reads exist
    src = os.path.dirname(os.path.dirname(uniprod.__file__))
    env = {**os.environ, "PYTHONPATH": src, "UNIPROD_CACHE": str(tmp_path / "cache")}
    script = ("import sys\nimport uniprod.cli\n"
              "code = uniprod.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(code, *sorted(name for name in sys.modules if name.startswith('uniprod')))")
    loaded = {}
    for command in COMMAND_MODULES:
        proc = subprocess.run([sys.executable, "-c", script, *command.split()], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, *names = proc.stdout.splitlines()[-1].split()
        assert code == "0", command
        loaded[command] = {name.removeprefix("uniprod.") for name in names}
    assert loaded == {command: {"uniprod", "cli", "io"} | mods for command, mods in COMMAND_MODULES.items()}


# SHA-256 of every file the commands in test_file_formats_are_stable write.
# A mismatch means a file format changed, and files already on disk may no
# longer read.
FORMATS = {
    "inst.jsonl": "2a59eefbae686fd48f5fa6ba024e57acf350ba84ec606be2dfca4c901b8a8095",
    "wit.jsonl": "b62243fec0740a0bcebe7e98d8191f149911767b344149a0ca2ab113a1470255",
    "lab.jsonl": "6b70214385996ed40394af747febcc86ab5d5caf07bb75f97c5115f4012ccb59",
    "uni.jsonl": "f5a958906f7a07400add07e96e0a5b3a1f677488f6597a9b47922e8d4b282704",
    "ug.jsonl": "9e12e91aca2c7f0873e3034bb820d70bc695babeaa7ee13dd4a84eef6d64ae7f",
    "comp.jsonl": "26bec8b02085f61060321189c5918d5b0e740ad049ecb03b1dd930d24715bfb4",
    "comp.saturator.jsonl": "c92a7cb1f49bd340fb148c5e83323cebb1e9e0f1629265866da0cecf53ecfe61",
    "bad.jsonl": "0d6ee593b38b3524af90de036a64f22a0c4e682232975089874b027bb8d0ba57",
    "bad.intervals.jsonl": "7cec124e4b0107e0fab9524c2cf93d73e71802e8656d408bff5fa7ce6ab61bfe",
    "wit120.jsonl": "746a695f3b0be45480d16dd8477e87e03f5e7a201e62d5f897e7ad2fce862bcc",
    "lab120.jsonl": "7e6561bf42661943ae322d4fd7ef0d58039e4c1caec4ac53bb17bd6262966dd0",
    "ug8.jsonl": "b659fda05946ae9137a1b2c4b6a679dc69f4c9a9f896887fd35c380bde620063",
}


def test_file_formats_are_stable(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIPROD_CACHE", str(tmp_path / "cache"))

    def p(name):
        return str(tmp_path / name)

    run("gen", "qt", "--t", "2", "--n", "14", "--h", "3", "--seed", "5", "--out", p("inst.jsonl"))
    run("embed", "--instance", p("inst.jsonl"), "--out", p("wit.jsonl"))
    run("label", "--instance", p("inst.jsonl"), "--out", p("lab.jsonl"))
    run("assemble", "--labels", p("lab.jsonl"), "--out", p("uni.jsonl"))
    run("build-ug", "--n", "2", "--lambda", "1", "--mode", "explicit", "--out", p("ug.jsonl"))
    # n=2 gives d=1, so only two depths; n=8 gives four
    run("build-ug", "--n", "8", "--lambda", "2", "--mode", "explicit", "--out", p("ug8.jsonl"))
    run("compress", "--graph", p("uni.jsonl"), "--k", "2", "--seed", "1", "--out", p("comp.jsonl"))
    run("gen", "bad", "--n", "24", "--out", p("bad.jsonl"))
    # n=14 lays out 5 host intervals and barely recurses; n=120 lays out 60
    # on 31 distinct left endpoints, so ties are broken all through the recursion.
    run("gen", "qt", "--t", "2", "--n", "120", "--h", "2", "--seed", "5", "--out", p("inst120.jsonl"))
    run("embed", "--instance", p("inst120.jsonl"), "--out", p("wit120.jsonl"))
    run("label", "--instance", p("inst120.jsonl"), "--out", p("lab120.jsonl"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FORMATS}
    assert got == FORMATS
