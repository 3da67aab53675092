import json

import pytest

from uniprod import induced
from uniprod.harness import (
    Report,
    bad_family_counts,
    bad_family_slope,
    gen_bad_example,
    run_suite,
)
from uniprod.induced import SCHEMES, LabelParams, adjacency_test, build_context, label_instance
from uniprod.product import PathFactor, ProductWitness


def test_bad_example_recipe_counts():
    for n in (24, 48, 120):
        m = n // 12
        for i, j in [(1, 1), (m, 1), (m, m)]:
            ex = gen_bad_example(n, i, j)
            # spine of 5 plus m kept leaves in each of two blocks per side
            graph = ex.instance.graph
            assert graph.n == 4 * m + 5
            assert graph.m == graph.n - 1
            deg = {v: len(graph.neighbors(v)) for v in graph.vertices()}
            assert deg["v"] == 2
            assert deg[ex.spine["w"]] == deg[ex.spine["u"]] == 2
            assert deg["a"] == deg["b"] == 2 * m + 1


def test_bad_example_is_a_tree_with_matching_intervals():
    ex = gen_bad_example(36, 2, 3)
    graph, (tt, rep) = ex.instance.graph, ex.layout
    seen, stack = set(), ["v"]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(graph.neighbors(v))
    assert seen == set(graph.vertices())
    for u, v in graph.edges():
        assert rep.meets(u, v)
    assert not rep.meets("a", "b")
    assert tt.order[0] == ex.spine["w"]
    assert {frozenset(e) for e in tt.graph.edges()} == {frozenset(e) for e in graph.edges()}
    ProductWitness(graph, (graph, PathFactor(1)), ex.instance.coords).validate()


def test_bad_example_ttrees_are_valid():
    # each member's 1-tree grows along a preorder from w, every later vertex
    # attached to and owned by its tree parent, and passes its checks again
    for i in range(1, 48 // 12 + 1):
        ex = gen_bad_example(48, i, i)
        tt, graph = ex.layout[0], ex.instance.graph
        pos = {v: k for k, v in enumerate(tt.order)}
        assert tt.order[0] == ex.spine["w"]
        for v in tt.order[1:]:
            (parent,) = tt.attach[v]
            assert tt.owner[v] == parent and pos[parent] < pos[v] and graph.has_edge(v, parent)
        tt.validate()


def test_bad_example_parameter_guards():
    for bad in [(47, 1, 1), (12, 1, 1), (48, 0, 1), (48, 1, 5), (48, 5, 1)]:
        with pytest.raises(ValueError):
            gen_bad_example(*bad)


def test_hub_label_growth_separates_schemes():
    counts = bad_family_counts(48)
    legacy, fixed = counts["legacy"], counts["fixed"]
    assert legacy["labels_v"] == 48 // 12  # one hub label per family member
    assert fixed["labels_v"] < legacy["labels_v"]
    assert fixed["cross_edges"] < legacy["cross_edges"]


def reference_family(n):
    """Hub counts and hub label bits of bad_family_counts(n), labelling every vertex of every member."""
    params = LabelParams(n=n, t=1)
    hubs = {scheme: {"v": {}, "u": {}} for scheme in SCHEMES}
    bits = {}
    for i in range(1, n // 12 + 1):
        ex = gen_bad_example(n, i, i)
        ctx = build_context(ex.instance, params=params, layout=ex.layout)
        for scheme, by_role in hubs.items():
            li = label_instance(ctx, scheme)
            for role, labels in by_role.items():
                label = li.labels[ex.spine[role]]
                labels[label.bits] = label
                bits[ex.instance.graph.name, ex.spine[role], scheme] = label.bits
    counts = {}
    for scheme, by_role in hubs.items():
        lv, lu = by_role["v"].values(), by_role["u"].values()
        cross = sum(1 for a in lv for b in lu if a.bits != b.bits and adjacency_test(a, b))
        counts[scheme] = {"n": n, "family": n // 12, "scheme": scheme, "labels_v": len(lv), "labels_u": len(lu),
                          "cross_edges": cross}
    return counts, bits


def test_hub_only_family_counts_match_full_labelling(monkeypatch):
    made = {}
    real = induced.make_label

    def recording(ctx, g, scheme):
        label = real(ctx, g, scheme)
        made[ctx.instance.graph.name, g, scheme] = label.bits
        return label

    for n in (48, 96):
        counts, bits = reference_family(n)
        first = gen_bad_example(n, 1, 1).instance.graph.name
        made.clear()
        with monkeypatch.context() as patched:
            patched.setattr(induced, "make_label", recording)
            assert bad_family_counts(n) == counts
        # member 1 is labelled in full; members 2..m label their two hubs only, under each scheme
        later = {k: b for k, b in made.items() if k[0] != first}
        assert len(made) - len(later) == len(SCHEMES) * (4 * (n // 12) + 5)
        assert len(later) == 2 * len(SCHEMES) * (n // 12 - 1)
        assert all(bits[k] == b for k, b in later.items())


def test_slope_measurement():
    res = bad_family_slope(ns=(48, 96))
    assert res["legacy"]["slope"] > 1.5
    assert res["fixed"]["slope"] < 1.5


def test_report_accumulates_and_serializes(tmp_path):
    rep = Report("demo", {"n": 3})
    rep.add("first", True, value=7)
    rep.add("second", False, reason="because")
    rep.rows.append({"x": 1, "y": 2})
    assert not rep.ok
    assert "FAIL" in rep.summary()
    out = tmp_path / "rep.json"
    rep.write(out)
    data = json.loads(out.read_text())
    assert data["suite"] == "demo" and data["ok"] is False
    assert len(data["checks"]) == 2
    csv_path = tmp_path / "rep.csv"
    rep.write_csv(csv_path)
    assert csv_path.read_text().startswith("x,y")


def test_run_suite_universality_and_sizes():
    rep = run_suite("universality", {"n": 64, "count": 2, "seed": 3})
    assert rep.ok and rep.config["count"] == 2
    rep = run_suite("sizes", {"n": 4, "lam": 2})
    assert rep.ok
    assert any("vertices" in r for r in rep.rows)


def test_run_suite_labels_and_compression():
    rep = run_suite("labels", {"n": 16, "t": 1, "count": 2, "seed": 5})
    assert rep.ok
    rep = run_suite("compression", {"n0": 12, "k": 2, "eps": 0.8, "count": 2, "seed": 1})
    assert rep.ok


def test_run_suite_growth():
    rep = run_suite("growth", {"ns": [48, 96]})
    assert rep.ok
    assert len(rep.rows) == 4  # two schemes at two sizes


def test_run_suite_guards():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")
    with pytest.raises(ValueError):
        run_suite("labels", {"count": 0})
