import collections
import dataclasses
import functools
import itertools
import json
import random
import re
import tracemalloc

import pytest
from graphs import all_pairs_disagreements, edge_records, reference_pack, reference_unpack, write_records
from hypothesis import example, given, settings, strategies as st

from uniprod import induced
from uniprod.closure import IntervalRep, perturb_left_endpoints
from uniprod.decomp import TTree, TreeDecomposition, generate_qt_instance, grow_ttree, host_layout
from uniprod.induced import (
    SCHEMES,
    Label,
    LabelParams,
    LabelledInstance,
    adjacency_test,
    assemble_universal,
    bag_stats,
    build_context,
    fixup,
    growth_report,
    label_instance,
    make_label,
    pack_label,
    unpack_label,
    verify_labelling,
)
from uniprod.harness import gen_bad_example
from uniprod.product import Graph, WitnessError
from uniprod.treeseq import LcpCodec


def contexts(seeds, tmax=2, nmax=26):
    rng = random.Random(99)
    for seed in seeds:
        t = rng.randint(1, tmax)
        n = rng.randint(t + 3, nmax)
        h = rng.randint(1, max(1, n // 3))
        inst = generate_qt_instance(t, n, h, rng_seed=seed)
        yield build_context(inst)


def test_context_places_vertices_on_root_paths():
    # every member of a row's clique union gets a tree node that is an
    # ancestor of its own interval's key, and bag colours are proper
    for ctx in contexts(range(8)):
        # the rank form of the host layout build_context starts from
        span = perturb_left_endpoints(host_layout(ctx.instance)[1]).intervals
        for y in range(1, ctx.h + 1):
            tree = ctx.trees[y]
            for v in ctx.s_plus[y]:
                node = ctx.raw.node[y][v]
                assert tree.is_ancestor(node, ctx.rank[v])
                lo, hi = span[v]
                assert lo <= node <= hi
            for node, members in ctx.raw.bags[y].items():
                slots = [ctx.raw.psi[y][v] for v in members]
                assert sorted(slots) == list(range(1, len(members) + 1))


def test_clique_nodes_share_root_paths():
    # vertices of one family clique present in a row sit on one root path
    for ctx in contexts(range(8, 14)):
        for y in range(1, ctx.h + 1):
            tree = ctx.trees[y]
            present = set(ctx.s_plus[y])
            for v in ctx.s_plus[y]:
                nodes = [ctx.raw.node[y][w] for w in ctx.tt.cliques[v] if w in present]
                nodes.sort(key=tree.depth)
                for a, b in zip(nodes, nodes[1:]):
                    assert tree.is_ancestor(a, b)


def test_fixup_contract():
    for ctx in contexts(range(14, 26)):
        for y in range(1, ctx.h + 1):
            tree = ctx.trees[y]
            present = set(ctx.s_plus[y])
            for v in ctx.s_plus[y]:
                # moved nodes stay on the root path, above the original
                assert tree.is_ancestor(ctx.fixed.node[y][v], ctx.raw.node[y][v])
                for w in ctx.tt.cliques[v]:
                    if w in present:
                        gap = tree.depth(ctx.fixed.node[y][w]) - tree.depth(ctx.fixed.node[y][v])
                        assert gap <= 1
        first = ctx.fixed
        # idempotence: running the pass on its own output moves nothing
        ctx.raw = first
        fixup(ctx)
        assert ctx.fixed == first


def test_bag_stats_accounting():
    ctx = next(contexts([5], tmax=2, nmax=24))
    stats = bag_stats(ctx)
    assert stats["max_bag_fixed"] >= 1
    assert stats["accounting_ok"] is True


def test_labels_pack_and_unpack_exactly():
    for ctx in contexts(range(30, 36)):
        for scheme in ("fixed", "legacy"):
            for g in sorted(ctx.instance.coords, key=repr):
                label = make_label(ctx, g, scheme)
                bits = pack_label(label, ctx.params)
                back = unpack_label(bits, ctx.params)
                assert back == label, (scheme, g)


def test_pack_refuses_slot_fields_that_do_not_fit_the_layout():
    ctx = next(contexts([31], tmax=2, nmax=20))
    for scheme in SCHEMES:
        label = make_label(ctx, min(ctx.instance.coords, key=repr), scheme)
        for change in ({"depths": label.depths[:-1]}, {"psi": label.psi[:-1]}, {"abits": label.abits + (0,)}):
            for _ in range(2):  # an error is raised again, as the memo keeps nothing for it
                with pytest.raises(ValueError, match="rows needs .* parent slots$"):
                    pack_label(dataclasses.replace(label, **change), ctx.params)
        for _ in range(2):
            with pytest.raises(ValueError, match="overflow suffixes$"):
                pack_label(dataclasses.replace(label, r=label.r + ("",)), ctx.params)
        # a segment that fails to format is formatted again, and fails again, on the next call
        wide = 1 << ctx.params.depth_bits
        for change, error in (({"psi": (0,) + label.psi[1:]}, "gamma codes positive integers"),
                              ({"depths": (wide,) + label.depths[1:]}, f"{wide} does not fit in"),
                              ({"phi": 0}, "-1 does not fit in"),
                              ({"hint": ("sideways", 0)}, "sideways")):
            bad = dataclasses.replace(label, **change)
            for _ in range(2):
                with pytest.raises((ValueError, KeyError), match=error):
                    pack_label(bad, ctx.params)
        assert pack_label(label, ctx.params) == label.bits


def test_make_label_checks_the_pack_round_trip(monkeypatch):
    ctx = next(contexts([31], tmax=2, nmax=20))
    g = min(ctx.instance.coords, key=repr)
    make_label(ctx, g, "fixed")
    real = induced.unpack_label

    def changed(bits, params):
        label = real(bits, params)
        label.abits = (1 - label.abits[0], *label.abits[1:])
        return label

    monkeypatch.setattr(induced, "unpack_label", changed)
    for scheme in ("fixed", "legacy"):
        with pytest.raises(AssertionError, match="does not survive a pack round-trip"):
            make_label(ctx, g, scheme)


def test_make_label_names_a_vertex_the_instance_does_not_have():
    ctx = next(contexts([31], tmax=2, nmax=20))
    for g in ("x", max(ctx.instance.coords) + 1, ctx.instance.coords[0]):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(g))} is not a vertex of the instance$"):
            make_label(ctx, g)


def test_make_label_checks_the_transition_code_before_packing(monkeypatch):
    ctx = next(contexts([31], tmax=2, nmax=20))
    g = min((g for g, c in ctx.instance.coords.items() if c[1] < ctx.h), key=repr)
    hv, y = ctx.instance.coords[g]
    encode = LcpCodec.encode

    def corrupted(self, before, after):
        # flip the last bit of the new suffix, or give an empty suffix one bit
        code = encode(self, before, after)
        return code[:-1] + "10"[int(code[-1])] if len(code) > self.width else code + "1"

    packed = []
    monkeypatch.setattr(LcpCodec, "encode", corrupted)
    monkeypatch.setattr(induced, "pack_label", lambda *args: packed.append(args))
    for scheme in SCHEMES:
        with pytest.raises(AssertionError, match=rf"transition code for {re.escape(repr(hv))}@{y} does not round-trip"):
            make_label(ctx, g, scheme)
    assert packed == []


def test_make_label_encodes_each_transition_once(monkeypatch):
    # labels of one context share their (base, following) signature pairs;
    # each pair's code is encoded and checked once, and kept in the params
    encoded = collections.Counter()
    encode = LcpCodec.encode

    def counted(self, before, after):
        encoded[before, after] += 1
        return encode(self, before, after)

    monkeypatch.setattr(LcpCodec, "encode", counted)
    tried = 0
    for ctx in contexts(range(40, 50)):
        if ctx.h < 3:
            continue
        tried += 1
        encoded.clear()
        pairs = []
        for scheme in SCHEMES:
            li = label_instance(ctx, scheme)
            pairs += [(lab.sig, ctx.params.codec.decode(lab.sig, lab.mu)) for lab in li.labels.values() if lab.has_next]
        assert set(encoded) == set(pairs) == set(ctx.params.codes)
        assert max(encoded.values()) == 1 and len(encoded) < len(pairs)
    assert tried >= 3


def test_make_label_checks_each_new_code_against_the_decoder(monkeypatch):
    # a code is kept only once it decodes back; with a faulty decoder no
    # code is kept, and every label with a next row is refused
    ctx = next(contexts([31], tmax=2, nmax=20))
    inner = sorted((g for g, c in ctx.instance.coords.items() if ctx.row[c[1]] < ctx.h), key=repr)
    decode = LcpCodec.decode
    monkeypatch.setattr(LcpCodec, "decode", lambda self, before, nu: decode(self, before, nu) + "0")
    for scheme in SCHEMES:
        for g in inner[:3] * 2:
            hv, y = ctx.instance.coords[g]
            with pytest.raises(AssertionError, match=rf"transition code for {re.escape(repr(hv))}@{ctx.row[y]} does not"
                                                     " round-trip"):
                make_label(ctx, g, scheme)
    assert ctx.params.codes == {}
    monkeypatch.undo()
    label = make_label(ctx, inner[0])
    assert ctx.params.codes == {(label.sig, ctx.params.codec.decode(label.sig, label.mu)): label.mu}


def seen_by_tester(label: Label) -> tuple:
    """A decoded label, its bits, and the fields the tester reads."""
    return label, label.bits, label.next_alpha, label.own_key, label.parent_slot


def decoded(reader, bits, params):
    """What a label reader makes of bits: the label, its bits and its tester view, or the ValueError text."""
    try:
        label = reader(bits, params)
    except ValueError as exc:
        return str(exc)
    return seen_by_tester(label)


def fresh(params: LabelParams) -> LabelParams:
    """Params equal to params, with no tester view derived yet."""
    return LabelParams(params.n, params.t, params.maxheight)


def test_codec_matches_the_reference_codec():
    # the oracles in tests/graphs.py read and write one field at a time
    # through a bit cursor; the codec must agree with them bit for bit,
    # and on malformed input raise exactly when they do, with their text
    sample = []
    for ctx in contexts(range(30, 36)):
        for scheme in SCHEMES:
            li = label_instance(ctx, scheme)
            for k, g in enumerate(sorted(li.labels, key=repr)):
                label = li.labels[g]
                bits = pack_label(label, li.params)
                assert bits == reference_pack(label, li.params) == label.bits
                assert decoded(unpack_label, bits, li.params) == decoded(reference_unpack, bits, li.params)
                if k % 3 == 0:
                    sample.append((li.params, bits))
    assert len(sample) >= 60
    tails = ["".join(p) for n in (1, 2, 3) for p in itertools.product("01", repeat=n)]
    mutants = canonical = 0
    for params, bits in sample:
        flips = [bits[:i] + "10"[int(bits[i])] + bits[i + 1:] for i in range(len(bits))]
        cuts = [bits[:i] for i in range(len(bits))]
        for mutant in flips + cuts + [bits + tail for tail in tails]:
            got = decoded(unpack_label, mutant, params)
            assert got == decoded(reference_unpack, mutant, params), mutant
            mutants += 1
            if not isinstance(got, str):
                # canonical: a string that decodes is the packing of what it decodes to
                assert pack_label(got[0], params) == mutant
                canonical += 1
    assert mutants > 5000 and canonical > 500


def test_codec_matches_the_reference_past_its_gamma_table():
    # the decoder looks gamma codes of 1..15 up in an 8-bit window and falls
    # back when the code is longer or the bits run out; psi values of 1..40
    # and prefixed fields of 14..20 bits (whose gamma prefix of 15 or more
    # takes 9 bits) cross the window, and every cut of every draft ends
    # inside some window
    params = LabelParams(n=1024, t=2, maxheight=24)
    ctx = build_context(generate_qt_instance(2, 40, 5, rng_seed=3), params)
    big_psi = long_fields = 0
    for scheme in SCHEMES:
        labels = list(label_instance(ctx, scheme).labels.values())[::2]
        for k, label in enumerate(labels):
            width = 14 + k % 7

            def pad(bits):
                return bits + "0" * (width - len(bits))

            stretched = {"sig": pad(label.sig), "mu": label.mu and pad(label.mu)}
            if k % 2:
                stretched["alpha1"] = pad(label.alpha1)
            psi = tuple(1 + (5 * k + j) % 40 for j in range(len(label.psi)))
            draft = dataclasses.replace(label, psi=psi, **stretched)
            bits = pack_label(draft, params)
            for cut in range(len(bits) + 1):
                got = decoded(unpack_label, bits[:cut], params)
                assert got == decoded(reference_unpack, bits[:cut], params), (k, cut)
            if not isinstance(got, str):
                big_psi += max(psi) > 15
                long_fields += len(draft.sig) >= 15
    assert big_psi >= 10 and long_fields >= 10


def psi_block(label: Label) -> tuple:
    """Offsets of the first psi field and of the bit after the last, from the field order of pack_label."""
    slots = len(label.psi)
    end = len(label.bits) - slots - sum(1 + len(r) for r in label.r)
    return end - sum(2 * p.bit_length() - 1 for p in label.psi), end


def test_unpack_reports_a_bit_underrun():
    li = label_instance(build_context(generate_qt_instance(2, 24, 4, rng_seed=5)), "fixed")
    params = li.params
    label = min((lab for lab in li.labels.values() if lab.alpha1), key=lambda lab: lab.bits)
    zeros = (len(label.alpha1) + 1).bit_length() - 1  # alpha1 is prefixed by gamma(len + 1)
    assert zeros >= 1 and label.bits[3:3 + zeros] == "0" * zeros
    # cut inside the gamma prefix of alpha1: before its leading 1, and inside its value
    for cut in (3 + zeros, 3 + zeros + 1):
        with pytest.raises(ValueError, match="bit underrun"):
            unpack_label(label.bits[:cut], params)
    # cut inside a psi gamma field: the last slot's psi, 2^20, takes 41 bits
    big = dataclasses.replace(label, psi=label.psi[:-1] + (1 << 20,))
    big.bits = pack_label(big, params)
    start, end = psi_block(big)
    assert big.bits[end - 41:end] == "0" * 20 + "1" + "0" * 20 and start < end - 41
    for cut in (end - 30, end - 5):
        with pytest.raises(ValueError, match="bit underrun"):
            unpack_label(big.bits[:cut], params)
    # a tail of zeros from the first psi field on: no gamma field can end
    start, _ = psi_block(label)
    zeroed = label.bits[:start] + "0" * (len(label.bits) - start)
    with pytest.raises(ValueError, match="bit underrun"):
        unpack_label(zeroed, params)


def test_labelling_and_reading_call_the_codec_once_per_label(monkeypatch, tmp_path):
    # the benchmark counts calls of pack_label and unpack_label by name;
    # labelling packs each label once and unpacks it once for its round
    # trip, and reading a label file unpacks each record once
    calls = collections.Counter()
    for name in ("pack_label", "unpack_label"):
        def counted(*args, _real=getattr(induced, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(induced, name, counted)
    li = label_instance(next(contexts([31])), "fixed")
    assert calls == {"pack_label": len(li.labels), "unpack_label": len(li.labels)}
    path = tmp_path / "labels.jsonl"
    li.write_jsonl(path)
    calls.clear()
    assert len(LabelledInstance.read_jsonl(path).labels) == len(li.labels)
    assert calls == {"unpack_label": len(li.labels)}


def test_unpack_rejects_garbage():
    params = LabelParams(n=16, t=1)
    with pytest.raises(ValueError):
        unpack_label("", params)
    with pytest.raises(ValueError):
        unpack_label("1", params)
    ctx = next(contexts([7], tmax=1, nmax=12))
    li = label_instance(ctx, "fixed")
    bits = min(label.bits for label in li.labels.values())
    with pytest.raises(ValueError):
        unpack_label(bits + "0", li.params)  # trailing bits must be rejected
    # a successor row signature of n bits or more cannot come from n rows
    rows3 = label_instance(build_context(generate_qt_instance(1, 12, 3, rng_seed=7)), "fixed")
    inner = next(lab for lab in rows3.labels.values() if lab.has_next)
    label = dataclasses.replace(inner, hint=("append", rows3.params.n))
    with pytest.raises(ValueError, match="overruns a row tree"):
        unpack_label(pack_label(label, rows3.params), rows3.params)
    # no tree of height maxheight has a longer signature
    last = next(lab for lab in rows3.labels.values() if not lab.has_next)
    deep = "0" * (rows3.params.maxheight + 1)
    for label in (dataclasses.replace(last, alpha1=deep), dataclasses.replace(last, sig=deep)):
        with pytest.raises(ValueError, match="deeper than maxheight"):
            unpack_label(pack_label(label, rows3.params), rows3.params)
    with pytest.raises(ValueError):
        build_context(ctx.instance, params=LabelParams(n=ctx.instance.graph.n - 1, t=ctx.params.t))


def test_unpack_rejects_a_successor_hint_that_contradicts_has_next():
    # has_next == (hint kind != "end"); a forged label that breaks the rule
    # would be a second label for one vertex, with the same tester answers.
    # The has_next bit is the third of the format; flipping it forges one.
    inst = generate_qt_instance(1, 12, 3, rng_seed=7)
    li = label_instance(build_context(inst), "fixed")
    inner = next(lab for lab in li.labels.values() if lab.has_next)
    last = next(lab for lab in li.labels.values() if not lab.has_next)
    for label in (inner, last):  # a strip or append hint without a next row; an "end" hint with one
        assert label.bits[2] == "01"[label.has_next]
        forged = label.bits[:2] + "10"[int(label.bits[2])] + label.bits[3:]
        with pytest.raises(ValueError, match="has_next"):
            unpack_label(forged, li.params)


def test_unpack_refuses_a_next_row_signature_past_maxheight():
    # mu is a kept-prefix length and a free suffix, so padding the suffix
    # decodes to a next row signature longer than any row tree can hold
    li = label_instance(build_context(generate_qt_instance(2, 30, 3, rng_seed=3)), "fixed")
    params = li.params
    inner = next(lab for lab in li.labels.values() if lab.has_next)
    padded = dataclasses.replace(inner, mu=inner.mu + "0" * 300)
    assert len(params.codec.decode(padded.sig, padded.mu)) >= 300 > params.maxheight
    with pytest.raises(ValueError, match="deeper than maxheight"):
        unpack_label(pack_label(padded, params), params)


def test_unpack_refuses_a_successor_hint_past_maxheight():
    # an append hint of 400,000 zeros costs 39 bits of gamma code, and would
    # decode to a 400,001-bit next row signature; maxheight bounds the row
    # tree, so unpack refuses it before it builds the signature
    params = LabelParams(n=10**6, t=1, maxheight=14)
    li = label_instance(build_context(generate_qt_instance(1, 12, 3, rng_seed=7), params=params), "fixed")
    inner = next(lab for lab in li.labels.values() if lab.has_next)
    bits = pack_label(dataclasses.replace(inner, hint=("append", 400_000)), params)
    assert len(bits) < 200
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overruns a row tree"):
            unpack_label(bits, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak


def test_unpack_refuses_a_bag_colour_past_its_cap():
    # a psi is a 1-based slot in a bag of s_plus[y], whose rows y-1..y+1 hold
    # at most n vertices with t + 1 clique members each; the longest label of
    # t=2 n=64 h=2 seed 1, its every psi raised by 1000, decoded before the cap
    li = label_instance(build_context(generate_qt_instance(2, 64, 2, rng_seed=1)), "fixed")
    assert max(max(lab.psi) for lab in li.labels.values()) == 7
    label = max(li.labels.values(), key=lambda lab: len(lab.bits))
    raised = dataclasses.replace(label, psi=tuple(p + 1000 for p in label.psi))
    assert raised.psi[:3] == (1007, 1004, 1006)
    bits = pack_label(raised, li.params)
    assert len(bits) == 172
    for params in (LabelParams(n=64, t=2), li.params, LabelParams(n=64, t=2)):
        for reader in (unpack_label, reference_unpack):
            with pytest.raises(ValueError, match=r"^undecodable label: bag colour 1007 exceeds \(t \+ 1\) n = 192$"):
                reader(bits, params)
    # the cap itself decodes
    for top, verdict in ((192, None), (193, "bag colour 193 exceeds")):
        bits = pack_label(dataclasses.replace(label, psi=label.psi[:-1] + (top,)), li.params)
        got = decoded(unpack_label, bits, li.params)
        assert got == decoded(reference_unpack, bits, fresh(li.params))
        assert (got[0].psi[-1] == top) if verdict is None else verdict in got


def test_make_label_asserts_the_bag_colour_cap():
    ctx = build_context(generate_qt_instance(2, 24, 2, rng_seed=1))
    g = min(ctx.instance.coords, key=repr)
    hv, y = ctx.instance.coords[g]
    parent = ctx.parents[hv][0]
    for place in (ctx.raw, ctx.fixed):
        place.psi[ctx.row[y]][parent] = 3 * ctx.params.n + 1
    for scheme in SCHEMES:
        with pytest.raises(AssertionError, match=rf"^bag colour {3 * ctx.params.n + 1} of {hv!r}@{ctx.row[y]} exceeds"):
            make_label(ctx, g, scheme)


def test_prescribed_ttree_is_validated():
    # a family clique that misses a colour would leave a parent slot empty;
    # such a t-tree is refused when it is built, so no layout can carry it
    inst = generate_qt_instance(2, 12, 1, rng_seed=3)
    tt, _ = host_layout(inst)
    coords = inst.coords
    used = {frozenset((coords[a][0], coords[b][0])) for a, b in inst.graph.edges()}
    v, w = next((v, w) for v in reversed(tt.order) for w in sorted(tt.attach[v]) if frozenset((v, w)) not in used)
    with pytest.raises(ValueError, match=f"^attach set of {v!r} has wrong size$"):
        TTree(tt.t, tt.order, {**tt.attach, v: tt.attach[v] - {w}}, tt.owner)


def test_prescribed_layout_needs_an_interval_per_host_vertex():
    ex = gen_bad_example(48, 1, 1)
    tt, rep = ex.layout
    rep = IntervalRep({v: iv for v, iv in rep.intervals.items() if v != "a1"})
    with pytest.raises(ValueError, match="no interval for host vertex 'a1'"):
        build_context(ex.instance, layout=(tt, rep))


def test_prescribed_layout_must_cover_every_ttree_edge():
    # a1 hangs off the centre a, whose interval ends at (n - 1) / 2
    ex = gen_bad_example(48, 1, 1)
    tt, rep = ex.layout
    rep = IntervalRep({**rep.intervals, "a1": (48, 48)})
    with pytest.raises(ValueError, match="interval supergraph misses edge"):
        build_context(ex.instance, layout=(tt, rep))


def test_prescribed_layout_must_hold_every_host_vertex_and_edge():
    # the prescribed 1-tree hangs leaf a1 off the hub v, whose interval meets
    # every other, in place of its centre a: the intervals realize the
    # 1-tree, but the instance's edge a-a1 has no 1-tree edge to land on
    ex = gen_bad_example(48, 1, 1)
    tt, rep = ex.layout
    host = ex.instance.host
    tree = Graph(host.vertices(), [*(e for e in host.edges() if set(e) != {"a", "a1"}), ("v", "a1")])
    order, parent = [tt.order[0]], {tt.order[0]: None}
    for x in order:
        for y in sorted(tree.neighbors(x)):
            if y not in parent:
                parent[y] = x
                order.append(y)
    other = grow_ttree(1, order, lambda i, cliques: (frozenset({parent[order[i]]}), parent[order[i]]))
    assert other.graph.has_edge("v", "a1") and ex.instance.graph.has_edge("a", "a1")
    with pytest.raises(ValueError, match="^layout t-tree misses host edge 'a'-'a1'$"):
        build_context(ex.instance, layout=(other, rep))
    # an isolated host vertex, in a bag of its own, that the prescribed 1-tree lacks
    td = ex.instance.decomposition
    decomposition = TreeDecomposition({**td.bags, "z": {"z"}}, [*td.edges, ("z", "v")])
    wider = dataclasses.replace(ex.instance, host=Graph([*host.vertices(), "z"], host.edges()),
                                decomposition=decomposition)
    with pytest.raises(ValueError, match="^layout t-tree misses host vertex 'z'$"):
        build_context(wider, layout=ex.layout)


def test_prescribed_layout_must_realize_every_instance_edge():
    # two leaves of one star share a row but no t-tree edge
    ex = gen_bad_example(48, 1, 1)
    graph = Graph(ex.instance.graph.vertices(), [*ex.instance.graph.edges(), ("a1", "a9")])
    with pytest.raises(WitnessError, match="edge 'a1'-'a9'|edge 'a9'-'a1'"):
        build_context(dataclasses.replace(ex.instance, graph=graph), layout=ex.layout)


def test_tester_is_exact_on_random_instances():
    for ctx in contexts(range(40, 52), tmax=2, nmax=24):
        for scheme in ("fixed", "legacy"):
            li = label_instance(ctx, scheme)
            pairs = verify_labelling(li)
            assert pairs == li.graph.n * (li.graph.n - 1) // 2


def with_graph(li, graph):
    return LabelledInstance(li.params, li.scheme, li.labels, graph)


def audit_mutants(ctx, li):
    """The instance itself, then mutants the audit must judge as the brute-force oracle does."""
    yield li
    vertices = sorted(li.graph.vertices(), key=repr)
    edges = sorted(li.graph.edges(), key=repr)
    for e in edges[:3]:  # a removed edge
        yield with_graph(li, Graph(vertices, (f for f in edges if f != e)))
    coords = ctx.instance.coords
    far = [(a, b) for a, b in itertools.combinations(vertices, 2) if abs(coords[a][1] - coords[b][1]) > 1]
    for a, b in far[:2]:  # an added edge between two rows that do not meet
        yield with_graph(li, Graph(vertices, edges + [(a, b)]))
    near = [(a, b) for a, b in itertools.combinations(vertices, 2)
            if abs(coords[a][1] - coords[b][1]) <= 1 and not li.graph.has_edge(a, b)]
    for a, b in near[:2]:  # an added edge in reach
        yield with_graph(li, Graph(vertices, edges + [(a, b)]))
    for g in vertices[:3]:  # a flipped adjacency bit
        lab = li.labels[g]
        for slot, bit in enumerate(lab.abits):
            draft = dataclasses.replace(lab, abits=lab.abits[:slot] + (1 - bit,) + lab.abits[slot + 1:])
            flipped = unpack_label(pack_label(draft, li.params), li.params)
            yield LabelledInstance(li.params, li.scheme, {**li.labels, g: flipped}, li.graph)


def test_audit_raises_exactly_when_the_all_pairs_oracle_does():
    verdicts = []
    for ctx in contexts(range(40, 52), tmax=2, nmax=24):
        for scheme in ("fixed", "legacy"):
            for k, li in enumerate(audit_mutants(ctx, label_instance(ctx, scheme))):
                wrong = all_pairs_disagreements(li)
                try:
                    verify_labelling(li)
                except AssertionError:
                    raised = True
                else:
                    raised = False
                assert raised == bool(wrong), (ctx.instance.seed, scheme, k, wrong)
                verdicts.append(raised)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_audit_names_an_edge_out_of_reach():
    ctx = build_context(generate_qt_instance(2, 20, 5, rng_seed=4))
    li = label_instance(ctx, "fixed")
    coords = ctx.instance.coords
    a, b = next((a, b) for a, b in itertools.combinations(sorted(coords), 2) if coords[b][1] - coords[a][1] > 1)
    mutant = with_graph(li, Graph(li.graph.vertices(), list(li.graph.edges()) + [(a, b)]))
    want = f"edge {a!r}-{b!r} joins rows {li.labels[a].alpha1!r} and {li.labels[b].alpha1!r}"
    with pytest.raises(AssertionError, match=re.escape(want)):
        verify_labelling(mutant)


def test_audit_names_an_in_reach_edge_whose_keys_never_meet():
    ctx = build_context(generate_qt_instance(2, 20, 5, rng_seed=4))
    li = label_instance(ctx, "fixed")
    coords = ctx.instance.coords
    vertices = sorted(coords)
    # same row, and neither host vertex is a clique parent of the other
    a, b = next((a, b) for a, b in itertools.combinations(vertices, 2)
                if coords[a][1] == coords[b][1] and not ctx.tt.graph.has_edge(coords[a][0], coords[b][0]))
    assert not li.graph.has_edge(a, b)
    mutant = with_graph(li, Graph(vertices, list(li.graph.edges()) + [(a, b)]))
    row = li.labels[a].alpha1
    want = f"edge {a!r}-{b!r} joins rows {row!r} and {row!r}, but no own key of either label meets a parent slot"
    with pytest.raises(AssertionError, match=re.escape(want)):
        verify_labelling(mutant)


def test_audit_names_a_dropped_edge():
    ctx = build_context(generate_qt_instance(2, 20, 5, rng_seed=4))
    li = label_instance(ctx, "fixed")
    vertices = sorted(li.graph.vertices(), key=repr)
    edges = sorted(li.graph.edges(), key=repr)
    a, b = sorted(edges[0], key=vertices.index)
    mutant = with_graph(li, Graph(vertices, edges[1:]))
    with pytest.raises(AssertionError, match=re.escape(f"pair {a!r},{b!r}: tester says True, instance says False")):
        verify_labelling(mutant)


def recorded_pairs(monkeypatch):
    """Record each pair of labels put to the tester, as the set of their two object ids."""
    calls = []

    def recording(l1, l2):
        calls.append(frozenset((id(l1), id(l2))))
        return adjacency_test(l1, l2)

    monkeypatch.setattr(induced, "adjacency_test", recording)
    return calls


def brute_force_true_pairs(labels: dict) -> set:
    """Brute force: every pair of ids on which the tester says True."""
    return {frozenset((a, b)) for a, b in itertools.combinations(labels, 2) if adjacency_test(labels[a], labels[b])}


@functools.cache
def six_contexts():
    """Six n=24 t=2 instances on 1, 3, ..., 11 rows under one LabelParams."""
    params = LabelParams(n=24, t=2)
    return [build_context(generate_qt_instance(2, 24, 1 + 2 * seed, rng_seed=seed + 70), params=params)
            for seed in range(6)]


def test_audit_and_assembly_test_only_key_meeting_pairs(monkeypatch):
    calls = recorded_pairs(monkeypatch)
    for scheme in ("fixed", "legacy"):
        corpus = []
        for ctx in six_contexts():
            li = label_instance(ctx, scheme)
            corpus.append(li)
            calls.clear()
            assert verify_labelling(li) == 24 * 23 // 2
            who = {id(lab): g for g, lab in li.labels.items()}
            met = [frozenset(who[i] for i in pair) for pair in calls]
            true = brute_force_true_pairs(li.labels)
            assert true == {frozenset(e) for e in li.graph.edges()}
            assert len(met) == len(set(met)) and true <= set(met), (scheme, ctx.instance.seed)

        decoded = {label.bits: label for li in corpus for label in li.labels.values()}
        calls.clear()
        un = assemble_universal(corpus)
        who = {id(lab): bits for bits, lab in decoded.items()}
        met = [frozenset(who[i] for i in pair) for pair in calls]
        true = brute_force_true_pairs(decoded)
        assert len(met) == len(set(met)) and true <= set(met), scheme
        assert {frozenset(e) for e in un.edges()} == true, scheme
        assert len(met) < len(decoded) * (len(decoded) - 1) // 2 // 4, scheme


def test_tester_answers_the_same_in_both_argument_orders():
    # labels of different instances can hit in both duos with different
    # bits; the tester says True when either duo hits with bit 1
    for scheme in ("fixed", "legacy"):
        labels = [lab for ctx in six_contexts() for lab in label_instance(ctx, scheme).labels.values()]
        assert len(labels) == 6 * 24
        differ = sum(1 for a, b in itertools.combinations(labels, 2) if adjacency_test(a, b) != adjacency_test(b, a))
        assert differ == 0, scheme


def test_audit_and_assembly_calls_stay_linear_in_parent_slots(monkeypatch):
    # a quadratic audit or assembly puts about n^2 / 4 pairs of a two-row
    # instance to the tester; the key join puts at most two per parent slot
    calls = recorded_pairs(monkeypatch)
    li = label_instance(build_context(generate_qt_instance(2, 512, 2, rng_seed=11)), "fixed")
    labels = list(li.labels.values())
    slots = sum(len(lab.parent_slot[0]) + len(lab.parent_slot[1]) for lab in labels)
    in_reach = sum(1 for l1, l2 in itertools.combinations(labels, 2)
                   if l1.alpha1 == l2.alpha1 or l1.next_alpha == l2.alpha1 or l2.next_alpha == l1.alpha1)
    for run in (verify_labelling, lambda li: assemble_universal([li])):
        calls.clear()
        run(li)
        assert len(calls) <= 2 * slots and len(calls) < in_reach / 10, (len(calls), slots, in_reach)


def test_assemble_rejects_a_member_whose_graph_gains_or_loses_an_edge():
    params = LabelParams(n=20, t=2)
    corpus = [label_instance(build_context(generate_qt_instance(2, 20, 4, rng_seed=s), params=params), "fixed")
              for s in (21, 22)]
    assemble_universal(corpus)
    li = corpus[1]
    vertices = sorted(li.graph.vertices(), key=repr)
    edges = sorted(li.graph.edges(), key=repr)
    absent = next(p for p in itertools.combinations(vertices, 2) if not li.graph.has_edge(*p))
    a, b = sorted(edges[0], key=vertices.index)
    cases = [
        (Graph(vertices, edges[1:]), f"pair {a!r},{b!r}: tester says True, instance says False"),
        (Graph(vertices, edges + [absent]), f"pair {absent[0]!r},{absent[1]!r}: tester says False, instance says True"),
    ]
    for graph, cause in cases:
        with pytest.raises(AssertionError, match=re.escape(f"corpus member 1 is not induced faithfully: {cause}")):
            assemble_universal([corpus[0], with_graph(li, graph)])


def test_assemble_rejects_a_member_with_a_repeated_label():
    li = label_instance(next(contexts([3], tmax=2, nmax=20)), "fixed")
    g1, g2 = sorted(li.labels, key=repr)[:2]
    twin = LabelledInstance(li.params, li.scheme, {**li.labels, g2: li.labels[g1]}, li.graph)
    with pytest.raises(AssertionError, match=re.escape(f"vertices {g1!r} and {g2!r} share a label")):
        assemble_universal([twin])


def test_tester_requires_matching_parameters():
    ctx1 = next(contexts([1], tmax=1, nmax=10))
    li1 = label_instance(ctx1, "fixed")
    li2 = label_instance(ctx1, "legacy")
    a = unpack_label(min(label.bits for label in li1.labels.values()), li1.params)
    b = unpack_label(min(label.bits for label in li2.labels.values()), li2.params)
    with pytest.raises(ValueError):
        adjacency_test(a, b)  # schemes differ


def test_labels_are_distinct_within_instance():
    ctx = next(contexts([3], tmax=2, nmax=20))
    li = label_instance(ctx, "fixed")
    assert len({label.bits for label in li.labels.values()}) == len(li.labels)


def test_labelled_instance_jsonl_roundtrip(tmp_path):
    ctx = next(contexts([8], tmax=2, nmax=18))
    li = label_instance(ctx, "fixed")
    path = tmp_path / "labels.jsonl"
    li.write_jsonl(path)
    back = LabelledInstance.read_jsonl(path)
    assert back.scheme == li.scheme and back.params == li.params
    assert {label.bits for label in back.labels.values()} == {label.bits for label in li.labels.values()}
    assert back.graph.n == li.graph.n and back.graph.m == li.graph.m
    assert verify_labelling(back) == verify_labelling(li)


def test_label_reader_rejects_unlabelled_edge_and_bad_count(tmp_path):
    ctx = next(contexts([8], tmax=2, nmax=18))
    path = tmp_path / "labels.jsonl"
    label_instance(ctx, "fixed").write_jsonl(path)
    lines = path.read_text().splitlines()
    vertex = json.loads(lines[1])["v"]

    extra_edge = tmp_path / "extra_edge.jsonl"
    extra_edge.write_text("\n".join(lines + [json.dumps({"ge": [vertex, "ghost"]})]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{extra_edge}:{len(lines) + 1}:")):
        LabelledInstance.read_jsonl(extra_edge)

    head = json.loads(lines[0])
    for count in (head["count"] - 1, head["count"] + 1):
        bad_count = tmp_path / f"count{count}.jsonl"
        bad_count.write_text("\n".join([json.dumps({**head, "count": count})] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad_count}:1:")):
            LabelledInstance.read_jsonl(bad_count)


def test_label_reader_rejects_a_repeated_vertex_or_label(tmp_path):
    path = tmp_path / "labels.jsonl"
    label_instance(next(contexts([8], tmax=2, nmax=18)), "fixed").write_jsonl(path)
    lines = path.read_text().splitlines()
    first, second = json.loads(lines[1]), json.loads(lines[2])
    cases = {
        "twice.jsonl": (json.dumps(first), f"vertex {first['v']!r} is labelled twice"),
        "shared.jsonl": (json.dumps({**second, "bits": first["bits"]}),
                         f"vertices {first['v']!r} and {second['v']!r} share one label"),
    }
    for name, (line, message) in cases.items():
        bad = tmp_path / name
        bad.write_text("\n".join(lines[:2] + [line] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:3: {message}")):
            LabelledInstance.read_jsonl(bad)


def test_label_writer_writes_the_bytes_of_write_records(tmp_path):
    li = label_instance(next(contexts([8], tmax=2, nmax=18)), "fixed")
    odd = [7, -3, 2**70, "a", 'say "hi" \\ ü λ 図', ("x", 1), (2, 'q"\\'), "", "ü", "\n\t"]
    names = odd + [f'v"{k}\\' for k in range(len(li.labels))]
    rename = dict(zip(sorted(li.labels, key=repr), names))
    labels = {rename[g]: label for g, label in li.labels.items()}
    graph = Graph(labels, [(rename[a], rename[b]) for a, b in li.graph.edges()])
    params = li.params
    head = {"version": induced.LABEL_FILE_VERSION, "n": params.n, "t": params.t, "maxheight": params.maxheight,
            "codec_id": LcpCodec.codec_id, "scheme": "fixed", "count": len(labels)}
    records = ({"v": g, "bits": labels[g].bits} for g in sorted(labels, key=repr))
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    LabelledInstance(params, "fixed", labels, graph).write_jsonl(got)
    write_records(want, "labels", head, itertools.chain(records, edge_records("ge", graph.edges())))
    assert got.read_bytes() == want.read_bytes()
    assert LabelledInstance.read_jsonl(got).labels.keys() == labels.keys()
    # a label without its bitstring is refused before the file is opened
    g = names[4]
    for bits in (None, "01x"):
        broken = dataclasses.replace(labels[g])
        broken.bits = bits
        path = tmp_path / f"broken{bits}.jsonl"
        with pytest.raises(ValueError, match="not a bitstring"):
            LabelledInstance(params, "fixed", {**labels, g: broken}, graph).write_jsonl(path)
        assert not path.exists()


def test_label_reader_rejects_other_versions(tmp_path):
    path, bad = tmp_path / "labels.jsonl", tmp_path / "v2.jsonl"
    label_instance(next(contexts([8], tmax=2, nmax=18)), "fixed").write_jsonl(path)
    lines = path.read_text().splitlines()
    bad.write_text("\n".join([json.dumps({**json.loads(lines[0]), "version": 2})] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{bad}:1:")):
        LabelledInstance.read_jsonl(bad)


def test_assemble_universal_and_growth():
    params = None
    corpus = []
    rng = random.Random(77)
    for seed in range(5):
        n, h = 18, rng.randint(1, 5)
        inst = generate_qt_instance(2, n, h, rng_seed=seed)
        if params is None:
            params = LabelParams(n=n, t=2)
        ctx = build_context(inst, params=params)
        corpus.append(label_instance(ctx, "fixed"))
    un = assemble_universal(corpus)
    report = growth_report(un, params)
    assert report["vertices_within"] and report["edges_within"]
    # membership is by label, so vertex count never exceeds the label total
    assert un.n <= sum(len(li.labels) for li in corpus)
    with pytest.raises(ValueError):
        assemble_universal([])


def test_assembled_graph_contains_each_member_induced():
    rng = random.Random(88)
    params = LabelParams(n=16, t=1)
    corpus = []
    for seed in range(4):
        inst = generate_qt_instance(1, 16, rng.randint(1, 4), rng_seed=seed + 60)
        ctx = build_context(inst, params=params)
        corpus.append(label_instance(ctx, "fixed"))
    un = assemble_universal(corpus)
    for li in corpus:
        verts = sorted(li.labels, key=repr)
        for a, b in itertools.combinations(verts, 2):
            assert un.has_edge(li.labels[a].bits, li.labels[b].bits) == li.graph.has_edge(a, b)


def test_tester_reads_no_codes_on_built_labels(monkeypatch):
    # labels decode their transition codes once, when built or read; the
    # full-pair audit and the assembly only look them up
    corpus = []
    params = LabelParams(n=20, t=2)
    for seed in range(3):
        inst = generate_qt_instance(2, 20, 3 + seed, rng_seed=seed + 5)
        corpus.append(label_instance(build_context(inst, params=params), "fixed"))
    calls = []
    decode = LcpCodec.decode

    def counted(self, before, nu):
        calls.append(nu)
        return decode(self, before, nu)

    monkeypatch.setattr(LcpCodec, "decode", counted)
    for li in corpus:
        verify_labelling(li)
    assemble_universal(corpus)
    assert calls == []
    li = corpus[0]
    g = next(g for g, lab in li.labels.items() if lab.has_next)
    unpack_label(li.labels[g].bits, params)
    assert calls == []  # params already hold this label's view
    unpack_label(li.labels[g].bits, LabelParams(n=20, t=2))
    assert len(calls) == 1  # a label read from bits with fresh params decodes its own code once


def test_built_and_unpacked_labels_agree_with_the_graph():
    for ctx in contexts(range(60, 70), tmax=3, nmax=22):
        for scheme in ("fixed", "legacy"):
            li = label_instance(ctx, scheme)
            back = {g: unpack_label(label.bits, li.params) for g, label in li.labels.items()}
            for g1, g2 in itertools.permutations(sorted(li.labels, key=repr), 2):
                want = li.graph.has_edge(g1, g2)
                for l1, l2 in ((li.labels[g1], back[g2]), (back[g1], li.labels[g2]), (back[g1], back[g2])):
                    assert adjacency_test(l1, l2) == want, (scheme, g1, g2)


def test_assemble_reuses_labels_exactly():
    params = LabelParams(n=18, t=2)
    corpus = []
    for seed in range(4):
        inst = generate_qt_instance(2, 18, seed + 1, rng_seed=seed + 30)
        corpus.append(label_instance(build_context(inst, params=params), "fixed"))
    reread = [
        LabelledInstance(
            li.params, li.scheme,
            {g: unpack_label(label.bits, li.params) for g, label in li.labels.items()},
            li.graph,
        )
        for li in corpus
    ]
    edges = {frozenset(e) for e in assemble_universal(corpus).edges()}
    assert edges == {frozenset(e) for e in assemble_universal(reread).edges()}


@functools.cache
def mutant_instances():
    ctx = build_context(generate_qt_instance(2, 64, 4, rng_seed=5))
    out = []
    for scheme in ("fixed", "legacy"):
        li = label_instance(ctx, scheme)
        keys = sorted(li.labels, key=repr)
        out.append((li.params, [li.labels[g].bits for g in keys], [li.labels[g] for g in keys]))
    return out


# explicit mutants: flip 21 gives colour 3, flip 23 an own-colour depth past
# the row signature, flip 6 a strip hint that contradicts alpha1, and flip 57
# trailing bits behind the first 10 bits, a header the params have memoized
@example(0, 0, "flip", 21, "")
@example(0, 0, "flip", 23, "")
@example(0, 0, "flip", 6, "")
@example(0, 0, "flip", 57, "")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(0, 1),
    st.integers(0, 63),
    st.sampled_from(["flip", "cut", "extend"]),
    st.integers(0, 200),
    st.text(alphabet="01", min_size=1, max_size=8),
)
def test_unpack_is_total_on_mutants(scheme, k, kind, pos, tail):
    params, packed, labels = mutant_instances()[scheme]
    bits = packed[k]
    pos %= len(bits)
    if kind == "flip":
        bits = bits[:pos] + "10"[int(bits[pos])] + bits[pos + 1:]
    elif kind == "cut":
        bits = bits[:pos]
    else:
        bits = bits + tail
    # params hold the views of every label of the instance and of every
    # earlier mutant; a mutant decodes, or is refused with the same text,
    # as through fresh params, and again the second time, as no error is kept
    got = decoded(unpack_label, bits, params)
    assert got == decoded(unpack_label, bits, fresh(params)) == decoded(unpack_label, bits, params)
    if isinstance(got, str):
        return
    mutant = got[0]
    for other in labels:
        if other.scheme != mutant.scheme:
            with pytest.raises(ValueError):
                adjacency_test(mutant, other)
            continue
        assert adjacency_test(mutant, other) in (True, False)
        assert adjacency_test(other, mutant) in (True, False)


@functools.cache
def tall_labels(scheme: str):
    """The params and the bits of every label of a tall-shaped instance, t=2 n=1024 h=64."""
    li = label_instance(build_context(generate_qt_instance(2, 1024, 64, rng_seed=1)), scheme)
    return li.params, [li.labels[g].bits for g in sorted(li.labels, key=repr)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_view_memo_changes_no_decoded_label(scheme):
    # every label packs to the reference bits through the params that
    # labelled it, and decodes as the reference decodes it through warm
    # params, fresh params, and the warm params again
    for ctx in contexts(range(40, 46)):
        li = label_instance(ctx, scheme)
        for g in sorted(li.labels, key=repr):
            label = li.labels[g]
            assert pack_label(label, li.params) == reference_pack(label, li.params) == label.bits
            want = decoded(reference_unpack, label.bits, fresh(li.params))
            for params in (li.params, fresh(li.params), li.params):
                assert decoded(unpack_label, label.bits, params) == want
    # one params shared by every label, and fresh params per label, decode
    # the same fields and derive the same tester views
    params, packed = tall_labels(scheme)
    shared = fresh(params)
    for bits in packed:
        assert decoded(unpack_label, bits, shared) == decoded(unpack_label, bits, fresh(params))
    # every row repeats the host's layout, so most labels share a view and a header
    assert sum(len(k) == 8 for k in shared.views) < len(packed) // 8
    assert len(shared.heads) <= 64 and len(shared.depth_blocks) < len(packed) // 8


def test_a_mutant_behind_a_memoized_header_decodes_as_through_fresh_params():
    # the params hold the header of every label of the instance; a flip or
    # cut past it keeps that header, and decodes, or is refused with the same
    # text, as the reference does through fresh params
    params, packed, labels = mutant_instances()[0]
    checked = 0
    for bits, label in list(zip(packed, labels))[::4]:
        head = next(bits[:k] for k in range(len(bits)) if bits[:k] in params.heads)
        assert params.heads[head][3:] == (label.alpha1, label.hint)
        for pos in range(len(head), len(bits)):
            for mutant in (bits[:pos] + "10"[int(bits[pos])] + bits[pos + 1:], bits[:pos]):
                want = decoded(reference_unpack, mutant, fresh(params))
                assert decoded(unpack_label, mutant, params) == want == decoded(unpack_label, mutant, fresh(params))
                checked += 1
    assert checked > 1000


def test_decoded_wide_labels_share_their_parent_slot_dicts():
    # on t=2 n=512 h=2 almost every label has its own view; equal slot dicts
    # are interned, so the labels hold less than the 1,549 B each they held
    # with two dicts per view
    li = label_instance(build_context(generate_qt_instance(2, 512, 2, rng_seed=1)), "fixed")
    packed = [li.labels[g].bits for g in sorted(li.labels, key=repr)]
    tracemalloc.start()
    try:
        shared = fresh(li.params)
        labels = [unpack_label(bits, shared) for bits in packed]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slot_dicts = {id(d) for label in labels for d in label.parent_slot}
    assert len(slot_dicts) == len(shared.slot_maps) < len(labels)
    assert held / len(labels) <= 1100, held / len(labels)


def test_decoded_tall_labels_hold_at_most_1200_bytes_each():
    # flat slot tuples, and tester views shared through the params' memo,
    # which is counted too
    params, packed = tall_labels("fixed")
    tracemalloc.start()
    try:
        shared = fresh(params)
        labels = [unpack_label(bits, shared) for bits in packed]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(labels) == 1024
    assert held / len(labels) <= 1200, held / len(labels)
