"""Dependency graph approximation, SCCs, pruning."""

import random

import pytest

from afsterm import parse_afs
from afsterm.afs import complete
from afsterm.dp import dependency_pairs
from afsterm.engine import _split_first
from afsterm.graph import DPGraph, approximate_graph, prune, sccs, to_dot

from helpers import all_pairs_edges, corpus_names, load, type_walks, wide_system


def build(name, spfp_drop=True):
    afs = complete(load(name))
    prob = dependency_pairs(afs, spfp_drop=spfp_drop)
    return prob, approximate_graph(prob)


class TestApproximation:
    def test_twice_single_scc_of_six(self):
        prob, g = build("twice")
        comps = sccs(g)
        assert comps == [(0, 1, 3, 4, 5, 6)]
        # the I#(s(n)) ~> I#(!c{nat}) pair is not on any cycle
        assert str(prob.pairs[2]) == "I#(s(n)) ~> I#(!c{nat})"

    def test_eval_edges_as_drawn(self):
        prob, g = build("eval")
        # pairs: 0 dom(s..)~>dom, 1 dom(o..)~>dom(o..), 2 eval~>F dom, 3 eval~>dom#
        index = {str(p): i for i, p in enumerate(prob.pairs)}
        d1 = index["dom#(s(x), s(y), s(z)) ~> dom#(x, y, z)"]
        d2 = index["dom#(o, s(y), s(z)) ~> dom#(o, y, z)"]
        e1 = index["eval#(fun(F, x, y), z) ~> F @ dom(x, y, z)"]
        e2 = index["eval#(fun(F, x, y), z) ~> dom#(x, y, z)"]
        expected = {
            e1: {e1, e2, d1, d2},
            e2: {d1, d2},
            d1: {d1, d2},
            d2: {d2},  # dom#(o,..) cannot reach dom#(s(x),..): o never becomes s
        }
        for i, targets in expected.items():
            assert g.out_edges(i) == frozenset(targets), f"node {i}"

    @pytest.mark.parametrize("name", corpus_names())
    def test_head_buckets_give_the_all_pairs_edges(self, name):
        for spfp_drop in (True, False):
            prob, g = build(name, spfp_drop)
            assert g.edges == all_pairs_edges(prob), spfp_drop

    @pytest.mark.parametrize("seed", [0, 3])
    def test_head_buckets_give_the_all_pairs_edges_on_wide(self, seed):
        prob = dependency_pairs(parse_afs(wide_system(seed)))
        assert approximate_graph(prob).edges == all_pairs_edges(prob)

    def test_each_pair_side_is_typed_once(self, monkeypatch):
        # each side is typed when it is built, so the edge test reads the
        # types and walks no term
        prob = dependency_pairs(parse_afs(wide_system(0)))
        walks = type_walks(monkeypatch)
        approximate_graph(prob)
        assert walks == []

    def test_collapsing_node_reaches_everything(self):
        prob, g = build("twice")
        for i, p in enumerate(prob.pairs):
            if p.collapsing:
                assert g.out_edges(i) == g.alive

    def test_fromchain_sccs(self):
        # without the static-mode drop this is the eight-pair system with
        # SCCs {lteq}, {from}, and {incch, chain-collapsing, chain}
        prob, g = build("fromchain", spfp_drop=False)
        assert len(prob.pairs) == 8
        comps = sccs(g)
        as_named = [tuple(str(prob.pairs[i]).split(" ~>")[0] for i in c) for c in comps]
        assert len(comps) == 3
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 1, 3]
        big = max(comps, key=len)
        texts = [str(prob.pairs[i]) for i in big]
        assert any("incch#" in t for t in texts)
        assert any("~> F @ y" in t for t in texts)
        assert any("chain#(F, from(F @ y, z))" in t for t in texts)

    def test_singleton_without_self_loop(self):
        prob, g = build("eval")
        # eval# ~> dom# has no self loop and is in no SCC
        i = [k for k, p in enumerate(prob.pairs)
             if str(p) == "eval#(fun(F, x, y), z) ~> dom#(x, y, z)"][0]
        assert i not in {n for comp in sccs(g) for n in comp}


class TestPrune:
    def test_eval_prune_drops_one(self):
        prob, g = build("eval")
        pruned = prune(g)
        dropped = g.alive - pruned.alive
        assert len(dropped) == 1
        (i,) = dropped
        assert str(prob.pairs[i]) == "eval#(fun(F, x, y), z) ~> dom#(x, y, z)"

    def test_idempotent(self):
        _, g = build("twice")
        once = prune(g)
        assert prune(once).alive == once.alive

    def test_fully_cyclic_unchanged(self):
        _, g = build("ack")
        assert prune(g).alive == g.alive

    def test_empty(self):
        g = DPGraph((), {}, frozenset())
        assert not prune(g).alive
        assert sccs(g) == []

    def test_prune_equals_scc_union(self):
        for name in ("twice", "eval", "fromchain", "fga"):
            _, g = build(name)
            assert prune(g).alive == {n for c in sccs(g) for n in c}


class TestSccOracle:
    @staticmethod
    def brute_sccs(n, edges):
        reach = [[False] * n for _ in range(n)]
        for i in range(n):
            stack = [i]
            seen = set()
            while stack:
                v = stack.pop()
                for w in edges.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            for w in seen:
                reach[i][w] = True
        comps = {}
        for i in range(n):
            members = tuple(sorted(
                j for j in range(n)
                if reach[i][j] and reach[j][i]
            ))
            # on a cycle: mutually reachable with itself through >= 1 edge
            if reach[i][i]:
                comps[members if members else (i,)] = None
        out = sorted({tuple(sorted(set(c) | {i for i in c})) for c in comps})
        return sorted(out, key=lambda c: c[0])

    def test_random_graphs_match_oracle(self):
        rng = random.Random(42)
        for trial in range(200):
            n = rng.randrange(1, 13)
            edges = {}
            for i in range(n):
                edges[i] = frozenset(
                    j for j in range(n) if rng.random() < 0.25)
            g = DPGraph(tuple(range(n)), edges, frozenset(range(n)))
            got = sccs(g)
            want = self.brute_sccs(n, edges)
            assert got == want, f"trial {trial}: {edges}"


class TestSplitFirst:
    def test_matches_a_from_scratch_decomposition(self):
        # remove a random non-empty part of the first SCC until no SCC is
        # left; after each removal the pruned nodes and the component list
        # must be those of the whole remaining graph
        rng = random.Random(7)
        rounds = 0
        for trial in range(150):
            n = rng.randrange(1, 16)
            edges = {i: frozenset(j for j in range(n) if rng.random() < 0.3)
                     for i in range(n)}
            g = prune(DPGraph(tuple(range(n)), edges, frozenset(range(n))))
            components = sccs(g)
            while components:
                first = components[0]
                removed = tuple(sorted(rng.sample(first, rng.randrange(1, len(first) + 1))))
                dropped, components = _split_first(g, components, removed)
                g = DPGraph(g.pairs, g.edges, g.alive - frozenset(removed))
                pruned = prune(g)
                assert set(dropped) == g.alive - pruned.alive, (trial, removed)
                assert components == sccs(pruned), (trial, removed)
                alive_edges = {i: edges[i] & pruned.alive for i in pruned.alive}
                assert components == TestSccOracle.brute_sccs(n, alive_edges)
                g = pruned
                rounds += 1
        assert rounds > 300


def test_dot_output():
    _, g = build("eval")
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "->" in dot
