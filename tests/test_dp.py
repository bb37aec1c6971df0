"""Candidate terms, dependency pairs, tagging."""

import random

import pytest

from afsterm import parse_afs
from afsterm.afs import complete
from afsterm.dp import (
    DependencyPair, candidate_terms, dependency_pairs, tag, untag_rule,
)
from afsterm.parser import SymbolTable, parse_term_text
from afsterm.terms import (
    Base, Arrow, Variable, Var, App, FunApp, lam, term_text, head,
    bounded_reductions, MARKED,
)

from helpers import (
    apply_subst, build_rtag, corpus_names, load, mutants, random_term,
    reached, reference_dependency_pairs, symbol, untag, wide_system,
)

nat = Base("nat")


@pytest.fixture(scope="module")
def twice():
    return complete(load("twice"))


@pytest.fixture(scope="module")
def table(twice):
    return SymbolTable({f.name: f for f in twice.signature},
                       {"n": Variable("n", nat), "m": Variable("m", nat),
                        "F": Variable("F", Arrow(nat, nat))})


class TestCandidates:
    def test_applied_variable_chain(self, twice, table):
        r = parse_term_text("F @ (F @ m)", table)
        cands = candidate_terms(r, twice)
        assert [term_text(c) for c in cands] == ["F @ (F @ m)", "F @ m"]

    def test_bound_variables_closed(self, twice, table):
        r = parse_term_text("s(twice(\\x:nat. I(x)) @ n)", table)
        cands = candidate_terms(r, twice)
        assert [term_text(c) for c in cands] == [
            "twice(\\x:nat. I(x)) @ n",
            "twice(\\x:nat. I(x))",
            "I(!c{nat})",
        ]

    def test_constructor_constant(self, twice, table):
        assert candidate_terms(parse_term_text("o", table), twice) == []

    def test_applied_defined_prefixes(self):
        src = ("SIG\n  a : o\n  b : o\n  c : o\n  d : o\n"
               "  f : [o] -> o -> o -> o -> o\nRULES\n"
               "  f(d) => f(a)\n")
        afs = complete(parse_afs(src))
        tb = SymbolTable({f.name: f for f in afs.signature}, {})
        r = parse_term_text("f(a) @ b @ c @ d", tb)
        cands = candidate_terms(r, afs)
        assert [term_text(t) for t in cands] == [
            "f(a) @ b @ c @ d", "f(a) @ b @ c", "f(a) @ b", "f(a)",
        ]

    def test_bound_head_not_a_candidate(self, twice):
        # x @ y with x bound is not a candidate of g(\x. x @ y)
        src = ("SIG\n  g : [(nat -> nat) -> nat] -> nat\nVARS\n  y : nat\n"
               "  z : nat\nRULES\n")
        afs = parse_afs(src)
        g = symbol(afs, "g")
        x = Variable("x", Arrow(nat, nat))
        y = Variable("y", nat)
        r = FunApp(g, (lam(x, App(Var(x), Var(y))),))
        assert candidate_terms(r, afs) == []


class TestDependencyPairs:
    def test_twice_exact_seven(self, twice):
        prob = dependency_pairs(twice)
        texts = [str(p) for p in prob.pairs]
        assert texts == [
            "I#(s(n)) ~> twice(\\x:nat. I(x)) @ n",
            "I#(s(n)) ~> twice#(\\x:nat. I(x))",
            "I#(s(n)) ~> I#(!c{nat})",
            "twice#(F) ~> F @ (F @ !c{nat})",
            "twice#(F) ~> F @ !c{nat}",
            "twice(F) @ y ~> F @ (F @ y)",
            "twice(F) @ y ~> F @ y",
        ]
        assert [p.collapsing for p in prob.pairs] == [
            False, False, False, True, True, True, True]

    def test_applied_head_pair(self):
        afs = complete(load("abfun"))
        prob = dependency_pairs(afs)
        assert [str(p) for p in prob.pairs] == ["A(B(F)) @ y ~> F @ y"]
        assert prob.pairs[0].kind == "applied-head"

    def test_rule_free(self):
        afs = complete(parse_afs("SIG\n  o : nat\nRULES\n"))
        assert dependency_pairs(afs).pairs == ()

    def test_strict_subterm_filter(self):
        # the candidate g(x) is a strict subterm of the left-hand side
        src = ("SIG\n  g : [nat] -> nat\n  f : [nat] -> nat\nVARS\n  x : nat\nRULES\n"
               "  f(g(x)) => g(x)\n  g(x) => x\n")
        afs = complete(parse_afs(src))
        prob = dependency_pairs(afs)
        assert prob.pairs == ()

    def test_spfp_drop(self):
        afs = complete(load("rec"))
        prob = dependency_pairs(afs)
        assert prob.static_mode
        assert [str(p) for p in prob.pairs] == ["rec#(s(x), y, F) ~> rec#(x, y, F)"]
        full = dependency_pairs(afs, spfp_drop=False)
        assert not full.static_mode
        assert len(full.pairs) == 3

    def test_fga_pairs(self):
        afs = complete(load("fga"))
        prob = dependency_pairs(afs)
        assert [str(p) for p in prob.pairs] == [
            "f#(o) ~> g#(\\x:nat. f(x), a)",
            "f#(o) ~> f#(!c{nat})",
            "f#(o) ~> a#",
            "g#(F, b) ~> F @ o",
        ]

    @pytest.mark.parametrize("name", corpus_names() + ["wide-2001"])
    def test_collapsing_is_a_variable_head(self, name):
        # `collapsing` is set once, when the pair is built
        afs = parse_afs(wide_system(2001)) if name == "wide-2001" else load(name)
        pairs = dependency_pairs(afs, spfp_drop=False).pairs
        assert pairs
        for pair in pairs:
            assert pair.collapsing == isinstance(head(pair.rhs), Var), str(pair)
        built = DependencyPair(pairs[0].lhs, pairs[0].rhs, "candidate", 0)
        assert built.collapsing == pairs[0].collapsing
        with pytest.raises(AttributeError):
            built.collapsing = not built.collapsing

    @pytest.mark.parametrize("name", ["ack", "fga", "twice", "wide-2001"])
    def test_one_marked_symbol_per_defined_symbol(self, name):
        # the graph's head comparisons then meet the same object
        afs = parse_afs(wide_system(2001)) if name == "wide-2001" else load(name)
        marked_roots: dict[str, list] = {}
        for pair in dependency_pairs(afs).pairs:
            for side in (pair.lhs, pair.rhs):
                if isinstance(side, FunApp) and side.fn.kind == MARKED:
                    marked_roots.setdefault(side.fn.name, []).append(side.fn)
        assert marked_roots
        for name, symbols in marked_roots.items():
            assert all(f is symbols[0] for f in symbols), name

    @pytest.mark.parametrize("spfp_drop", [True, False], ids=["spfp-drop", "all-pairs"])
    @pytest.mark.parametrize("name", corpus_names() + ["wide-2001", "wide-2002", "wide-2003"])
    def test_same_problem_as_keying_by_marked_pairs(self, name, spfp_drop):
        # `mark` is injective on an AFS's terms and leaves an application
        # unchanged, so keying the pairs by their unmarked sides keeps the
        # pairs the marked keys kept, in the same order
        afs = (parse_afs(wide_system(int(name[5:]))) if name.startswith("wide")
               else load(name))
        assert dependency_pairs(afs, spfp_drop) == reference_dependency_pairs(afs, spfp_drop)

    def test_a_pair_two_rules_share_is_kept_once(self):
        # neither the corpus nor its mutants repeat a pair or meet a
        # candidate below its own left-hand side: here both happen
        src = ("SIG\n  o : nat\n  g : [nat] -> nat\n  h : [nat] -> nat\n  f : [nat] -> nat\n"
               "VARS\n  x : nat\nRULES\n  f(x) => g(h(x))\n  f(x) => h(x)\n"
               "  f(g(x)) => g(x)\n  g(x) => x\n  h(x) => x\n")
        afs = parse_afs(src)
        problem = dependency_pairs(afs)
        assert [(str(p), p.rule_index) for p in problem.pairs] == [
            ("f#(x) ~> g#(h(x))", 0), ("f#(x) ~> h#(x)", 0)]
        assert problem == reference_dependency_pairs(afs)

    @pytest.mark.parametrize("name", corpus_names())
    def test_same_problem_as_keying_by_marked_pairs_on_mutants(self, name):
        for afs in mutants(name, 9):
            for spfp_drop in (True, False):
                assert (dependency_pairs(afs, spfp_drop)
                        == reference_dependency_pairs(afs, spfp_drop)), \
                    [str(rule) for rule in afs.rules]


class TestTagging:
    def test_paper_example(self):
        # tag(f(\x. g(x, g(o)))) = f(\x. g-(x, g(o)))
        src = ("SIG\n  o : nat\n  g : [nat * nat] -> nat\n"
               "  f : [nat -> nat] -> nat\nRULES\n  g(o, o) => o\n")
        afs = parse_afs(src)
        tb = SymbolTable({f.name: f for f in afs.signature}, {})
        t = parse_term_text("f(\\x:nat. g(x, g(o, o)))", tb)
        assert term_text(tag(t)) == "f(\\x:nat. g-(x, g(o, o)))"

    def test_twice_tagged_rules(self, twice):
        tagged_rules = build_rtag(twice.rules)
        texts = [str(r) for r in tagged_rules]
        assert "I(s(n)) => s(twice(\\x:nat. I-(x)) @ n)" in texts
        # only the I untag rule is kept: no other tagged symbol occurs
        untag_rules = [r for r in tagged_rules if r.origin == "untag"]
        assert [str(r) for r in untag_rules] == ["I-(x1) => I(x1)"]

    def test_untag_inverts_tag(self, twice):
        rng = random.Random(3)
        for _ in range(300):
            t = random_term(rng, twice, rng.choice([nat, Arrow(nat, nat)]),
                            rng.randrange(1, 10))
            assert untag(tag(t)) == t

    def test_tag_substitution_lemma(self, twice):
        # tag(s) with pre-tagged images equals tag(s gamma)
        rng = random.Random(9)
        for _ in range(300):
            x = Variable("sx", nat)
            s = random_term(rng, twice, nat, rng.randrange(2, 9), env=(x,))
            img = random_term(rng, twice, nat, 4)
            lhs = apply_subst(tag(s), {x: tag(img)})
            rhs = tag(apply_subst(s, {x: img}))
            assert lhs == rhs

    def test_drop_vars_by_untag_rules(self, twice):
        # tag with a superfluous variable set reduces to the plain tag image
        # using only the untag rules
        rng = random.Random(13)
        symbols = list(twice.signature)
        untag_rules = [untag_rule(f) for f in symbols]
        for _ in range(60):
            extra = Variable("zz", nat)
            s = random_term(rng, twice, nat, rng.randrange(2, 8), env=(extra,))
            over = tag(s, {extra})
            target = tag(s)
            ex = bounded_reductions(over, untag_rules, 6)
            assert any(u == target for u in reached(ex))

    def test_pairs_well_typed_and_flags(self, twice):
        from afsterm.terms import type_of, head, Var as VarNode
        prob = dependency_pairs(twice)
        for p in prob.pairs:
            type_of(p.lhs)
            type_of(p.rhs)
            assert p.collapsing == isinstance(head(p.rhs), VarNode)
