"""Formative rules and usable rules."""

import pytest

from afsterm import parse_afs
from afsterm.afs import complete, build_rplus
from afsterm.dp import dependency_pairs
from afsterm.graph import approximate_graph, prune, sccs
from afsterm.selection import (
    formative_rules, formative_symbols, usable_rules, symb, TypedSymbol,
    NotLocal, ABS, VAR,
)
from afsterm.terms import Base, Arrow

from helpers import corpus_names, load, reference_formative

nat = Base("nat")


def scc_pairs(afs):
    prob = dependency_pairs(afs)
    g = prune(approximate_graph(prob))
    return prob, sccs(g)


class TestFormative:
    def test_twice_scc_exactly_b_and_d(self):
        afs = complete(load("twice"))
        prob = dependency_pairs(afs)
        g = prune(approximate_graph(prob))
        scc = sccs(g)[0]
        fr = formative_rules([prob.pairs[i] for i in scc], afs, build_rplus(afs))
        assert sorted(str(r) for r in fr) == [
            "I(s(n)) => s(twice(\\x:nat. I(x)) @ n)",
            "twice(F) @ y => F @ (F @ y)",
        ]

    def test_variable_arguments_have_none(self):
        afs = complete(load("twice"))
        prob = dependency_pairs(afs)
        # twice#(F) ~> ... : Symb(F) is empty, so no formative rules
        pair = next(p for p in prob.pairs if str(p).startswith("twice#"))
        fr = formative_rules([pair], afs, build_rplus(afs))
        assert fr == []

    def test_eval_collapsing_scc(self):
        afs = complete(load("eval"))
        prob = dependency_pairs(afs)
        pair = next(p for p in prob.pairs if p.collapsing)
        fr = formative_rules([pair], afs, build_rplus(afs))
        assert sorted(str(r) for r in fr) == [
            "dom(o, o, z) => o",
            "dom(x, y, o) => x",
            "eval(fun(F, x, y), z) => F @ dom(x, y, z)",
        ]

    def test_multi_type_closure(self):
        # the funlist system: formative rules of if(true, F1, F2) @ x ~> F1 @ x
        # are (C), (D), (E) and the applied head variant (H)
        src = (
            "SIG\n"
            "  true : bool\n  false : bool\n  nil : funlist\n  s : [nat] -> nat\n"
            "  cons : [(nat -> nat) * funlist] -> funlist\n"
            "  head : [funlist] -> nat -> nat\n"
            "  tail : [funlist] -> funlist\n"
            "  test : [nat -> nat] -> bool\n"
            "  if : [bool * (nat -> string) * (nat -> string)] -> nat -> string\n"
            "VARS\n  F1 : nat -> string\n  F2 : nat -> string\n  F : nat -> nat\n"
            "  t : funlist\n"
            "RULES\n"
            "  if(true, F1, F2) => F1\n"
            "  if(false, F1, F2) => F2\n"
            "  test(\\x:nat. s(x)) => true\n"
            "  head(cons(F, t)) => F\n"
            "  tail(cons(F, t)) => t\n"
        )
        afs = complete(parse_afs(src))
        prob = dependency_pairs(afs)
        pair = next(p for p in prob.pairs
                    if str(p) == "if(true, F1, F2) @ y ~> F1 @ y")
        rplus = build_rplus(afs)
        fs = formative_symbols([pair], afs, rplus)
        expected = {
            TypedSymbol("true", Base("bool")),
            TypedSymbol("test", Base("bool")),
            TypedSymbol("s", nat),
            TypedSymbol(VAR, nat),
            TypedSymbol("head", nat),
            TypedSymbol("cons", Base("funlist")),
            TypedSymbol("tail", Base("funlist")),
            TypedSymbol(ABS, Arrow(nat, nat)),
            TypedSymbol("head", Arrow(nat, nat)),
        }
        assert fs == expected
        fr = formative_rules([pair], afs, rplus)
        assert sorted(str(r) for r in fr) == [
            "head(cons(F, t)) => F",
            "head(cons(F, t)) @ x => F @ x",
            "tail(cons(F, t)) => t",
            "test(\\x:nat. s(x)) => true",
        ]

    def test_not_local_raises(self):
        afs = complete(load("apeq"))
        prob = dependency_pairs(afs)
        with pytest.raises(NotLocal):
            formative_rules(list(prob.pairs), afs, build_rplus(afs))

    def test_monotone_in_pairs(self):
        afs = complete(load("fromchain"))
        prob = dependency_pairs(afs)
        rplus = build_rplus(afs)
        small = formative_rules([prob.pairs[0]], afs, rplus)
        big = formative_rules(list(prob.pairs), afs, rplus)
        assert set(map(str, small)) <= set(map(str, big))
        assert set(map(str, big)) <= set(map(str, rplus))

    def test_same_as_the_per_pair_form_test(self):
        # each rule's form is worked out once; FS and FR stay those of the
        # form test run on every (rule, typed symbol) pair, on every SCC of
        # every local corpus system
        # h(y)'s right-hand side is an abstraction, formative for the
        # pair's argument \x. x
        absform = parse_afs("SIG\n  a : nat\n  h : [nat] -> nat -> nat\n"
                            "  f : [nat -> nat] -> nat\nVARS\n  y : nat\nRULES\n"
                            "  f(\\x:nat. x) => f(h(a))\n  h(y) => \\x:nat. x\n")
        compared = 0
        for name, source in [*((n, load(n)) for n in corpus_names()), ("absform", absform)]:
            afs = complete(source)
            if not afs.local:
                continue
            rplus = build_rplus(afs)
            for spfp_drop in (True, False):
                prob = dependency_pairs(afs, spfp_drop=spfp_drop)
                for scc in sccs(prune(approximate_graph(prob))):
                    pairs = [prob.pairs[i] for i in scc]
                    fs, fr = reference_formative(pairs, rplus)
                    assert formative_symbols(pairs, afs, rplus) == fs, name
                    assert formative_rules(pairs, afs, rplus) == fr, name
                    compared += 1
        assert compared >= 36
        prob = dependency_pairs(absform)
        fr = formative_rules(list(prob.pairs), absform, build_rplus(absform))
        assert "h(y) => \\x:nat. x" in map(str, fr)

    def test_closure_fixpoint(self):
        afs = complete(load("fromchain"))
        prob = dependency_pairs(afs)
        rplus = build_rplus(afs)
        fs = formative_symbols(list(prob.pairs), afs, rplus)
        assert fs is not None
        for rule in formative_rules(list(prob.pairs), afs, rplus):
            inner = symb(rule.lhs)
            assert inner is not None and inner <= fs


class TestUsable:
    def test_append_scc_exact(self):
        afs = complete(load("mapappend"))
        prob = dependency_pairs(afs)
        append_pairs = [p for p in prob.pairs if str(p).startswith("append#")]
        assert len(append_pairs) == 1
        ur = usable_rules(append_pairs, afs.rules)
        assert sorted(str(r) for r in ur) == [
            "append(cons(h, t), l) => cons(append(h, t), l)",
            "append(nil, l) => l",
        ]

    def test_map_scc_takes_all(self):
        afs = complete(load("mapappend"))
        prob = dependency_pairs(afs, spfp_drop=False)
        map_pairs = [p for p in prob.pairs if str(p).startswith("map#")]
        ur = usable_rules(map_pairs, afs.rules)
        assert len(ur) == len(afs.rules)  # collapsing pair forces everything

    def test_empty(self):
        afs = complete(load("mapappend"))
        assert usable_rules([], afs.rules) == []

    def test_risky_noncollapsing_rhs(self):
        afs = complete(load("mapappend"))
        prob = dependency_pairs(afs)
        map_pair = next(p for p in prob.pairs if str(p).startswith("map#"))
        # map's rules contain the risky subterm F @ h, so everything is usable
        ur = usable_rules([map_pair], afs.rules)
        assert len(ur) == len(afs.rules)

    def test_monotone(self):
        afs = complete(load("fromchain"))
        prob = dependency_pairs(afs)
        non_collapsing = [p for p in prob.pairs if not p.collapsing]
        one = usable_rules(non_collapsing[:1], afs.rules)
        both = usable_rules(non_collapsing, afs.rules)
        assert set(map(str, one)) <= set(map(str, both))

    def test_subset_of_base(self):
        afs = complete(load("quot"))
        prob = dependency_pairs(afs)
        base = list(afs.rules)[:2]
        ur = usable_rules(list(prob.pairs), base)
        assert set(map(str, ur)) <= set(map(str, base))
