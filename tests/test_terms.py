"""Core term operations: typing, alpha, substitution, matching, rewriting."""

import random

import pytest

from afsterm import parse_afs, terms
from afsterm.afs import complete
from afsterm.dp import dependency_pairs
from afsterm.orderings.rpo import apply_argfun, template_slots
from afsterm.parser import SymbolTable, parse_term_text
from afsterm.terms import (
    Base, Arrow, TypeDecl, FunctionSymbol, Variable, Var, App, FunApp, lam,
    type_of, IllTyped, match,
    rewrite_step, mark, marked, head, free_vars, subterms,
    term_text, _type_of,
)

from helpers import (
    BudgetExceeded, TypeMismatch, apply_subst, arrow, base_result, bounded_reductions,
    corpus_names, dangling_bvars, exploration_complete, is_beta_normal, load, random_term,
    random_closed_term, normal_forms, reached, symbol, typecheck, wide_system,
)

nat = Base("nat")
natnat = Arrow(nat, nat)


@pytest.fixture(scope="module")
def twice():
    return load("twice")


@pytest.fixture(scope="module")
def table(twice):
    return SymbolTable({f.name: f for f in twice.signature},
                       {"n": Variable("n", nat), "m": Variable("m", nat),
                        "F": Variable("F", natnat)})


def t(text, table):
    return parse_term_text(text, table)


def beta_nf(u):
    """Leftmost-outermost beta normal form: the first beta reduct until none
    is left (terminates on well-typed terms)."""
    while reducts := rewrite_step(u, ()):
        u = reducts[0]
    return u


class TestTyping:
    def test_paper_signature_example(self, twice, table):
        assert typecheck(t("I(s(n))", table), {"n": nat}) == nat

    def test_identity_abstraction(self, table):
        assert type_of(t("\\x:nat. x", table)) == natnat

    def test_arity_violation(self, twice):
        I = symbol(twice, "I")
        o = symbol(twice, "o")
        with pytest.raises(IllTyped):
            type_of(FunApp(I, (FunApp(o), FunApp(o))))

    def test_argument_type_mismatch(self, twice, table):
        I = symbol(twice, "I")
        with pytest.raises(IllTyped):
            type_of(FunApp(I, (t("\\x:nat. x", table),)))

    def test_undeclared_variable(self, table):
        with pytest.raises(IllTyped):
            typecheck(t("s(n)", table), {})


class TestAlpha:
    def test_renamed_binders_equal(self, table):
        assert t("\\x:nat. I(x)", table) == t("\\y:nat. I(y)", table)

    def test_distinct_binders(self, table):
        s1 = t("\\x:nat. \\y:nat. x", table)
        s2 = t("\\x:nat. \\y:nat. y", table)
        assert s1 != s2

    def test_reflexive(self, table):
        u = t("twice(F) @ m", table)
        assert u == t("twice(F) @ m", table)

    def test_hashing_respects_alpha(self, table):
        assert hash(t("\\x:nat. I(x)", table)) == hash(t("\\z:nat. I(z)", table))


class TestSubstitution:
    def test_capture_avoided(self):
        # (\x. y)[y := x] must give \z. x, not \x. x
        x = Variable("x", nat)
        y = Variable("y", nat)
        out = apply_subst(lam(x, Var(y)), {y: Var(x)})
        z = Variable("z", nat)
        assert out == lam(z, Var(x))
        assert out != lam(x, Var(x))

    def test_argument_function_below_a_binder_captures_nothing(self):
        # pi(g) = \z:o. x1 applied to g(y) below \y:nat: y lands below \z
        # and must stay on \y, not be captured by z
        o = Base("o")
        g = FunctionSymbol("g", TypeDecl((nat,), Arrow(o, nat)))
        h = FunctionSymbol("h", TypeDecl((arrow(nat, o, nat),), nat))
        y, z = Variable("y", nat), Variable("z", o)
        [x1] = template_slots(g)
        out = apply_argfun({"g": lam(z, Var(x1))}, FunApp(h, (lam(y, FunApp(g, (Var(y),))),)))
        assert out == FunApp(h, (lam(y, lam(z, Var(y))),))
        assert _type_of(out, (), ()) == nat

    def test_empty_substitution(self, table):
        u = t("twice(\\x:nat. I(x)) @ m", table)
        assert apply_subst(u, {}) == u

    def test_homomorphic(self, table):
        F = Variable("F", natnat)
        y = Variable("y", nat)
        u = App(Var(F), App(Var(F), Var(y)))
        image = apply_subst(u, {F: t("\\x:nat. I(x)", table)})
        assert image == t("(\\x:nat. I(x)) @ ((\\x:nat. I(x)) @ y)",
                          SymbolTable({f.name: f for f in load("twice").signature}, {"y": y}))

    def test_type_preservation_enforced(self, table):
        F = Variable("F", natnat)
        with pytest.raises(TypeMismatch):
            apply_subst(Var(F), {F: t("o", table)})

    def test_substitution_lemma_sampled(self, twice):
        # t[x:=u][g] == t[g'][x := u g] for x not in dom(g)
        rng = random.Random(7)
        checked = 0
        for _ in range(200):
            x = Variable("sx", nat)
            g_var = Variable("gy", nat)
            body = random_term(rng, twice, nat, rng.randrange(2, 7), env=(x, g_var))
            u = random_term(rng, twice, nat, 3, env=(g_var,))
            g_img = random_closed_term(rng, twice, nat, 3)
            gamma = {g_var: g_img}
            lhs = apply_subst(apply_subst(body, {x: u}), gamma)
            rhs = apply_subst(apply_subst(body, gamma), {x: apply_subst(u, gamma)})
            assert lhs == rhs
            checked += 1
        assert checked == 200


class TestMatch:
    def test_first_order(self, twice, table):
        got = match(t("I(s(n))", table), t("I(s(o))", table))
        assert got is not None
        assert got[Variable("n", nat)] == t("o", table)

    def test_higher_order_argument(self, table):
        pat = t("twice(F) @ m", table)
        subj = t("twice(\\x:nat. I(x)) @ o", table)
        got = match(pat, subj)
        assert got is not None
        assert got[Variable("F", natnat)] == t("\\x:nat. I(x)", table)
        assert got[Variable("m", nat)] == t("o", table)

    def test_bound_variable_escape_fails(self, twice):
        # f(\x. y) does not match f(\x. s(x)): y cannot take s(x)
        f = FunctionSymbol("f", TypeDecl((natnat,), nat))
        x = Variable("x", nat)
        y = Variable("y", nat)
        s = symbol(twice, "s")
        pat = FunApp(f, (lam(x, Var(y)),))
        subj = FunApp(f, (lam(x, FunApp(s, (Var(x),))),))
        assert match(pat, subj) is None

    def test_nonlinear_pattern(self, twice, table):
        f = FunctionSymbol("f2", TypeDecl((nat, nat), nat))
        n = Variable("n", nat)
        pat = FunApp(f, (Var(n), Var(n)))
        assert match(pat, FunApp(f, (t("o", table), t("o", table)))) is not None
        assert match(pat, FunApp(f, (t("o", table), t("s(o)", table)))) is None

    def test_match_soundness_sampled(self, twice, table):
        rng = random.Random(21)
        completed = complete(twice)
        pool = [t("I(s(s(o)))", table), t("twice(\\x:nat. I(x)) @ s(o)", table),
                t("I(o)", table), t("twice(\\x:nat. x) @ o", table)]
        hits = 0
        for subj in pool:
            for rule in completed.rules:
                got = match(rule.lhs, subj)
                if got is not None:
                    hits += 1
                    assert apply_subst(rule.lhs, got) == subj
        assert hits >= 3


class TestRewriting:
    def test_beta_only(self, table):
        u = t("(\\x:nat. I(x)) @ o", table)
        assert [term_text(r) for r in rewrite_step(u, [])] == ["I(o)"]

    def test_rule_step(self, twice, table):
        reducts = rewrite_step(t("I(o)", table), complete(twice).rules)
        assert [term_text(r) for r in reducts] == ["o"]

    def test_reducts_well_typed(self, twice, table):
        completed = complete(twice)
        u = t("I(s(twice(\\x:nat. I(x)) @ o))", table)
        for r in rewrite_step(u, completed.rules):
            assert type_of(r) == nat

    def test_beta_below_a_binder_keeps_each_index_on_its_binder(self):
        o = Base("o")
        tb = SymbolTable({"h": FunctionSymbol("h", TypeDecl((natnat,), nat)),
                          "k": FunctionSymbol("k", TypeDecl((arrow(o, nat, o),), o)),
                          "o": FunctionSymbol("o", TypeDecl((), nat))}, {})
        cases = [
            # the redex's body names the binder above it: the index is lowered
            ("h(\\x:nat. (\\y:nat. x) @ o)", "h(\\x:nat. x)"),
            # the argument names the binder above and lands below \z:nat in
            # the body: the index is raised, not captured by z
            ("k(\\x:o. (\\y:o. \\z:nat. y) @ x)", "k(\\x:o. \\z:nat. x)"),
        ]
        for text, reduct in cases:
            [r] = rewrite_step(parse_term_text(text, tb), [])
            assert r == parse_term_text(reduct, tb) and term_text(r) == reduct
            assert _type_of(r, (), ()) == r.fn.decl.output  # the walk, not the node's facts

    def test_fga_cycle(self):
        fga = load("fga")
        tb = SymbolTable({f.name: f for f in fga.signature}, {})
        start = parse_term_text("f(o)", tb)
        current = {start}
        for _ in range(4):
            current = {r for u in current for r in rewrite_step(u, fga.rules)}
        assert any(u == start for u in current)

    def test_beta_confluence_smoke(self, twice):
        rng = random.Random(5)
        for _ in range(40):
            u = random_term(rng, twice, nat, rng.randrange(3, 12))
            nf = beta_nf(u)
            assert is_beta_normal(nf)
            # all one-step beta reducts normalize to the same term
            for r in rewrite_step(u, []):
                assert beta_nf(r) == nf


class TestBoundedReductions:
    def test_normal_form(self, twice, table):
        rules = complete(twice).rules
        ex = bounded_reductions(t("o", table), rules, 5)
        assert reached(ex) == {t("o", table)}
        assert exploration_complete(ex, rules, 5) and ex.loop is None

    def test_fga_loop(self):
        fga = load("fga")
        tb = SymbolTable({f.name: f for f in fga.signature}, {})
        ex = bounded_reductions(parse_term_text("f(o)", tb), fga.rules, 4)
        assert ex.loop is not None
        assert ex.loop[0] == ex.loop[-1]

    def test_twice_terminates_in_budget(self, twice, table):
        # exhaustive enumeration: every trace ends in the normal form s(o)
        completed = complete(twice)
        ex = bounded_reductions(t("I(s(o))", table), completed.rules, 20,
                                require_complete=True)
        assert ex.loop is None
        assert normal_forms(ex, completed.rules) == {t("s(o)", table)}

    def test_an_exploration_cut_short_is_incomplete(self, twice, table):
        # one step, or two terms, leave I(s(o))'s reducts unexplored
        rules = complete(twice).rules
        start = t("I(s(o))", table)
        for steps, cap in ((1, None), (20, 2)):
            with pytest.raises(BudgetExceeded) as cut:
                bounded_reductions(start, rules, steps, require_complete=True, max_nodes=cap)
            assert start in reached(cut.value.partial)
            assert normal_forms(cut.value.partial, rules) != {t("s(o)", table)}


class NoIteration:
    """A mapping that may only be looked up by key."""

    def __init__(self, entries):
        self.entries = entries

    def get(self, name, default=None):
        return self.entries.get(name, default)

    def __iter__(self):
        raise AssertionError("mark iterated over the marked symbols")


class TestMisc:
    @pytest.mark.parametrize("name", corpus_names() + ["wide-2001"])
    def test_free_vars_are_the_variables_among_the_subterms(self, name):
        # every subterm of every rule side and of every pair side, also the
        # raw ones below a binder
        afs = parse_afs(wide_system(2001)) if name == "wide-2001" else load(name)
        sides = [u for r in complete(afs).rules for u in (r.lhs, r.rhs)]
        sides += [u for p in dependency_pairs(afs, spfp_drop=False).pairs for u in (p.lhs, p.rhs)]
        checked = 0
        for side in sides:
            for s, _ in subterms(side):
                assert free_vars(s) == frozenset(
                    v.var for v, _ in subterms(s) if isinstance(v, Var)), s
                checked += 1
        assert checked > len(sides)

    def test_mark(self, twice, table):
        marks = {f.name: marked(f) for f in twice.defined}
        lookup = NoIteration(marks)
        u = t("twice(F)", table)
        assert term_text(mark(u, lookup)) == "twice#(F)"
        assert mark(u, lookup).fn is marks["twice"]  # the caller's f#, not a copy
        v = t("twice(F) @ m", table)
        assert mark(v, lookup) == v  # applications are not marked
        assert mark(t("o", table), lookup) == t("o", table)  # constructor

    def test_term_text_collects_free_variables_only_below_a_binder(self, table, monkeypatch):
        collected = []
        monkeypatch.setattr(terms, "free_vars", lambda u: collected.append(u) or free_vars(u))
        u = t("twice(F) @ I(n)", table)
        assert type_of(u) == nat
        assert term_text(u) == "twice(F) @ I(n)"
        assert collected == []
        w = t("twice(\\x:nat. I(x)) @ (twice(\\y:nat. y) @ m)", table)
        assert type_of(w) == nat
        assert term_text(w) == "twice(\\x:nat. I(x)) @ (twice(\\y:nat. y) @ m)"
        assert collected == [w]  # once for the whole term, at the first binder

    def test_a_binder_named_like_a_free_variable_is_renamed(self, table):
        u = t("twice(\\m:nat. I(m)) @ m", table)
        assert type_of(u) == nat
        assert term_text(u) == "twice(\\m1:nat. I(m1)) @ m"
        # enclosing binders are avoided too, and a sibling binder reuses a name
        w = t("twice(\\m:nat. twice(\\m:nat. m) @ m) @ (twice(\\m:nat. m) @ m)", table)
        assert type_of(w) == nat
        assert term_text(w) == (
            "twice(\\m1:nat. twice(\\m2:nat. m2) @ m1) @ (twice(\\m1:nat. m1) @ m)")

    def test_head(self, table):
        u = t("twice(F) @ m @ m", SymbolTable(
            {f.name: f for f in load("twice").signature},
            {"m": Variable("m", nat), "F": Variable("F", Arrow(nat, Arrow(nat, nat)))}))
        # head of an application chain is the leftmost non-application
        h = head(u)
        assert isinstance(h, FunApp) and h.fn.name == "twice"

    def test_free_vars_and_subterms(self, table):
        u = t("twice(\\x:nat. I(x)) @ m", table)
        assert {v.name for v in free_vars(u)} == {"m"}
        assert len(subterms(u)) == 6
        # pre-order, with the binder depth; I(x) lets its index escape
        assert [d for _, d in subterms(u)] == [0, 0, 0, 1, 1, 0]
        assert [dangling_bvars(s) for s, _ in subterms(u)][2:5] == [
            frozenset(), frozenset({0}), frozenset({0})]


class TestRandomTerms:
    @pytest.mark.parametrize("name", corpus_names())
    def test_a_closed_term_of_every_base_and_argument_type(self, name):
        # where no symbol builds a closed term of a type (apeq's `a`), the
        # term is closed by its grounding, not by recursing without end
        afs = load(name)
        types = {b for f in afs.signature for b in (base_result(f.decl.output),)
                 + tuple(base_result(i) for i in f.decl.inputs)}
        types |= {i for f in afs.signature for i in f.decl.inputs}
        rng = random.Random(name)
        for ty in sorted(types, key=str):
            for size in range(1, 9):
                u = random_closed_term(rng, afs, ty, size)
                assert not free_vars(u) and not u.loose and type_of(u) == ty, (ty, size)
