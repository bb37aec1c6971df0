"""Constraint construction, the subterm criterion, and both reduction pair
engines with their property guarantees."""

import gc
import itertools
import random
import weakref

import pytest

from afsterm import engine
from afsterm.afs import complete
from afsterm.dp import DependencyPair, dependency_pairs
from afsterm.engine import Config, ReductionPairStep, prove, verify_proof
from afsterm.graph import approximate_graph, prune, sccs
from afsterm.orderings import (
    build_constraints, subterm_criterion, search_poly, search_rpo,
    check_certificate, check_projection, Projection, MODE_NON_COLLAPSING, MODE_BASIC,
    MODE_LOCAL_COLLAPSING, rpo_greater, Precedence,
)
from afsterm.orderings import poly, poly_search, rpo
from afsterm.orderings.constraints import (
    ConstraintSet, StrictCandidate, WeakConstraint, occurring_symbols,
)
from afsterm.orderings.poly import (
    Interpreter, SubtermMemo, compare_terms, PolyFun, Const, SlotRef, AppSlot,
    Add, Mul, slot_types_for, valuation_for, Unsupported,
    PointInterpreter, point_valuation, point_slack, point_code, Domain, POINTS,
)
from afsterm.orderings.poly_search import candidate_templates
from afsterm.parser import SymbolTable, parse_afs, parse_term_text
from afsterm.prooftext import parse_proof
from afsterm.terms import (
    Base, Arrow, Variable, Var, App, FunApp, FunctionSymbol, TypeDecl, lam, term_text,
    type_of, free_vars, head, mark, marked,
)

from helpers import (
    GOLDEN, load, corpus_names, random_term, eval_nf, nf_slots, chronological_search_poly,
    point_assignments, MONOTONE_SAMPLES, reference_check_projection,
    reference_subterm_criterion, wide_system, apply_subst, mutants,
)

nat = Base("nat")


def problem_and_sccs(name, spfp_drop=True):
    afs = complete(load(name))
    prob = dependency_pairs(afs, spfp_drop=spfp_drop)
    g = prune(approximate_graph(prob))
    return prob, sccs(g)


class TestBuildConstraints:
    def test_twice_ten_constraints(self):
        prob, comps = problem_and_sccs("twice")
        cs = build_constraints(comps[0], prob)
        assert cs.mode == MODE_LOCAL_COLLAPSING
        assert [s.display for s in cs.S] == ["I-"]
        assert len(cs.strict_candidates) == 6
        assert len(cs.weak) == 4  # two formative rules, one untag, one mark
        labels = sorted(w.label for w in cs.weak)
        assert labels == ["mark", "rule", "rule", "untag"]
        texts = {f"{term_text(c.lhs)} > {term_text(c.rhs)}" for c in cs.strict_candidates}
        assert "I#(s(n)) > twice(\\x:nat. I-(x)) @ n" in texts
        assert "I#(s(n)) > twice#(\\x:nat. I-(x)) @ !c{nat}" in texts

    def test_eval_four_constraints(self):
        prob, comps = problem_and_sccs("eval")
        collapsing = [c for c in comps if any(prob.pairs[i].collapsing for i in c)]
        cs = build_constraints(collapsing[0], prob)
        assert cs.mode == MODE_LOCAL_COLLAPSING
        assert len(cs.strict_candidates) == 1
        assert sorted(f"{term_text(w.lhs)} >= {term_text(w.rhs)}" for w in cs.weak) == [
            "dom(o, o, z) >= o",
            "dom(x, y, o) >= x",
            "eval(fun(F, x, y), z) >= F @ dom(x, y, z)",
        ]

    def test_non_collapsing_gets_pairing_only(self):
        prob, comps = problem_and_sccs("ack")
        cs = build_constraints(comps[0], prob)
        assert cs.mode == MODE_NON_COLLAPSING
        # the ack pairs' usable rules include the ack rules themselves
        rule_weak = [w for w in cs.weak if w.label == "rule"]
        pairing = [w for w in cs.weak if w.label == "pairing"]
        assert rule_weak and pairing

    def test_basic_mode_marking(self):
        prob, comps = problem_and_sccs("apeq")
        scc = next(c for c in comps if any(prob.pairs[i].collapsing for i in c))
        cs = build_constraints(scc, prob)
        assert cs.mode == MODE_BASIC
        assert len(cs.S) == len(prob.afs.signature)
        marks = [w for w in cs.weak if w.label == "mark"]
        assert len(marks) == len(prob.afs.defined)
        rules = [w for w in cs.weak if w.label == "rule"]
        assert len(rules) == len(prob.afs.rules)

    def test_flattening(self):
        prob, comps = problem_and_sccs("twice")
        cs = build_constraints(comps[0], prob)
        for c in cs.strict_candidates:
            assert type_of(c.lhs).is_base()
            assert type_of(c.rhs).is_base()


class TestSubtermCriterion:
    def test_dom_projection(self):
        prob, comps = problem_and_sccs("eval")
        scc = next(c for c in comps
                   if str(prob.pairs[c[0]]).startswith("dom#(o"))
        cert = subterm_criterion(scc, prob.pairs)
        assert cert is not None
        assert cert.nu["dom#"] in (2, 3)
        assert cert.strict == scc

    def test_lteq_projection(self):
        prob, comps = problem_and_sccs("fromchain", spfp_drop=False)
        scc = next(c for c in comps if str(prob.pairs[c[0]]).startswith("lteq#"))
        cert = subterm_criterion(scc, prob.pairs)
        assert cert is not None
        assert cert.nu["lteq#"] in (1, 2)

    def test_inapplicable_when_not_subterm(self):
        prob, comps = problem_and_sccs("quot")
        scc = next(c for c in comps if str(prob.pairs[c[0]]).startswith("quot#"))
        # quot#(s(x),s(y)) ~> quot#(minus(x,y), s(y)): no projection is strict
        assert subterm_criterion(scc, prob.pairs) is None

    def test_collapsing_refused(self):
        prob, comps = problem_and_sccs("twice")
        assert subterm_criterion(comps[0], prob.pairs) is None

    def test_checker_rejects_wrong_index(self):
        prob, comps = problem_and_sccs("eval")
        scc = next(c for c in comps
                   if str(prob.pairs[c[0]]).startswith("dom#(o"))
        bad = Projection({"dom#": 1}, scc)  # o = o is not strict
        assert check_certificate(None, bad, scc=scc, pairs=prob.pairs) is not None

    @staticmethod
    def same_as_the_reference(scc, pairs):
        """The criterion finds the reference enumeration's certificate, and
        the checker gives the reference's verdict on it and on every
        projection of the SCC's head symbols, claiming all pairs strict or
        only the first."""
        cert = subterm_criterion(scc, pairs)
        assert cert == reference_subterm_criterion(scc, pairs)
        heads = {}
        for i in scc:
            for side in (pairs[i].lhs, pairs[i].rhs):
                spine_head = head(side)
                if isinstance(spine_head, FunApp):
                    n = max(len(spine_head.args), 1)
                    heads[spine_head.fn.display] = min(heads.get(spine_head.fn.display, n), n)
        names = sorted(heads)
        claims = [] if cert is None else [cert]
        for choice in itertools.product(*(range(1, heads[n] + 1) for n in names)):
            nu = dict(zip(names, choice))
            claims += [Projection(nu, tuple(scc)), Projection(nu, tuple(scc[:1]))]
        for claim in claims:
            assert check_projection(scc, pairs, claim) == \
                reference_check_projection(scc, pairs, claim), (scc, claim)
        return cert

    @pytest.mark.parametrize("name", corpus_names())
    def test_same_as_the_reference_on_every_corpus_scc(self, name):
        # the top-level SCCs of both modes, and every SCC a proof steps on
        for spfp_drop in (True, False):
            prob, comps = problem_and_sccs(name, spfp_drop)
            for scc in comps:
                self.same_as_the_reference(scc, prob.pairs)
        proof = prove(load(name))
        for step in proof.steps:
            if hasattr(step, "scc"):
                self.same_as_the_reference(step.scc, proof.problem.pairs)

    @pytest.mark.parametrize("seed", [2001, 2002])
    def test_same_as_the_reference_on_wide(self, seed):
        proof = prove(parse_afs(wide_system(seed, 10)))
        found = [self.same_as_the_reference(step.scc, proof.problem.pairs)
                 for step in proof.steps if hasattr(step, "scc")]
        assert found and all(found)

    def test_same_as_the_reference_below_a_binder(self):
        # F occurs below the binder of h#'s argument, x only as an index,
        # so the first pair is strict on nu(h#) = 1 and the second is not;
        # k# has two arguments to choose from
        h = FunctionSymbol("h", TypeDecl((Arrow(nat, nat),), nat))
        g = FunctionSymbol("g", TypeDecl((nat, nat), nat))
        k = FunctionSymbol("k", TypeDecl((nat, nat), nat))
        table = SymbolTable({f.name: f for f in (h, g, k)},
                            {"F": Variable("F", Arrow(nat, nat)), "y": Variable("y", nat)})
        marks = {f.name: marked(f) for f in (h, k)}

        def pair(lhs, rhs):
            return DependencyPair(mark(parse_term_text(lhs, table), marks),
                                  mark(parse_term_text(rhs, table), marks), "candidate", 0)

        pairs = (pair("h(\\x:nat. F @ g(x, y))", "h(F)"),
                 pair("h(\\x:nat. g(x, y))", "h(\\x:nat. x)"),
                 pair("k(g(y, y), y)", "k(y, g(y, y))"))
        assert self.same_as_the_reference((0,), pairs) == Projection({"h#": 1}, (0,))
        assert self.same_as_the_reference((0, 1), pairs) is None
        assert self.same_as_the_reference((2,), pairs) == Projection({"k#": 1}, (2,))
        assert self.same_as_the_reference((0, 2), pairs) == Projection({"h#": 1, "k#": 1}, (0, 2))


class TestPolyComparator:
    def interp_nat(self, assign):
        return Interpreter(assign)

    def test_paper_map_inequalities(self):
        # f(n+m+1)+n+m+1 > max(f(n), n) and friends, as in the map example
        afs = complete(load("map"))
        prob = dependency_pairs(afs, spfp_drop=False)
        cs = build_constraints(sccs(prune(approximate_graph(prob)))[0], prob)
        sym = {f.name: f for f in afs.signature}
        st = lambda n: slot_types_for(sym[n])
        J = {
            "map#": PolyFun(st("map"), Add((AppSlot(0, (SlotRef(1),)), SlotRef(1)))),
            "map": PolyFun(st("map"), Add((Mul((SlotRef(1), AppSlot(0, (SlotRef(1),)))), SlotRef(1)))),
            "cons": PolyFun(st("cons"), Add((SlotRef(0), SlotRef(1), Const(1)))),
            "nil": PolyFun(st("nil"), Const(0)),
        }
        interp = Interpreter(J)
        for c in cs.strict_candidates:
            assert compare_terms(c.lhs, c.rhs, interp, strict=True)
        for w in cs.weak:
            assert compare_terms(w.lhs, w.rhs, interp, strict=False)

    def test_strictness_needs_constant_slack(self):
        afs = complete(load("map"))
        tb = SymbolTable({f.name: f for f in afs.signature},
                         {"h": Variable("h", nat)})
        t = parse_term_text("h", tb)
        interp = Interpreter({})
        assert compare_terms(t, t, interp, strict=False)
        assert not compare_terms(t, t, interp, strict=True)

    def test_case_split_max_monotone(self):
        # max(F(F(m)), m) >= max(F(max(F(m), m)), max(F(m), m)) needs the
        # total-order case split
        afs = complete(load("twice"))
        sym = {f.name: f for f in afs.signature}
        tb = SymbolTable(sym, {"F": Variable("F", Arrow(nat, nat)),
                               "m": Variable("m", nat)})
        lhs = parse_term_text("twice(F) @ m", tb)
        rhs = parse_term_text("F @ (F @ m)", tb)
        ffn = PolyFun(slot_types_for(sym["twice"]),
                      AppSlot(0, (AppSlot(0, (SlotRef(1),)),)))
        interp = Interpreter({"twice": ffn})
        assert compare_terms(lhs, rhs, interp, strict=False)
        assert not compare_terms(lhs, rhs, interp, strict=True)

    def test_soundness_sampling(self):
        # whenever the comparator asserts lhs >= rhs, sampled valuations
        # never contradict it
        rng = random.Random(99)
        afs = complete(load("twice"))
        prob = dependency_pairs(afs)
        comps = sccs(prune(approximate_graph(prob)))
        cs = build_constraints(comps[0], prob)
        cert = search_poly(cs)
        assert cert is not None
        interp = Interpreter(cert.assign)
        samples = 0
        for w in list(cs.weak) + [
                WeakConstraint("pair", c.lhs, c.rhs) for c in cs.strict_candidates]:
            try:
                l_nf, r_nf = interp.sides(w.lhs, w.rhs)
            except Unsupported:
                continue
            slots = nf_slots(l_nf) | nf_slots(r_nf)
            for _ in range(40):
                assign = {}
                for s in sorted(slots, key=str):
                    if str(s).startswith("v:") and "->" in str(s) or "eta" in str(s):
                        assign[s] = rng.choice(MONOTONE_SAMPLES)
                    else:
                        assign[s] = rng.randrange(0, 5)
                # decide by slot kind: functional slots need callables
                for s in sorted(slots, key=str):
                    try:
                        eval_nf(((((1, (("slot", s),)),),)[0],), {s: assign[s]})
                    except TypeError:
                        assign[s] = rng.choice(MONOTONE_SAMPLES)
                    except Exception:
                        pass
                try:
                    lv = eval_nf(l_nf, assign)
                    rv = eval_nf(r_nf, assign)
                except TypeError:
                    continue
                assert lv >= rv
                samples += 1
        assert samples >= 200


class TestPolySearch:
    def test_map_constraints(self):
        afs = complete(load("map"))
        prob = dependency_pairs(afs, spfp_drop=False)
        cs = build_constraints(sccs(prune(approximate_graph(prob)))[0], prob)
        cert = search_poly(cs)
        assert cert is not None
        assert check_certificate(cs, cert) is None

    def test_unsatisfiable_strictness(self):
        afs = complete(load("map"))
        x = Variable("x", Base("list"))
        cs = ConstraintSet(
            (StrictCandidate(0, Var(x), Var(x)),), (), (), MODE_NON_COLLAPSING, afs)
        assert search_poly(cs) is None

    def test_search_results_check(self):
        for name in ("quot", "dupapp"):
            afs = complete(load(name))
            prob = dependency_pairs(afs)
            for scc in sccs(prune(approximate_graph(prob))):
                cs = build_constraints(scc, prob)
                cert = search_poly(cs)
                if cert is not None:
                    assert check_certificate(cs, cert) is None


def shown(templates):
    return [(t.slot_types, t.body) for t in templates]


class TestTemplateStore:
    def test_a_shared_store_serves_the_lists_a_fresh_build_gives(self):
        # one store for every SCC of every corpus system in both `spfp_drop`
        # modes, as if they were one proof.  Each symbol is asked for its
        # S-list too, whether or not it is in S, so that symbols with the
        # same slot types but another declared arity (`twice` and fga's `g`)
        # meet in the store
        store = {}
        served = 0
        for name in corpus_names():
            for spfp_drop in (True, False):
                prob, comps = problem_and_sccs(name, spfp_drop)
                for scc in comps:
                    for f in occurring_symbols(build_constraints(scc, prob)):
                        general = candidate_templates(f, False, store)
                        recovering = candidate_templates(f, True, store)
                        assert shown(general) == shown(candidate_templates(f, False))
                        assert shown(recovering) == shown(candidate_templates(f, True))
                        assert recovering == [
                            t for t in general
                            if all(poly.recovers_argument(t, i) for i in range(f.decl.arity))]
                        # built once: the store serves the same lists again
                        assert candidate_templates(f, False, store) is general
                        assert candidate_templates(f, True, store) is recovering
                        served += 2
        assert (served, len(store)) == (384, 41)  # lists served, lists built

    def test_one_store_serves_every_search_of_a_proof(self, monkeypatch):
        stores = []
        full = poly_search.candidate_templates

        def recorded(f, in_s, store):
            stores.append(store)
            return full(f, in_s, store)

        monkeypatch.setattr(poly_search, "candidate_templates", recorded)
        searches = []
        search = poly_search.search_poly
        monkeypatch.setattr(engine, "search_poly",
                            lambda *args, **kwargs: searches.append(1) or search(*args, **kwargs))
        prove(load("apeq"))
        assert len(searches) > 1
        assert all(store is stores[0] for store in stores)
        # a search called without a store makes its own
        stores.clear()
        prob, comps = problem_and_sccs("apeq")
        cs = build_constraints(comps[0], prob)
        search_poly(cs)
        first = len(stores)
        search_poly(cs)
        assert all(store is stores[0] for store in stores[:first])
        assert stores[first] is not stores[0]


def sides_or_unsupported(lhs, rhs, interp):
    try:
        return interp.sides(lhs, rhs)
    except Unsupported:
        return None


class TestSubtermMemo:
    @pytest.mark.parametrize("name", ["fga", "fromchain"])
    def test_memo_never_changes_a_normal_form(self, name):
        # one memo per constraint set, as in a search, walked through a fixed
        # sequence of assignments that keeps revisiting the first templates
        # and leaves symbols unassigned (Unsupported) now and then
        rng = random.Random(5)
        prob, comps = problem_and_sccs(name)
        binder_cases = 0
        for scc in comps:
            cs = build_constraints(scc, prob)
            s_names = {f.display for f in cs.S}
            sides = [(c.lhs, c.rhs) for c in (*cs.strict_candidates, *cs.weak)]
            memo = SubtermMemo(t for pair in sides for t in pair)
            vals = [valuation_for(pair) for pair in sides]
            options = {f.display: candidate_templates(f, f.display in s_names)[:4]
                       for f in occurring_symbols(cs)}
            for _ in range(40):
                assign = {s: rng.choice(opts) for s, opts in options.items()
                          if rng.random() < 0.95}
                for (lhs, rhs), val in zip(sides, vals):
                    shared = sides_or_unsupported(lhs, rhs, Interpreter(assign, memo, val))
                    assert shared == sides_or_unsupported(lhs, rhs, Interpreter(assign))
            assert memo.table
            for lhs, rhs in sides:
                if term_text(rhs) == "g#(\\x:nat. f-(x), a)":
                    # f- occurs under the binder here and at the top of the
                    # weak constraint f-(x1) >= f(x1); nothing below the
                    # binder is indexed
                    abs_ = rhs.args[0]
                    assert id(rhs) in memo.index
                    assert id(abs_) not in memo.index and id(abs_.body) not in memo.index
                    binder_cases += 1
        assert binder_cases == (name == "fga")

    def test_search_work_is_pinned_and_nothing_outlives_a_search(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compare_terms(*args, **kwargs)

        memos, point_tables, point_writes, nogood_stores = [], [], [], []
        code_tables, entries = [], []

        class PointTable(dict):
            def __setitem__(self, key, value):
                point_writes.append(1)
                super().__setitem__(key, value)

        class CodeTable(dict):
            pass

        class Recorded(SubtermMemo):
            def __init__(self, terms):
                super().__init__(terms)
                self.points = PointTable()
                self.codes = CodeTable()
                memos.append(weakref.ref(self))
                point_tables.append(weakref.ref(self.points))
                code_tables.append(weakref.ref(self.codes))

        def entry(*args):
            entries.append(1)  # a table entry filled from the points
            return point_entry(*args)

        class RecordedNogoods(poly_search._Nogoods):
            def __init__(self):
                super().__init__()
                nogood_stores.append(weakref.ref(self))

        class Tag:
            pass

        # a plain dict cannot be weakly referenced, so each template store
        # gets a tag that lives exactly as long as the store does
        tags = []
        full = poly_search.candidate_templates

        def tagged(f, in_s, store):
            if "tag" not in store:
                store["tag"] = Tag()
                tags.append(weakref.ref(store["tag"]))
            return full(f, in_s, store)

        monkeypatch.setattr(poly_search, "compare_terms", counted)
        monkeypatch.setattr(poly_search, "SubtermMemo", Recorded)
        monkeypatch.setattr(poly_search, "_Nogoods", RecordedNogoods)
        monkeypatch.setattr(poly_search, "candidate_templates", tagged)
        point_entry = poly_search.point_entry
        monkeypatch.setattr(poly_search, "point_entry", entry)
        # a timeout no run reaches, so the counts do not depend on the machine
        cfg = Config(timeout=600.0)
        # `prove` ends fga at its reduction loop, so fga's exhausted search
        # runs on its SCC directly
        fga, fga_sccs = problem_and_sccs("fga")
        counts = []
        gc.disable()  # what a search keeps must be freed without the collector
        try:
            for _ in range(2):
                for name in ("fga", "fromchain"):
                    calls.clear()
                    point_writes.clear()
                    entries.clear()
                    tags.clear()
                    if name == "fga":
                        assert search_poly(build_constraints(fga_sccs[0], fga)) is None
                    else:
                        prove(load(name), cfg)
                    counts.append((len(calls), len(entries)))
                    assert point_writes
                    assert memos and all(m() is None for m in memos)
                    assert point_tables and all(t() is None for t in point_tables)
                    assert code_tables and all(t() is None for t in code_tables)
                    assert nogood_stores and all(t() is None for t in nogood_stores)
                    # one store per search or proof, freed when it returns
                    assert len(tags) == 1 and tags[0]() is None
        finally:
            gc.enable()
        # compare_terms calls and point entries: fga's exhausted search, then
        # fromchain's proof
        assert counts == [(316, 31_462), (120, 2_060)] * 2
        searches = []
        monkeypatch.setattr(engine, "search_poly",
                            lambda *args, **kwargs: searches.append(1))
        assert prove(load("fga"), cfg).verdict == "MAYBE"
        assert searches == []


def sampled_comparisons(rng, per_scc):
    """The constraints of every SCC of every corpus system, in both
    `spfp_drop` modes, under `per_scc` sampled assignments of their first
    four templates (a symbol is left unassigned now and then).  Yields
    (lhs, rhs, assign, point interpreter, point valuation): one
    `PointInterpreter` and memo per constraint set, as in a search."""
    for name in corpus_names():
        for spfp_drop in (True, False):
            prob, comps = problem_and_sccs(name, spfp_drop)
            for scc in comps:
                cs = build_constraints(scc, prob)
                s_names = {f.display for f in cs.S}
                sides = [(c.lhs, c.rhs) for c in (*cs.weak, *cs.strict_candidates)]
                terms = [t for pair in sides for t in pair]
                options = {f.display: candidate_templates(f, f.display in s_names)[:4]
                           for f in occurring_symbols(cs)}
                assign = {}
                pval = point_valuation(terms)
                at_points = PointInterpreter(assign, SubtermMemo(terms), pval)
                for _ in range(per_scc):
                    assign.clear()
                    assign.update((s, rng.choice(opts)) for s, opts in options.items()
                                  if rng.random() < 0.95)
                    for lhs, rhs in sides:
                        yield lhs, rhs, dict(assign), at_points, pval


class TestPointFilter:
    def test_points_refute_only_what_compare_terms_rejects(self):
        refuted = {False: 0, True: 0}
        held = 0
        for lhs, rhs, assign, at_points, _ in sampled_comparisons(random.Random(7), 40):
            slack = point_slack(lhs, rhs, at_points)
            if slack is None:
                continue
            interp = Interpreter(assign)
            for strict in (False, True):
                if slack < strict:
                    assert not compare_terms(lhs, rhs, interp, strict)
                    refuted[strict] += 1
                elif not strict:
                    held += compare_terms(lhs, rhs, interp, strict)
        assert refuted[False] > 2000 and refuted[True] > 5000 and held > 5000

    def test_points_agree_with_the_normal_forms(self):
        agreed = 0
        for lhs, rhs, assign, at_points, pval in sampled_comparisons(random.Random(8), 40):
            try:
                nfs = Interpreter(assign).sides(lhs, rhs)
            except Unsupported:
                nfs = None
            try:
                pairs = at_points.sides(lhs, rhs)
            except Unsupported:
                assert nfs is None  # the twins give up on the same terms
                continue
            if nfs is None:  # a normal form grew too large
                continue
            for k, at in enumerate(point_assignments(pval)):
                assert [eval_nf(nf, at) for nf in nfs] == [p[k] for p in pairs]
            agreed += 1
        assert agreed > 5000

    def test_points_are_the_normal_forms_of_every_candidate_template(self, monkeypatch):
        # f(x1..xn) @ y1 .. ym for each symbol of each constraint set that
        # prove builds on the corpus, under each of its candidate templates:
        # the normal form at the two points is the point pair, and a POINTS
        # whose max is + is caught
        built = []
        build = engine.build_constraints
        monkeypatch.setattr(engine, "build_constraints",
                            lambda *args: built.append(build(*args)) or built[-1])
        for name in corpus_names():
            prove(load(name))
        cases = {}
        for cs in built:
            s_names = {f.display for f in cs.S}
            for f in occurring_symbols(cs):
                xs = [Var(Variable(f"x{i + 1}", ty)) for i, ty in enumerate(f.decl.inputs)]
                t = FunApp(f, tuple(xs))
                for j, ty in enumerate(f.decl.output.argument_types()):
                    t = App(t, Var(Variable(f"y{j + 1}", ty)))
                for fun in candidate_templates(f, f.display in s_names):
                    cases[t, f.display, fun] = None

        def agreements(points):
            agreed = 0
            for t, name, fun in cases:
                try:
                    pair = points({name: fun}).sides(t, t)[0]
                    nf = Interpreter({name: fun}).sides(t, t)[0]
                except Unsupported:
                    continue
                at = point_assignments(point_valuation([t]))
                agreed += [eval_nf(nf, at[0]), eval_nf(nf, at[1])] == list(pair)
            return agreed

        class MaxIsAdd(PointInterpreter):
            domain = Domain(POINTS.base_zero, POINTS.const, POINTS.add, POINTS.mul, POINTS.add)

        assert len(cases) > 800
        assert agreements(PointInterpreter) == len(cases)
        assert agreements(MaxIsAdd) < len(cases)

    def test_abfun_rule_is_refuted_at_the_points(self):
        # A(B(F)) @ x >= F @ x under A = x1, B = x1(0) + 2.  Both sides are
        # F(0) + 2 or x, whichever is larger, wherever F(x) is a constant
        # plus x; point B's F grows faster than x, so F @ x is larger there
        afs = load("abfun")
        o = Base("o")
        table = SymbolTable({f.name: f for f in afs.signature},
                            {"F": Variable("F", Arrow(o, o)), "x": Variable("x", o)})
        lhs = parse_term_text("A(B(F)) @ x", table)
        rhs = parse_term_text("F @ x", table)
        sig = {f.name: f for f in afs.signature}
        assign = {"A": PolyFun(slot_types_for(sig["A"]), SlotRef(0)),
                  "B": PolyFun(slot_types_for(sig["B"]),
                               Add((AppSlot(0, (Const(0),)), Const(2))))}
        assert point_slack(lhs, rhs, PointInterpreter(assign)) < 0
        assert not compare_terms(lhs, rhs, Interpreter(assign), strict=False)

    def test_a_point_value_past_the_bound_is_left_to_compare_terms(self):
        # point B cubes the argument sum of a functional variable, so every
        # level of F @ (F @ ..) triples the bit length of the value; a
        # squaring template doubles it
        F, x = Variable("F", Arrow(nat, nat)), Variable("x", nat)
        h = FunctionSymbol("h", TypeDecl((nat,), nat))
        square = {"h": PolyFun((nat,), Mul((SlotRef(0), SlotRef(0))))}

        def nest(wrap, depth):
            t = Var(x)
            for _ in range(depth):
                t = wrap(t)
            return t

        def at_f(depth):
            return nest(lambda t: App(Var(F), t), depth)

        def in_h(depth):
            return nest(lambda t: FunApp(h, (t,)), depth)

        assert point_slack(at_f(4), Var(x), PointInterpreter({})) == 0
        assert point_slack(at_f(12), Var(x), PointInterpreter({})) is None
        assert compare_terms(at_f(12), Var(x), Interpreter({}), strict=False)
        assert point_slack(Var(x), in_h(8), PointInterpreter(square)) < 0
        assert point_slack(Var(x), in_h(16), PointInterpreter(square)) is None

    def test_unsupported_at_the_points_is_left_to_compare_terms(self, monkeypatch):
        # a functional argument to an opaque functional variable: neither
        # interpreter can represent F(\z. z)
        afs = complete(load("map"))
        F = Variable("F", Arrow(Arrow(nat, nat), nat))
        z = Variable("z", nat)
        lhs = App(Var(F), lam(z, Var(z)))
        cs = ConstraintSet(
            (StrictCandidate(0, lhs, lhs),), (), (), MODE_NON_COLLAPSING, afs)
        assert point_slack(lhs, lhs, PointInterpreter({})) is None
        assert not compare_terms(lhs, lhs, Interpreter({}), strict=False)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["strict"])
            return compare_terms(*args, **kwargs)

        monkeypatch.setattr(poly_search, "compare_terms", counted)
        assert search_poly(cs) is None
        assert calls == [False]
        # the verdict is the comparator's: one that accepted both
        # comparisons would orient the pair strictly
        calls.clear()
        monkeypatch.setattr(poly_search, "compare_terms",
                            lambda *args, strict: calls.append(strict) or True)
        assert search_poly(cs) == poly.PolyInterp({}, (0,))
        assert calls == [False, True]


X, X1 = SlotRef(0), Add((SlotRef(0), Const(1)))


def unary_constraints(monkeypatch, picks, weak, strict):
    """A constraint set over unary symbols `nat -> nat` with sides over
    `x : nat`; each symbol's candidates are cut to the given indices into its
    full list (0, 1, x, x + 1, ...).  Strict candidates are pairs 0, 1, ..."""
    names = sorted(picks)
    afs = parse_afs("SIG\n" + "".join(f" {f} : [nat] -> nat\n" for f in names)
                    + f"VARS\n x : nat\nRULES\n {names[0]}(x) => x\n")
    table = SymbolTable({f.name: f for f in afs.signature}, {"x": Variable("x", nat)})

    def sides(text, rel):
        return [parse_term_text(side, table) for side in text.split(f" {rel} ")]

    full = poly_search.candidate_templates
    monkeypatch.setattr(poly_search, "candidate_templates",
                        lambda f, *args: [full(f, *args)[i] for i in picks[f.name]])
    return ConstraintSet(
        tuple(StrictCandidate(i, *sides(c, ">")) for i, c in enumerate(strict)),
        tuple(WeakConstraint("rule", *sides(c, ">=")) for c in weak),
        (), MODE_NON_COLLAPSING, afs)


class TestBackjumping:
    def test_same_certificate_as_the_chronological_search(self, monkeypatch):
        # every SCC of every corpus system, with the candidate lists cut to
        # their first k templates so that both searches run to the end; the
        # full lists are built once, in one store shared by every search
        full = poly_search.candidate_templates
        store = {}
        outcomes = []
        for name in corpus_names():
            for spfp_drop in (True, False):
                prob, comps = problem_and_sccs(name, spfp_drop)
                for scc in comps:
                    cs = build_constraints(scc, prob)
                    for k in (1, 2, 3, 4, 5, 6, 8, 10, 14):
                        monkeypatch.setattr(poly_search, "candidate_templates",
                                            lambda *args, k=k: full(*args)[:k])
                        got = search_poly(cs, store=store)
                        assert got == chronological_search_poly(cs, store=store), \
                            (name, scc, k)
                        outcomes.append(got is not None)
        assert (outcomes.count(True), outcomes.count(False)) == (64, 260)

    def test_a_nogood_learned_in_one_branch_prunes_a_later_one(self, monkeypatch):
        # symbol order a, b, c, d.  Under c = 0, every d fails `c(d(x)) >= a(x)`
        # for a = x + 1 whatever b is, so that subtree's conflict set is
        # {a, c}; c = x + 1 fails `b(x) >= c(x)` for b = x, so the search
        # moves on to b = x + 1, where the nogood skips the c = 0 subtree
        # (and its point checks of `b(d(x)) >= d(x)`) without entering it.
        # The points refute every failing option here, so the comparisons
        # the nogood saves are point checks, not normal forms.
        cs = unary_constraints(
            monkeypatch, {"a": (3,), "b": (2, 3), "c": (0, 3), "d": (2, 0, 3)},
            ["b(d(x)) >= d(x)", "c(d(x)) >= a(x)", "b(x) >= c(x)"], ["a(x) > x"])
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return entry(*args, **kwargs)

        class Forgetful(poly_search._Nogoods):
            def __setitem__(self, key, value):
                pass  # learns nothing

        # counted where the search fills a table entry from the points
        entry = poly_search.point_entry
        monkeypatch.setattr(poly_search, "point_entry", counted)
        got = search_poly(cs)
        assert got is not None and got == chronological_search_poly(cs)
        assert got.strict == (0,)
        assert {name: fun.body for name, fun in got.assign.items()} == \
            {"a": X1, "b": X1, "c": X1, "d": X}
        learning = len(calls)
        calls.clear()
        monkeypatch.setattr(poly_search, "_Nogoods", Forgetful)
        assert search_poly(cs) == got
        assert (learning, len(calls)) == (13, 15)

    def test_a_learned_strictness_conflict_keeps_the_candidate_positions(self, monkeypatch):
        # symbol order a, b, c.  Under a = x the pair `a(c(x)) > c(x)` is
        # never strict, so with b = x the subtree fails on {a} (strictness)
        # and {b} (`b(x) >= c(x)` for c = x + 1), and the nogood learned at b
        # holds only while a = x: under a = x + 1 the first certificate has
        # b = x.  A nogood that dropped the candidate's position a, or a
        # strictness failure that blamed no position, would lose it.
        cs = unary_constraints(
            monkeypatch, {"a": (2, 3), "b": (2, 3), "c": (2, 3)},
            ["b(a(x)) >= a(x)", "b(x) >= c(x)"], ["a(c(x)) > c(x)"])
        got = search_poly(cs)
        assert got is not None and got == chronological_search_poly(cs)
        assert got.strict == (0,)
        assert {name: fun.body for name, fun in got.assign.items()} == \
            {"a": X1, "b": X, "c": X}

    def test_deadline_ends_the_search_outright(self, monkeypatch):
        # the clock passes the deadline at its 2000th reading; after that the
        # search must neither compare again nor read the clock again
        events = []
        reads = []

        def clock():
            reads.append(1)
            events.append("late" if len(reads) >= 2000 else "read")
            return 1e9 if len(reads) >= 2000 else 0.0

        def counted(*args, **kwargs):
            events.append("compare")
            return compare_terms(*args, **kwargs)

        prob, comps = problem_and_sccs("fga")
        cs = build_constraints(comps[0], prob)
        monkeypatch.setattr(poly_search.time, "monotonic", clock)
        monkeypatch.setattr(poly_search, "compare_terms", counted)
        assert search_poly(cs, deadline=10.0) is None
        assert "compare" in events and events.index("late") == len(events) - 1

    def test_node_cap_ends_the_search(self, monkeypatch):
        # fromchain's one poly search finds its certificate at its 113th DFS
        # node: with exactly that many allowed it returns the golden
        # certificate, with one fewer nothing.  The real cap leaves ten times
        # the largest corpus search, fga's exhausted 12,155 nodes.
        assert poly_search.MAX_NODES >= 10 * 12_155
        afs = load("fromchain")
        problem = dependency_pairs(afs)
        given = parse_proof((GOLDEN / "fromchain.proof").read_text(), problem)
        golden = verify_proof(problem, given)
        step = next(s for s in golden.steps if isinstance(s, ReductionPairStep))
        monkeypatch.setattr(poly_search, "MAX_NODES", 113)
        assert search_poly(step.cs) == step.cert
        monkeypatch.setattr(poly_search, "MAX_NODES", 112)
        assert search_poly(step.cs) is None


class TestPointsFirst:
    """Each option is checked at the points across all its rows, and for
    strictness, before any of its normal forms are built."""

    @staticmethod
    def compared(monkeypatch):
        calls = []

        def counted(lhs, rhs, interp, strict):
            calls.append((term_text(lhs), strict))
            return compare_terms(lhs, rhs, interp, strict=strict)

        monkeypatch.setattr(poly_search, "compare_terms", counted)
        return calls

    def test_a_row_the_points_refute_spares_the_rows_before_it(self, monkeypatch):
        # one symbol, a = x + 1: both weak rows may hold at the points, and
        # the last row, the candidate `x > a(x)`, is below its rhs there
        cs = unary_constraints(monkeypatch, {"a": (3,)},
                               ["a(x) >= x", "a(a(x)) >= a(x)"], ["x > a(x)"])
        calls = self.compared(monkeypatch)
        assert search_poly(cs) is None
        assert calls == []

    @pytest.mark.parametrize("a, compared", [
        # a = x + 1 orients pair 0 strictly, so strictness is not due at b,
        # and b's own pair is compared (weakly: its slack is 0)
        (3, [("a(x)", False), ("a(x)", True), ("b(x)", False)]),
        # a = x leaves no pair strict before b, where it is due: b = x has
        # slack 0, so it fails without a normal form
        (2, [("a(x)", False)]),
    ])
    def test_a_pair_of_slack_0_fails_at_once_where_strictness_is_due(
            self, monkeypatch, a, compared):
        cs = unary_constraints(monkeypatch, {"a": (a,), "b": (2,)}, [],
                               ["a(x) > x", "b(x) > x"])
        calls = self.compared(monkeypatch)
        got = search_poly(cs)
        assert got == chronological_search_poly(cs)
        assert (got is None) == (a == 2)
        assert calls == compared


def filled_from_the_points(monkeypatch):
    """Every comparison a search evaluates at the points as (lhs, rhs,
    assignment, point valuation, slack, whether through `row`)."""
    cases = []

    def record(lhs, rhs, interp, slack, staged=False):
        cases.append((lhs, rhs, dict(interp.assign), interp.val, slack, staged))
        return slack

    class Recording(PointInterpreter):
        def row(self, lhs, rhs, name):
            slack = super().row(lhs, rhs, name)
            return lambda: record(lhs, rhs, self, slack(), True)

    monkeypatch.setattr(poly_search, "PointInterpreter", Recording)
    monkeypatch.setattr(poly_search, "point_slack", lambda lhs, rhs, interp:
                        record(lhs, rhs, interp, point_slack(lhs, rhs, interp)))
    return cases


class TestCompiledTemplates:
    """The search stages the rows of long candidate lists and runs compiled
    templates there; each slack is the one the generic twin, without memo or
    staging, gets by walking the template bodies (`Domain.body`)."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_every_point_entry_is_the_generic_twins(self, monkeypatch, name):
        # every SCC's search in both `spfp_drop` modes, then the proofs of
        # 9 mutants
        cases = filled_from_the_points(monkeypatch)
        for spfp_drop in (True, False):
            prob, comps = problem_and_sccs(name, spfp_drop)
            for scc in comps:
                search_poly(build_constraints(scc, prob))
        for afs in mutants(name, 9):
            prove(afs)
        for lhs, rhs, assign, pval, slack, _ in cases:
            assert slack == point_slack(lhs, rhs, PointInterpreter(assign, None, pval))
        assert cases or name in ("ack", "map", "mapappend", "rec")
        if name == "fromchain":  # its two long rows: chain and chain#
            assert sum(c[-1] for c in cases) > 2000

    def test_a_product_past_the_bound_is_unsupported_not_0(self):
        # h(x) = x * x * 0 on a value of 2,049 to 4,096 bits, g(F^6(x)) with
        # g(x) = x * x: the second product is past the bound, so the points
        # give up although the product is 0, as their walk of the body does
        F, x = Variable("F", Arrow(nat, nat)), Variable("x", nat)
        g, h = (FunctionSymbol(name, TypeDecl((nat,), nat)) for name in "gh")
        huge = Var(x)
        for _ in range(6):
            huge = App(Var(F), huge)
        huge = FunApp(g, (huge,))
        lhs, rhs = FunApp(h, (huge,)), Var(x)
        assign = {"g": PolyFun((nat,), Mul((SlotRef(0), SlotRef(0)))),
                  "h": PolyFun((nat,), Mul((SlotRef(0), SlotRef(0), Const(0))))}
        (_, value), _ = PointInterpreter(assign).sides(huge, huge)
        assert 2048 < value.bit_length() <= 4096
        memo = SubtermMemo([lhs, rhs])
        staged = PointInterpreter(assign, memo, point_valuation([lhs, rhs])).row(lhs, rhs, "h")
        assert staged() is None
        assert point_slack(lhs, rhs, PointInterpreter(assign)) is None
        with pytest.raises(Unsupported):
            point_code(assign["h"].body, {})(((0, 2 ** 2100),))
        assert point_code(assign["h"].body, {})(((0, 2 ** 2000),)) == (0, 0)

    def test_a_functional_argument_to_an_opaque_slot_is_unsupported(self):
        # h(F(\z. z)): F's value cannot take a function, in a staged row too
        F = Variable("F", Arrow(Arrow(nat, nat), nat))
        z, x = Variable("z", nat), Variable("x", nat)
        h = FunctionSymbol("h", TypeDecl((nat,), nat))
        lhs, rhs = FunApp(h, (App(Var(F), lam(z, Var(z))),)), Var(x)
        assign = {"h": PolyFun((nat,), Add((SlotRef(0), Const(1))))}
        points = PointInterpreter(assign, SubtermMemo([lhs, rhs]), point_valuation([lhs, rhs]))
        assert points.row(lhs, rhs, "h")() is None
        assert point_slack(lhs, rhs, PointInterpreter(assign)) is None


class TestRpo:
    def fixed_prec(self):
        return Precedence((("f", "g"), ("g", "h")), frozen=True)

    def pool(self, rng, afs, count):
        out = []
        for _ in range(count):
            ty = rng.choice([nat, Arrow(nat, nat)])
            out.append(random_term(rng, afs, ty, rng.randrange(1, 8)))
        return out

    def test_irreflexive(self):
        rng = random.Random(17)
        afs = complete(load("twice"))
        prec = Precedence((("I", "s"), ("twice", "s")), frozen=True)
        for t in self.pool(rng, afs, 400):
            assert not rpo_greater(t, t, prec)

    def test_stability_sampled(self):
        rng = random.Random(23)
        afs = complete(load("twice"))
        prec = Precedence((("I", "s"), ("twice", "I")), frozen=True)
        pool = self.pool(rng, afs, 120)
        x = Variable("u0", nat)
        images = [random_term(rng, afs, nat, 3, allow_free=False) for _ in range(6)]
        checked = 0
        for s in pool:
            for t in pool:
                if x in free_vars(s) | free_vars(t) and rpo_greater(s, t, prec):
                    for img in images:
                        sg = apply_subst(s, {x: img})
                        tg = apply_subst(t, {x: img})
                        assert rpo_greater(sg, tg, prec), \
                            f"{term_text(s)} > {term_text(t)} unstable under {term_text(img)}"
                        checked += 1
        assert checked >= 50

    def test_transitive_sampled(self):
        rng = random.Random(31)
        afs = complete(load("twice"))
        prec = Precedence((("I", "s"), ("twice", "I")), frozen=True)
        pool = self.pool(rng, afs, 60)
        checked = 0
        for a in pool:
            for b in pool:
                if not rpo_greater(a, b, prec):
                    continue
                for c in pool:
                    if rpo_greater(b, c, prec):
                        assert rpo_greater(a, c, prec)
                        checked += 1
        assert checked >= 20

    def test_search_on_eval_constraints(self):
        # the collapsing SCC needs a reduction pair that contains beta, which
        # the path ordering does not (see abfun's loop
        # A(B(w)) @ B(w) -> w @ B(w) -> A(B(w)) @ B(w))
        prob, comps = problem_and_sccs("eval")
        scc = next(c for c in comps if any(prob.pairs[i].collapsing for i in c))
        cs = build_constraints(scc, prob)
        cert = search_rpo(cs)
        assert cert is not None
        error = check_certificate(cs, cert)
        assert error is not None and "mode local-collapsing" in error

    def test_search_on_noncollapsing_map(self):
        prob, comps = problem_and_sccs("map")
        cs = build_constraints(comps[0], prob)
        cert = search_rpo(cs)
        assert cert is not None
        assert check_certificate(cs, cert) is None

    def test_no_argument_function_table_is_oriented_twice(self, monkeypatch):
        # the depth-2 pass re-reaches every depth-1 table and merged table;
        # a table that failed once is skipped, so fromchain's exhausted SCC
        # makes one `orient` call per distinct table
        tables = []
        full = rpo.orient

        def recorded(cs, pi, prec):
            tables.append(frozenset(pi.items()))
            return full(cs, pi, prec)

        monkeypatch.setattr(rpo, "orient", recorded)
        calls = {}
        for name in corpus_names():
            for spfp_drop in (True, False):
                prob, comps = problem_and_sccs(name, spfp_drop)
                for scc in comps:
                    tables.clear()
                    search_rpo(build_constraints(scc, prob))
                    assert len(tables) == len(set(tables)), (name, scc)
                    calls[name, spfp_drop, scc] = len(tables)
        assert calls["fromchain", True, (5,)] == 718

    def test_a_failed_comparison_leaves_the_precedence_as_it_was(self):
        # f(x) > g(y) requests f > g, then fails on f(x) > y; h(f(x), x) >
        # h(g(x), y) requests f > g for its first arguments, then fails on
        # h(f(x), x) > y
        def fun(name, *args):
            return FunApp(FunctionSymbol(name, TypeDecl((nat,) * len(args), nat)), args)

        x, y = Var(Variable("x", nat)), Var(Variable("y", nat))
        for s, t in ((fun("f", x), fun("g", y)),
                     (fun("h", fun("f", x), x), fun("h", fun("g", x), y))):
            prec = Precedence()
            assert not rpo_greater(s, t, prec)
            assert prec.facts() == []
        prec = Precedence()
        assert rpo_greater(fun("f", x), fun("g", x), prec)
        assert prec.facts() == [("f", "g")]

    def test_cyclic_precedence_rejected(self):
        with pytest.raises(ValueError):
            Precedence((("a", "b"), ("b", "a")))
