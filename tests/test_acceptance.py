"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to see them inline)."""

import random
import time

from afsterm import parse_afs
from afsterm.afs import complete, build_rplus
from afsterm.dp import dependency_pairs, tag
from afsterm.engine import Config, prove, run_corpus, YES, MAYBE
from afsterm.graph import DPGraph, approximate_graph, prune, sccs
from afsterm.orderings import (
    build_constraints, check_certificate, search_poly, PolyInterp, ArgFunRPO,
    rpo_greater, Precedence,
)
from afsterm.orderings.poly import (
    PolyFun, Const, SlotRef, AppSlot, Add, Mul, MaxE, slot_types_for,
    Interpreter, Unsupported,
)
from afsterm.parser import SymbolTable, parse_term_text
from afsterm.selection import formative_rules, usable_rules
from afsterm.terms import (
    Base, Arrow, TypeDecl, FunctionSymbol, Variable, Var, FunApp, EXT,
    bounded_reductions, free_vars, term_text,
)

from helpers import (
    CORPUS, load, random_term, random_closed_term, eval_nf, nf_slots,
    MONOTONE_SAMPLES, apply_subst, reached, symbol, untag,
)
from test_certcheck import mutate_poly, sample_validates
from test_graph import TestSccOracle

nat = Base("nat")


def report(num: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def canonical(pair_text_pairs):
    """Pairs as (lhs, rhs) text with free variables renamed by occurrence."""
    out = set()
    for lhs, rhs in pair_text_pairs:
        seen: dict[str, str] = {}

        def rename(t):
            parts = []
            token = ""
            for ch in t:
                if ch.isalnum() or ch in "_'!{}":
                    token += ch
                else:
                    parts.append(token)
                    parts.append(ch)
                    token = ""
            parts.append(token)
            return parts

        def norm(text, binder_safe=False):
            # canonically rename single-letter-ish variable tokens
            toks = rename(text)
            out_toks = []
            for tok in toks:
                if tok and tok[0].isalpha() and tok not in seen and _is_varname(tok):
                    seen[tok] = f"v{len(seen)}"
                out_toks.append(seen.get(tok, tok))
            return "".join(out_toks)

        out.add((norm(lhs), norm(rhs)))
    return out


_SYMBOLS = {"I", "twice", "s", "o", "nat", "I#", "twice#", "I-", "twice-"}


def _is_varname(tok: str) -> bool:
    return tok not in _SYMBOLS and not tok.endswith("#") and not tok.endswith("-")


def test_criterion_1_twice_dependency_pairs():
    start = time.monotonic()
    afs = complete(load("twice"))
    prob = dependency_pairs(afs)
    elapsed = time.monotonic() - start
    got = canonical([(term_text(p.lhs), term_text(p.rhs)) for p in prob.pairs])
    expected = canonical([
        ("I#(s(n))", "twice(\\x:nat. I(x)) @ n"),
        ("I#(s(n))", "twice#(\\x:nat. I(x))"),
        ("I#(s(n))", "I#(!c{nat})"),
        ("twice#(F)", "F @ (F @ !c{nat})"),
        ("twice#(F)", "F @ !c{nat}"),
        ("twice(F) @ m", "F @ (F @ m)"),
        ("twice(F) @ m", "F @ m"),
    ])
    report(1, got == expected and len(prob.pairs) == 7 and elapsed < 0.1,
           f"twice has exactly the 7 published dependency pairs ({elapsed * 1000:.1f} ms)")


def test_criterion_2_twice_graph():
    afs = complete(load("twice"))
    prob = dependency_pairs(afs)
    start = time.monotonic()
    comps = sccs(approximate_graph(prob))
    elapsed = time.monotonic() - start
    ok = len(comps) == 1 and len(comps[0]) == 6
    # the excluded pair is I#(s(n)) ~> I#(!c{nat})
    excluded = set(range(7)) - set(comps[0])
    ok = ok and excluded == {2} and str(prob.pairs[2]) == "I#(s(n)) ~> I#(!c{nat})"
    report(2, ok and elapsed < 0.1,
           f"one SCC with the 6 published pairs ({elapsed * 1000:.1f} ms)")


def test_criterion_3_twice_formative_rules():
    afs = complete(load("twice"))
    prob = dependency_pairs(afs)
    scc = sccs(prune(approximate_graph(prob)))[0]
    start = time.monotonic()
    fr = formative_rules([prob.pairs[i] for i in scc], afs, build_rplus(afs))
    elapsed = time.monotonic() - start
    got = sorted(str(r) for r in fr)
    ok = got == [
        "I(s(n)) => s(twice(\\x:nat. I(x)) @ n)",   # rule (B)
        "twice(F) @ y => F @ (F @ y)",               # rule (D)
    ]
    report(3, ok and elapsed < 0.1,
           f"formative rules of the twice SCC are exactly (B) and (D) ({elapsed * 1000:.1f} ms)")


def test_criterion_4_paper_witnesses():
    results = []

    # map interpretation
    start = time.monotonic()
    afs = complete(load("map"))
    prob = dependency_pairs(afs, spfp_drop=False)
    cs = build_constraints(sccs(prune(approximate_graph(prob)))[0], prob)
    st = lambda n: slot_types_for(symbol(afs, n))
    J = {
        "map#": PolyFun(st("map"), Add((AppSlot(0, (SlotRef(1),)), SlotRef(1)))),
        "map": PolyFun(st("map"),
                       Add((Mul((SlotRef(1), AppSlot(0, (SlotRef(1),)))), SlotRef(1)))),
        "cons": PolyFun(st("cons"), Add((SlotRef(0), SlotRef(1), Const(1)))),
    }
    cert = PolyInterp(J, tuple(c.pair_index for c in cs.strict_candidates))
    results.append(("map interpretation", check_certificate(cs, cert) is None,
                    time.monotonic() - start))

    # twice stage one
    start = time.monotonic()
    afs = complete(load("twice"))
    prob = dependency_pairs(afs)
    scc = sccs(prune(approximate_graph(prob)))[0]
    cs = build_constraints(scc, prob)
    st = lambda n: slot_types_for(symbol(afs, n))
    ident = PolyFun(st("I"), SlotRef(0))
    ffn = PolyFun(st("twice"), AppSlot(0, (AppSlot(0, (SlotRef(1),)),)))
    J1 = {"I": ident, "I#": ident, "I-": ident, "o": PolyFun((), Const(0)),
          "s": PolyFun(st("s"), Add((SlotRef(0), Const(1)))),
          "twice": ffn, "twice#": ffn}
    cert1 = PolyInterp(J1, (0, 1))
    results.append(("twice interpretation, first stage",
                    check_certificate(cs, cert1) is None, time.monotonic() - start))

    # twice stage two
    start = time.monotonic()
    scc2 = tuple(i for i in scc if i not in (0, 1))
    cs2 = build_constraints(scc2, prob)
    stage2 = PolyFun(st("twice"),
                     Add((MaxE((AppSlot(0, (AppSlot(0, (SlotRef(1),)),)),
                                SlotRef(1))), Const(1))))
    cert2 = PolyInterp({"twice": stage2, "twice#": stage2}, scc2)
    results.append(("twice interpretation, second stage",
                    check_certificate(cs2, cert2) is None, time.monotonic() - start))

    # map precedence on the non-collapsing (static-mode) SCC
    start = time.monotonic()
    prob = dependency_pairs(load("map"))
    scc = sccs(prune(approximate_graph(prob)))[0]
    cert3 = ArgFunRPO({}, (("cons", "map#"), ("map", "cons")), scc)
    results.append(("map precedence",
                    check_certificate(build_constraints(scc, prob), cert3) is None,
                    time.monotonic() - start))

    # the published eval argument function and precedence is for an ordering
    # that contains beta; the path ordering does not, so on the collapsing
    # SCC it must be rejected (abfun's A(B(w)) @ B(w) loop gets such a proof)
    start = time.monotonic()
    afs = complete(load("eval"))
    prob = dependency_pairs(afs)
    comps = sccs(prune(approximate_graph(prob)))
    scc = next(c for c in comps if any(prob.pairs[i].collapsing for i in c))
    cs4 = build_constraints(scc, prob)
    M = symbol(afs, "dom").decl.output
    domp = FunctionSymbol("dom'", TypeDecl((M, M), M), EXT)
    x1, x2 = Variable("x1", M), Variable("x2", M)
    cert4 = ArgFunRPO({"dom": FunApp(domp, (Var(x1), Var(x2)))},
                      (("fun", "dom'"), ("dom'", "s"), ("dom'", "o")), scc)
    results.append(("eval filtering and precedence rejected on the collapsing SCC",
                    check_certificate(cs4, cert4) is not None, time.monotonic() - start))

    ok = all(r[1] and r[2] < 1.0 for r in results)
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'} ({dt * 1000:.0f} ms)"
                       for name, good, dt in results)
    report(4, ok, f"published certificates re-verify: {detail}")


def test_criterion_5_end_to_end_yes():
    results = []
    for name in ("twice", "map", "eval", "mapappend"):
        start = time.monotonic()
        proof = prove(load(name), Config(timeout=60.0))
        dt = time.monotonic() - start
        results.append((name, proof.verdict, dt))
    ok = all(v == YES and dt < 60.0 for _, v, dt in results)
    report(5, ok, "; ".join(f"{n}: {v} in {dt:.2f}s" for n, v, dt in results))


def test_criterion_6_nontermination_soundness():
    start = time.monotonic()
    afs = load("fga")
    proof = prove(afs, Config(timeout=50.0))
    tb = SymbolTable({f.name: f for f in afs.signature}, {})
    f_o = parse_term_text("f(o)", tb)
    ex = bounded_reductions(f_o, afs.rules, 4)
    elapsed = time.monotonic() - start
    loop_ok = ex.loop is not None and ex.loop[0] == ex.loop[-1] == f_o
    # the witness goes through g(\x. f(x), a) and the beta step
    texts = [term_text(t) for t in (ex.loop or ())]
    loop_ok = loop_ok and texts == [
        "f(o)", "g(\\x:nat. f(x), a)", "g(\\x:nat. f(x), b)",
        "(\\x:nat. f(x)) @ o", "f(o)",
    ]
    report(6, proof.verdict == MAYBE and loop_ok,
           f"fga gives MAYBE and the 4-step loop is exhibited ({elapsed:.2f}s)")


def test_criterion_7_usable_rules():
    afs = complete(load("mapappend"))
    prob = dependency_pairs(afs)
    append_pairs = [p for p in prob.pairs if str(p).startswith("append#")]
    start = time.monotonic()
    ur = usable_rules(append_pairs, afs.rules)
    elapsed = time.monotonic() - start
    got = sorted(str(r) for r in ur)
    ok = got == [
        "append(cons(h, t), l) => cons(append(h, t), l)",
        "append(nil, l) => l",
    ]
    report(7, ok and elapsed < 0.1,
           f"append SCC usable rules are exactly the two append rules ({elapsed * 1000:.1f} ms)")


def test_criterion_8a_tag_properties():
    rng = random.Random(801)
    afs = complete(load("twice"))
    failures = 0
    for i in range(1000):
        ty = rng.choice([nat, Arrow(nat, nat)])
        t = random_term(rng, afs, ty, rng.randrange(1, 10))
        if untag(tag(t)) != t:
            failures += 1
        x = Variable("sx", nat)
        s = random_term(rng, afs, nat, rng.randrange(2, 8), env=(x,))
        img = random_term(rng, afs, nat, 4)
        if apply_subst(tag(s), {x: tag(img)}) != tag(apply_subst(s, {x: img})):
            failures += 1
    report(8, failures == 0,
           f"8a tag/untag identity and substitution lemma on 1000 terms, {failures} failures")


def test_criterion_8b_completion_simulation():
    rng = random.Random(802)
    failures = checked = 0
    for path in sorted(CORPUS.glob("*.afs")):
        afs = parse_afs(path.read_text())
        completed = complete(afs)
        for rule in completed.rules:
            if rule.origin != "completion":
                continue
            for _ in range(5):
                gamma = {v: random_closed_term(rng, afs, v.type, 4)
                         for v in sorted(free_vars(rule.lhs), key=lambda v: v.name)}
                start_term = apply_subst(rule.lhs, gamma)
                target = apply_subst(rule.rhs, gamma)
                ex = bounded_reductions(start_term, afs.rules, 4, max_nodes=4000)
                checked += 1
                if not any(u == target for u in reached(ex)):
                    failures += 1
    report(8, failures == 0 and checked > 0,
           f"8b completion simulation on {checked} instances, {failures} failures")


def test_criterion_8c_scc_oracle():
    rng = random.Random(803)
    mismatches = 0
    for _ in range(200):
        n = rng.randrange(1, 13)
        edges = {i: frozenset(j for j in range(n) if rng.random() < 0.25)
                 for i in range(n)}
        g = DPGraph(tuple(range(n)), edges, frozenset(range(n)))
        if sccs(g) != TestSccOracle.brute_sccs(n, edges):
            mismatches += 1
    report(8, mismatches == 0,
           f"8c SCC decomposition matches the brute-force oracle on 200 graphs, {mismatches} mismatches")


def test_criterion_8d_ordering_properties():
    rng = random.Random(804)
    afs = complete(load("twice"))
    prec = Precedence((("I", "s"), ("twice", "I")), frozen=True)
    counterexamples = 0
    samples = 0

    pool = []
    for _ in range(250):
        ty = rng.choice([nat, Arrow(nat, nat)])
        pool.append(random_term(rng, afs, ty, rng.randrange(1, 8)))
    # irreflexivity
    for t in pool:
        samples += 1
        if rpo_greater(t, t, prec):
            counterexamples += 1
    # stability on pairs that compare
    x = Variable("u0", nat)
    images = [random_closed_term(rng, afs, nat, 3) for _ in range(4)]
    for s in pool[:120]:
        for t in pool[:120]:
            if x in free_vars(s) | free_vars(t) and rpo_greater(s, t, prec):
                for img in images:
                    samples += 1
                    if not rpo_greater(apply_subst(s, {x: img}),
                                       apply_subst(t, {x: img}), prec):
                        counterexamples += 1

    # poly comparator soundness sampling over a found certificate
    prob = dependency_pairs(afs)
    cs = build_constraints(sccs(prune(approximate_graph(prob)))[0], prob)
    cert = search_poly(cs)
    assert cert is not None
    interp = Interpreter(cert.assign)
    duties = [(w.lhs, w.rhs) for w in cs.weak]
    duties += [(c.lhs, c.rhs) for c in cs.strict_candidates]
    for lhs, rhs in duties:
        try:
            l_nf, r_nf = interp.sides(lhs, rhs)
        except Unsupported:
            continue
        slots = sorted(nf_slots(l_nf) | nf_slots(r_nf), key=str)
        for _ in range(60):
            assign = {s: rng.randrange(0, 5) for s in slots}
            try:
                lv, rv = eval_nf(l_nf, assign), eval_nf(r_nf, assign)
            except TypeError:
                for s in slots:
                    assign[s] = rng.choice(MONOTONE_SAMPLES)
                try:
                    lv, rv = eval_nf(l_nf, assign), eval_nf(r_nf, assign)
                except TypeError:
                    continue
            samples += 1
            if lv < rv:
                counterexamples += 1
    report(8, counterexamples == 0 and samples >= 1000,
           f"8d ordering properties: {samples} samples, {counterexamples} counterexamples")


def test_criterion_8e_mutations():
    rng = random.Random(805)
    stock = []
    for name in ("twice", "map", "quot", "dupapp"):
        afs = complete(load(name))
        prob = dependency_pairs(afs, spfp_drop=(name != "map"))
        for scc in sccs(prune(approximate_graph(prob))):
            cs = build_constraints(scc, prob)
            cert = search_poly(cs)
            if cert is not None:
                stock.append((cs, cert))
    total = rejected = accepted_valid = 0
    while total < 100:
        cs, cert = stock[total % len(stock)]
        mutant = mutate_poly(rng, cert)
        if mutant.assign == cert.assign:
            continue
        total += 1
        if check_certificate(cs, mutant) is not None:
            rejected += 1
        elif sample_validates(cs, mutant, rng):
            accepted_valid += 1
    ok = rejected >= 95 and rejected + accepted_valid == 100
    report(8, ok,
           f"8e mutation testing: {rejected}/100 rejected, {accepted_valid} accepted mutants genuinely valid")


def test_criterion_9_corpus_gate():
    start = time.monotonic()
    entries = run_corpus(CORPUS, Config(timeout=60.0))
    elapsed = time.monotonic() - start
    ok = (len(entries) == 12
          and all(e.error is None for e in entries)
          and all(e.expect is not None and e.verdict == e.expect for e in entries)
          and elapsed < 300.0)
    detail = ", ".join(f"{e.path.stem}={e.verdict}" for e in entries)
    report(9, ok, f"12-system corpus in {elapsed:.1f}s: {detail}")
