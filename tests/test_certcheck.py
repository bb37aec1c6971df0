"""Certificate re-verification: the published witnesses and mutation tests."""

import ast
import random
from pathlib import Path

from afsterm.afs import complete
from afsterm.dp import dependency_pairs
from afsterm.graph import approximate_graph, prune, sccs
from afsterm.orderings import (
    build_constraints, check_certificate, search_poly, search_rpo, PolyInterp,
    ArgFunRPO, Projection,
)
from afsterm.orderings import certcheck
from afsterm.orderings.poly import (
    PolyFun, Const, SlotRef, AppSlot, Add, Mul, MaxE, slot_types_for,
    Interpreter, Unsupported,
)
from afsterm.terms import (
    Base, TypeDecl, FunctionSymbol, Variable, Var, FunApp, EXT,
)

from helpers import load, eval_nf, nf_slots, symbol, MONOTONE_SAMPLES

nat = Base("nat")


def build(name, spfp_drop=True):
    afs = complete(load(name))
    prob = dependency_pairs(afs, spfp_drop=spfp_drop)
    comps = sccs(prune(approximate_graph(prob)))
    return afs, prob, comps


def identity_fun(sym):
    return PolyFun(slot_types_for(sym), SlotRef(0))


class TestPaperWitnesses:
    def test_map_interpretation(self):
        afs, prob, comps = build("map", spfp_drop=False)
        cs = build_constraints(comps[0], prob)
        st = lambda n: slot_types_for(symbol(afs, n))
        J = {
            "map#": PolyFun(st("map"), Add((AppSlot(0, (SlotRef(1),)), SlotRef(1)))),
            "map": PolyFun(st("map"),
                           Add((Mul((SlotRef(1), AppSlot(0, (SlotRef(1),)))), SlotRef(1)))),
            "cons": PolyFun(st("cons"), Add((SlotRef(0), SlotRef(1), Const(1)))),
        }
        cert = PolyInterp(J, tuple(c.pair_index for c in cs.strict_candidates))
        assert check_certificate(cs, cert) is None

    def test_twice_stage_one(self):
        afs, prob, comps = build("twice")
        cs = build_constraints(comps[0], prob)
        st = lambda n: slot_types_for(symbol(afs, n))
        ffn = PolyFun(st("twice"), AppSlot(0, (AppSlot(0, (SlotRef(1),)),)))
        J = {
            "I": identity_fun(symbol(afs, "I")),
            "I#": identity_fun(symbol(afs, "I")),
            "I-": identity_fun(symbol(afs, "I")),
            "o": PolyFun((), Const(0)),
            "s": PolyFun(st("s"), Add((SlotRef(0), Const(1)))),
            "twice": ffn,
            "twice#": ffn,
        }
        # strictly removes exactly the two I# pairs (indices 0 and 1)
        cert = PolyInterp(J, (0, 1))
        assert check_certificate(cs, cert) is None
        # claiming strictness on an applied twice pair must fail
        bad = PolyInterp(J, (0, 1, 5))
        assert check_certificate(cs, bad) is not None

    def test_twice_stage_two(self):
        afs, prob, comps = build("twice")
        scc2 = tuple(i for i in comps[0] if i not in (0, 1))
        cs2 = build_constraints(scc2, prob)
        assert not cs2.weak  # no formative rules remain for these pairs
        st = lambda n: slot_types_for(symbol(afs, n))
        stage2 = PolyFun(st("twice"),
                         Add((MaxE((AppSlot(0, (AppSlot(0, (SlotRef(1),)),)),
                                    SlotRef(1))), Const(1))))
        cert = PolyInterp({"twice": stage2, "twice#": stage2}, scc2)
        assert check_certificate(cs2, cert) is None

    def test_eval_argument_function(self):
        # the published certificate belongs to an ordering that contains
        # beta; the path ordering does not (abfun's loop
        # A(B(w)) @ B(w) -> w @ B(w) -> A(B(w)) @ B(w) gets such a proof)
        afs, prob, comps = build("eval")
        scc = next(c for c in comps if any(prob.pairs[i].collapsing for i in c))
        cs = build_constraints(scc, prob)
        M = symbol(afs, "dom").decl.output
        domp = FunctionSymbol("dom'", TypeDecl((M, M), M), EXT)
        x1, x2 = Variable("x1", M), Variable("x2", M)
        cert = ArgFunRPO(
            {"dom": FunApp(domp, (Var(x1), Var(x2)))},
            (("fun", "dom'"), ("dom'", "s"), ("dom'", "o")),
            scc,
        )
        error = check_certificate(cs, cert)
        assert error is not None
        assert "mode local-collapsing" in error

    def test_eval_without_filtering_fails(self):
        # dropping the argument function loses the orientation: the third
        # dom argument is not recoverable
        afs, prob, comps = build("eval")
        scc = next(c for c in comps if any(prob.pairs[i].collapsing for i in c))
        cs = build_constraints(scc, prob)
        cert = ArgFunRPO({}, (("fun", "s"),), scc)
        assert check_certificate(cs, cert) is not None


def mutate_poly(rng, cert):
    """One value-lowering or structure-breaking edit to one interpretation:
    decrement a coefficient, drop a summand, or zero an applied argument."""
    name = rng.choice(sorted(cert.assign))
    fun = cert.assign[name]

    edits = []

    def scan(e, path):
        if isinstance(e, Const):
            if e.value > 0:
                edits.append(("dec", path))
        elif isinstance(e, Add):
            if len(e.parts) > 1:
                for i in range(len(e.parts)):
                    edits.append(("drop", path + (i,)))
            for i, p in enumerate(e.parts):
                scan(p, path + (i,))
        elif isinstance(e, (Mul, MaxE)):
            for i, p in enumerate(e.parts):
                scan(p, path + (i,))
        elif isinstance(e, AppSlot):
            for i, p in enumerate(e.args):
                if p != Const(0):
                    edits.append(("zero", path + (i,)))
                scan(p, path + (i,))
        elif isinstance(e, SlotRef):
            edits.append(("zero", path))

    def rebuild(e, kind, path):
        if not path:
            if kind == "dec":
                assert isinstance(e, Const)
                return Const(e.value - 1)
            return Const(0)
        i = path[0]
        if isinstance(e, Add) and kind == "drop" and len(path) == 1:
            parts = [p for j, p in enumerate(e.parts) if j != i]
            return parts[0] if len(parts) == 1 else Add(tuple(parts))
        if isinstance(e, (Add, Mul, MaxE)):
            parts = list(e.parts)
            parts[i] = rebuild(parts[i], kind, path[1:])
            return type(e)(tuple(parts))
        assert isinstance(e, AppSlot)
        args = list(e.args)
        args[i] = rebuild(args[i], kind, path[1:])
        return AppSlot(e.index, tuple(args))

    scan(fun.body, ())
    if not edits:
        new_body = Const(0)
    else:
        kind, path = edits[rng.randrange(len(edits))]
        new_body = rebuild(fun.body, kind, path)
    assign = dict(cert.assign)
    assign[name] = PolyFun(fun.slot_types, new_body)
    return PolyInterp(assign, cert.strict)


def sample_validates(cs, cert, rng, rounds=25) -> bool:
    """Numeric spot-check that an accepted certificate really orients the
    constraints on sampled valuations."""
    interp = Interpreter(cert.assign)
    duties = [(w.lhs, w.rhs, False) for w in cs.weak]
    duties += [(c.lhs, c.rhs, c.pair_index in cert.strict)
               for c in cs.strict_candidates]
    for lhs, rhs, strict in duties:
        try:
            l_nf, r_nf = interp.sides(lhs, rhs)
        except Unsupported:
            return False
        slots = sorted(nf_slots(l_nf) | nf_slots(r_nf), key=str)
        for _ in range(rounds):
            assign = {}
            for s in slots:
                assign[s] = rng.randrange(0, 5)
            try:
                lv, rv = eval_nf(l_nf, assign), eval_nf(r_nf, assign)
            except TypeError:
                assign = {s: (rng.choice(MONOTONE_SAMPLES)
                              if _needs_callable(l_nf, r_nf, s) else assign[s])
                          for s in slots}
                lv, rv = eval_nf(l_nf, assign), eval_nf(r_nf, assign)
            if strict and not lv > rv:
                return False
            if not strict and not lv >= rv:
                return False
    return True


def _needs_callable(l_nf, r_nf, sid) -> bool:
    def factor_uses(f) -> bool:
        if f[0] != "atom":
            return False
        if f[1] == sid:
            return True
        return any(factor_uses(g) for s in f[2] for _c, fs in s for g in fs)

    def nf_uses(nf) -> bool:
        return any(factor_uses(f) for branch in nf for _c, fs in branch for f in fs)

    return nf_uses(l_nf) or nf_uses(r_nf)


class TestMutations:
    def test_mutated_certificates_rejected(self):
        rng = random.Random(4242)
        # collect valid poly certificates from several systems
        stock = []
        for name in ("twice", "map", "quot", "dupapp"):
            afs, prob, comps = build(name, spfp_drop=(name != "map"))
            for scc in comps:
                cs = build_constraints(scc, prob)
                cert = search_poly(cs)
                if cert is not None:
                    assert check_certificate(cs, cert) is None
                    stock.append((cs, cert))
        assert stock

        total, rejected, accepted_valid = 0, 0, 0
        while total < 100:
            cs, cert = stock[total % len(stock)]
            mutant = mutate_poly(rng, cert)
            if mutant.assign == cert.assign:
                continue
            total += 1
            if check_certificate(cs, mutant) is not None:
                rejected += 1
            else:
                # the checker may accept a mutant only if it is genuinely
                # valid: confirm by numeric sampling
                assert sample_validates(cs, mutant, rng)
                accepted_valid += 1
        assert rejected + accepted_valid == 100
        assert rejected >= 95

    def test_precedence_mutation_rejected(self):
        # map's static-mode SCC is non-collapsing, where the path ordering
        # is a reduction pair
        _afs, prob, comps = build("map")
        cs = build_constraints(comps[0], prob)
        assert cs.mode == "non-collapsing"
        good = ArgFunRPO({}, (("cons", "map#"), ("map", "cons")), comps[0])
        assert check_certificate(cs, good) is None
        # map's rule needs map > cons
        flipped = ArgFunRPO({}, (("cons", "map#"), ("cons", "map")), comps[0])
        assert check_certificate(cs, flipped) is not None

    def test_rpo_certificates_rejected_on_nonterminating_systems(self):
        # abfun loops: with w = \x. A(x) @ x, A(B(w)) @ B(w) -> w @ B(w)
        # -> A(B(w)) @ B(w); fga loops from f(o)
        found = 0
        for name in ("abfun", "fga"):
            for spfp_drop in (True, False):
                _afs, prob, comps = build(name, spfp_drop)
                for scc in comps:
                    cs = build_constraints(scc, prob)
                    cert = search_rpo(cs)
                    if cert is not None:
                        found += 1
                        assert check_certificate(cs, cert) is not None, (name, scc)
        assert found == 2  # abfun's one SCC, in both modes

    def test_projection_mutations(self):
        afs, prob, comps = build("eval")
        scc = next(c for c in comps if str(prob.pairs[c[0]]).startswith("dom#(o"))
        good = Projection({"dom#": 2}, scc)
        assert check_certificate(None, good, scc=scc, pairs=prob.pairs) is None
        bad = Projection({"dom#": 1}, scc)
        assert check_certificate(None, bad, scc=scc, pairs=prob.pairs) is not None
        empty = Projection({"dom#": 2}, ())
        assert check_certificate(None, empty, scc=scc, pairs=prob.pairs) is not None


def _imports(path: Path, package: str) -> list[str]:
    """Absolute names of the modules a source file imports, each also with
    every name it takes from the module (`afsterm.terms.Term`)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            out.append(module)
            out.extend(f"{module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend(a.name for a in node.names)
    return out


def test_checker_imports_nothing_from_the_search():
    imported = _imports(Path(certcheck.__file__), "afsterm.orderings")
    assert imported
    entry_points = {"subterm_criterion", "search_rpo", "pi_options", "orient"}
    assert not [name for name in imported
                if "poly_search" in name or name.rsplit(".", 1)[-1] in entry_points]


def test_orderings_import_nothing_from_the_parser():
    imported = {path.name: _imports(path, "afsterm.orderings")
                for path in Path(certcheck.__file__).parent.glob("*.py")}
    assert "afsterm.terms" in imported["rpo.py"]
    assert {name: [m for m in names if m.split(".")[:2] == ["afsterm", "parser"]]
            for name, names in imported.items()} == {name: [] for name in imported}
