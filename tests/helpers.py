"""Shared test utilities: corpus loading, random well-typed terms, concrete
evaluators for interpretation templates and normal forms, and plain reference
versions of the normal-form sum and of the polynomial search."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import random
import re
import sys
import zlib
from collections import defaultdict
from pathlib import Path
from typing import Optional, Sequence

from afsterm import parse_afs, terms
from afsterm.afs import AFS, IllegalLhs, Rule, complete
from afsterm.dp import DependencyPair, DPProblem, candidate_terms, tag, untag_rule
from afsterm.engine import GiveUp, Preparation, PruneStep, Proof, ReductionPairStep, Step, _ground
from afsterm.graph import _follows, _root, approximate_graph, prune, sccs
from afsterm.orderings import build_constraints, poly_search
from afsterm.orderings.constraints import USER_KINDS, occurring_symbols
from afsterm.orderings.subterm import Projection
from afsterm.parser import ParseError
from afsterm.orderings.poly import (
    Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE, Interpreter, PolyInterp,
    SubtermMemo, compare_terms, valuation_for, _canon_branch, _canon_nf, _guard,
)
from afsterm.record import replace
from afsterm.selection import ABS, VAR, TypedSymbol
from afsterm.terms import (
    Term, Var, BVar, Abs, App, FunApp, FunctionSymbol, Variable, SimpleType, Arrow, Base,
    Exploration, PLAIN, TAGGED, IllTyped, app_spine, beta_reduce_root, fresh_arguments, head,
    lam, mark, marked, strict_subterms_closed, subterms,
    free_vars, replace_nodes, rewrite_step, substitute, symbols_of, type_of, type_text, untagged,
)

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "tests" / "golden"


def load(name: str):
    return parse_afs((CORPUS / f"{name}.afs").read_text())


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.afs"))


def wide_system(seed: int, copies: int = 50) -> str:
    """The source text of the benchmark's generated `wide` system, with
    `copies` copies of each of its systems (50, as the benchmark runs it)."""
    spec = importlib.util.spec_from_file_location("wide", ROOT / "perfbench" / "wide.py")
    wide = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wide)
    return wide.generate(seed, copies)


def _outer_positions(t: Term, path: tuple[int, ...] = ()):
    """(path, node) of t and of each application in it outside every
    binder, in pre-order: the places a mutant may replace.  A path picks a
    `FunApp` argument by its index and an `App`'s function (0) or argument
    (1)."""
    if not path or isinstance(t, (App, FunApp)):
        yield path, t
    if isinstance(t, FunApp):
        for i, a in enumerate(t.args):
            yield from _outer_positions(a, path + (i,))
    elif isinstance(t, App):
        yield from _outer_positions(t.fn, path + (0,))
        yield from _outer_positions(t.arg, path + (1,))


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, FunApp):
        return FunApp(t.fn, t.args[:i] + (_replace_at(t.args[i], rest, new),) + t.args[i + 1:])
    if i == 0:
        return App(_replace_at(t.fn, rest, new), t.arg)
    return App(t.fn, _replace_at(t.arg, rest, new))


def mutants(name: str, count: int) -> list[AFS]:
    """Up to `count` distinct mutants of the corpus system `name`, from a
    generator seeded by the name.  A mutant makes one or two replacements:
    each puts, at a rule's right-hand side or at an application in it
    outside every binder, a different subterm of the same type that some
    rule side has outside every binder.  A mutant is kept only if `AFS`
    accepts its rules."""
    afs = load(name)
    rng = random.Random(zlib.crc32(name.encode()))
    pool = [s for rule in afs.rules for side in (rule.lhs, rule.rhs)
            for s, depth in subterms(side) if not depth]
    seen = {afs.rules}
    out = []
    for _ in range(20 * count):
        rules = list(afs.rules)
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(rules))
            path, site = rng.choice(list(_outer_positions(rules[k].rhs)))
            options = [s for s in pool if s._type == site._type and s != site]
            if options:
                rhs = _replace_at(rules[k].rhs, path, rng.choice(options))
                rules[k] = Rule(rules[k].lhs, rhs)
        if tuple(rules) in seen:
            continue
        seen.add(tuple(rules))
        try:
            out.append(AFS(afs.signature, tuple(rules)))
        except (IllegalLhs, IllTyped):
            continue
        if len(out) == count:
            break
    return out


def count_calls(fn):
    """The number of Python-level calls (`sys.setprofile` call events) made
    while fn() runs, and what it returned.  The garbage collector is paused
    meanwhile: a collection runs the `gc.callbacks` (hypothesis registers
    one), which would count as calls whenever one happened to start."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, result


def type_walks(monkeypatch) -> list[Term]:
    """The terms of the top-level `_type_of` walks from now on, the ones
    `type_of` starts; the walk's recursive calls are not counted."""
    walks: list[Term] = []
    walk = terms._type_of

    def counted(t, binders, pos):
        if not pos:
            walks.append(t)
        return walk(t, binders, pos)

    monkeypatch.setattr(terms, "_type_of", counted)
    return walks


def all_pairs_edges(problem) -> dict[int, frozenset[int]]:
    """The dependency graph's edges by the edge test on every pair of pairs:
    p -> q where p is collapsing or `_follows` holds of their sides' roots."""
    defined = problem.afs.defined_names
    return {i: frozenset(j for j, q in enumerate(problem.pairs)
                         if p.collapsing or _follows(_root(p.rhs), _root(q.lhs), defined))
            for i, p in enumerate(problem.pairs)}


def rederived_steps(proof: Proof) -> list[Step]:
    """The steps of `proof` with the graph work redone from scratch after
    every step: prune the whole graph, then put the first SCC of the whole
    graph into the next SCC step (or give-up) of the proof, and a
    reduction-pair step's constraint set built anew for that SCC."""
    graph = approximate_graph(proof.problem)
    steps: list[Step] = [proof.steps[0]]
    assert isinstance(steps[0], Preparation)
    discharges = iter([s for s in proof.steps[1:] if not isinstance(s, PruneStep)])
    while True:
        pruned = prune(graph)
        dropped = tuple(sorted(graph.alive - pruned.alive))
        if dropped:
            steps.append(PruneStep(dropped))
        graph = pruned
        step = next(discharges, None)
        if step is None:
            return steps
        scc = sccs(graph)[0]
        if isinstance(step, ReductionPairStep):
            step = replace(step, cs=build_constraints(scc, proof.problem))
        steps.append(replace(step, scc=scc))
        if isinstance(step, GiveUp):
            return steps
        graph = replace(graph, alive=graph.alive - frozenset(step.removed))


# Definitions that no command of the package reaches, kept for the tests.


class TypeMismatch(Exception):
    pass


def apply_subst(t: Term, subst: dict[Variable, Term]) -> Term:
    """Capture-avoiding substitution of free variables, checked to be
    type-preserving; bound variables are indices, so none is captured."""
    for v, s in subst.items():
        if type_of(s) != v.type:
            raise TypeMismatch(f"substitution maps {v.name} : {v.type} to a term of type {type_of(s)}")
    return substitute(t, subst)


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associated arrow type from a list of types."""
    result = types[-1]
    for t in reversed(types[:-1]):
        result = Arrow(t, result)
    return result


def base_result(ty: SimpleType) -> Base:
    """The base type at the end of ty's arrows."""
    while isinstance(ty, Arrow):
        ty = ty.right
    return ty


def untag(t: Term) -> Term:
    """t with every tagged symbol f- back to f."""
    return replace_nodes(t, lambda s, args: FunApp(
        untagged(s.fn) if s.fn.kind == TAGGED else s.fn, args))


def symbol(afs: AFS, name: str) -> FunctionSymbol:
    """The signature symbol of `afs` named `name`."""
    for f in afs.signature:
        if f.name == name:
            return f
    raise KeyError(name)


def dangling_bvars(t: Term) -> frozenset[int]:
    """Indices of bound variables escaping t (relative to t's root), from a
    walk over all its subterms."""
    return frozenset(s.index - d for s, d in subterms(t)
                     if isinstance(s, BVar) and s.index >= d)


def is_beta_normal(t: Term) -> bool:
    """No subterm of t is a beta-redex."""
    return not any(isinstance(s, App) and isinstance(s.fn, Abs) for s, _ in subterms(t))


def typecheck(t: Term, env: dict[str, SimpleType]) -> SimpleType:
    """Type of t, whose free variables must be declared in env."""
    for v in free_vars(t):
        if v.name not in env:
            raise IllTyped((), f"undeclared variable {v.name}")
        if env[v.name] != v.type:
            raise IllTyped((), f"variable {v.name} has type {v.type}, declared {env[v.name]}")
    return type_of(t)


def build_rtag(rules: Sequence[Rule]) -> list[Rule]:
    """Rules with tagged right-hand sides, plus the untag rules for tagged
    symbols that actually occur in some tagged right-hand side."""
    tagged_rules = [Rule(r.lhs, tag(r.rhs), origin=r.origin) for r in rules]
    used: dict[str, FunctionSymbol] = {}
    for r in tagged_rules:
        used.update((f.name, f) for f in symbols_of(r.rhs) if f.kind == TAGGED)
    return tagged_rules + [untag_rule(untagged(used[name])) for name in sorted(used)]


def normal_forms(ex: Exploration, rules: Sequence) -> set[Term]:
    """The terms `ex` reached that no rule rewrites."""
    return {t for t in ex.traces if not rewrite_step(t, rules)}


def reached(ex: Exploration) -> set[Term]:
    """The terms `ex` reached, its start included."""
    return set(ex.traces)


def exploration_complete(ex: Exploration, rules: Sequence, max_steps: int) -> bool:
    """No unexpanded frontier remained: every reduct of a term reached in
    fewer than `max_steps` steps was kept (the node cap dropped none), and
    the terms reached in exactly `max_steps` steps are normal forms."""
    return all(not reducts or len(trace) <= max_steps and all(r in ex.traces for r in reducts)
               for trace in ex.traces.values()
               for reducts in [rewrite_step(trace[-1], rules)])


class BudgetExceeded(Exception):
    """Raised by `bounded_reductions` when completeness was required."""

    def __init__(self, partial: Exploration):
        self.partial = partial
        super().__init__("reduction budget exceeded")


def bounded_reductions(t: Term, rules: Sequence, max_steps: int,
                       require_complete: bool = False,
                       max_nodes: Optional[int] = None) -> Exploration:
    """`terms.bounded_reductions`; with require_complete=True, raises
    BudgetExceeded (carrying the partial result) if the frontier was not
    exhausted."""
    ex = terms.bounded_reductions(t, rules, max_steps, max_nodes=max_nodes)
    if require_complete and not exploration_complete(ex, rules, max_steps):
        raise BudgetExceeded(ex)
    return ex


def random_term(rng: random.Random, afs, ty: SimpleType, size: int,
                env: tuple[Variable, ...] = (), allow_free: bool = True) -> Term:
    """A random well-typed term of the given type over the signature."""
    leaves = []
    for v in env:
        if v.type == ty:
            leaves.append(("var", v))
    for f in afs.signature:
        if f.decl.output == ty and f.decl.arity == 0:
            leaves.append(("const", f))
    if allow_free:
        leaves.append(("free", Variable(f"u{rng.randrange(3)}", ty)))

    if size <= 1 or (not ty.is_arrow() and rng.random() < 0.2):
        if leaves:
            kind, payload = rng.choice(leaves)
            return Var(payload) if kind in ("var", "free") else FunApp(payload)
        if size <= 1 and not ty.is_arrow():  # no closed leaf of this base type
            return _ground(ty, afs.signature)

    options = []
    if ty.is_arrow():
        options.append("abs")
    syms = [f for f in afs.signature if f.decl.output == ty and f.decl.arity > 0]
    if syms:
        options.append("fun")
    # application at a base argument type
    base_types = sorted({b.name for f in afs.signature
                         for b in [base_result(f.decl.output)]})
    if base_types and size > 2:
        options.append("app")
    if not options:
        if leaves:
            kind, payload = rng.choice(leaves)
            return Var(payload) if kind in ("var", "free") else FunApp(payload)
        return _ground(ty, afs.signature)

    choice = rng.choice(options)
    if choice == "abs":
        assert isinstance(ty, Arrow)
        x = Variable(f"b{len(env)}", ty.left)
        body = random_term(rng, afs, ty.right, size - 1, env + (x,), allow_free)
        return lam(x, body)
    if choice == "fun":
        f = rng.choice(syms)
        budget = max(1, (size - 1) // max(1, f.decl.arity))
        args = tuple(random_term(rng, afs, a, budget, env, allow_free)
                     for a in f.decl.inputs)
        return FunApp(f, args)
    # application: build fn : sigma -> ty and arg : sigma
    sigma = Base(rng.choice(base_types))
    fn = random_term(rng, afs, Arrow(sigma, ty), size // 2, env, allow_free)
    arg = random_term(rng, afs, sigma, size // 2, env, allow_free)
    return App(fn, arg)


def random_closed_term(rng: random.Random, afs, ty: SimpleType, size: int) -> Term:
    """A random closed well-typed term of the given type.  Where no closed
    leaf of a type is at hand, `engine._ground` closes the term: the fresh
    constant of a base type that no nullary symbol has, as for `apeq`'s
    `a`."""
    return random_term(rng, afs, ty, size, allow_free=False)


def random_starts(name: str, count: int = 50) -> list[Term]:
    """`count` random closed terms of base type over the completed corpus
    system `name`, from a generator seeded by the name."""
    afs = complete(load(name))
    rng = random.Random(zlib.crc32(name.encode()))
    base_types = sorted({base_result(f.decl.output).name for f in afs.signature})
    out = []
    for _ in range(count):
        ty = Base(rng.choice(base_types))
        out.append(random_closed_term(rng, afs, ty, rng.randrange(2, 10)))
    return out


MONOTONE_SAMPLES = [
    lambda *a: 0,
    lambda *a: 1,
    lambda *a: 3,
    lambda *a: (a[0] if a else 0),
    lambda *a: (a[0] + 1 if a else 1),
    lambda *a: (2 * a[0] if a else 0),
    lambda *a: sum(a),
    lambda *a: sum(a) + 2,
]


def monotone_fun(arity: int, a: int, b: int):
    """x1..xk -> a*(x1 + .. + xk)//2 + b: monotone over the naturals, and a
    TypeError unless given exactly `arity` naturals."""
    def f(*xs: int) -> int:
        if len(xs) != arity:
            raise TypeError(f"takes {arity} argument(s), not {len(xs)}")
        return a * sum(xs) // 2 + b
    return f


def eval_expr(e: Expr, env: Sequence) -> int:
    """The value of a template body with naturals in the base slots and
    functions of naturals in the functional slots."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, SlotRef):
        return env[e.index]
    if isinstance(e, AppSlot):
        return env[e.index](*[eval_expr(a, env) for a in e.args])
    if isinstance(e, Add):
        return sum(eval_expr(p, env) for p in e.parts)
    if isinstance(e, Mul):
        out = 1
        for p in e.parts:
            out *= eval_expr(p, env)
        return out
    assert isinstance(e, MaxE)
    return max(eval_expr(p, env) for p in e.parts)


def eval_nf(nf, assign: dict) -> int:
    """The value of a normal form with naturals for its slots and functions
    of naturals for its atoms."""
    best = 0
    for branch in nf:
        total = 0
        for coeff, factors in branch:
            prod = coeff
            for f in factors:
                if f[0] == "slot":
                    prod *= assign[f[1]]
                else:
                    fn = assign[f[1]]
                    prod *= fn(*[eval_nf((arg,), assign) for arg in f[2]])
            total += prod
        best = max(best, total)
    return best


class PointValue(int):
    """A slot's value c at one of the two points of `PointInterpreter`;
    called as an atom of arguments summing to s, it is s at point A, where c
    is 0, and c + s**3 + s at point B."""

    at_b = True

    def __call__(self, *args: int) -> int:
        s = sum(args)
        return self + s ** 3 + s if self.at_b else s


class _AtA(PointValue):
    at_b = False


def point_assignments(pval: dict) -> tuple[dict, dict]:
    """`eval_nf` assignments of the two points of the point valuation
    `pval`: at A every slot is 0 and every atom sums its arguments; at B the
    i-th variable of `pval` is 3 * (i + 1) and eta slots are 0."""
    at_b = defaultdict(lambda: PointValue(0))
    for i, v in enumerate(sorted(pval, key=lambda v: (v.name, type_text(v.type)))):
        at_b[f"v:{v.name}:{type_text(v.type)}"] = PointValue(3 * (i + 1))
    return defaultdict(lambda: _AtA(0)), at_b


def nf_slots(nf) -> set:
    """The ids of every slot and atom occurring in a normal form."""
    out = set()

    def factor(f):
        out.add(f[1])
        if f[0] == "atom":
            for arg in f[2]:
                for m in arg:
                    for g in m[1]:
                        factor(g)

    for branch in nf:
        for _c, factors in branch:
            for f in factors:
                factor(f)
    return out


def nf_add_reference(a, b):
    """`nf_add` as a re-sort and re-merge of every pair of branches."""
    return _guard(_canon_nf([_canon_branch(list(x) + list(y)) for x in a for y in b]))


def chronological_search_poly(cs, store=None):
    """The polynomial search as a plain chronological DFS over
    `symbol_order`: try every option at each position in turn, check each
    constraint once all its symbols are assigned, and prune when no strict
    candidate can still hold strictly.  No backjumping, and one cache of
    comparisons keyed by the option indices of the constraint's symbols: a
    node looks up one row per constraint it checks, keyed by the indices at
    the earlier positions, and indexes it by the option it tries.  `store`
    is handed to `candidate_templates` as `search_poly` hands it on."""
    symbols = occurring_symbols(cs)
    s_names = {f.display for f in cs.S}
    options = {f.display: poly_search.candidate_templates(f, f.display in s_names, store)
               for f in symbols}
    if any(not opts for opts in options.values()):
        return None
    constraints = [(False, c.lhs, c.rhs) for c in cs.weak]
    constraints += [(True, c.lhs, c.rhs) for c in cs.strict_candidates]
    con_syms = [tuple(sorted(f.display for f in symbols_of(lhs) | symbols_of(rhs)
                             if f.kind in USER_KINDS))
                for _cand, lhs, rhs in constraints]
    order = poly_search.symbol_order(set(options), [frozenset(s) for s in con_syms])
    pos_of = {name: i for i, name in enumerate(order)}
    last_at = [max((pos_of[s] for s in syms), default=-1) for syms in con_syms]
    earlier = [sorted({pos_of[s] for s in syms} - {p}) for syms, p in zip(con_syms, last_at)]
    ready: dict[int, list[int]] = {}
    for ci, p in enumerate(last_at):
        ready.setdefault(p, []).append(ci)
    last_cand = max((p for (cand, _l, _r), p in zip(constraints, last_at) if cand),
                    default=-1)
    memo = SubtermMemo(t for _c, lhs, rhs in constraints for t in (lhs, rhs))
    vals = [valuation_for([lhs, rhs]) for _c, lhs, rhs in constraints]
    assign: dict = {}
    chosen: list[int] = []  # the option index at each assigned position
    status: dict[int, bool] = {}
    cache: dict = {}

    def rows(p: int) -> list:
        return [(ci, cache.setdefault((ci, tuple([chosen[q] for q in earlier[ci]])), {}))
                for ci in ready.get(p, ())]

    def holds(ci: int, row: dict, k: int, strict: bool) -> bool:
        if (k, strict) not in row:
            _cand, lhs, rhs = constraints[ci]
            interp = Interpreter(assign, memo, vals[ci])
            row[k, strict] = compare_terms(lhs, rhs, interp, strict=strict)
        return row[k, strict]

    def place(ci: int, row: dict, k: int) -> bool:
        if not holds(ci, row, k, False):
            return False
        if constraints[ci][0]:
            status[ci] = holds(ci, row, k, True)
        return True

    def strict_pairs() -> tuple:
        cands = range(len(cs.weak), len(constraints))
        return tuple(c.pair_index for ci, c in zip(cands, cs.strict_candidates)
                     if status.get(ci))

    def dfs(p: int):
        if p == len(order):
            pairs = strict_pairs()
            return PolyInterp(dict(assign), pairs) if pairs else None
        checks = rows(p)
        chosen.append(0)
        for k, fun in enumerate(options[order[p]]):
            assign[order[p]] = fun
            chosen[p] = k
            if all(place(ci, row, k) for ci, row in checks) \
                    and (p < last_cand or strict_pairs()):
                found = dfs(p + 1)
                if found is not None:
                    return found
        del assign[order[p]]
        chosen.pop()
        return None

    if not all(place(ci, row, 0) for ci, row in rows(-1)):
        return None
    if last_cand == -1 and not strict_pairs():
        return None
    return dfs(0)


def reference_dependency_pairs(afs: AFS, spfp_drop: bool = True) -> DPProblem:
    """`dp.dependency_pairs` as it was before it keyed candidate pairs by
    their unmarked sides: each rule marks its left-hand side and collects
    its strict subterms up front, and every candidate pair is marked before
    it is looked up among the marked pairs seen so far."""
    afs = complete(afs)
    defined = afs.defined_names
    marks = {f.name: marked(f) for f in afs.defined}
    pairs: list[DependencyPair] = []
    seen: set[tuple[Term, Term]] = set()
    for idx, rule in enumerate(afs.rules):
        candidates = candidate_terms(rule.rhs, afs)
        if candidates:
            marked_lhs = mark(rule.lhs, marks)
            strict_subs = set(strict_subterms_closed(rule.lhs))
            for cand in candidates:
                if cand in strict_subs:
                    continue
                pair = (marked_lhs, mark(cand, marks))
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(DependencyPair(pair[0], pair[1], "candidate", idx))
        if type_of(rule.lhs).is_arrow():
            rhead = head(rule.rhs)
            applies = isinstance(rhead, Var) or (
                isinstance(rhead, FunApp) and rhead.fn.kind == PLAIN
                and rhead.fn.name in defined)
            if applies and not isinstance(rule.rhs, Abs):
                lhs, rhs = rule.lhs, rule.rhs
                for y in fresh_arguments(rule.lhs, "y"):
                    lhs, rhs = App(lhs, y), App(rhs, y)
                    if (lhs, rhs) not in seen:
                        seen.add((lhs, rhs))
                        pairs.append(DependencyPair(lhs, rhs, "applied-head", idx))
    static_mode = False
    if spfp_drop and afs.spfp:
        pairs = [p for p in pairs if not p.collapsing]
        static_mode = True
    return DPProblem(tuple(pairs), afs, static_mode=static_mode)


def reference_symb(t: Term, binders: tuple = ()):
    """`selection.symb` as it typed every node with `type_of`."""
    spine_head, args = app_spine(t)
    ty = type_of(t, binders)
    if isinstance(t, Abs):
        inner = reference_symb(t.body, binders + (t.var_type,))
        if inner is None:
            return None
        return frozenset((TypedSymbol(ABS, ty),)) | inner
    if isinstance(spine_head, FunApp):
        out = frozenset((TypedSymbol(spine_head.fn.name, ty),))
        for a in list(spine_head.args) + args:
            inner = reference_symb(a, binders)
            if inner is None:
                return None
            out |= inner
        return out
    if isinstance(spine_head, BVar):
        out = frozenset((TypedSymbol(VAR, ty),))
        for a in args:
            inner = reference_symb(a, binders)
            if inner is None:
                return None
            out |= inner
        return out
    if isinstance(spine_head, Var):
        if args:
            return None
        return frozenset()
    return None


def reference_has_form(t: Term, ts: TypedSymbol) -> bool:
    """The form test `selection` ran on each (rule, typed symbol) pair."""
    if type_of(t) != ts.type:
        return False
    spine_head, _args = app_spine(t)
    if isinstance(spine_head, Var):
        return True
    if ts.head == ABS:
        return isinstance(t, Abs)
    if ts.head == VAR:
        return False
    return isinstance(spine_head, FunApp) and spine_head.fn.name == ts.head \
        and spine_head.fn.kind == PLAIN


def reference_formative(pairs, rplus):
    """The formative symbols and rules by `reference_has_form` on every
    (rule, typed symbol) pair of every closure round: (FS, FR), FS None
    and FR all of rplus when Symb is undefined on some argument."""
    fs: set = set()
    for pair in pairs:
        spine_head, applied = app_spine(pair.lhs)
        for arg in list(spine_head.args) + applied:
            s = reference_symb(arg)
            if s is None:
                return None, list(rplus)
            fs |= s
    changed = True
    while changed:
        changed = False
        for rule in rplus:
            if any(reference_has_form(rule.rhs, a) for a in list(fs)):
                s = reference_symb(rule.lhs)
                if s is None:
                    return None, list(rplus)
                if not s <= fs:
                    fs |= s
                    changed = True
    return frozenset(fs), [r for r in rplus if any(reference_has_form(r.rhs, a) for a in fs)]


def reference_match(pattern: Term, subject: Term, binding: dict) -> bool:
    """`terms._match` as it tried every pattern variable: first the escape
    test by `dangling_bvars`, then the subject's type, then the binding."""
    if isinstance(pattern, Var):
        if dangling_bvars(subject):
            return False
        if type_of(subject) != pattern.var.type:
            return False
        if pattern.var in binding:
            return binding[pattern.var] == subject
        binding[pattern.var] = subject
        return True
    if isinstance(pattern, BVar):
        return isinstance(subject, BVar) and pattern.index == subject.index
    if isinstance(pattern, Abs):
        return (isinstance(subject, Abs) and pattern.var_type == subject.var_type
                and reference_match(pattern.body, subject.body, binding))
    if isinstance(pattern, App):
        return (isinstance(subject, App)
                and reference_match(pattern.fn, subject.fn, binding)
                and reference_match(pattern.arg, subject.arg, binding))
    return (isinstance(subject, FunApp) and pattern.fn == subject.fn
            and all(reference_match(p, s, binding) for p, s in zip(pattern.args, subject.args)))


def reference_rewrite_step(t: Term, rules: Sequence) -> list[Term]:
    """`rewrite_step` as it matched every rule at every position: the
    reducts in the order of a pre-order walk, at each position the beta
    step first and then the rules in order, without repeats."""
    seen: dict[Term, None] = {}

    def walk(s: Term, rebuild) -> None:
        root = beta_reduce_root(s)
        if root is not None:
            seen.setdefault(rebuild(root))
        for rule in rules:
            gamma: dict = {}
            if reference_match(rule.lhs, s, gamma):
                seen.setdefault(rebuild(substitute(rule.rhs, gamma)))
        if isinstance(s, Abs):
            walk(s.body, lambda r, s=s: rebuild(Abs(s.var_type, r, s.hint)))
        elif isinstance(s, App):
            walk(s.fn, lambda r, s=s: rebuild(App(r, s.arg)))
            walk(s.arg, lambda r, s=s: rebuild(App(s.fn, r)))
        elif isinstance(s, FunApp):
            for i, a in enumerate(s.args):
                walk(a, lambda r, s=s, i=i: rebuild(
                    FunApp(s.fn, s.args[:i] + (r,) + s.args[i + 1:])))

    walk(t, lambda r: r)
    return list(seen)


def _reference_project(nu: dict, t: Term):
    spine_head, _ = app_spine(t)
    if not (isinstance(spine_head, FunApp) and spine_head.args):
        return None
    idx = nu.get(spine_head.fn.display)
    if idx is None or not 1 <= idx <= len(spine_head.args):
        return None
    return spine_head.args[idx - 1]


def _reference_strict_subterm(small: Term, big: Term) -> bool:
    return any(sub == small for sub, _ in subterms(big)[1:])


def reference_subterm_criterion(scc, pairs) -> Optional[Projection]:
    """The subterm criterion by plain enumeration: every projection of the
    head symbols is applied to every pair, and each comparison made again."""
    selected = [(i, pairs[i]) for i in scc]
    if any(isinstance(head(p.rhs), Var) for _, p in selected):
        return None
    heads: dict[str, int] = {}
    for _, p in selected:
        for side in (p.lhs, p.rhs):
            spine_head, _ = app_spine(side)
            if not (isinstance(spine_head, FunApp) and spine_head.args):
                return None
            name, n = spine_head.fn.display, len(spine_head.args)
            heads[name] = min(heads.get(name, n), n)
    names = sorted(heads)
    best = None
    for choice in itertools.product(*(range(1, heads[n] + 1) for n in names)):
        nu = dict(zip(names, choice))
        strict = []
        for i, p in selected:
            left, right = _reference_project(nu, p.lhs), _reference_project(nu, p.rhs)
            if _reference_strict_subterm(right, left):
                strict.append(i)
            elif left != right:
                break
        else:
            if strict and (best is None or len(strict) > len(best.strict)):
                best = Projection(nu, tuple(strict))
    return best


def reference_check_projection(scc, pairs, cert: Projection) -> Optional[str]:
    """`check_projection` by the plain definitions of projection and of the
    strict subterm relation."""
    for i in scc:
        p = pairs[i]
        if isinstance(head(p.rhs), Var):
            return f"pair {i} is collapsing"
        left, right = _reference_project(cert.nu, p.lhs), _reference_project(cert.nu, p.rhs)
        if left is None or right is None:
            return f"projection undefined on pair {i}"
        if i in cert.strict:
            if not _reference_strict_subterm(right, left):
                return f"pair {i}: projected sides are not in the strict subterm relation"
        elif left != right and not _reference_strict_subterm(right, left):
            return f"pair {i}: projected sides are neither equal nor subterm-related"
    return None


# The line scanner the readers had before they kept tokens as plain strings:
# one match per token, run of spaces or comment, whose groups are, in order,
# SKIP (spaces and a comment), CONST, IDENT, PUNCT and ERROR, any other
# character, so that each token's column is the sum of the lengths before it.
_REFERENCE_TOKEN = re.compile(r"""
    ([ \t\r]+ | \#.*)
  | !c\{([^{}]*)\}
  | ([A-Za-z0-9_][A-Za-z0-9_']*(?:(?:\#|-(?!>))(?:'[A-Za-z0-9_']*)?)?)
  | (=>|->|[()\[\],:.\\@*>;=+])
  | ((?s:.))
""", re.VERBOSE)


def reference_tokenize(line: str, number: int = 1, offset: int = 0) -> list[tuple[str, str, int]]:
    """The `(kind, text, col)` tokens of one line, then an EOF token at the
    line's end, or a ParseError at its first bad character.  `line` is the
    text of line `number` after its first `offset` columns; a fresh
    constant's text is its type."""
    tokens = []
    col = offset + 1
    for skip, const, ident, punct, error in _REFERENCE_TOKEN.findall(line):
        if ident:
            tokens.append(("IDENT", ident, col))
            col += len(ident)
        elif punct:
            tokens.append(("PUNCT", punct, col))
            col += len(punct)
        elif skip:
            col += len(skip)
        elif error:
            message = ("unterminated !c{...} constant" if line.startswith("!c{", col - offset - 1)
                       else f"unexpected character {error!r}")
            raise ParseError(message, number, col)
        else:
            tokens.append(("CONST", const, col))
            col += len(const) + 4
    tokens.append(("EOF", "", offset + len(line) + 1))
    return tokens
