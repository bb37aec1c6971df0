"""Candidate terms, dynamic dependency pairs, and the tagging machinery.

`dependency_pairs` keeps one pair per distinct unmarked (left-hand side,
candidate): `mark` is injective on the terms of an AFS and leaves an
application unchanged, so these keys collide exactly when the marked pairs
do, and their hashes are already cached when the key is tested.  A rule's
marked left-hand side and its strict subterms are built only once it has a
new candidate, and a pair is marked only when it is kept."""

from __future__ import annotations

from .record import record
from typing import Iterable, Optional

from .afs import AFS, Rule, complete
from .terms import (
    Term, Var, Abs, App, FunApp, Variable, FunctionSymbol,
    type_of, free_vars, app_spine, head, mark, marked,
    strict_subterms_closed, close_dangling, fresh_arguments, term_text,
    tagged, symbols_of, replace_nodes, PLAIN, TAGGED,
)


@record
class DependencyPair:
    # whether the right-hand side has a variable head, set when the pair is
    # built: the graph and every SCC step ask it of each pair
    __slots__ = ("collapsing",)
    lhs: Term
    rhs: Term
    kind: str  # "candidate" | "applied-head"
    rule_index: int

    def __post_init__(self):
        object.__setattr__(self, "collapsing", isinstance(head(self.rhs), Var))

    def __str__(self) -> str:
        return f"{term_text(self.lhs)} ~> {term_text(self.rhs)}"


@record
class DPProblem:
    pairs: tuple[DependencyPair, ...]
    afs: AFS
    static_mode: bool = False  # collapsing pairs dropped (SPFP systems)


def candidate_terms(rhs: Term, afs: AFS) -> list[Term]:
    """Closed candidate terms of a rule right-hand side, outermost first.

    Candidates are subterms f(t..) t.. with f defined, and x t1..tn (n > 0)
    with x free in rhs; bound variables going free are replaced by the
    per-type fresh constants.
    """
    defined = afs.defined_names
    out: list[Term] = []
    seen: set[Term] = set()

    def add(t: Term) -> None:
        closed = close_dangling(t) if t.loose else t
        if closed not in seen:
            seen.add(closed)
            out.append(closed)

    def call(t: Term) -> bool:
        return isinstance(t, FunApp) and t.fn.kind == PLAIN and t.fn.name in defined

    def walk(t: Term) -> None:
        if isinstance(t, App):
            spine_head, args = app_spine(t)
            if isinstance(spine_head, Var) or call(spine_head):
                # every application prefix, longest first; below a variable
                # head one argument stays, and a call's walk adds its head
                for _ in args:
                    add(t)
                    t = t.fn
            walk(spine_head)
            for a in args:
                walk(a)
        elif isinstance(t, FunApp):
            if call(t):
                add(t)
            for a in t.args:
                walk(a)
        elif isinstance(t, Abs):
            walk(t.body)

    walk(rhs)
    return out


def dependency_pairs(afs: AFS, spfp_drop: bool = True) -> DPProblem:
    """All dynamic dependency pairs of the completion of an AFS; the
    problem holds the completed AFS.

    For SPFP systems the collapsing pairs are dropped (static mode) unless
    spfp_drop is disabled.
    """
    afs = complete(afs)
    defined = afs.defined_names
    marks = {f.name: marked(f) for f in afs.defined}  # one f# per defined f
    pairs: list[DependencyPair] = []
    seen: set[tuple[Term, Term]] = set()

    for idx, rule in enumerate(afs.rules):
        lhs = rule.lhs
        strict_subs = None
        for cand in candidate_terms(rule.rhs, afs):
            if (lhs, cand) in seen:
                continue
            if strict_subs is None:
                marked_lhs = mark(lhs, marks)
                strict_subs = set(strict_subterms_closed(lhs))
            if cand in strict_subs:
                continue  # candidate is a strict subterm of the left-hand side
            seen.add((lhs, cand))
            pairs.append(DependencyPair(marked_lhs, mark(cand, marks), "candidate", idx))
        if type_of(rule.lhs).is_arrow():
            rhead = head(rule.rhs)
            applies = isinstance(rhead, Var) or (
                isinstance(rhead, FunApp) and rhead.fn.kind == PLAIN
                and rhead.fn.name in defined)
            if applies and not isinstance(rule.rhs, Abs):
                rhs = rule.rhs
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


# tagging --------------------------------------------------------------------


def tag(t: Term, bound: Optional[set[Variable]] = None) -> Term:
    """tag_Z: replace f by f- on functional subterms whose free variables
    meet Z, the given `bound` set plus the traversed binders.  In the locally
    closed t a traversed binder's variable is an index escaping the
    subterm."""
    z = frozenset(bound or ())

    def node(s: FunApp, args: tuple[Term, ...]) -> Term:
        if s.fn.kind == PLAIN and (s.loose or (z and free_vars(s) & z)):
            return FunApp(tagged(s.fn), args)
        return FunApp(s.fn, args)

    return replace_nodes(t, node)


def untag_rule(f: FunctionSymbol) -> Rule:
    """f-(x1..xn) => f(x1..xn)."""
    assert f.kind == PLAIN
    xs = tuple(Var(Variable(f"x{i + 1}", ty)) for i, ty in enumerate(f.decl.inputs))
    return Rule(FunApp(tagged(f), xs), FunApp(f, xs), origin="untag")


def tagged_symbols_below_lambda(terms: Iterable[Term]) -> list[FunctionSymbol]:
    """The tagged versions f- of symbols occurring below an abstraction, in
    the sense of tag_0: collected from tag-images of the given terms."""
    out: dict[str, FunctionSymbol] = {}
    for t in terms:
        out.update((f.name, f) for f in symbols_of(tag(t)) if f.kind == TAGGED)
    return [out[name] for name in sorted(out)]
