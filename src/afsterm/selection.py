"""Formative rules (typed-symbol closure over R+) and usable rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .afs import AFS, Rule, lhs_head_symbol
from .terms import (
    Term, Var, BVar, Abs, App, FunApp, SimpleType,
    type_of, app_spine, head, subterms, symbols_of, PLAIN, MARKED,
)
from .dp import DependencyPair


class NotLocal(Exception):
    """Formative rules were requested for a non-local AFS."""


ABS = "ABS"
VAR = "VAR"


@dataclass(frozen=True)
class TypedSymbol:
    head: str  # a function symbol name, or the markers ABS / VAR
    type: SimpleType

    def __str__(self) -> str:
        return f"<{self.head}, {self.type}>"


def symb(t: Term, binders: tuple[SimpleType, ...] = ()) -> Optional[frozenset[TypedSymbol]]:
    """Symb_X of a beta-normal term, X the variables of the binders above it
    (their types in `binders`, innermost last, as `type_of` takes them);
    None when the term has an applied free variable (the recursion is
    undefined there)."""
    spine_head, args = app_spine(t)
    ty = type_of(t, binders)
    if isinstance(t, Abs):
        inner = symb(t.body, binders + (t.var_type,))
        if inner is None:
            return None
        return frozenset((TypedSymbol(ABS, ty),)) | inner
    if isinstance(spine_head, FunApp):
        out = frozenset((TypedSymbol(spine_head.fn.name, ty),))
        for a in list(spine_head.args) + args:
            inner = symb(a, binders)
            if inner is None:
                return None
            out |= inner
        return out
    if isinstance(spine_head, BVar):
        out = frozenset((TypedSymbol(VAR, ty),))
        for a in args:
            inner = symb(a, binders)
            if inner is None:
                return None
            out |= inner
        return out
    if isinstance(spine_head, Var):
        if args:
            return None  # applied free variable: undefined
        return frozenset()
    return None


def has_form(t: Term, ts: TypedSymbol) -> bool:
    """A term s : sigma has form <a, sigma>: ABS matches abstractions, a
    symbol matches f(..) .. chains, and a variable-headed term matches any
    head of its type."""
    if type_of(t) != ts.type:
        return False
    spine_head, _args = app_spine(t)
    if isinstance(spine_head, Var):
        return True
    if ts.head == ABS:
        return isinstance(t, Abs)
    if ts.head == VAR:
        return False  # only variable-headed terms have VAR form (handled above)
    return isinstance(spine_head, FunApp) and spine_head.fn.name == ts.head \
        and spine_head.fn.kind == PLAIN


def _pair_lhs_arguments(pair: DependencyPair) -> list[Term]:
    spine_head, applied = app_spine(pair.lhs)
    assert isinstance(spine_head, FunApp)
    return list(spine_head.args) + applied


def formative_rules(pairs: Sequence[DependencyPair], afs: AFS,
                    rplus: Sequence[Rule]) -> list[Rule]:
    """FR(P): rules of R+ whose right-hand side has a formative form for the
    left-hand side arguments of some pair.

    Falls back to all of R+ when Symb is undefined on some argument (a sound
    over-approximation).
    """
    if not afs.local:
        raise NotLocal("formative rules are defined for local systems")
    fs = formative_symbols(pairs, afs, rplus)
    if fs is None:
        return list(rplus)
    return [r for r in rplus if any(has_form(r.rhs, a) for a in fs)]


def formative_symbols(pairs: Sequence[DependencyPair], afs: AFS,
                      rplus: Sequence[Rule]) -> Optional[frozenset[TypedSymbol]]:
    """The closed set of formative symbols (None when undefined)."""
    start: frozenset[TypedSymbol] = frozenset()
    for pair in pairs:
        for arg in _pair_lhs_arguments(pair):
            s = symb(arg)
            if s is None:
                return None
            start |= s
    # close under: A in FS, rule l' => r' with r' has form A  ==>  Symb(l') in FS
    fs = set(start)
    changed = True
    while changed:
        changed = False
        for rule in rplus:
            if any(has_form(rule.rhs, a) for a in list(fs)):
                s = symb(rule.lhs)
                if s is None:
                    return None
                if not s <= fs:
                    fs |= s
                    changed = True
    return frozenset(fs)


# usable rules ----------------------------------------------------------------


def is_risky(t: Term) -> bool:
    """A term is risky if it has a subterm x t1.. with x one of its free
    variables (an applied variable that may be instantiated).  Bound
    variables are indices, so every named head is free."""
    return any(isinstance(s, App) and isinstance(head(s), Var) for s, _ in subterms(t))


def usable_rules(pairs: Sequence[DependencyPair], base: Sequence[Rule]) -> list[Rule]:
    """UR(P, base): the rules of `base` reachable from the pairs' right-hand
    sides.  For a collapsing P this is all of base.

    The whole right-hand side with its marked head read as the unmarked
    symbol feeds the closure, so the head symbol's own rules are usable.
    """
    if any(p.collapsing for p in pairs):
        return list(base)

    by_head: dict[str, list[Rule]] = {}
    for rule in base:
        sym = lhs_head_symbol(rule.lhs)
        if sym is not None:
            by_head.setdefault(sym.name, []).append(rule)

    # f >=us g when an f-rule's rhs contains g, or is risky, or is an
    # abstraction / variable of functional type (then f reaches everything)
    poison: set[str] = set()
    succ: dict[str, set[str]] = {}
    for name, rules in by_head.items():
        succ[name] = set()
        for rule in rules:
            r = rule.rhs
            if is_risky(r) or isinstance(r, Abs) or (
                    isinstance(r, Var) and type_of(r).is_arrow()):
                poison.add(name)
            succ[name] |= {f.name for f in symbols_of(r) if f.kind in (PLAIN, MARKED)}

    start: set[str] = set()
    risky_start = False
    for pair in pairs:
        # the marked head counts as its unmarked counterpart
        start |= {f.name for f in symbols_of(pair.rhs) if f.kind in (PLAIN, MARKED)}
        if is_risky(pair.rhs):
            risky_start = True
    if risky_start:
        return list(base)

    reached = set(start)
    frontier = list(start)
    while frontier:
        name = frontier.pop()
        if name in poison:
            return list(base)
        for nxt in succ.get(name, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)

    out = []
    for r in base:
        sym = lhs_head_symbol(r.lhs)
        if sym is not None and sym.name in reached:
            out.append(r)
    return out
