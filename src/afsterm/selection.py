"""Formative rules (typed-symbol closure over R+) and usable rules."""

from __future__ import annotations

from .record import record
from typing import Optional, Sequence

from .afs import AFS, Rule
from .terms import (
    Term, Var, BVar, Abs, App, FunApp, SimpleType, Arrow,
    type_of, app_spine, head, subterms, symbols_of, PLAIN, MARKED,
)
from .dp import DependencyPair


class NotLocal(Exception):
    """Formative rules were requested for a non-local AFS."""


ABS = "ABS"
VAR = "VAR"


@record
class TypedSymbol:
    head: str  # a function symbol name, or the markers ABS / VAR
    type: SimpleType

    def __str__(self) -> str:
        return f"<{self.head}, {self.type}>"


def symb(t: Term) -> Optional[frozenset[TypedSymbol]]:
    """Symb_X of a beta-normal locally closed term, X the variables of the
    binders in it; None when the term has an applied free variable (the
    recursion is undefined there)."""
    typed = _typed_symb(t)
    return None if typed is None else typed[1]


def _typed_symb(t: Term) -> Optional[tuple[SimpleType, frozenset[TypedSymbol]]]:
    """t's type and Symb set, with each node typed once: a spine's type is
    its head's type less one arrow per applied argument, and an
    abstraction's is built from its body's."""
    if isinstance(t, Abs):
        inner = _typed_symb(t.body)
        if inner is None:
            return None
        ty = Arrow(t.var_type, inner[0])
        return ty, inner[1] | {TypedSymbol(ABS, ty)}
    spine_head, args = app_spine(t)
    if isinstance(spine_head, Var):
        return None if args else (spine_head.var.type, frozenset())
    if isinstance(spine_head, FunApp):
        ty, name, below = spine_head.fn.decl.output, spine_head.fn.name, (*spine_head.args, *args)
    elif isinstance(spine_head, BVar):
        ty, name, below = spine_head.type, VAR, tuple(args)
    else:
        return None
    for _ in args:
        ty = ty.right
    out = {TypedSymbol(name, ty)}
    for a in below:
        inner = _typed_symb(a)
        if inner is None:
            return None
        out |= inner[1]
    return ty, frozenset(out)


Form = Optional[tuple[SimpleType, Optional[str]]]


def _form(t: Term) -> Form:
    """A right-hand side's form, worked out once per closure: its type and
    the head of the typed symbol whose form it has (ABS for an abstraction,
    a plain symbol's name for an f(..) .. chain), or head None for a
    variable-headed term, which has the form of every typed symbol of its
    type.  None when it has the form of none.  A spine's type is its head's
    less one arrow per applied argument."""
    if isinstance(t, Abs):
        return type_of(t), ABS
    spine_head, args = app_spine(t)
    if isinstance(spine_head, Var):
        ty, name = spine_head.var.type, None
    elif isinstance(spine_head, FunApp) and spine_head.fn.kind == PLAIN \
            and spine_head.fn.name not in (ABS, VAR):
        ty, name = spine_head.fn.decl.output, spine_head.fn.name
    else:
        return None
    for _ in args:
        ty = ty.right
    return ty, name


def _has_form_in(form: Form, fs: set[TypedSymbol], fs_types: set[SimpleType]) -> bool:
    """Whether a term of this form has the form of some member of fs, whose
    members' types are fs_types."""
    if form is None:
        return False
    ty, name = form
    return ty in fs_types if name is None else TypedSymbol(name, ty) in fs


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
    types = {a.type for a in fs}
    return [r for r in rplus if _has_form_in(_form(r.rhs), fs, types)]


def formative_symbols(pairs: Sequence[DependencyPair], afs: AFS,
                      rplus: Sequence[Rule]) -> Optional[frozenset[TypedSymbol]]:
    """The closed set of formative symbols (None when undefined)."""
    fs: set[TypedSymbol] = set()
    for pair in pairs:
        for arg in _pair_lhs_arguments(pair):
            s = symb(arg)
            if s is None:
                return None
            fs |= s
    types = {a.type for a in fs}
    # close under: A in FS, rule l' => r' with r' has form A  ==>  Symb(l') in FS;
    # a rule that has fed its Symb(l') in needs no second look
    pending = [(rule, _form(rule.rhs)) for rule in rplus]
    changed = True
    while changed:
        changed = False
        rest = []
        for rule, form in pending:
            if not _has_form_in(form, fs, types):
                rest.append((rule, form))
                continue
            s = symb(rule.lhs)
            if s is None:
                return None
            if not s <= fs:
                fs |= s
                types |= {a.type for a in s}
                changed = True
        pending = rest
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
        by_head.setdefault(head(rule.lhs).fn.name, []).append(rule)

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

    return [r for r in base if head(r.lhs).fn.name in reached]
