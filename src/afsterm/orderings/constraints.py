"""Ordering constraint construction: mode selection, base-type flattening,
tagging, and the pairing obligations that accompany usable rules."""

from __future__ import annotations

from ..record import record
from typing import Sequence

from ..afs import AFS, build_rplus
from ..dp import DPProblem, tag, untag_rule, tagged_symbols_below_lambda
from ..selection import formative_rules, usable_rules
from ..terms import (
    Term, Var, App, FunApp, Variable, FunctionSymbol, SimpleType,
    type_of, app, fresh_arguments, fresh_const, pairing_symbol,
    marked, untagged, type_text, subterms, Abs, symbols_of,
    PLAIN, MARKED, TAGGED,
)

MODE_NON_COLLAPSING = "non-collapsing"
MODE_BASIC = "basic"                       # collapsing, non-local
MODE_LOCAL_COLLAPSING = "local-collapsing"


@record
class StrictCandidate:
    pair_index: int  # index into the DP problem's pair list
    lhs: Term        # flattened left-hand side (base type)
    rhs: Term        # psi-image applied to fresh constants (base type)


@record
class WeakConstraint:
    label: str  # rule | untag | mark | pairing
    lhs: Term
    rhs: Term


@record
class ConstraintSet:
    strict_candidates: tuple[StrictCandidate, ...]
    weak: tuple[WeakConstraint, ...]
    S: tuple[FunctionSymbol, ...]  # protected symbols for the subterm schema
    mode: str
    afs: AFS


# the kinds of symbol an ordering interprets
USER_KINDS = (PLAIN, MARKED, TAGGED)


def occurring_symbols(cs: ConstraintSet) -> list[FunctionSymbol]:
    """The interpretable symbols of all constraints, sorted by display name."""
    seen = {f.display: f
            for c in (*cs.strict_candidates, *cs.weak)
            for f in symbols_of(c.lhs) | symbols_of(c.rhs)
            if f.kind in USER_KINDS}
    return [seen[k] for k in sorted(seen)]


def flatten_lhs(lhs: Term) -> Term:
    """Apply the left-hand side to fresh variables down to base type."""
    return app(lhs, *fresh_arguments(lhs, "z"))


def flatten_rhs(rhs: Term) -> Term:
    """Apply the right-hand side to fresh constants down to base type."""
    t = type_of(rhs)
    while t.is_arrow():
        rhs = App(rhs, FunApp(fresh_const(t.left)))
        t = t.right
    return rhs


def _constraint_types(strict: Sequence[StrictCandidate],
                      weak: Sequence[WeakConstraint]) -> list[SimpleType]:
    seen: dict[str, SimpleType] = {}
    for terms in ([(c.lhs, c.rhs) for c in strict] + [(w.lhs, w.rhs) for w in weak]):
        for side in terms:
            for sub, _ in subterms(side):
                if not sub.loose and not isinstance(sub, Abs):
                    ty = type_of(sub)
                    seen.setdefault(type_text(ty), ty)
    return [seen[k] for k in sorted(seen)]


def _pairing_constraints(strict, weak) -> list[WeakConstraint]:
    out = []
    for ty in _constraint_types(strict, weak):
        p = pairing_symbol(ty)
        x = Var(Variable("x", ty))
        y = Var(Variable("y", ty))
        out.append(WeakConstraint("pairing", FunApp(p, (x, y)), x))
        out.append(WeakConstraint("pairing", FunApp(p, (x, y)), y))
    return out


def build_constraints(scc: Sequence[int], problem: DPProblem) -> ConstraintSet:
    """Constraint set for one SCC, per the per-mode selection of the
    protected set S, the right-hand-side transformation psi, and the weak
    rule set A."""
    afs = problem.afs
    pairs = [(i, problem.pairs[i]) for i in scc]
    collapsing = any(p.collapsing for _, p in pairs)

    if not collapsing:
        mode = MODE_NON_COLLAPSING
        s_set: list[FunctionSymbol] = []
        psi = lambda t: t
        if afs.local:
            base = formative_rules([p for _, p in pairs], afs, build_rplus(afs))
        else:
            base = list(afs.rules)
        weak_rules = usable_rules([p for _, p in pairs], base)
        weak = [WeakConstraint("rule", r.lhs, r.rhs) for r in weak_rules]
        add_pairing = True
    elif not afs.local:
        mode = MODE_BASIC
        s_set = [f for f in afs.signature]
        psi = lambda t: t
        weak = [WeakConstraint("rule", r.lhs, r.rhs) for r in afs.rules]
        for f in afs.defined:
            xs = tuple(Var(Variable(f"x{i + 1}", ty)) for i, ty in enumerate(f.decl.inputs))
            weak.append(WeakConstraint("mark", FunApp(f, xs), FunApp(marked(f), xs)))
        add_pairing = False
    else:
        mode = MODE_LOCAL_COLLAPSING
        fr = formative_rules([p for _, p in pairs], afs, build_rplus(afs))
        rhss = [r.rhs for r in fr] + [p.rhs for _, p in pairs]
        s_set = tagged_symbols_below_lambda(rhss)
        psi = tag
        weak = [WeakConstraint("rule", r.lhs, tag(r.rhs)) for r in fr]
        defined = afs.defined_names
        for f_tagged in s_set:
            f_plain = untagged(f_tagged)
            u = untag_rule(f_plain)
            weak.append(WeakConstraint("untag", u.lhs, u.rhs))
            if f_plain.name in defined:
                xs = tuple(Var(Variable(f"x{i + 1}", ty))
                           for i, ty in enumerate(f_plain.decl.inputs))
                weak.append(WeakConstraint("mark", FunApp(f_tagged, xs),
                                           FunApp(marked(f_plain), xs)))
        add_pairing = False

    strict = tuple(
        StrictCandidate(i, flatten_lhs(p.lhs), flatten_rhs(psi(p.rhs)))
        for i, p in pairs
    )
    if add_pairing:
        weak = weak + _pairing_constraints(strict, weak)
    return ConstraintSet(strict, tuple(weak), tuple(s_set), mode, afs)
