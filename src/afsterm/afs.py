"""AFS representation: rules, validation, completion and classification.

An AFS works out what it knows of its rules once, when it is built (in
`__post_init__`): the names of the rules' head symbols and the flags of
`classify` (local, base_output, pfp, spfp).  An AFS is never changed after
that, so its flags cannot disagree with its rules, and `complete` returns
its input when it adds no rule, so a completed system is not classified
again."""

from __future__ import annotations

from .record import record, replace
from typing import Optional

from .terms import (
    Term, Var, Abs, App, FunApp, Variable, FunctionSymbol,
    type_of, free_vars, app_spine, is_beta_normal, subterms,
    fresh_arguments, fresh_name, term_text, PLAIN, instantiate,
)


_setattr = object.__setattr__


class IllegalLhs(Exception):
    """A rule violates the required left-hand side / rule shape."""


@record
class Rule:
    lhs: Term
    rhs: Term
    origin: str = "user"  # user | completion | extension-R+ | untag

    def __str__(self) -> str:
        return f"{term_text(self.lhs)} => {term_text(self.rhs)}"


def lhs_head_symbol(lhs: Term) -> Optional[FunctionSymbol]:
    head, _ = app_spine(lhs)
    if isinstance(head, FunApp):
        return head.fn
    return None


def validate_rule(rule: Rule, line: int = 0, col: int = 0) -> None:
    """Checks the rule shape contract; raises IllegalLhs or lets IllTyped
    propagate from typing."""
    lt = type_of(rule.lhs)
    rt = type_of(rule.rhs)
    if lt != rt:
        raise IllegalLhs(f"rule sides have different types ({lt} vs {rt}): {rule}")
    lhs_vars, rhs_vars = free_vars(rule.lhs), free_vars(rule.rhs)
    if not rhs_vars <= lhs_vars:
        extra = ", ".join(sorted(v.name for v in rhs_vars - lhs_vars))
        raise IllegalLhs(f"right-hand side uses variables not in the left-hand side: {extra}")
    head, _ = app_spine(rule.lhs)
    if not isinstance(head, FunApp):
        raise IllegalLhs(f"left-hand side must be headed by a function symbol: {term_text(rule.lhs)}")
    if head.fn.kind != PLAIN:
        raise IllegalLhs("left-hand sides may only use signature symbols")
    if not is_beta_normal(rule.lhs):
        raise IllegalLhs(f"left-hand side contains a beta-redex: {term_text(rule.lhs)}")
    if not is_beta_normal(rule.rhs):
        # the dependency pair analysis assumes beta-normal right-hand sides;
        # nonconforming input is rejected rather than transformed
        raise IllegalLhs(f"right-hand side contains a beta-redex: {term_text(rule.rhs)}")


@record
class AFS:
    # worked out when the AFS is built (module docstring)
    __slots__ = ("defined_names", "local", "base_output", "pfp", "spfp")
    signature: tuple[FunctionSymbol, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        heads = (lhs_head_symbol(rule.lhs) for rule in self.rules)
        _setattr(self, "defined_names", frozenset(f.name for f in heads if f is not None))
        for name, flag in zip(("local", "base_output", "pfp", "spfp"), classify(self)):
            _setattr(self, name, flag)

    @property
    def defined(self) -> tuple[FunctionSymbol, ...]:
        names = self.defined_names
        return tuple(f for f in self.signature if f.name in names)

    def symbol(self, name: str) -> FunctionSymbol:
        for f in self.signature:
            if f.name == name:
                return f
        raise KeyError(name)


def complete(afs: AFS) -> AFS:
    """Add, for each rule l => \\x1..xn. r with r not an abstraction, the
    applied variants l x1 => \\x2..xn. r, ..., l x1 .. xn => r.

    Idempotent; original rules are preserved, and an AFS to which no rule
    is added is returned as it is."""
    existing = {(r.lhs, r.rhs) for r in afs.rules}
    new_rules = list(afs.rules)
    for rule in afs.rules:
        if not isinstance(rule.rhs, Abs):
            continue
        avoid = {v.name for v in free_vars(rule.lhs) | free_vars(rule.rhs)}
        lhs, rhs = rule.lhs, rule.rhs
        while isinstance(rhs, Abs):
            name = fresh_name(rhs.hint or "x", avoid)
            avoid.add(name)
            x = Variable(name, rhs.var_type)
            lhs = App(lhs, Var(x))
            rhs = instantiate(rhs.body, Var(x))
            if (lhs, rhs) not in existing:
                existing.add((lhs, rhs))
                new_rules.append(Rule(lhs, rhs, origin="completion"))
    if len(new_rules) == len(afs.rules):
        return afs
    return replace(afs, rules=tuple(new_rules))


def _left_linear(lhs: Term) -> bool:
    occurrences = [s.var for s, _ in subterms(lhs) if isinstance(s, Var)]
    return len(occurrences) == len(set(occurrences))


def _fully_extended(lhs: Term) -> bool:
    """No free variable of the left-hand side occurs below an abstraction."""
    return not any(free_vars(s.body) for s, _ in subterms(lhs) if isinstance(s, Abs))


def _functional_vars(t: Term) -> frozenset[Variable]:
    return frozenset(v for v in free_vars(t) if v.type.is_arrow())


def _has_defined_call_under_binder(rhs: Term, defined: frozenset[str]) -> bool:
    """True if rhs has a subterm \\x. C[f(...)] with f defined and the bound
    variable free in the f-subterm: in the locally closed rhs, a defined
    call below a binder with an index escaping it."""
    return any(d and isinstance(u, FunApp) and u.fn.kind == PLAIN
               and u.fn.name in defined and u.loose
               for u, d in subterms(rhs))


def classify(afs: AFS) -> tuple[bool, bool, bool, bool]:
    """The flags an AFS works out when it is built: local (every left-hand
    side left-linear and fully extended), base_output (every output type a
    base type), pfp (plain function passing) and spfp (strongly plain
    function passing)."""
    local = all(_left_linear(r.lhs) and _fully_extended(r.lhs) for r in afs.rules)
    base_output = all(f.decl.output.is_base() for f in afs.signature)
    defined = afs.defined_names

    pfp = True
    for rule in afs.rules:
        head, applied = app_spine(rule.lhs)
        assert isinstance(head, FunApp)
        direct_args = list(head.args) + applied
        direct_var_args = {a.var for a in direct_args if isinstance(a, Var)}
        for fv in _functional_vars(rule.rhs):
            if fv not in direct_var_args:
                pfp = False
                break
        if not pfp:
            break

    spfp = (
        pfp
        and base_output
        and not any(_has_defined_call_under_binder(r.rhs, defined) for r in afs.rules)
    )
    return local, base_output, pfp, spfp


def build_rplus(afs: AFS) -> tuple[Rule, ...]:
    """R+ : the rules plus applied variants l x1..xk => r x1..xk for rules
    whose right-hand side is not an abstraction and whose type permits it."""
    out = list(afs.rules)
    for rule in afs.rules:
        if isinstance(rule.rhs, Abs):
            continue
        lhs, rhs = rule.lhs, rule.rhs
        for x in fresh_arguments(rule.lhs, "x"):
            lhs, rhs = App(lhs, x), App(rhs, x)
            out.append(Rule(lhs, rhs, origin="extension-R+"))
    return tuple(out)
