"""AFS representation: rules, validation, completion and classification.

An AFS checks its rules (`validate_rule`) and works out what it knows of
them (`classify`: the names of their head symbols, and flags) once, when
it is built, from one walk of each rule side.  An AFS is never changed
after that, so its flags cannot disagree with its rules, and `complete`
returns its input when it adds no rule, so a completed system is not
classified again."""

from __future__ import annotations

from .record import record, replace

from .terms import (
    Term, Var, Abs, App, Arrow, Base, FunApp, Variable, FunctionSymbol, IllTyped,
    type_of, free_vars, app_spine, head, fresh_arguments, fresh_name, term_text,
    PLAIN, instantiate,
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


def _side_facts(t: Term) -> tuple[list[Variable], bool, bool, set[str]]:
    """What `validate_rule` checks and `classify` reads of a rule side,
    from one walk with an explicit stack: its free variable occurrences,
    whether it has a beta-redex, whether a free variable occurs below a
    binder, and the names of the plain symbols of calls below a binder
    from which an index escapes."""
    occurrences: list[Variable] = []
    redex = free_below = False
    escaping: set[str] = set()
    stack = [(t, False)]
    pop, push = stack.pop, stack.append
    while stack:
        s, below = pop()
        if isinstance(s, FunApp):
            if below and s.loose and s.fn.kind == PLAIN:
                escaping.add(s.fn.name)
            for a in s.args:
                push((a, below))
        elif isinstance(s, Var):
            occurrences.append(s.var)
            free_below = free_below or below
        elif isinstance(s, App):
            redex = redex or isinstance(s.fn, Abs)
            push((s.fn, below))
            push((s.arg, below))
        elif isinstance(s, Abs):
            push((s.body, True))
    return occurrences, redex, free_below, escaping


def validate_rule(rule: Rule) -> tuple[tuple, tuple]:
    """Checks the rule shape contract; raises IllegalLhs or lets IllTyped
    propagate from typing.  Returns the facts of the left- and right-hand
    side (`_side_facts`), from one walk of each."""
    lt = type_of(rule.lhs)
    rt = type_of(rule.rhs)
    if lt != rt:
        raise IllegalLhs(f"rule sides have different types ({lt} vs {rt}): {rule}")
    lhs_facts = lhs_vars, lhs_redex, _, _ = _side_facts(rule.lhs)
    rhs_facts = rhs_vars, rhs_redex, _, _ = _side_facts(rule.rhs)
    extra = set(rhs_vars).difference(lhs_vars)
    if extra:
        names = ", ".join(sorted(v.name for v in extra))
        raise IllegalLhs(f"right-hand side uses variables not in the left-hand side: {names}")
    lhs_head = head(rule.lhs)
    if not isinstance(lhs_head, FunApp):
        raise IllegalLhs(f"left-hand side must be headed by a function symbol: {term_text(rule.lhs)}")
    if lhs_head.fn.kind != PLAIN:
        raise IllegalLhs("left-hand sides may only use signature symbols")
    if lhs_redex:
        raise IllegalLhs(f"left-hand side contains a beta-redex: {term_text(rule.lhs)}")
    if rhs_redex:
        # the dependency pair analysis assumes beta-normal right-hand sides;
        # nonconforming input is rejected rather than transformed
        raise IllegalLhs(f"right-hand side contains a beta-redex: {term_text(rule.rhs)}")
    return lhs_facts, rhs_facts


@record
class AFS:
    # worked out when the AFS is built (module docstring)
    __slots__ = ("defined_names", "local", "base_output", "pfp", "spfp")
    signature: tuple[FunctionSymbol, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        for name, value in zip(("defined_names", "local", "base_output", "pfp", "spfp"),
                               classify(self)):
            _setattr(self, name, value)

    @property
    def defined(self) -> tuple[FunctionSymbol, ...]:
        names = self.defined_names
        return tuple(f for f in self.signature if f.name in names)


def complete(afs: AFS) -> AFS:
    """Add, for each rule l => \\x1..xn. r with r not an abstraction, the
    applied variants l x1 => \\x2..xn. r, ..., l x1 .. xn => r.

    Idempotent; original rules are preserved, and an AFS to which no rule
    is added is returned as it is."""
    existing = None  # the rules' sides, built once a rule needs completing
    new_rules = list(afs.rules)
    for rule in afs.rules:
        if not isinstance(rule.rhs, Abs):
            continue
        existing = existing or {(r.lhs, r.rhs) for r in afs.rules}
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


def classify(afs: AFS) -> tuple[frozenset[str], bool, bool, bool, bool]:
    """Checks each rule (`validate_rule`: the first bad one raises, with its
    index as `rule_index`) and returns, from the facts of that one walk of
    each rule side, the names of the rules' head symbols and the flags local
    (every left-hand side left-linear and fully extended), base_output
    (every output type a base type), pfp (plain function passing: every
    functional free variable of a right-hand side is a direct argument of
    its left-hand side) and spfp (strongly plain function passing: pfp,
    base_output, and no right-hand side has a subterm \\x. C[f(...)] with f
    defined and x free in the f-subterm)."""
    names, calls_below = set(), set()  # head symbols, calls below a binder
    local = pfp = True
    for index, rule in enumerate(afs.rules):
        try:
            (lhs_vars, _, lhs_free_below, _), (rhs_vars, _, _, rhs_calls) = validate_rule(rule)
        except (IllegalLhs, IllTyped) as exc:
            exc.rule_index = index
            raise
        lhs_head, applied = app_spine(rule.lhs)
        names.add(lhs_head.fn.name)
        if lhs_free_below or len(lhs_vars) != len(set(lhs_vars)):
            local = False
        if pfp:
            direct = {a.var for a in (*lhs_head.args, *applied) if isinstance(a, Var)}
            for v in rhs_vars:
                if isinstance(v.type, Arrow) and v not in direct:
                    pfp = False
        calls_below |= rhs_calls
    base_output = True
    for f in afs.signature:
        if not isinstance(f.decl.output, Base):
            base_output = False
    spfp = pfp and base_output and calls_below.isdisjoint(names)
    return frozenset(names), local, base_output, pfp, spfp


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
