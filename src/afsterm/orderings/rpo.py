"""Argument functions plus a recursive path ordering on AFS terms.

The ordering compares `terms.Term`s directly, as path orderings on typed
lambda-terms do (Jouannaud and Rubio 1999, *The higher-order recursive path
ordering*).  The root symbol of a term is read off its node: an application
is @ at the type of its function, an abstraction is L at its own type.  The
mandatory precedence places user symbols above @, every @ above every L, and
every L above the fresh constants, with @ at a type above the @ at each of
its strict subtypes.  Status is lexicographic left-to-right.  Binders are
opened with fresh rigid variables #1, #2, ... that nothing else dominates; no
input identifier starts with #.
"""

from __future__ import annotations

import time
from ..record import record
from typing import Optional, Sequence

from ..afs import AFS
from ..terms import (
    Term, Var, Abs, App, FunApp, Variable, FunctionSymbol, SimpleType,
    TypeDecl, IllTyped, type_of, free_vars, type_subterms, substitute, instantiate,
    PLAIN, MARKED, TAGGED, FRESH, EXT, app_spine, marked, replace_nodes,
)
from .constraints import ConstraintSet, occurring_symbols, MODE_NON_COLLAPSING


# --------------------------------------------------------------------------
# root symbols

USER = "user"   # signature symbols (plain / marked / tagged / filtered)
APPK = "app"
LAMK = "lam"
CONSTK = "const"  # fresh constants c_sigma
PAIRK = "pair"    # the pairing symbols from the usable-rules obligations


@record
class MSym:
    """A root symbol as the precedence sees it: @ and L by their type, the
    others by their display name."""

    cat: str
    name: str = ""
    type: Optional[SimpleType] = None


def _root(t: Term) -> MSym:
    """The root symbol of a locally closed term that is not a variable."""
    if isinstance(t, App):
        return MSym(APPK, type=type_of(t.fn))
    if isinstance(t, Abs):
        return MSym(LAMK, type=type_of(t))
    if t.fn.kind == FRESH:
        return MSym(CONSTK, t.fn.display)
    if t.fn.kind == EXT and t.fn.name.startswith("!p{"):
        return MSym(PAIRK, t.fn.display)
    return MSym(USER, t.fn.display)


# --------------------------------------------------------------------------
# precedence


class Precedence:
    """User-symbol precedence facts over the mandatory base ordering."""

    def __init__(self, facts: Sequence[tuple[str, str]] = (), frozen: bool = False):
        self.above: dict[str, set[str]] = {}
        self.frozen = frozen
        self.added: list[tuple[str, str]] = []  # the undo log of `_add`
        for a, b in facts:
            if not self._add(a, b):
                raise ValueError(f"cyclic precedence: {a} > {b}")

    def facts(self) -> list[tuple[str, str]]:
        return sorted((a, b) for a, bs in self.above.items() for b in bs)

    def _reachable(self, a: str, b: str) -> bool:
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in self.above.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def _add(self, a: str, b: str) -> bool:
        if a == b or self._reachable(b, a):
            return False
        self.above.setdefault(a, set()).add(b)
        self.added.append((a, b))
        return True

    def undo(self, mark: int) -> None:
        """Drop the facts added since the undo log had `mark` entries."""
        while len(self.added) > mark:
            a, b = self.added.pop()
            self.above[a].discard(b)

    def holds(self, f: MSym, g: MSym) -> bool:
        """The mandatory facts plus the user facts (transitively)."""
        user_like = (USER, PAIRK)
        if f.cat in user_like and g.cat in (APPK, LAMK, CONSTK):
            return True
        if f.cat == APPK:
            if g.cat in (LAMK, CONSTK):
                return True
            if g.cat == APPK:
                return g.type != f.type and g.type in type_subterms(f.type)
            return False
        if f.cat == LAMK:
            return g.cat == CONSTK
        if f.cat in user_like and g.cat in user_like:
            return f.name != g.name and self._reachable(f.name, g.name)
        return False

    def request(self, f: MSym, g: MSym) -> bool:
        """In search mode, try to add f > g as a user fact."""
        if self.holds(f, g):
            return True
        if self.frozen:
            return False
        if f.cat != USER or g.cat != USER or f.name == g.name:
            return False
        return self._add(f.name, g.name)


# --------------------------------------------------------------------------
# the ordering


GAS = 200_000  # the comparison steps one `rpo_greater` or `rpo_geq` call may take


class _Run:
    """One comparison: its precedence, its remaining steps and the binders
    it has opened."""

    __slots__ = ("prec", "gas", "opened")

    def __init__(self, prec: Precedence):
        self.prec = prec
        self.gas = GAS
        self.opened = 0

    def tick(self) -> bool:
        self.gas -= 1
        return self.gas > 0

    def fresh(self, ty: SimpleType) -> Var:
        self.opened += 1
        return Var(Variable(f"#{self.opened}", ty))


def _args(t: Term, run: _Run) -> tuple[Term, ...]:
    """The arguments of t's root symbol; an abstraction's body is opened."""
    if isinstance(t, Abs):
        return (instantiate(t.body, run.fresh(t.var_type)),)
    if isinstance(t, App):
        return (t.fn, t.arg)
    return t.args


def _geq(s: Term, t: Term, run: _Run) -> bool:
    return s == t or _greater(s, t, run)


def _greater(s: Term, t: Term, run: _Run) -> bool:
    """Whether s > t; a failed comparison leaves the precedence as it found it."""
    if not run.tick() or isinstance(s, Var):
        return False
    if isinstance(t, Var):
        return t.var in free_vars(s)
    s_args = _args(s, run)
    if any(_geq(a, t, run) for a in s_args):  # subterm clause
        return True
    prec = run.prec
    mark = len(prec.added)  # the facts added from here on go if s > t fails
    f, g = _root(s), _root(t)
    if f == g:
        # lexicographic status, left to right
        if isinstance(s, Abs):  # both binders opened with one variable
            x = run.fresh(s.var_type)
            s_args, t_args = (instantiate(s.body, x),), (instantiate(t.body, x),)
        else:
            t_args = _args(t, run)
        for i, (a, b) in enumerate(zip(s_args, t_args)):
            if a == b:
                continue
            if _greater(a, b, run) and all(_greater(s, tb, run) for tb in t_args[i + 1:]):
                return True
            break
    elif prec.request(f, g) and all(_greater(s, tb, run) for tb in _args(t, run)):
        return True
    prec.undo(mark)
    return False


def rpo_greater(s: Term, t: Term, prec: Precedence) -> bool:
    return _greater(s, t, _Run(prec))


def rpo_geq(s: Term, t: Term, prec: Precedence) -> bool:
    return _geq(s, t, _Run(prec))


# --------------------------------------------------------------------------
# argument functions


@record
class ArgFunRPO:
    """Argument function table plus precedence facts plus strict pair set."""

    pi: dict  # display name -> template Term over the symbol's argument slots
    precedence: tuple[tuple[str, str], ...]
    strict: tuple[int, ...]


def template_slots(f: FunctionSymbol) -> tuple[Variable, ...]:
    return tuple(Variable(f"x{i + 1}", ty) for i, ty in enumerate(f.decl.inputs))


def apply_argfun(pi: dict, t: Term) -> Term:
    """The homomorphic extension of the argument function table."""
    def node(s: FunApp, args: tuple[Term, ...]) -> Term:
        template = pi.get(s.fn.display)
        if template is None:
            return FunApp(s.fn, args)
        return substitute(template, dict(zip(template_slots(s.fn), args)))

    return replace_nodes(t, node)


def pi_options(f: FunctionSymbol, afs: AFS) -> list[Term]:
    """Candidate templates for one symbol: identity, untag/unmark images,
    rule right-hand sides over variable arguments, collapses, and kept
    subsets (a fresh primed symbol)."""
    slots = template_slots(f)
    slot_terms = tuple(Var(x) for x in slots)
    out: list[Term] = [FunApp(f, slot_terms)]

    base = FunctionSymbol(f.name, f.decl, PLAIN)
    if f.kind in (TAGGED, MARKED):
        out.append(FunApp(base, slot_terms))
    if f.kind == TAGGED and f.name in afs.defined_names:
        out.append(FunApp(marked(base), slot_terms))

    # a rule f(x1..xn) => r with distinct variable arguments suggests r
    for rule in afs.rules:
        head, applied = app_spine(rule.lhs)
        if applied:
            continue
        sym = head.fn
        if sym.name != f.name:
            continue
        if sym.kind == f.kind or (f.kind == MARKED and sym.kind == PLAIN):
            if all(isinstance(a, Var) for a in head.args) and \
                    len({a.var for a in head.args}) == len(head.args):
                body = substitute(rule.rhs, {a.var: Var(s) for a, s in zip(head.args, slots)})
                if f.kind == MARKED:
                    h2, ap2 = app_spine(body)
                    if isinstance(h2, FunApp) and h2.fn.kind == PLAIN and not ap2:
                        out.append(FunApp(marked(h2.fn), h2.args))
                out.append(body)

    # collapse to one argument of the output type
    out.extend(Var(x) for x, ty in zip(slots, f.decl.inputs) if ty == f.decl.output)

    # keep a proper subset of arguments under a fresh primed symbol
    if f.decl.arity > 1:
        n = f.decl.arity
        for mask in range(2 ** n - 2, -1, -1):
            kept = [i for i in range(n) if mask & (1 << i)]
            if len(kept) == n:
                continue
            g = FunctionSymbol(
                f.display + "'" + "".join(str(i + 1) for i in kept),
                TypeDecl(tuple(f.decl.inputs[i] for i in kept), f.decl.output),
                EXT,
            )
            out.append(FunApp(g, tuple(Var(slots[i]) for i in kept)))

    return list(dict.fromkeys(out))


def orient(cs: ConstraintSet, pi: dict, prec: Precedence) -> Optional[tuple[int, ...]]:
    """Try to orient all constraints (weak at least weakly, candidates at
    least weakly, >= 1 candidate strictly); returns the strict indices."""
    for w in cs.weak:
        if not rpo_geq(apply_argfun(pi, w.lhs), apply_argfun(pi, w.rhs), prec):
            return None
    strict = []
    for c in cs.strict_candidates:
        lhs, rhs = apply_argfun(pi, c.lhs), apply_argfun(pi, c.rhs)
        if rpo_greater(lhs, rhs, prec):
            strict.append(c.pair_index)
        elif not rpo_geq(lhs, rhs, prec):
            return None
    if not strict:
        return None
    return tuple(strict)


def search_rpo(cs: ConstraintSet, deadline: Optional[float] = None) -> Optional[ArgFunRPO]:
    """Search over argument functions (iterative deepening on the number of
    non-identity entries) with greedy precedence accumulation; gives up once
    the `time.monotonic()` deadline passes.  Each attempt starts from an
    empty precedence, so a table that failed once is not oriented again."""
    deadline = float("inf") if deadline is None else deadline
    symbols = occurring_symbols(cs)
    options = {f.display: pi_options(f, cs.afs) for f in symbols}
    names = [f.display for f in symbols]

    failed: set[frozenset] = set()  # tables already oriented in vain

    def attempt(pi: dict) -> Optional[ArgFunRPO]:
        key = frozenset(pi.items())
        if key in failed:
            return None
        prec = Precedence()
        strict = orient(cs, pi, prec)
        if strict is None:
            failed.add(key)
            return None
        return ArgFunRPO(dict(pi), tuple(prec.facts()), strict)

    def dfs(pi: dict, depth: int, start: int) -> Optional[ArgFunRPO]:
        if time.monotonic() > deadline:
            return None
        result = attempt(pi) if pi else None
        if result or depth == 0:
            return result
        for i in range(start, len(names)):
            name = names[i]
            for opt in options[name][1:]:
                if time.monotonic() > deadline:
                    return None
                pi2 = dict(pi)
                pi2[name] = opt
                found = dfs(pi2, depth - 1, i + 1)
                if found:
                    return found
                # also combine with the suggested assignments of other symbols
                merged = dict(suggested)
                merged.update(pi2)
                if merged != pi2:
                    found = attempt(merged)
                    if found:
                        return found
        return None

    # identity everywhere; then the "suggested" option of every symbol
    # (untag/unmark/rule image) at once; then one, then two changes
    suggested = {name: options[name][1] for name in names if len(options[name]) > 1}
    return (attempt({}) or (attempt(suggested) if suggested else None)
            or dfs({}, 1, 0) or dfs({}, 2, 0))


def check_argfun_rpo(cs: ConstraintSet, cert: ArgFunRPO) -> Optional[str]:
    """Re-run the ordering decisions with the certificate's frozen facts:
    the first problem, or None."""
    if cs.mode != MODE_NON_COLLAPSING:
        # the collapsing modes need a reduction pair that contains beta, and
        # this ordering does not: @(L(x.s), t) need not be >= s[x:=t]
        return f"the path ordering does not contain beta, which mode {cs.mode} requires"
    # the ordering reads the types of the terms it compares
    outputs = {f.display: f.decl.output for f in occurring_symbols(cs)}
    for name, template in cert.pi.items():
        try:
            ty = type_of(template)
        except IllTyped as exc:
            return f"pi({name}) is ill-typed: {exc.reason}"
        if name in outputs and ty != outputs[name]:
            return f"pi({name}) has type {ty}, not the output type {outputs[name]} of {name}"
    try:
        prec = Precedence(cert.precedence, frozen=True)
    except ValueError as exc:
        return str(exc)
    for w in cs.weak:
        if not rpo_geq(apply_argfun(cert.pi, w.lhs), apply_argfun(cert.pi, w.rhs), prec):
            return f"weak constraint not oriented: {w.label}"
    for c in cs.strict_candidates:
        lhs, rhs = apply_argfun(cert.pi, c.lhs), apply_argfun(cert.pi, c.rhs)
        if c.pair_index in cert.strict:
            if not rpo_greater(lhs, rhs, prec):
                return f"pair {c.pair_index} is not strictly oriented"
        elif not rpo_geq(lhs, rhs, prec):
            return f"pair {c.pair_index} is not weakly oriented"
    return None
