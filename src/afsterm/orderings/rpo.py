"""Argument functions plus a recursive path ordering on mu-transformed terms.

Applications and abstractions become function symbols @{s,t} and L{s,t}; the
mandatory precedence places user symbols above @, every @ above every L,
and every L above the fresh constants, with @{s,t} above the @ent of strict
subtypes.  Status is lexicographic left-to-right.  Binders are opened with
rigid atoms that nothing else dominates.
"""

from __future__ import annotations

import time
from ..record import record
from typing import Optional, Sequence

from ..afs import AFS
from ..terms import (
    Term, Var, BVar, Abs, App, FunApp, Variable, FunctionSymbol, SimpleType,
    Arrow, TypeDecl, type_of, free_vars, type_text, type_subterms, substitute,
    PLAIN, MARKED, TAGGED, FRESH, EXT, app_spine, marked, replace_nodes,
)
from .constraints import ConstraintSet, occurring_symbols, MODE_NON_COLLAPSING


# --------------------------------------------------------------------------
# mu-terms

USER = "user"   # signature symbols (plain / marked / tagged / filtered)
APPK = "app"
LAMK = "lam"
CONSTK = "const"  # fresh constants c_sigma
PAIRK = "pair"    # the pairing symbols from the usable-rules obligations


@record
class MSym:
    cat: str
    name: str                    # display name; @{s,t} / L{s,t} for app/lam
    type: Optional[Arrow] = None  # s -> t for app/lam

    def __str__(self) -> str:
        return self.name


def _typed_sym(cat: str, prefix: str, ty: SimpleType) -> MSym:
    assert isinstance(ty, Arrow)
    return MSym(cat, f"{prefix}{{{type_text(ty.left)},{type_text(ty.right)}}}", ty)


@record
class MTerm:
    pass


@record
class MVar(MTerm):
    name: str


@record
class MAtom(MTerm):
    ident: int


@record
class MBind(MTerm):
    body: MTerm  # contains MIdx nodes for the binder


@record
class MIdx(MTerm):
    index: int


@record
class MFun(MTerm):
    sym: MSym
    args: tuple[MTerm, ...] = ()


def mu(t: Term, binders: tuple[SimpleType, ...] = ()) -> MTerm:
    if isinstance(t, Var):
        return MVar(f"{t.var.name}:{type_text(t.var.type)}")
    if isinstance(t, BVar):
        return MIdx(t.index)
    if isinstance(t, Abs):
        sym = _typed_sym(LAMK, "L", type_of(t, binders))
        return MFun(sym, (MBind(mu(t.body, binders + (t.var_type,))),))
    if isinstance(t, App):
        sym = _typed_sym(APPK, "@", type_of(t.fn, binders))
        return MFun(sym, (mu(t.fn, binders), mu(t.arg, binders)))
    assert isinstance(t, FunApp)
    if t.fn.kind == FRESH:
        return MFun(MSym(CONSTK, t.fn.display), ())
    if t.fn.kind == EXT and t.fn.name.startswith("!p{"):
        return MFun(MSym(PAIRK, t.fn.display), tuple(mu(a, binders) for a in t.args))
    return MFun(MSym(USER, t.fn.display), tuple(mu(a, binders) for a in t.args))


def _open_bind(b: MBind, atom: MAtom) -> MTerm:
    def inst(t: MTerm, depth: int) -> MTerm:
        if isinstance(t, MIdx):
            return atom if t.index == depth else t
        if isinstance(t, MBind):
            return MBind(inst(t.body, depth + 1))
        if isinstance(t, MFun):
            return MFun(t.sym, tuple(inst(a, depth) for a in t.args))
        return t

    return inst(b.body, 0)


def _occurs(leaf: MTerm, t: MTerm) -> bool:
    """Whether the variable or atom `leaf` occurs in t."""
    if isinstance(t, MBind):
        return _occurs(leaf, t.body)
    if isinstance(t, MFun):
        return any(_occurs(leaf, a) for a in t.args)
    return t == leaf


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


class _Gas:
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def tick(self) -> bool:
        self.n -= 1
        return self.n > 0


def _geq(s: MTerm, t: MTerm, prec: Precedence, counter: list[int], gas: _Gas) -> bool:
    return s == t or _greater(s, t, prec, counter, gas)


def _greater(s: MTerm, t: MTerm, prec: Precedence, counter: list[int], gas: _Gas) -> bool:
    """Whether s > t; a failed comparison leaves `prec` as it found it."""
    if not gas.tick():
        return False
    if isinstance(s, (MVar, MAtom, MIdx)):
        return False
    if isinstance(s, MBind):
        counter[0] += 1
        return _greater(_open_bind(s, MAtom(counter[0])), t, prec, counter, gas)
    assert isinstance(s, MFun)
    if isinstance(t, (MVar, MAtom)):
        return _occurs(t, s)
    if isinstance(t, MBind):
        counter[0] += 1
        return _greater(s, _open_bind(t, MAtom(counter[0])), prec, counter, gas)
    # subterm clause
    for arg in s.args:
        if isinstance(arg, MBind):
            counter[0] += 1
            if _geq(_open_bind(arg, MAtom(counter[0])), t, prec, counter, gas):
                return True
        elif _geq(arg, t, prec, counter, gas):
            return True
    if isinstance(t, MFun):
        mark = len(prec.added)  # the facts added from here on go if s > t fails
        if s.sym == t.sym and len(s.args) == len(t.args):
            # lexicographic status, left to right
            for i, (a, b) in enumerate(zip(s.args, t.args)):
                if a == b:
                    continue
                if isinstance(a, MBind) and isinstance(b, MBind):
                    counter[0] += 1
                    atom = MAtom(counter[0])
                    first = _greater(_open_bind(a, atom), _open_bind(b, atom), prec, counter, gas)
                else:
                    first = _greater(a, b, prec, counter, gas)
                if first and all(_greater(s, tb, prec, counter, gas) for tb in t.args[i + 1:]):
                    return True
                break
        elif prec.request(s.sym, t.sym) and \
                all(_greater(s, tb, prec, counter, gas) for tb in t.args):
            return True
        prec.undo(mark)
    return False


def rpo_greater(s: MTerm, t: MTerm, prec: Precedence) -> bool:
    return _greater(s, t, prec, [0], _Gas(GAS))


def rpo_geq(s: MTerm, t: MTerm, prec: Precedence) -> bool:
    return _geq(s, t, prec, [0], _Gas(GAS))


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


def pi_options(f: FunctionSymbol, in_s: bool, afs: AFS) -> list[Term]:
    """Candidate templates for one symbol: identity, untag/unmark images,
    rule right-hand sides over variable arguments, collapses, and kept
    subsets (a fresh primed symbol)."""
    slots = template_slots(f)
    slot_terms = tuple(Var(x) for x in slots)
    identity = FunApp(f, slot_terms)
    out: list[Term] = [identity]

    def s_ok(t: Term) -> bool:
        return not in_s or free_vars(t) == set(slots)

    base = FunctionSymbol(f.name, f.decl, PLAIN)
    if f.kind == TAGGED:
        cand = FunApp(base, slot_terms)
        if s_ok(cand):
            out.append(cand)
        cand2 = FunApp(marked(base), slot_terms)
        if f.name in afs.defined_names and s_ok(cand2):
            out.append(cand2)
    if f.kind == MARKED:
        cand = FunApp(base, slot_terms)
        if s_ok(cand):
            out.append(cand)

    # a rule f(x1..xn) => r with distinct variable arguments suggests r
    for rule in afs.rules:
        head, applied = app_spine(rule.lhs)
        if applied or not isinstance(head, FunApp):
            continue
        sym = head.fn
        if sym.name != f.name:
            continue
        if sym.kind == f.kind or (f.kind == MARKED and sym.kind == PLAIN):
            if all(isinstance(a, Var) for a in head.args) and \
                    len({a.var for a in head.args}) == len(head.args):
                body = substitute(rule.rhs, {a.var: Var(s) for a, s in zip(head.args, slots)})
                if f.kind == MARKED:
                    body2 = body
                    h2, ap2 = app_spine(body2)
                    if isinstance(h2, FunApp) and h2.fn.kind == PLAIN and not ap2:
                        body2 = FunApp(marked(h2.fn), h2.args)
                        if s_ok(body2):
                            out.append(body2)
                if s_ok(body):
                    out.append(body)

    # collapse to one argument of the output type
    for i, ty in enumerate(f.decl.inputs):
        if ty == f.decl.output:
            cand = Var(slots[i])
            if s_ok(cand):
                out.append(cand)

    # keep a proper subset of arguments under a fresh primed symbol
    if f.decl.arity > 1 and not in_s:
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
        if not rpo_geq(mu(apply_argfun(pi, w.lhs)), mu(apply_argfun(pi, w.rhs)), prec):
            return None
    strict = []
    for c in cs.strict_candidates:
        lhs = mu(apply_argfun(pi, c.lhs))
        rhs = mu(apply_argfun(pi, c.rhs))
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
    s_names = {f.display for f in cs.S}
    options = {f.display: pi_options(f, f.display in s_names, cs.afs) for f in symbols}
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
    try:
        prec = Precedence(cert.precedence, frozen=True)
    except ValueError as exc:
        return str(exc)
    for w in cs.weak:
        if not rpo_geq(mu(apply_argfun(cert.pi, w.lhs)), mu(apply_argfun(cert.pi, w.rhs)), prec):
            return f"weak constraint not oriented: {w.label}"
    for c in cs.strict_candidates:
        lhs = mu(apply_argfun(cert.pi, c.lhs))
        rhs = mu(apply_argfun(cert.pi, c.rhs))
        if c.pair_index in cert.strict:
            if not rpo_greater(lhs, rhs, prec):
                return f"pair {c.pair_index} is not strictly oriented"
        elif not rpo_geq(lhs, rhs, prec):
            return f"pair {c.pair_index} is not weakly oriented"
    return None
