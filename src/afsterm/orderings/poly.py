"""Weakly monotonic interpretations over the naturals with 0 and max.

Application uses the max construction, the per-type constants are fixed to
zero.  A `Domain` gives base values with zero, constants, +, * and max, and
lifts them to arrow types once.  In `NORMAL_FORMS` a base value is a max of
sums of monomials over base slots and applied functional slots; the
comparator decides coverage branch by branch.  It is sound but incomplete; a
bounded total-order case split handles the interplay between max branches
and monotone functional slots.  In `POINTS` a base value is a pair of
naturals, the values at two fixed valuations by naturals and weakly monotone
functions: a small one and a generic one whose functional variables grow
cubically.  The comparator is sound for every such valuation, so a
comparison that fails at either point is one it rejects.  `Interpreter` and
`PointInterpreter` interpret terms in the two domains.
"""

from __future__ import annotations

from ..record import record
from typing import Callable, Iterable, Optional, Sequence

from ..terms import (
    Term, Var, BVar, Abs, App, FunApp, Variable, FunctionSymbol, SimpleType,
    type_of, free_vars, open_abs, symbols_of, type_text,
    FRESH, EXT,
)


class Unsupported(Exception):
    """The symbolic machinery cannot represent this comparison."""


# --------------------------------------------------------------------------
# expression language (bodies of interpretation templates)


@record
class Expr:
    pass


@record
class Const(Expr):
    value: int


@record
class SlotRef(Expr):
    index: int


@record
class AppSlot(Expr):
    index: int
    args: tuple[Expr, ...]


@record
class Add(Expr):
    parts: tuple[Expr, ...]


@record
class Mul(Expr):
    parts: tuple[Expr, ...]


@record
class MaxE(Expr):
    parts: tuple[Expr, ...]


@record
class PolyFun:
    """An interpretation template: slot types, then a body over the slots.

    Only well-formed bodies are accepted: every slot index is in range, a
    `SlotRef` names a base slot, an `AppSlot` names a functional slot and
    passes exactly its arity, and every `Const` is >= 0.  Built from such
    parts with `+`, `*` and `max`, a body is weakly monotone in every slot
    whenever the functional slots are, so no template needs a further check.
    """

    slot_types: tuple[SimpleType, ...]
    body: Expr

    def __post_init__(self) -> None:
        _check_body(self.body, self.slot_types)


def _check_body(e: Expr, slots: tuple[SimpleType, ...]) -> None:
    """Raise ValueError unless `e` is a well-formed body over `slots`."""
    if isinstance(e, Const):
        if e.value < 0:
            raise ValueError(f"negative constant {e.value}")
        return
    if isinstance(e, (Add, Mul, MaxE)):
        for p in e.parts:
            _check_body(p, slots)
        return
    assert isinstance(e, (SlotRef, AppSlot))
    name = f"x{e.index + 1}"
    if not 0 <= e.index < len(slots):
        raise ValueError(f"slot {name} out of range")
    arity = len(slots[e.index].argument_types())
    if isinstance(e, SlotRef):
        if arity:
            raise ValueError(f"functional slot {name} must be applied to {arity} argument(s)")
        return
    if not arity:
        raise ValueError(f"base slot {name} cannot be applied")
    if len(e.args) != arity:
        raise ValueError(f"slot {name} takes {arity} argument(s), not {len(e.args)}")
    for a in e.args:
        _check_body(a, slots)


@record
class PolyInterp:
    """A polynomial interpretation certificate."""

    assign: dict  # display name -> PolyFun
    strict: tuple[int, ...]  # strictly oriented pair indices


def expr_weight(e: Expr) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, SlotRef):
        return 1
    if isinstance(e, AppSlot):
        return 1 + sum(expr_weight(a) for a in e.args)
    if isinstance(e, (Add, MaxE)):
        return sum(expr_weight(p) for p in e.parts)
    assert isinstance(e, Mul)
    return 1 + sum(expr_weight(p) for p in e.parts)


def expr_text(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, SlotRef):
        return f"x{e.index + 1}"
    if isinstance(e, AppSlot):
        args = ", ".join(expr_text(a) for a in e.args)
        return f"x{e.index + 1}({args})"
    if isinstance(e, Add):
        return " + ".join(expr_text(p) for p in e.parts)
    if isinstance(e, Mul):
        parts = []
        for p in e.parts:
            s = expr_text(p)
            if isinstance(p, (Add, MaxE)):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    assert isinstance(e, MaxE)
    return "max(" + ", ".join(expr_text(p) for p in e.parts) + ")"


# --------------------------------------------------------------------------
# normal forms
#
# NF       := tuple of branches (semantic max)
# branch   := tuple of monomials (semantic sum), canonically sorted
# monomial := (coeff, factors) with factors a sorted tuple
# factor   := ("slot", sid) | ("atom", sid, args) with args a tuple of branches

NF = tuple
Branch = tuple
Monomial = tuple


def _mono_key(m: Monomial):
    return (m[1], m[0])


def _canon_branch(monos) -> Branch:
    merged: dict[tuple, int] = {}
    for coeff, factors in monos:
        if coeff:
            merged[factors] = merged.get(factors, 0) + coeff
    return tuple(sorted(((c, f) for f, c in merged.items() if c), key=_mono_key))


def nf_const(n: int) -> NF:
    return (_canon_branch([(n, ())]),) if n else ((),)


def nf_slot(sid) -> NF:
    return (((1, (("slot", sid),)),),)


def nf_atom(sid, arg_nfs: Sequence[NF]) -> NF:
    # distribute max out of atom arguments (sound and complete over a total
    # order with monotone slots)
    branches = []
    def build(i: int, chosen: tuple):
        if i == len(arg_nfs):
            branches.append(((1, (("atom", sid, chosen),)),))
            return
        for b in arg_nfs[i]:
            build(i + 1, chosen + (b,))
    build(0, ())
    return _canon_nf(branches)


def _branch_add(a: Branch, b: Branch) -> Branch:
    # both branches are canonical: merge them by factors in one pass
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        fa, fb = a[i][1], b[j][1]
        if fa == fb:
            out.append((a[i][0] + b[j][0], fa))
            i += 1
            j += 1
        elif fa < fb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _branch_mul(a: Branch, b: Branch) -> Branch:
    out = []
    for ca, fa in a:
        for cb, fb in b:
            out.append((ca * cb, tuple(sorted(fa + fb))))
    return _canon_branch(out)


def _canon_nf(branches) -> NF:
    uniq = sorted(set(tuple(b) for b in branches))
    if len(uniq) <= 1:
        return tuple(uniq) if uniq else ((),)
    if len(uniq) > 24:  # keep the canonicalization linear for huge maxes
        return tuple(uniq)
    # drop branches plainly subsumed by another (every monomial occurs there
    # with at least the same coefficient)
    dicts = [{f: k for k, f in b} for b in uniq]
    lens = [len(b) for b in uniq]
    kept = []
    for i, b in enumerate(uniq):
        dominated = False
        for j in range(len(uniq)):
            if i == j or lens[j] < lens[i]:
                continue
            cd = dicts[j]
            if all(cd.get(f, 0) >= k for k, f in b):
                bd = dicts[i]
                c = uniq[j]
                if not all(bd.get(f, 0) >= k for k, f in c) or j < i:
                    dominated = True
                    break
        if not dominated:
            kept.append(b)
    return tuple(kept) if kept else ((),)


NF_ZERO: NF = ((),)
_NF_LIMIT = 64


def _guard(nf: NF) -> NF:
    if len(nf) > _NF_LIMIT or any(len(b) > _NF_LIMIT for b in nf):
        raise Unsupported("normal form too large")
    return nf


def nf_add(a: NF, b: NF) -> NF:
    # both sides are canonical, so zero leaves the other side as it is
    if a == NF_ZERO:
        return _guard(b)
    if b == NF_ZERO:
        return _guard(a)
    return _guard(_canon_nf([_branch_add(x, y) for x in a for y in b]))


def nf_mul(a: NF, b: NF) -> NF:
    return _guard(_canon_nf([_branch_mul(x, y) for x in a for y in b]))


def nf_max(a: NF, b: NF) -> NF:
    return _guard(_canon_nf(list(a) + list(b)))


# --------------------------------------------------------------------------
# value domains: a value of an arrow type is an `SFun` from values of its
# argument type


@record(frozen=False)
class SFun:
    type: SimpleType  # an arrow type
    fn: Callable

    def __call__(self, arg):
        return self.fn(arg)


class Domain:
    """Base zero, `const(n)`, and binary `add`, `mul` and `max` on base
    values, lifted to arrow types by `zero`, `flat`, `join`, `apply` and
    `body`."""

    def __init__(self, zero, const: Callable, add: Callable, mul: Callable, max: Callable):
        self.base_zero, self.const, self.add, self.mul, self.max = zero, const, add, mul, max

    def zero(self, ty: SimpleType):
        if ty.is_base():
            return self.base_zero
        return SFun(ty, lambda _arg: self.zero(ty.right))

    def flat(self, v):
        """Apply a value to zeros down to base."""
        while isinstance(v, SFun):
            v = v(self.zero(v.type.left))
        return v

    def join(self, a, b):
        """The pointwise maximum of two values of a type, or of a value and
        a base value that each of its results is joined with."""
        if not isinstance(a, SFun):
            return self.max(a, b)
        if isinstance(b, SFun):
            return SFun(a.type, lambda arg: self.join(a(arg), b(arg)))
        return SFun(a.type, lambda arg: self.join(a(arg), b))

    def apply(self, fun: PolyFun, args: Sequence, out_type: SimpleType):
        """Apply a template: curry until all slots are filled, then evaluate."""
        if len(args) == len(fun.slot_types):
            return self.body(fun.body, tuple(args))
        return SFun(out_type,
                    lambda a, args=tuple(args): self.apply(fun, args + (a,), out_type.right))

    def body(self, e: Expr, env: tuple):
        """The base value of a template body; `env` holds a value of each
        slot's type (the body is well-formed, see `PolyFun`)."""
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, SlotRef):
            return env[e.index]
        if isinstance(e, AppSlot):
            v = env[e.index]
            for a in e.args:
                v = v(self.body(a, env))
            return v
        if isinstance(e, Add):
            op, out = self.add, self.base_zero
        elif isinstance(e, Mul):
            op, out = self.mul, self.const(1)
        else:  # MaxE
            op, out = self.max, self.base_zero
        for p in e.parts:
            out = op(out, self.body(p, env))
        return out


def opaque(ty: SimpleType, finish: Callable):
    """An opaque value of type `ty`: applied to base values down to base, it
    is `finish` of the tuple of those values (of `()` when `ty` is base)."""
    def chain(args: tuple, t: SimpleType):
        if t.is_base():
            return finish(args)

        def fn(arg):
            if isinstance(arg, SFun):
                raise Unsupported("functional argument to an opaque slot")
            return chain(args + (arg,), t.right)
        return SFun(t, fn)

    return chain((), ty)


NORMAL_FORMS = Domain(NF_ZERO, nf_const, nf_add, nf_mul, nf_max)


def _slot(sid, ty: SimpleType):
    """A slot or, if functional, an atom of its arguments' normal forms."""
    return opaque(ty, lambda args: nf_atom(sid, args) if args else nf_slot(sid))


# --------------------------------------------------------------------------
# values at two fixed points
#
# A base value is a pair of naturals, the term's value at point A and at
# point B, computed in one pass.  At A every variable and eta slot is 0 and
# a functional one sums its arguments.  B is meant to be generic: the i-th
# variable of `point_valuation` is 3 * (i + 1), and a functional variable or
# eta slot with constant c (0 for eta slots) maps arguments summing to s to
# c + s^3 + s, which outgrows every template (their degree is at most 2).
# Cubes compound with nesting, so a product or a slot's value past
# `_POINT_BITS` bits gives up like a too-large normal form.

Pair = tuple
_POINT_BITS = 4096


def _bounded(n: int) -> int:
    if n.bit_length() > _POINT_BITS:
        raise Unsupported("point value too large")
    return n


POINTS = Domain(
    (0, 0),
    lambda n: (n, n),
    lambda x, y: (x[0] + y[0], x[1] + y[1]),
    lambda x, y: (_bounded(x[0] * y[0]), _bounded(x[1] * y[1])),
    lambda x, y: (x[0] if x[0] >= y[0] else y[0], x[1] if x[1] >= y[1] else y[1]),
)


def point_slot(c: int, ty: SimpleType):
    """An opaque slot at the two points: a base one is (0, c); a functional
    one maps arguments summing to s to s at point A and to c + s^3 + s at
    point B."""
    def finish(args: tuple) -> Pair:
        if not args:
            return (0, c)
        s = sum([b for _a, b in args])
        return (sum([a for a, _b in args]), _bounded(c + s * s * s + s))

    return opaque(ty, finish)


# --------------------------------------------------------------------------
# interpreting terms


def recovers_argument(fun: PolyFun, i: int) -> bool:
    """J(0, .., x_i, .., 0) >= x_i(0, .., 0): the template keeps slot i, as
    the symbols of the protected set S require for their declared arguments."""
    env = tuple(_slot(f"rec:{j}", ty) if j == i else NORMAL_FORMS.zero(ty)
                for j, ty in enumerate(fun.slot_types))
    try:
        value = NORMAL_FORMS.body(fun.body, env)
    except Unsupported:
        return False
    return nf_geq(value, NORMAL_FORMS.flat(env[i]))


def slot_types_for(f: FunctionSymbol) -> tuple[SimpleType, ...]:
    """Template slots: the declared inputs plus the curried output arguments."""
    return tuple(f.decl.inputs) + f.decl.output.argument_types()


class Interpreter:
    """Interprets terms in `domain` under an assignment of templates to
    symbols: here `NORMAL_FORMS`, so the base values are normal forms.

    A search also passes its `SubtermMemo` and `val`, the valuation of the
    constraint being checked (`valuation_for` of its two sides), and the
    memo then serves the subterms it indexes.  Only values reached under
    `val` itself are memoized: below a binder the valuation is a copy that
    also binds the abstraction's variable.
    """

    domain = NORMAL_FORMS

    def __init__(self, assign: dict[str, PolyFun],
                 memo: Optional[SubtermMemo] = None, val: Optional[dict] = None):
        self.assign = assign
        self.memo = memo
        self.val = val
        self.table = None if memo is None else memo.table

    def valuation(self, lhs: Term, rhs: Term) -> dict:
        return valuation_for([lhs, rhs]) if self.val is None else self.val

    def eta(self, i: int, ty: SimpleType):
        """The shared argument that eta-expands functional sides."""
        return _slot(f"eta:{i}", ty)

    def sides(self, lhs: Term, rhs: Term) -> tuple:
        """Interpret both sides under a shared valuation; eta-expand
        functional comparisons down to two base values."""
        val = self.valuation(lhs, rhs)
        lv = self.interp(lhs, val)
        rv = self.interp(rhs, val)
        i = 0
        while isinstance(lv, SFun):
            if not isinstance(rv, SFun):
                raise Unsupported("sides of different functional depth")
            arg = self.eta(i, lv.type.left)
            lv = lv(arg)
            rv = rv(arg)
            i += 1
        if isinstance(rv, SFun):
            raise Unsupported("sides of different functional depth")
        return lv, rv

    def interp(self, t: Term, val: dict):
        memo = self.memo
        if memo is None or val is not self.val:
            return self._interp(t, val)
        entry = memo.index.get(id(t))
        if entry is None:
            return self._interp(t, val)
        assign = self.assign
        key = (entry[1], tuple([id(assign.get(s)) for s in entry[2]]))
        table = self.table
        hit = table.get(key)
        if hit is None:
            hit = table[key] = self._interp(t, val)
        return hit

    def _interp(self, t: Term, val: dict):
        if isinstance(t, Var):
            return val[t.var]
        if isinstance(t, BVar):
            raise Unsupported("dangling bound variable")
        if isinstance(t, Abs):
            x, body = open_abs(t, list(val.keys()))
            ty = type_of(t)

            def fn(arg, x=x, body=body):
                inner = dict(val)
                inner[x] = arg
                return self.interp(body, inner)

            return SFun(ty, fn)
        domain = self.domain
        if isinstance(t, App):
            f = self.interp(t.fn, val)
            a = self.interp(t.arg, val)
            if not isinstance(f, SFun):
                raise Unsupported("application of a base value")
            return domain.join(f(a), domain.flat(a))
        assert isinstance(t, FunApp)
        f = t.fn
        if f.kind == FRESH:
            return domain.zero(f.decl.output)
        if f.kind == EXT and f.name.startswith("!p{"):
            args = [self.interp(a, val) for a in t.args]
            return domain.join(args[0], args[1])
        fun = self.assign.get(f.display)
        if fun is None:
            raise Unsupported(f"no interpretation for {f.display}")
        args = [self.interp(a, val) for a in t.args]
        return domain.apply(fun, args, f.decl.output)


class PointInterpreter(Interpreter):
    """`Interpreter` in `POINTS`: the values of terms at the two points,
    memoized in the `SubtermMemo`'s point table.  `val` is then
    `point_valuation` of every constraint of the search, so that a
    variable's value depends only on its name and type there too."""

    domain = POINTS

    def __init__(self, assign: dict[str, PolyFun],
                 memo: Optional[SubtermMemo] = None, val: Optional[dict] = None):
        super().__init__(assign, memo, val)
        self.table = None if memo is None else memo.points

    def valuation(self, lhs: Term, rhs: Term) -> dict:
        return point_valuation([lhs, rhs]) if self.val is None else self.val

    def eta(self, i: int, ty: SimpleType):
        return point_slot(0, ty)


class SubtermMemo:
    """The values of base-typed subterms of one search's constraints, keyed
    by the subterm and the templates assigned to every symbol in it.

    A variable's value depends only on its name and type (`valuation_for`),
    so a subterm outside every binder has the same value in every
    constraint it occurs in, and structurally equal subterms share entries.
    The index holds the constraint terms themselves, which keeps their ids
    valid while the memo lives; terms that interpretation builds are never
    looked up.  A failed interpretation raises before anything is stored.
    `table` holds normal forms, `points` the pairs of `PointInterpreter`.
    """

    def __init__(self, terms: Iterable[Term]):
        # id(subterm) -> (subterm, shared key, sorted symbol names)
        self.index: dict[int, tuple[Term, int, tuple[str, ...]]] = {}
        self.table: dict[tuple, NF] = {}
        self.points: dict[tuple, Pair] = {}
        keys: dict[Term, int] = {}
        todo = list(terms)
        while todo:
            t = todo.pop()
            if isinstance(t, App):
                todo += (t.fn, t.arg)
            elif isinstance(t, FunApp):
                todo += t.args
            else:  # variables are looked up, abstractions bind
                continue
            if t.loose or not type_of(t).is_base():
                continue
            syms = tuple(sorted({f.display for f in symbols_of(t)}))
            self.index[id(t)] = (t, keys.setdefault(t, len(keys)), syms)


def _sorted_vars(terms: Iterable[Term]) -> list[Variable]:
    vs: set[Variable] = set()
    for t in terms:
        vs |= free_vars(t)
    return sorted(vs, key=lambda v: (v.name, type_text(v.type)))


def valuation_for(terms: Sequence[Term]) -> dict:
    return {v: _slot(f"v:{v.name}:{type_text(v.type)}", v.type)
            for v in _sorted_vars(terms)}


def point_valuation(terms: Iterable[Term]) -> dict:
    """The variables of `terms` at the two points: the i-th in
    `valuation_for`'s order, from 0, is `point_slot(3 * (i + 1), _)`, so
    base variables are 3, 6, 9, ... at point B."""
    return {v: point_slot(3 * (i + 1), v.type) for i, v in enumerate(_sorted_vars(terms))}


def point_slack(lhs: Term, rhs: Term, interp: PointInterpreter) -> Optional[int]:
    """The least of lhs - rhs over the two points, or None when the sides
    cannot be interpreted.  Below 0 `compare_terms` rejects lhs >= rhs; at
    or below 0 it rejects lhs > rhs."""
    try:
        (la, lb), (ra, rb) = interp.sides(lhs, rhs)
    except Unsupported:
        return None
    return min(la - ra, lb - rb)


# --------------------------------------------------------------------------
# the comparator


def _factor_covers(sf, tf, asms) -> bool:
    if sf == tf:
        return True
    if sf[0] == "slot" or tf[0] == "slot":
        return False
    if sf[0] == "atom" and tf[0] == "atom":
        if sf[1] != tf[1] or len(sf[2]) != len(tf[2]):
            return False
        return all(_sum_geq(sa, ta, asms) for sa, ta in zip(sf[2], tf[2]))
    return False


def _sum_geq(a: Branch, b: Branch, asms, depth: int = 2) -> bool:
    if _sum_covers(a, b, asms):
        return True
    if depth <= 0:
        return False
    for lo, hi in asms:
        if b == lo and _sum_geq(a, hi, asms, depth - 1):
            return True
    return False


def _sum_covers(a: Branch, b: Branch, asms) -> bool:
    """Every monomial of b is matched into a's monomials, factor multisets
    covered bijectively, respecting coefficients."""
    capacities = [c for c, _f in a]
    return _alloc(list(b), 0, a, capacities, asms)


def _alloc(need: list, i: int, a: Branch, caps: list[int], asms) -> bool:
    if i == len(need):
        return True
    coeff, factors = need[i]
    if not factors:  # constant monomial: any remaining capacity on constants
        remaining = coeff
        order = []
        for j, (c, f) in enumerate(a):
            if not f and caps[j] > 0:
                order.append(j)
        taken = []
        for j in order:
            take = min(caps[j], remaining)
            caps[j] -= take
            taken.append((j, take))
            remaining -= take
            if not remaining:
                break
        if not remaining and _alloc(need, i + 1, a, caps, asms):
            return True
        for j, take in taken:
            caps[j] += take
        return False
    candidates = [
        j for j, (c, f) in enumerate(a)
        if caps[j] > 0 and len(f) == len(factors)
        and _factors_cover(f, factors, asms)
    ]
    return _alloc_units(need, i, coeff, candidates, a, caps, asms)


def _alloc_units(need, i, remaining, candidates, a, caps, asms) -> bool:
    if remaining == 0:
        return _alloc(need, i + 1, a, caps, asms)
    for idx, j in enumerate(candidates):
        if caps[j] <= 0:
            continue
        take = min(caps[j], remaining)
        caps[j] -= take
        if _alloc_units(need, i, remaining - take, candidates[idx:], a, caps, asms):
            return True
        caps[j] += take
    return False


def _factors_cover(sfs: tuple, tfs: tuple, asms) -> bool:
    """Bijective cover between equal-length factor multisets."""
    if len(sfs) != len(tfs):
        return False
    remaining = list(sfs)

    def assign(k: int) -> bool:
        if k == len(tfs):
            return True
        for idx, sf in enumerate(remaining):
            if sf is not None and _factor_covers(sf, tfs[k], asms):
                remaining[idx] = None
                if assign(k + 1):
                    return True
                remaining[idx] = sf
        return False

    return assign(0)


def _branch_covered(s_nf: NF, t_branch: Branch, asms, splits: int) -> bool:
    for sb in s_nf:
        if _sum_covers(sb, t_branch, asms):
            return True
    if splits <= 0:
        return False
    # total-order case split on a single-argument atom monomial F(e):
    # either F(e) <= e (replace the monomial) or e <= F(e) (assume it)
    for k, (coeff, factors) in enumerate(t_branch):
        if len(factors) != 1 or factors[0][0] != "atom":
            continue
        atom = factors[0]
        if len(atom[2]) != 1:
            continue
        arg_sum = atom[2][0]
        reduced = list(t_branch[:k] + t_branch[k + 1:])
        scaled = [(c * coeff, f) for c, f in arg_sum]
        case_a = _canon_branch(reduced + scaled)
        atom_sum: Branch = ((1, (atom,)),)
        new_asms = asms + ((arg_sum, atom_sum),)
        if _branch_covered(s_nf, case_a, asms, splits - 1) and \
                _branch_covered(s_nf, t_branch, new_asms, splits - 1):
            return True
    return False


def nf_geq(s: NF, t: NF, strict: bool = False) -> bool:
    """Sound check of s >= t (or s > t) for all valuations."""
    one = (1, ())
    for tb in t:
        goal = _canon_branch(list(tb) + [one]) if strict else tb
        if not _branch_covered(s, goal, (), 2):
            return False
    return True


def compare_terms(lhs: Term, rhs: Term, interp: Interpreter, strict: bool) -> bool:
    try:
        l_nf, r_nf = interp.sides(lhs, rhs)
    except Unsupported:
        return False
    return nf_geq(l_nf, r_nf, strict)
