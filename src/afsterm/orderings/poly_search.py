"""Search for polynomial interpretation certificates.

Candidate templates per symbol are enumerated in ascending total coefficient
weight; assignments are explored depth-first, checking each constraint as
soon as all of its symbols are assigned.
"""

from __future__ import annotations

import time
from typing import Optional

from ..terms import Term, FunctionSymbol, SimpleType, symbols_of
from .constraints import ConstraintSet, USER_KINDS, occurring_symbols
from .poly import (
    PolyFun, PolyInterp, Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE,
    Interpreter, SubtermMemo, compare_terms, expr_weight, slot_types_for,
    recovers_argument, valuation_for,
)
from .poly import nf_geq  # noqa: F401  (perfbench's layer tracer wraps it here)


def _flat(i: int, ty: SimpleType) -> Expr:
    if ty.is_base():
        return SlotRef(i)
    zeros = tuple(Const(0) for _ in ty.argument_types())
    return AppSlot(i, zeros)


def _sum(parts: list[Expr]) -> Expr:
    parts = [p for p in parts if not (isinstance(p, Const) and p.value == 0)]
    if not parts:
        return Const(0)
    if len(parts) == 1:
        return parts[0]
    return Add(tuple(parts))


def candidate_templates(f: FunctionSymbol, in_s: bool, bound: int) -> list[PolyFun]:
    """Deterministic candidate list, ascending weight.

    For symbols in the protected set S every declared argument must be
    recovered, which is enforced by keeping all flats in the template.
    """
    slots = slot_types_for(f)
    n = len(slots)
    ndecl = f.decl.arity
    base_ids = [i for i, t in enumerate(slots) if t.is_base()]
    fun_ids = [i for i, t in enumerate(slots) if t.is_arrow()]
    flats = [_flat(i, slots[i]) for i in range(n)]
    all_flats = _sum(list(flats))

    bodies: list[Expr] = []

    def add(e: Expr) -> None:
        if e not in bodies:
            bodies.append(e)

    # constants and linear forms
    for k in range(0, min(bound, 3) + 1):
        add(Const(k))
    for i in range(n):
        add(flats[i])
        add(_sum([flats[i], Const(1)]))
    add(all_flats)
    add(_sum([all_flats, Const(1)]))
    add(_sum([all_flats, Const(2)]))
    for i in range(n):
        add(_sum([flats[i], all_flats]))  # doubles slot i
        add(_sum([flats[i], all_flats, Const(1)]))
    add(_sum([all_flats, all_flats]))
    add(_sum([all_flats, all_flats, Const(1)]))
    add(_sum([all_flats, all_flats, Const(2)]))

    # max forms (the carrier's join), useful for selection rules
    if n >= 2:
        add(MaxE(tuple(flats)))
        add(_sum([MaxE(tuple(flats)), Const(1)]))
        for i in range(n):
            for j in range(i + 1, n):
                pair = MaxE((flats[i], flats[j]))
                add(pair)
                add(_sum([pair, Const(1)]))
                rest = [flats[k] for k in range(n) if k not in (i, j)]
                if rest:
                    add(_sum([pair] + rest))
                    add(_sum([pair] + rest + [Const(1)]))

    # payloads applied to functional slots
    base_flats = [_flat(i, slots[i]) for i in base_ids]
    payloads: list[Expr] = []
    for i in base_ids:
        payloads.append(flats[i])
    if len(base_ids) > 1:
        payloads.append(_sum(list(base_flats)))
        payloads.append(_sum(list(base_flats) + [Const(1)]))
    if not base_ids:
        payloads.append(Const(0))
        payloads.append(Const(1))

    rest_by_excluded: dict[int, Expr] = {}
    for g in fun_ids:
        rest_by_excluded[g] = _sum([flats[i] for i in range(n) if i != g])

    for g in fun_ids:
        g_arity = len(slots[g].argument_types())
        for p in payloads:
            args = tuple([p] + [Const(0)] * (g_arity - 1))
            atom = AppSlot(g, args)
            others = rest_by_excluded[g]
            add(_sum([atom, others]))
            add(_sum([atom, others, Const(1)]))
            add(atom)
            add(_sum([atom, Const(1)]))
            add(_sum([atom, atom, others, Const(1)]))
            # nested applications: g(g(p)), g(g(p) + p)
            if g_arity == 1:
                nested = AppSlot(g, (atom,))
                add(_sum([nested, others]))
                add(nested)
                add(_sum([nested, others, Const(1)]))
                nested_plus = AppSlot(g, (_sum([atom, p]),))
                add(_sum([nested_plus, others]))
                add(_sum([nested_plus, others, Const(1)]))
                # products p * g(p)
                prod = Mul((p, atom))
                add(_sum([prod, others]))
                add(_sum([prod, others, Const(1)]))
                add(_sum([prod, atom, others, Const(1)]))

    # squares of base slots
    for i in base_ids:
        sq = Mul((flats[i], flats[i]))
        add(_sum([sq, all_flats]))
        add(_sum([sq, all_flats, Const(1)]))
        add(_sum([sq, flats[i], flats[i], all_flats, Const(1)]))

    out = []
    for body in bodies:
        if expr_weight(body) > bound + n + 4:
            continue
        fun = PolyFun(slots, body)
        if in_s and not all(recovers_argument(fun, i) for i in range(ndecl)):
            continue
        out.append(fun)
    out.sort(key=lambda fun: (expr_weight(fun.body), repr(fun.body)))
    return out


def search_poly(cs: ConstraintSet, budget: float = 10.0,
                coef_bound: int = 3) -> Optional[PolyInterp]:
    """Enumerate interpretations; all constraints must hold weakly and at
    least one strict candidate strictly.  Returns the first (deterministic)
    hit with its maximal strict subset."""
    deadline = time.monotonic() + budget
    symbols = occurring_symbols(cs)
    s_names = {f.display for f in cs.S}

    options = {
        f.display: candidate_templates(f, f.display in s_names, coef_bound)
        for f in symbols
    }
    if any(not opts for opts in options.values()):
        return None

    constraints: list[tuple[str, Term, Term]] = []
    for w in cs.weak:
        constraints.append(("weak", w.lhs, w.rhs))
    for c in cs.strict_candidates:
        constraints.append(("cand", c.lhs, c.rhs))

    # symbols used by each constraint; check a constraint once all assigned
    con_syms: list[frozenset[str]] = [
        frozenset(f.display for f in symbols_of(lhs) | symbols_of(rhs)
                  if f.kind in USER_KINDS)
        for _, lhs, rhs in constraints
    ]

    # order symbols so constraints become checkable as early as possible:
    # repeatedly complete the constraint with the fewest unassigned symbols
    order: list[str] = []
    remaining = {f.display for f in symbols}
    open_cons = [set(s) & remaining for s in con_syms]
    while remaining:
        candidates = [c for c in open_cons if c]
        if not candidates:
            order.extend(sorted(remaining))
            break

        def rank(c: set) -> tuple:
            overlap = sum(len(c & other) for other in open_cons if other is not c)
            return (len(c), -overlap, sorted(c))

        best = min(candidates, key=rank)
        for name in sorted(best):
            order.append(name)
            remaining.discard(name)
            for c in open_cons:
                c.discard(name)

    ready_at: dict[int, list[int]] = {}
    assigned_pos = {name: i for i, name in enumerate(order)}
    for ci, syms in enumerate(con_syms):
        pos = max((assigned_pos[s] for s in syms), default=-1)
        ready_at.setdefault(pos, []).append(ci)

    assign: dict[str, PolyFun] = {}
    check_cache: dict = {}
    memo = SubtermMemo(t for _, lhs, rhs in constraints for t in (lhs, rhs))
    vals = [valuation_for([lhs, rhs]) for _, lhs, rhs in constraints]
    key_syms = [tuple(sorted(syms)) for syms in con_syms]
    cand_indices = [ci for ci, (kind, _l, _r) in enumerate(constraints) if kind == "cand"]
    last_cand_pos = max(
        (max((assigned_pos[s] for s in con_syms[ci]), default=-1) for ci in cand_indices),
        default=-1,
    )

    def check(ci: int, strict: bool) -> bool:
        key = (ci, strict, tuple([id(assign[s]) for s in key_syms[ci]]))
        hit = check_cache.get(key)
        if hit is not None:
            return hit
        _kind, lhs, rhs = constraints[ci]
        ok = compare_terms(lhs, rhs, Interpreter(assign, memo, vals[ci]), strict=strict)
        check_cache[key] = ok
        return ok

    result: Optional[PolyInterp] = None
    strict_status: dict[int, bool] = {}

    def dfs(pos: int) -> bool:
        nonlocal result
        if time.monotonic() > deadline:
            return False
        if pos == len(order):
            strict = tuple(
                c.pair_index for ci, c in zip(
                    [k for k, (kind, _l, _r) in enumerate(constraints) if kind == "cand"],
                    cs.strict_candidates)
                if strict_status.get(ci, False)
            )
            if strict:
                result = PolyInterp(dict(assign), strict)
                return True
            return False
        name = order[pos]
        for fun in options[name]:
            if time.monotonic() > deadline:
                return False
            assign[name] = fun
            ok = True
            for ci in ready_at.get(pos, ()):
                if not check(ci, strict=False):
                    ok = False
                    break
                if constraints[ci][0] == "cand":
                    strict_status[ci] = check(ci, strict=True)
            if ok and pos >= last_cand_pos and not any(
                    strict_status.get(ci, False) for ci in cand_indices):
                ok = False  # no pair can still become strictly oriented
            if ok and dfs(pos + 1):
                return True
        assign.pop(name, None)
        return False

    try:
        # constraints with no symbols at all must hold under the empty assignment
        for ci in ready_at.get(-1, ()):
            if not check(ci, strict=False):
                return None
            if constraints[ci][0] == "cand":
                strict_status[ci] = check(ci, strict=True)
        if last_cand_pos == -1 and not any(strict_status.get(ci, False) for ci in cand_indices):
            return None
        if dfs(0):
            return result
        return None
    finally:
        # dfs reaches itself through its closure; break that cycle so the
        # memo and the check cache are freed when the search returns
        dfs = None
