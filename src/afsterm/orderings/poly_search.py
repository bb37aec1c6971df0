"""Search for polynomial interpretation certificates.

Candidate templates per symbol are enumerated in ascending total coefficient
weight, and symbols are assigned depth-first in `symbol_order`.  A
constraint is checked at the position of the last of its symbols.  Its other
symbols stay fixed while the options there are tried, so each DFS node
fetches one table row per such constraint, keyed by the option indices at
those other positions and indexed by the option tried here.

A failed subtree backjumps (conflict-directed backjumping, Prosser 1993,
*Hybrid algorithms for the constraint satisfaction problem*): it returns the
earlier positions its failure depends on, and a level whose own position is
not among them passes them up instead of trying its next option.  Each
conflict set a level receives is also learned as a nogood (Dechter 1990,
*Enhancement schemes for constraint processing*): the option indices at its
positions, stored under its top position and keyed like the table rows.  A
later node checks an option against the nogoods there only after the option
passes its rows and the strictness check, whose conflict sets are smaller;
an option a nogood rules out adds that nogood's other positions to the
node's conflict set and is skipped.  A conflict set covers every position
its failure depends on, strictness included, so every assignment agreeing
with it fails.  Only subtrees without a certificate are skipped, so the
first certificate in chronological order is the one found.

Most comparisons fail, so each is first evaluated at two fixed points
(`PointInterpreter`): valuations by naturals and weakly monotone functions,
under which `compare_terms`, sound for all of them, cannot accept a side
that is smaller there.  The second point is generic (its functional
variables grow cubically, faster than any template), so it refutes most
false comparisons (Schwartz 1980, *Fast probabilistic algorithms for
verification of polynomial identities*).  A weak comparison whose lhs is
below its rhs at a point, or a strict one whose lhs is at most its rhs
there, is decided without building normal forms.  Each option is tried in
two passes over its rows: the first evaluates every row at the points and
fails the option at the first row they refute, or, where strictness is
due and no pair here can be strict at the points, on the candidates'
positions; only an option that passes goes to `compare_terms`, row by
row, for every comparison the points left open (also those they cannot
evaluate or whose values grow too large).  Only exact facts fail an
option, so the points change no verdict, only which rows are compared.

A row's comparisons differ only in the template at its position, so a row
of a long candidate list is staged when it is made (`PointInterpreter.row`):
the parts of its sides without that symbol are evaluated once, through the
memo, and each option runs only the compiled templates above the symbol
(`point_code`: a body as one function of its slots' values, compiled once
per search).  A functional variable's value at the points takes each
argument in one call.  Other rows, and staged rows whose sides hold an
abstraction or a functional part other than a variable, go through the
memo as a whole.  Both give the slack a plain interpretation gives, the
table entry `point_entry` makes of it.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from itertools import combinations
from typing import Optional

from ..terms import Term, FunctionSymbol, SimpleType, symbols_of
from .constraints import ConstraintSet, USER_KINDS, occurring_symbols
from .poly import (
    PolyFun, PolyInterp, Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE,
    Interpreter, PointInterpreter, SubtermMemo, compare_terms, expr_weight,
    slot_types_for, recovers_argument, valuation_for, point_valuation, point_slack,
)
from .poly import nf_geq  # noqa: F401  (perfbench's layer tracer wraps it here)

# the largest constant of a candidate template; its weight exceeds its slot
# count by at most COEF_BOUND + 4
COEF_BOUND = 3
# a table row is staged (`PointInterpreter.row`) where its position has
# more options than this: staging costs about one evaluation of the sides,
# and the memo shares across rows the values a staged row recomputes.  A
# single base slot has 13 candidates; staging those rows too made dupapp's
# proof 17 % slower (paired runs, 2-core VM), and staging no row makes
# fromchain's run 41 % more bytecode.
STAGED_OPTIONS = 16
# a search gives up after this many DFS nodes, as it does at the deadline: a
# bound on work, not time.  The largest corpus search, fga's exhausted one,
# visits 12,155.
MAX_NODES = 200_000


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


def candidate_templates(f: FunctionSymbol, in_s: bool,
                        store: Optional[dict] = None) -> list[PolyFun]:
    """Deterministic candidate list, ascending weight.

    For symbols in the protected set S every declared argument must be
    recovered: their list is the general one filtered by `recovers_argument`
    for each declared argument, in order.

    The general list depends only on the slot types, and an S-list also on
    the declared arity, so `store` keeps each under the slot types or
    (slot types, declared arity): it is built once per store and served to
    every symbol with that key, and callers must not mutate it.  Without a
    store the lists are built afresh.
    """
    slots = slot_types_for(f)
    store = {} if store is None else store
    general = store.get(slots)
    if general is None:
        general = store[slots] = _general_templates(slots)
    if not in_s:
        return general
    key = (slots, f.decl.arity)
    recovering = store.get(key)
    if recovering is None:
        recovering = store[key] = [
            fun for fun in general
            if all(recovers_argument(fun, i) for i in range(f.decl.arity))]
    return recovering


def _general_templates(slots: tuple[SimpleType, ...]) -> list[PolyFun]:
    n = len(slots)
    base_ids = [i for i, t in enumerate(slots) if t.is_base()]
    fun_ids = [i for i in range(n) if i not in base_ids]
    flats = [_flat(i, slots[i]) for i in range(n)]
    all_flats = _sum(list(flats))

    bodies: dict[Expr, None] = {}  # a set; the sort below fixes the order

    def add(parts, *constants):
        """The sum of `parts` plus each of `constants` (0 and 1 by default)."""
        for k in constants or (0, 1):
            bodies.setdefault(_sum(parts + [Const(k)] if k else parts), None)

    # constants and linear forms; the sums double slot i or all of them
    add([], *range(COEF_BOUND + 1))
    add([all_flats], 0, 1, 2)
    add([all_flats, all_flats], 0, 1, 2)
    for f in flats:
        add([f])
        add([f, all_flats])

    # max forms (the carrier's join), useful for selection rules
    if n >= 2:
        add([MaxE(tuple(flats))])
        for i, j in combinations(range(n), 2):
            pair = MaxE((flats[i], flats[j]))
            add([pair])
            add([pair] + [flats[k] for k in range(n) if k not in (i, j)])

    # payloads applied to functional slots
    payloads = [flats[i] for i in base_ids] or [Const(0), Const(1)]
    if len(base_ids) > 1:
        payloads += [_sum(payloads + [Const(k)]) for k in (0, 1)]

    for g in fun_ids:
        others = _sum([flats[i] for i in range(n) if i != g])
        g_arity = len(slots[g].argument_types())
        for p in payloads:
            atom = AppSlot(g, tuple([p] + [Const(0)] * (g_arity - 1)))
            add([atom, others])
            add([atom])
            add([atom, atom, others], 1)
            # nested applications: g(g(p)), g(g(p) + p), and products p * g(p)
            if g_arity == 1:
                nested = AppSlot(g, (atom,))
                prod = Mul((p, atom))
                add([nested, others])
                add([nested], 0)
                add([AppSlot(g, (_sum([atom, p]),)), others])
                add([prod, others])
                add([prod, atom, others], 1)

    # squares of base slots
    for i in base_ids:
        sq = Mul((flats[i], flats[i]))
        add([sq, all_flats])
        add([sq, flats[i], flats[i], all_flats], 1)

    kept = [(w, body) for body in bodies if (w := expr_weight(body)) <= COEF_BOUND + n + 4]
    kept.sort(key=lambda entry: (entry[0], repr(entry[1])))
    return [PolyFun(slots, body) for _w, body in kept]


def symbol_order(names: set[str], con_syms: list[frozenset[str]]) -> list[str]:
    """The order in which the search assigns symbols, so that constraints
    become checkable as early as possible: repeatedly complete the
    constraint with the fewest unassigned symbols."""
    order: list[str] = []
    remaining = set(names)
    open_cons = [set(s) & remaining for s in con_syms]
    # the constraints that hold each name; assigning a name removes no
    # other, so a constraint's overlap with the others (the sum over its
    # names of their other holders) needs no recount
    holders = Counter(name for c in open_cons for name in c)
    while remaining:
        candidates = [c for c in open_cons if c]
        if not candidates:
            order.extend(sorted(remaining))
            break
        best = min(candidates, key=lambda c: (
            len(c), -sum(holders[name] - 1 for name in c), sorted(c)))
        for name in sorted(best):
            order.append(name)
            remaining.discard(name)
            for c in open_cons:
                c.discard(name)
    return order


def point_entry(slack, weak):
    """The table entry of a comparison with this slack at the points (None
    where they cannot evaluate it): 0 if they refute it, else open, -1 where
    it may hold but never strictly (a weak constraint, or slack 0) and -2
    where it may hold strictly."""
    return 0 if slack is not None and slack < 0 else -1 if weak or slack == 0 else -2


class _Stop(Exception):
    """The deadline passed or `MAX_NODES` was reached: ends the search at once."""


class _Row(list):
    """A table row: an entry per option at its position, and `at_points`,
    the function that gives the slack of the option assigned there."""

    __slots__ = ("at_points",)


class _Nogoods(dict):
    """The nogoods learned at one position: mask of their other positions ->
    (those positions, {their option indices -> mask of the options here that
    they rule out})."""


def search_poly(cs: ConstraintSet, store: Optional[dict] = None,
                deadline: Optional[float] = None) -> Optional[PolyInterp]:
    """Enumerate interpretations; all constraints must hold weakly and at
    least one strict candidate strictly.  Returns the first (deterministic)
    hit with its maximal strict subset, or None once the space is exhausted,
    `MAX_NODES` DFS nodes are visited or the `time.monotonic()` deadline
    passes.  `store` keeps the candidate lists for `candidate_templates`;
    `prove` passes one per proof, and without it the search makes its own."""
    deadline = float("inf") if deadline is None else deadline
    symbols = occurring_symbols(cs)
    s_names = {f.display for f in cs.S}
    store = {} if store is None else store

    options = {
        f.display: candidate_templates(f, f.display in s_names, store)
        for f in symbols
    }
    if not all(options.values()):
        return None

    constraints: list[tuple[Term, Term]] = [(c.lhs, c.rhs) for c in cs.weak]
    constraints += [(c.lhs, c.rhs) for c in cs.strict_candidates]
    first_cand = len(cs.weak)
    con_syms: list[frozenset[str]] = [
        frozenset(f.display for f in symbols_of(lhs) | symbols_of(rhs)
                  if f.kind in USER_KINDS)
        for lhs, rhs in constraints
    ]
    order = symbol_order({f.display for f in symbols}, con_syms)
    n = len(order)
    pos_of = {name: i for i, name in enumerate(order)}
    opts = [options[name] for name in order]

    # Sets of positions are bit masks.  ready[p]: (constraint, its other
    # positions, their mask) for the constraints whose last symbol sits at
    # position p; symbol-free constraints are checked up front.
    ready: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(n)]
    upfront: list[int] = []
    cand_mask = 0
    last_cand_pos = -1
    for ci, syms in enumerate(con_syms):
        ps = sorted(pos_of[s] for s in syms)
        if not ps:
            upfront.append(ci)
            continue
        mask = sum(1 << p for p in ps)
        if ci >= first_cand:
            cand_mask |= mask
            last_cand_pos = max(last_cand_pos, ps[-1])
        ready[ps[-1]].append((ci, tuple(ps[:-1]), mask & ~(1 << ps[-1])))

    assign: dict[str, PolyFun] = {}
    chosen = [0] * n  # the option index at each assigned position
    strict = [False] * len(constraints)  # per constraint: holds strictly
    # (constraint, option indices at its other positions) -> one entry per
    # option at its last position: 0 weak fails, 1 weak holds, 2 strict
    # holds, or, until the normal forms are compared, left open by the
    # points: -1 may hold but never strictly (a weak constraint, or slack
    # 0), -2 may hold strictly
    tables: dict[tuple, _Row] = {}
    learned = [_Nogoods() for _ in range(n)]
    memo = SubtermMemo(t for pair in constraints for t in pair)
    # the interpreters read `assign` as the search changes it
    interps = [Interpreter(assign, memo, valuation_for(pair)) for pair in constraints]
    points = PointInterpreter(
        assign, memo, point_valuation(t for pair in constraints for t in pair))

    def verdict(ci: int, v: int) -> int:
        """The exact table entry of a constraint the points left open at v,
        from the normal forms."""
        lhs, rhs = constraints[ci]
        interp = interps[ci]
        if not compare_terms(lhs, rhs, interp, strict=False):
            return 0
        return 2 if v == -2 and compare_terms(lhs, rhs, interp, strict=True) else 1

    result: Optional[PolyInterp] = None
    nodes = 0

    def dfs(pos: int) -> Optional[int]:
        """None once a certificate is found, else the mask of the earlier
        positions whose options this subtree's failure depends on."""
        nonlocal result, nodes
        nodes += 1
        if nodes > MAX_NODES or time.monotonic() > deadline:
            raise _Stop
        if pos == n:  # some candidate holds strictly: checked at last_cand_pos
            pairs = tuple(c.pair_index for c, s in
                          zip(cs.strict_candidates, strict[first_cand:]) if s)
            result = PolyInterp(dict(assign), pairs)
            return None
        name = order[pos]
        rows = []
        for ci, others, mask in ready[pos]:
            key = (ci, tuple([chosen[q] for q in others]))
            row = tables.get(key)
            if row is None:
                row = tables[key] = _Row([None] * len(opts[pos]))
                row.at_points = points.row(*constraints[ci], name) \
                    if len(row) > STAGED_OPTIONS else partial(point_slack, *constraints[ci], points)
            rows.append((ci, mask, row))
            strict[ci] = False  # set again by each option
        nogoods = []
        ruled_out = 0  # the options here that some nogood rules out
        for mask, (others, table) in learned[pos].items():
            ruled = table.get(tuple([chosen[q] for q in others]))
            if ruled:
                nogoods.append((mask, ruled))
                ruled_out |= ruled
        # strictness is due here unless an upfront or earlier pair is strict
        due = pos >= last_cand_pos and not any(strict)
        conflict = 0
        v = 1  # what the checks leave where there is no row
        for i, fun in enumerate(opts[pos]):
            assign[name] = fun
            chosen[pos] = i
            strictable = not due
            for ci, mask, row in rows:  # the points first, for every row
                v = row[i]
                if v is None:
                    if time.monotonic() > deadline:
                        raise _Stop
                    v = row[i] = point_entry(row.at_points(), ci < first_cand)
                if not v:
                    break
                strictable |= abs(v) == 2
            # a refuted row fails the option on its positions; no pair that
            # can still become strict, on the candidates'
            if not v or not strictable:
                conflict |= cand_mask if v else mask
                continue
            for ci, mask, row in rows:  # then the normal forms
                v = row[i]
                if v < 0:
                    v = row[i] = verdict(ci, v)
                if not v:
                    break
                strict[ci] = v == 2
            if not v or due and not any(strict):
                conflict |= cand_mask if v else mask
                continue
            if ruled_out >> i & 1:
                for mask, ruled in nogoods:
                    if ruled >> i & 1:
                        conflict |= mask
                        break
                continue
            below = dfs(pos + 1)
            if below is None:
                return None
            if not below >> pos & 1:
                return below  # no option here changes that failure
            conflict |= below
            # learn it: this option with those at its other positions fails
            mask = below & ~(1 << pos)
            entry = learned[pos].get(mask)
            if entry is None:
                entry = learned[pos][mask] = (
                    tuple(q for q in range(pos) if mask >> q & 1), {})
            others, table = entry
            key = tuple([chosen[q] for q in others])
            table[key] = table.get(key, 0) | 1 << i
        return conflict & ~(1 << pos)

    try:
        for ci in upfront:
            v = point_entry(point_slack(*constraints[ci], points), ci < first_cand)
            v = v and verdict(ci, v)
            if not v:
                return None
            strict[ci] = v == 2
        if last_cand_pos == -1 and not any(strict):
            return None
        return result if dfs(0) is None else None
    except _Stop:
        return None
    finally:
        # dfs reaches itself through its closure; break that cycle so the
        # memo, the tables and the nogoods are freed when the search returns
        dfs = None
