"""The subterm criterion for non-collapsing dependency pair sets."""

from __future__ import annotations

from ..record import record
from itertools import product
from typing import Optional, Sequence

from ..dp import DependencyPair
from ..terms import Term, App, Abs, FunApp, head


@record
class Projection:
    """A projection certificate: head symbol display name -> argument index
    (1-based), plus the pair indices it orders strictly."""

    nu: dict[str, int]
    strict: tuple[int, ...]


def _head_symbol_and_args(t: Term) -> Optional[tuple[str, tuple[Term, ...]]]:
    spine_head = head(t)
    if isinstance(spine_head, FunApp) and spine_head.args:
        return spine_head.fn.display, spine_head.args
    return None


def _is_strict_subterm(small: Term, big: Term) -> bool:
    """small occurs in big below its root, modulo alpha; the walk stops at
    the first occurrence.  small is locally closed, so no subterm with an
    escaping bound variable equals it."""
    stack = [big]
    while stack:
        t = stack.pop()
        if isinstance(t, FunApp):
            below = t.args
        elif isinstance(t, App):
            below = (t.fn, t.arg)
        elif isinstance(t, Abs):
            below = (t.body,)
        else:
            continue
        for s in below:
            if s == small:
                return True
            stack.append(s)
    return False


def project(nu: dict[str, int], t: Term) -> Optional[Term]:
    ha = _head_symbol_and_args(t)
    if ha is None:
        return None
    name, args = ha
    idx = nu.get(name)
    if idx is None or not (1 <= idx <= len(args)):
        return None
    return args[idx - 1]


def subterm_criterion(scc: Sequence[int], pairs: Sequence[DependencyPair]) -> Optional[Projection]:
    """Search for a projection with proj(lhs) |> proj(rhs) (or equal) on all
    pairs and strictly on a maximal nonempty subset.  Each pair is split
    into head symbols and arguments once, and each comparison of two
    arguments is made once: projections that pick the same arguments of a
    pair look its relation up."""
    sides = []
    heads: dict[str, int] = {}
    for i in scc:
        p = pairs[i]
        if p.collapsing:
            return None
        lhs, rhs = _head_symbol_and_args(p.lhs), _head_symbol_and_args(p.rhs)
        if lhs is None or rhs is None:
            return None
        for name, args in (lhs, rhs):
            heads[name] = min(heads.get(name, len(args)), len(args))
        sides.append((i, lhs, rhs))
    names = sorted(heads)

    # (pair, lhs argument, rhs argument) -> True: strict, False: equal,
    # None: neither
    relation: dict[tuple[int, int, int], Optional[bool]] = {}
    best: Optional[Projection] = None
    for choice in product(*(range(1, heads[n] + 1) for n in names)):
        nu = dict(zip(names, choice))
        strict: list[int] = []
        for i, (l_name, l_args), (r_name, r_args) in sides:
            key = (i, nu[l_name], nu[r_name])
            if key in relation:
                strictly = relation[key]
            else:
                left, right = l_args[key[1] - 1], r_args[key[2] - 1]
                strictly = relation[key] = (True if _is_strict_subterm(right, left)
                                            else False if left == right else None)
            if strictly is None:
                break
            if strictly:
                strict.append(i)
        else:
            if strict and (best is None or len(strict) > len(best.strict)):
                best = Projection(nu, tuple(strict))
    return best


def check_projection(scc: Sequence[int], pairs: Sequence[DependencyPair],
                     cert: Projection) -> Optional[str]:
    """Independent re-derivation of the projection comparisons: the first
    problem, or None."""
    for i in scc:
        p = pairs[i]
        if p.collapsing:
            return f"pair {i} is collapsing"
        left = project(cert.nu, p.lhs)
        right = project(cert.nu, p.rhs)
        if left is None or right is None:
            return f"projection undefined on pair {i}"
        if i in cert.strict:
            if not _is_strict_subterm(right, left):
                return f"pair {i}: projected sides are not in the strict subterm relation"
        elif left != right and not _is_strict_subterm(right, left):
            return f"pair {i}: projected sides are neither equal nor subterm-related"
    return None
