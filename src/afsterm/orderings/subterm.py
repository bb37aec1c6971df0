"""The subterm criterion for non-collapsing dependency pair sets."""

from __future__ import annotations

from ..record import record
from itertools import product
from typing import Optional, Sequence

from ..dp import DependencyPair
from ..terms import Term, FunApp, app_spine, subterms


@record
class Projection:
    """A projection certificate: head symbol display name -> argument index
    (1-based), plus the pair indices it orders strictly."""

    nu: dict[str, int]
    strict: tuple[int, ...]


def _head_symbol_and_args(t: Term) -> Optional[tuple[str, list[Term]]]:
    spine_head, _extra = app_spine(t)
    if isinstance(spine_head, FunApp) and spine_head.args:
        return spine_head.fn.display, list(spine_head.args)
    return None


def _is_strict_subterm(small: Term, big: Term) -> bool:
    # subterm modulo alpha; small is locally closed, so no subterm with an
    # escaping bound variable equals it
    return any(sub == small for sub, _ in subterms(big)[1:])


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
    pairs and strictly on a maximal nonempty subset."""
    selected = [(i, pairs[i]) for i in scc]
    if any(p.collapsing for _, p in selected):
        return None

    heads: dict[str, int] = {}
    for _, p in selected:
        for side in (p.lhs, p.rhs):
            ha = _head_symbol_and_args(side)
            if ha is None:
                return None
            name, args = ha
            n = len(args)
            heads[name] = min(heads.get(name, n), n)
    names = sorted(heads)

    best: Optional[Projection] = None
    for choice in product(*(range(1, heads[n] + 1) for n in names)):
        nu = dict(zip(names, choice))
        strict: list[int] = []
        ok = True
        for i, p in selected:
            left = project(nu, p.lhs)
            right = project(nu, p.rhs)
            if left is None or right is None:
                ok = False
                break
            if _is_strict_subterm(right, left):
                strict.append(i)
            elif left != right:
                ok = False
                break
        if ok and strict:
            cand = Projection(nu, tuple(strict))
            if best is None or len(cand.strict) > len(best.strict):
                best = cand
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
