"""Dependency graph approximation, SCC decomposition and cycle pruning."""

from __future__ import annotations

from .record import record
from typing import Iterator, Optional, Sequence

from .terms import (
    Term, Var, BVar, Abs, FunApp, FunctionSymbol, SimpleType, app_spine, type_of,
    PLAIN, FRESH,
)
from .dp import DependencyPair, DPProblem


@record
class DPGraph:
    pairs: tuple[DependencyPair, ...]
    edges: dict[int, frozenset[int]]
    alive: frozenset[int]  # indices not yet removed; removed nodes are tombstoned

    def out_edges(self, i: int) -> frozenset[int]:
        return frozenset(j for j in self.edges.get(i, frozenset()) if j in self.alive)

    def edge_count(self) -> int:
        return sum(j in self.alive for i in self.alive for j in self.edges.get(i, ()))


def _compatible(rhs_part: Term, lhs_part: Term, defined: frozenset[str]) -> bool:
    """Over-approximation: can an instance of rhs_part rewrite (internally)
    to an instance of lhs_part?

    Variables and defined-headed or redex-headed terms may become anything;
    constructor and abstraction roots are stable under reduction, and the
    fresh constants are irreducible.
    """
    if isinstance(lhs_part, Var):
        return True
    if isinstance(rhs_part, Var):
        return True
    r_head, r_args = app_spine(rhs_part)
    if isinstance(r_head, Var) or isinstance(r_head, BVar):
        return True
    if isinstance(r_head, Abs):
        if r_args:
            return True  # beta redex
        if isinstance(lhs_part, Abs):
            return True
        return False
    assert isinstance(r_head, FunApp)
    if r_head.fn.kind == FRESH:
        return False  # fresh constants are irreducible and match no pattern
    if r_head.fn.name in defined and r_head.fn.kind == PLAIN:
        return True
    # constructor (or marked) root: preserved by internal steps
    l_head, l_args = app_spine(lhs_part)
    if not isinstance(l_head, FunApp):
        return False
    if l_head.fn != r_head.fn or len(l_args) != len(r_args):
        return False
    return all(
        _compatible(ra, la, defined)
        for ra, la in zip(list(r_head.args) + r_args, list(l_head.args) + l_args)
    )


def _root(t: Term) -> Optional[tuple[FunctionSymbol, int, SimpleType, Sequence[Term]]]:
    """For t = f(s1..sn) u1..um: f, m, the type of t and [s1..sn, u1..um],
    the parts an edge test compares; None when no function symbol heads t.
    A side f(s1..sn), as most are, gives its own argument tuple."""
    if isinstance(t, FunApp):
        return t.fn, 0, type_of(t), t.args
    t_head, args = app_spine(t)
    if not isinstance(t_head, FunApp):
        return None
    return t_head.fn, len(args), type_of(t), [*t_head.args, *args]


def _follows(r, l, defined: frozenset[str]) -> bool:
    """Edge test on the `_root`s of a non-collapsing pair's right-hand side
    and of the next pair's left-hand side."""
    if r is None or l is None:
        return False
    r_fn, r_extra, r_type, r_parts = r
    l_fn, l_extra, l_type, l_parts = l
    if r_fn != l_fn or r_extra != l_extra or r_type != l_type:
        return False
    for ra, la in zip(r_parts, l_parts):
        if not _compatible(ra, la, defined):
            return False
    return True


def approximate_graph(problem: DPProblem) -> DPGraph:
    """An edge p -> q where p's right-hand side may lead to q's left-hand
    side: p is collapsing, or `_follows` holds of their `_root`s, which are
    taken once per side.  A non-collapsing pair can only be followed by
    pairs whose left-hand side has its right-hand side's head symbol, so it
    is tested against that bucket alone."""
    defined = problem.afs.defined_names
    pairs = problem.pairs
    lhs_roots = [_root(q.lhs) for q in pairs]
    by_head: dict[FunctionSymbol, list[int]] = {}
    for j, l in enumerate(lhs_roots):
        if l is not None:
            by_head.setdefault(l[0], []).append(j)
    everything = frozenset(range(len(pairs)))
    edges: dict[int, frozenset[int]] = {}
    for i, p in enumerate(pairs):
        if p.collapsing:
            edges[i] = everything
            continue
        r = _root(p.rhs)
        candidates = by_head.get(r[0], ()) if r is not None else ()
        edges[i] = frozenset(j for j in candidates if _follows(r, lhs_roots[j], defined))
    return DPGraph(pairs, edges, everything)


def sccs(g: DPGraph) -> list[tuple[int, ...]]:
    """Strongly connected components that lie on a cycle (singletons only
    with a self-loop), ordered by smallest member index."""
    alive = g.alive
    order = sorted(alive)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = [0]
    out: list[tuple[int, ...]] = []

    def successors(v: int) -> Iterator[int]:
        return iter(sorted(w for w in g.edges.get(v, ()) if w in alive))

    def strongconnect(v: int) -> None:
        # iterative Tarjan to avoid recursion limits
        work = [(v, successors(v))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, successors(w)))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[node]:
                    low[node] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comp.sort()
                if len(comp) > 1 or comp[0] in g.edges.get(comp[0], ()):
                    out.append(tuple(comp))

    for v in order:
        if v not in index:
            strongconnect(v)
    out.sort(key=lambda c: c[0])
    return out


def prune(g: DPGraph) -> DPGraph:
    """Remove all nodes that are not part of any cycle; idempotent."""
    keep: set[int] = set()
    for comp in sccs(g):
        keep.update(comp)
    return DPGraph(g.pairs, g.edges, frozenset(keep))


def to_dot(g: DPGraph) -> str:
    lines = ["digraph dependency_graph {"]
    for i in sorted(g.alive):
        label = str(g.pairs[i]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{i}: {label}"];')
    for i in sorted(g.alive):
        for j in sorted(g.out_edges(i)):
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
