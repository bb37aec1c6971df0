"""Shared test utilities: corpus loading, random well-typed terms and
concrete evaluators for interpretation templates and normal forms."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Sequence

from afsterm import parse_afs
from afsterm.orderings.poly import Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE
from afsterm.terms import (
    Term, Var, App, FunApp, Variable, SimpleType, Arrow, Base, lam, free_vars,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name: str):
    return parse_afs((CORPUS / f"{name}.afs").read_text())


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS.glob("*.afs"))


def random_term(rng: random.Random, afs, ty: SimpleType, size: int,
                env: tuple[Variable, ...] = (), allow_free: bool = True) -> Term:
    """A random well-typed term of the given type over the signature."""
    leaves = []
    for v in env:
        if v.type == ty:
            leaves.append(("var", v))
    for f in afs.signature:
        if f.decl.output == ty and f.decl.arity == 0:
            leaves.append(("const", f))
    if allow_free:
        leaves.append(("free", Variable(f"u{rng.randrange(3)}", ty)))

    if size <= 1 or (not ty.is_arrow() and rng.random() < 0.2):
        if leaves:
            kind, payload = rng.choice(leaves)
            return Var(payload) if kind in ("var", "free") else FunApp(payload)

    options = []
    if ty.is_arrow():
        options.append("abs")
    syms = [f for f in afs.signature if f.decl.output == ty and f.decl.arity > 0]
    if syms:
        options.append("fun")
    # application at a base argument type
    base_types = sorted({b.name for f in afs.signature
                         for b in [f.decl.output.base_result()]})
    if base_types and size > 2:
        options.append("app")
    if not options:
        if leaves:
            kind, payload = rng.choice(leaves)
            return Var(payload) if kind in ("var", "free") else FunApp(payload)
        return Var(Variable("u0", ty))

    choice = rng.choice(options)
    if choice == "abs":
        assert isinstance(ty, Arrow)
        x = Variable(f"b{len(env)}", ty.left)
        body = random_term(rng, afs, ty.right, size - 1, env + (x,), allow_free)
        return lam(x, body)
    if choice == "fun":
        f = rng.choice(syms)
        budget = max(1, (size - 1) // max(1, f.decl.arity))
        args = tuple(random_term(rng, afs, a, budget, env, allow_free)
                     for a in f.decl.inputs)
        return FunApp(f, args)
    # application: build fn : sigma -> ty and arg : sigma
    sigma = Base(rng.choice(base_types))
    fn = random_term(rng, afs, Arrow(sigma, ty), size // 2, env, allow_free)
    arg = random_term(rng, afs, sigma, size // 2, env, allow_free)
    return App(fn, arg)


def random_closed_term(rng: random.Random, afs, ty: SimpleType, size: int) -> Term:
    for _ in range(20):
        t = random_term(rng, afs, ty, size, allow_free=False)
        if not free_vars(t):
            return t
    # fall back to a nullary symbol of the type if sampling keeps failing
    for f in afs.signature:
        if f.decl.output == ty and f.decl.arity == 0:
            return FunApp(f)
    raise RuntimeError(f"cannot build a closed term of type {ty}")


MONOTONE_SAMPLES = [
    lambda *a: 0,
    lambda *a: 1,
    lambda *a: 3,
    lambda *a: (a[0] if a else 0),
    lambda *a: (a[0] + 1 if a else 1),
    lambda *a: (2 * a[0] if a else 0),
    lambda *a: sum(a),
    lambda *a: sum(a) + 2,
]


def monotone_fun(arity: int, a: int, b: int):
    """x1..xk -> a*(x1 + .. + xk)//2 + b: monotone over the naturals, and a
    TypeError unless given exactly `arity` naturals."""
    def f(*xs: int) -> int:
        if len(xs) != arity:
            raise TypeError(f"takes {arity} argument(s), not {len(xs)}")
        return a * sum(xs) // 2 + b
    return f


def eval_expr(e: Expr, env: Sequence) -> int:
    """The value of a template body with naturals in the base slots and
    functions of naturals in the functional slots."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, SlotRef):
        return env[e.index]
    if isinstance(e, AppSlot):
        return env[e.index](*[eval_expr(a, env) for a in e.args])
    if isinstance(e, Add):
        return sum(eval_expr(p, env) for p in e.parts)
    if isinstance(e, Mul):
        out = 1
        for p in e.parts:
            out *= eval_expr(p, env)
        return out
    assert isinstance(e, MaxE)
    return max(eval_expr(p, env) for p in e.parts)


def eval_nf(nf, assign: dict) -> int:
    """The value of a normal form with naturals for its slots and functions
    of naturals for its atoms."""
    best = 0
    for branch in nf:
        total = 0
        for coeff, factors in branch:
            prod = coeff
            for f in factors:
                if f[0] == "slot":
                    prod *= assign[f[1]]
                else:
                    fn = assign[f[1]]
                    prod *= fn(*[eval_nf((arg,), assign) for arg in f[2]])
            total += prod
        best = max(best, total)
    return best


def nf_slots(nf) -> set:
    """The ids of every slot and atom occurring in a normal form."""
    out = set()

    def factor(f):
        out.add(f[1])
        if f[0] == "atom":
            for arg in f[2]:
                for m in arg:
                    for g in m[1]:
                        factor(g)

    for branch in nf:
        for _c, factors in branch:
            for f in factors:
                factor(f)
    return out
