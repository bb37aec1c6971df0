"""Simple types, simply-typed terms, substitution, matching and rewriting.

Terms use a locally nameless representation: free variables are named
(`Var`), bound variables are de Bruijn indices (`BVar`).  Alpha-equivalent
terms are therefore structurally equal, and terms hash consistently, which
the dependency-pair machinery relies on for graphs and deduplication.

Each term node works out two facts from its children when it is built (as
Lean 4's expressions do; de Moura and Ullrich, CADE 2021):
- `_type`, its type, or None when the node is ill-typed.  A bound
  variable's type is its own, so a node's type never looks above it.
- `loose`, its loose bound-variable range: 1 + the largest index that
  escapes the node, and 0 when the node is locally closed (Charguéraud,
  *The Locally Nameless Representation*, JAR 2012).
Nodes, types, symbols and variables are slotted records that keep their
hash after the first call (`record`).  One parse shares its types and
leaves: `parse_afs` builds one `Base` per type name and one node per
variable and constant, so most type comparisons a node makes when it is
built, and most leaf comparisons and hashes, meet the same object, which
`==` answers without comparing fields.  `BVar` is built only by `lam`, with
its binder's type, and `instantiate` and `substitute` renumber the indices
of what they put below binders, so that every index keeps its binder.  A
bound variable thus agrees with its binder by construction, and the type
of a locally closed node is `type_of`'s answer:
`type_of` reads it, and walks the term only to report where it is
ill-typed.  Walks that act on escaping indices skip closed subterms.

Two walkers serve every transformation that goes through a whole term:
`replace_leaves` and its node-level sibling `replace_nodes` rebuild a term,
and `subterms` lists its nodes with their binder depth.  `replace_loose`
rebuilds only the paths to escaping indices.
"""

from __future__ import annotations

from .record import record
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


# --------------------------------------------------------------------------
# types


class SimpleType:
    """Base class for simple types (base types and arrow types)."""

    __slots__ = ()

    def is_base(self) -> bool:
        return isinstance(self, Base)

    def is_arrow(self) -> bool:
        return isinstance(self, Arrow)

    def argument_types(self) -> tuple["SimpleType", ...]:
        """The types a1..an with self = a1 -> ... -> an -> base."""
        args = []
        t = self
        while isinstance(t, Arrow):
            args.append(t.left)
            t = t.right
        return tuple(args)

    def __str__(self) -> str:
        return type_text(self)


@record
class Base(SimpleType):
    name: str


@record
class Arrow(SimpleType):
    left: SimpleType
    right: SimpleType


def type_text(t: SimpleType) -> str:
    if isinstance(t, Base):
        return t.name
    assert isinstance(t, Arrow)
    left = type_text(t.left)
    if t.left.is_arrow():
        left = f"({left})"
    return f"{left} -> {type_text(t.right)}"


def type_subterms(t: SimpleType) -> Iterator[SimpleType]:
    yield t
    if isinstance(t, Arrow):
        yield from type_subterms(t.left)
        yield from type_subterms(t.right)


@record
class TypeDecl:
    """Type declaration [a1 x ... x an] -> out of a function symbol."""

    inputs: tuple[SimpleType, ...]
    output: SimpleType

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def __str__(self) -> str:
        if not self.inputs:
            return type_text(self.output)
        ins = " * ".join(type_text(i) for i in self.inputs)
        return f"[{ins}] -> {type_text(self.output)}"


# kind values for FunctionSymbol
PLAIN = "plain"
MARKED = "marked"          # f#, used at dependency pair roots
TAGGED = "tagged"          # f-, symbols occurring below an abstraction
FRESH = "fresh-constant"   # !c{type}, closes candidate terms
EXT = "extension"          # pairing symbols, filtered symbols


@record
class FunctionSymbol:
    name: str
    decl: TypeDecl
    kind: str = PLAIN

    @property
    def display(self) -> str:
        if self.kind == MARKED:
            return self.name + "#"
        if self.kind == TAGGED:
            return self.name + "-"
        return self.name

    def __str__(self) -> str:
        return self.display


def marked(f: FunctionSymbol) -> FunctionSymbol:
    assert f.kind == PLAIN
    return FunctionSymbol(f.name, f.decl, MARKED)


def tagged(f: FunctionSymbol) -> FunctionSymbol:
    assert f.kind == PLAIN
    return FunctionSymbol(f.name, f.decl, TAGGED)


def untagged(f: FunctionSymbol) -> FunctionSymbol:
    assert f.kind == TAGGED
    return FunctionSymbol(f.name, f.decl, PLAIN)


def fresh_const(t: SimpleType) -> FunctionSymbol:
    """The per-type constant used to close candidate terms.

    One symbol per type, named after the type's textual form.
    """
    return FunctionSymbol(f"!c{{{type_text(t)}}}", TypeDecl((), t), FRESH)


def pairing_symbol(t: SimpleType) -> FunctionSymbol:
    return FunctionSymbol(f"!p{{{type_text(t)}}}", TypeDecl((t, t), t), EXT)


@record
class Variable:
    name: str
    type: SimpleType

    def __str__(self) -> str:
        return self.name


# --------------------------------------------------------------------------
# terms


class Term:
    """Base class of term nodes; construct via Var/Abs/App/FunApp or lam().

    `_type` and `loose` are the node's facts (module docstring)."""

    __slots__ = ("_type", "loose")


# the facts' slot setters: a frozen record refuses assignment, and these
# are faster than `object.__setattr__`
_set_type, _set_loose = Term._type.__set__, Term.loose.__set__


@record
class Var(Term):
    var: Variable

    def __post_init__(self):
        _set_type(self, self.var.type)
        _set_loose(self, 0)


@record
class BVar(Term):
    """Bound variable occurrence (de Bruijn index); internal to Abs bodies."""

    index: int
    type: SimpleType

    def __post_init__(self):
        _set_type(self, self.type)
        _set_loose(self, self.index + 1)


@record(uncompared=("hint",))
class Abs(Term):
    var_type: SimpleType
    body: Term
    hint: str = "x"

    def __post_init__(self):
        body = self.body
        _set_type(self, None if body._type is None else Arrow(self.var_type, body._type))
        _set_loose(self, body.loose - 1 if body.loose else 0)


@record
class App(Term):
    fn: Term
    arg: Term

    def __post_init__(self):
        fn_type, arg = self.fn._type, self.arg
        _set_type(self, fn_type.right if isinstance(fn_type, Arrow)
                  and fn_type.left == arg._type else None)
        _set_loose(self, max(self.fn.loose, arg.loose))


@record
class FunApp(Term):
    fn: FunctionSymbol
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        # one plain loop: a comprehension would cost a call of its own
        types, loose = [], 0
        for a in self.args:
            types.append(a._type)
            if a.loose > loose:
                loose = a.loose
        decl = self.fn.decl
        _set_type(self, decl.output if decl.inputs == tuple(types) else None)
        _set_loose(self, loose)


class IllTyped(Exception):
    def __init__(self, position: tuple[int, ...], reason: str):
        self.position = position
        self.reason = reason
        super().__init__(f"ill-typed term at position {list(position)}: {reason}")


# construction helpers ------------------------------------------------------


def replace_leaves(t: Term, leaf: Callable[[Term, int], Term], depth: int = 0) -> Term:
    """Rebuild t with every Var/BVar leaf s replaced by leaf(s, d), where d
    is the number of binders between t's root and s."""
    if isinstance(t, (Var, BVar)):
        return leaf(t, depth)
    if isinstance(t, Abs):
        return Abs(t.var_type, replace_leaves(t.body, leaf, depth + 1), t.hint)
    if isinstance(t, App):
        return App(replace_leaves(t.fn, leaf, depth), replace_leaves(t.arg, leaf, depth))
    assert isinstance(t, FunApp)
    return FunApp(t.fn, tuple(replace_leaves(a, leaf, depth) for a in t.args))


def replace_nodes(t: Term, node: Callable[[FunApp, tuple[Term, ...]], Term]) -> Term:
    """Rebuild t bottom-up with every FunApp s replaced by node(s, args), where
    args are s's arguments rebuilt; leaves, abstractions and applications
    keep their shape."""
    if isinstance(t, (Var, BVar)):
        return t
    if isinstance(t, Abs):
        return Abs(t.var_type, replace_nodes(t.body, node), t.hint)
    if isinstance(t, App):
        return App(replace_nodes(t.fn, node), replace_nodes(t.arg, node))
    assert isinstance(t, FunApp)
    return node(t, tuple(replace_nodes(a, node) for a in t.args))


def lam(x: Variable, body: Term) -> Abs:
    """Abstraction binding the named variable x in body."""
    return Abs(x.type, replace_leaves(
        body, lambda s, d: BVar(d, x.type) if isinstance(s, Var) and s.var == x else s),
        hint=x.name)


def replace_loose(t: Term, leaf: Callable[[BVar, int], Term], depth: int = 0) -> Term:
    """Rebuild t with every bound variable s that escapes t replaced by
    leaf(s, d), where d is the number of binders between t's root and s
    (plus `depth`).  A subterm from which no index escapes t is kept as is."""
    if t.loose <= depth:
        return t
    if isinstance(t, BVar):
        return leaf(t, depth)
    if isinstance(t, Abs):
        return Abs(t.var_type, replace_loose(t.body, leaf, depth + 1), t.hint)
    if isinstance(t, App):
        return App(replace_loose(t.fn, leaf, depth), replace_loose(t.arg, leaf, depth))
    return FunApp(t.fn, tuple([replace_loose(a, leaf, depth) for a in t.args]))


def instantiate(body: Term, value: Term) -> Term:
    """Replace the outermost binder of an abstraction body by value.  The
    indices of value that escape it are raised past the binders it lands
    under, and the body's indices that escape the replaced binder are
    lowered by one, so each index keeps its binder (a beta step below an
    abstraction meets both)."""
    return replace_loose(
        body, lambda s, d: shift(value, d) if s.index == d else BVar(s.index - 1, s.type))


def shift(t: Term, by: int) -> Term:
    """t with every index that escapes it raised by `by`."""
    return replace_loose(t, lambda s, d: BVar(s.index + by, s.type)) if by else t


def open_abs(t: Abs, avoid: Iterable[Variable] = ()) -> tuple[Variable, Term]:
    """Open an abstraction with a fresh named variable for traversal."""
    names = {v.name for v in avoid}
    name = t.hint or "x"
    candidate = name
    i = 0
    while candidate in names:
        i += 1
        candidate = f"{name}{i}"
    x = Variable(candidate, t.var_type)
    return x, instantiate(t.body, Var(x))


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def fresh_arguments(t: Term, base: str) -> list[Var]:
    """Variables named after `base` and fresh for t that apply t down to
    base type: the arguments x1..xk of the applied variant t x1..xk."""
    avoid = {v.name for v in free_vars(t)}
    out: list[Var] = []
    ty = type_of(t)
    while isinstance(ty, Arrow):
        name = fresh_name(base, avoid)
        avoid.add(name)
        out.append(Var(Variable(name, ty.left)))
        ty = ty.right
    return out


def app_spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose an application chain into its head and arguments."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def head(t: Term) -> Term:
    while isinstance(t, App):
        t = t.fn
    return t


# inspection ----------------------------------------------------------------


def type_of(t: Term, binders: tuple[SimpleType, ...] = ()) -> SimpleType:
    """The type of a well-formed term; raises IllTyped otherwise.  A locally
    closed node knows its type; the walk types a term with escaping indices
    under `binders`, and finds where an ill-typed term goes wrong."""
    if not t.loose and t._type is not None:
        return t._type
    return _type_of(t, binders, ())


def _type_of(t: Term, binders: tuple[SimpleType, ...], pos: tuple[int, ...]) -> SimpleType:
    if isinstance(t, Var):
        return t.var.type
    if isinstance(t, BVar):
        if t.index >= len(binders):
            raise IllTyped(pos, "dangling bound variable")
        expected = binders[len(binders) - 1 - t.index]
        if expected != t.type:
            raise IllTyped(pos, "bound variable type disagrees with binder")
        return t.type
    if isinstance(t, Abs):
        return Arrow(t.var_type, _type_of(t.body, binders + (t.var_type,), pos + (0,)))
    if isinstance(t, App):
        fn_type = _type_of(t.fn, binders, pos + (0,))
        arg_type = _type_of(t.arg, binders, pos + (1,))
        if not isinstance(fn_type, Arrow):
            raise IllTyped(pos, f"cannot apply a term of base type {fn_type}")
        if fn_type.left != arg_type:
            raise IllTyped(pos, f"argument type {arg_type} does not match {fn_type.left}")
        return fn_type.right
    assert isinstance(t, FunApp)
    decl = t.fn.decl
    if len(t.args) != decl.arity:
        raise IllTyped(pos, f"{t.fn.display} expects {decl.arity} arguments, got {len(t.args)}")
    for i, (a, expected) in enumerate(zip(t.args, decl.inputs)):
        actual = _type_of(a, binders, pos + (i,))
        if actual != expected:
            raise IllTyped(pos + (i,), f"argument {i + 1} of {t.fn.display} has type {actual}, expected {expected}")
    return decl.output


def free_vars(t: Term) -> frozenset[Variable]:
    """The variables of t, by a walk that collects nothing else."""
    out: set[Variable] = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, FunApp):
            stack.extend(s.args)
        elif isinstance(s, App):
            stack.append(s.fn)
            stack.append(s.arg)
        elif isinstance(s, Abs):
            stack.append(s.body)
        elif isinstance(s, Var):
            out.add(s.var)
    return frozenset(out)


def subterms(t: Term, depth: int = 0) -> list[tuple[Term, int]]:
    """All subterm nodes in pre-order, including t itself, each with the
    number of binders between t's root and it (plus `depth`).

    Nodes below a binder are returned raw and may contain dangling indices.
    """
    out: list[tuple[Term, int]] = []
    _subterms(t, depth, out)
    return out


def _subterms(t: Term, depth: int, out: list[tuple[Term, int]]) -> None:
    out.append((t, depth))
    if isinstance(t, FunApp):
        for a in t.args:
            _subterms(a, depth, out)
    elif isinstance(t, App):
        _subterms(t.fn, depth, out)
        _subterms(t.arg, depth, out)
    elif isinstance(t, Abs):
        _subterms(t.body, depth + 1, out)


def strict_subterms_closed(t: Term) -> list[Term]:
    """Strict subterms of a locally closed t, in pre-order, with escaping
    bound variables replaced by the per-type constants (so every result is
    closed)."""
    return [close_dangling(s) if s.loose else s for s, _ in subterms(t)[1:]]


def close_dangling(t: Term) -> Term:
    """t with every bound variable escaping it replaced by the per-type
    constant, so that the result is locally closed."""
    return replace_loose(t, lambda s, d: FunApp(fresh_const(s.type)))


def symbols_of(t: Term) -> frozenset[FunctionSymbol]:
    """Every function symbol occurring in t, of any kind."""
    return frozenset(s.fn for s, _ in subterms(t) if isinstance(s, FunApp))


# substitution and matching -------------------------------------------------

Substitution = Mapping[Variable, Term]


def substitute(t: Term, subst: Substitution) -> Term:
    """Substitution of free variables, which the caller keeps
    type-preserving.  t and the values may contain dangling indices; a
    value's are raised past the binders of t it lands under, so that none
    is captured."""
    return replace_leaves(
        t, lambda s, d: shift(subst[s.var], d) if isinstance(s, Var) and s.var in subst else s)


def match(pattern: Term, subject: Term) -> Optional[dict[Variable, Term]]:
    """Syntactic matching modulo alpha of a rule left-hand side fragment.

    Returns a substitution, or None.  A binding fails when it would let a
    bound variable of the subject escape.
    """
    binding: dict[Variable, Term] = {}
    if _match(pattern, subject, binding):
        return binding
    return None


def _match(pattern: Term, subject: Term, binding: dict[Variable, Term]) -> bool:
    if isinstance(pattern, Var):
        if pattern.var in binding:
            return binding[pattern.var] == subject
        if subject.loose or subject._type != pattern.var.type:
            return False  # a bound variable would escape, or the types differ
        binding[pattern.var] = subject
        return True
    if isinstance(pattern, BVar):
        return isinstance(subject, BVar) and pattern.index == subject.index
    if isinstance(pattern, Abs):
        return (
            isinstance(subject, Abs)
            and pattern.var_type == subject.var_type
            and _match(pattern.body, subject.body, binding)
        )
    if isinstance(pattern, App):
        return (
            isinstance(subject, App)
            and _match(pattern.fn, subject.fn, binding)
            and _match(pattern.arg, subject.arg, binding)
        )
    assert isinstance(pattern, FunApp)
    return (
        isinstance(subject, FunApp)
        and pattern.fn == subject.fn
        and all(_match(p, s, binding) for p, s in zip(pattern.args, subject.args))
    )


# rewriting -----------------------------------------------------------------


def beta_reduce_root(t: Term) -> Optional[Term]:
    if isinstance(t, App) and isinstance(t.fn, Abs):
        return instantiate(t.fn.body, t.arg)
    return None


def rewrite_step(t: Term, rules: Sequence) -> list[Term]:
    """All one-step reducts of t, deduplicated modulo alpha (structural
    equality): at each position in pre-order the beta step, then the rules
    in order.  Every left-hand side is headed by a function symbol (an AFS
    checks its rules), so a position only tries the rules of its head."""
    by_head: dict[FunctionSymbol, list] = {}
    for rule in rules:
        by_head.setdefault(head(rule.lhs).fn, []).append(rule)
    seen: dict[Term, None] = {}

    def add(s: Term) -> None:
        if s not in seen:
            seen[s] = None

    def walk(s: Term, rebuild) -> None:
        root = beta_reduce_root(s)
        if root is not None:
            add(rebuild(root))
        h = head(s)
        for rule in by_head.get(h.fn, ()) if isinstance(h, FunApp) else ():
            gamma = match(rule.lhs, s)
            if gamma is not None:
                add(rebuild(substitute(rule.rhs, gamma)))
        if isinstance(s, Abs):
            walk(s.body, lambda r, s=s: rebuild(Abs(s.var_type, r, s.hint)))
        elif isinstance(s, App):
            walk(s.fn, lambda r, s=s: rebuild(App(r, s.arg)))
            walk(s.arg, lambda r, s=s: rebuild(App(s.fn, r)))
        elif isinstance(s, FunApp):
            for i, a in enumerate(s.args):
                walk(a, lambda r, s=s, i=i: rebuild(FunApp(s.fn, s.args[:i] + (r,) + s.args[i + 1:])))

    walk(t, lambda r: r)
    return list(seen.keys())


@record(frozen=False)
class Exploration:
    """Result of a bounded breadth-first reduction exploration."""

    traces: dict[Term, tuple[Term, ...]]  # term -> one witness trace (start..term)
    loop: Optional[tuple[Term, ...]]      # a trace revisiting an alpha-equal term


def bounded_reductions(t: Term, rules: Sequence, max_steps: int,
                       max_nodes: Optional[int] = None) -> Exploration:
    """Breadth-first set of terms reachable in at most max_steps steps.

    Keeps one witness trace per term and reports whether some trace revisits
    an alpha-equal term (a loop).  max_nodes caps the explored set for wide
    systems.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    traces: dict[Term, tuple[Term, ...]] = {t: (t,)}
    loop: Optional[tuple[Term, ...]] = None
    frontier = [t]
    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier: list[Term] = []
        for s in frontier:
            trace = traces[s]
            for r in rewrite_step(s, rules):
                if loop is None and r in trace:
                    loop = trace + (r,)
                if r not in traces:
                    if max_nodes is not None and len(traces) >= max_nodes:
                        continue
                    traces[r] = trace + (r,)
                    next_frontier.append(r)
        frontier = next_frontier
    return Exploration(traces, loop)


# marking -------------------------------------------------------------------


def mark(t: Term, marks: Mapping[str, FunctionSymbol]) -> Term:
    """Marked counterpart: the root symbol f becomes f# when t = f(...) with
    f a defined symbol; applications and other forms are unchanged.
    `marks` maps each defined symbol's name to its f#, which the caller
    builds once, so the marked roots of one system are one object per
    symbol; only the root's name is looked up, so a call costs the same on
    any system."""
    if isinstance(t, FunApp) and t.fn.kind == PLAIN:
        f_marked = marks.get(t.fn.name)
        if f_marked is not None:
            return FunApp(f_marked, t.args)
    return t


# printing ------------------------------------------------------------------


def fresh_name(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def term_text(t: Term) -> str:
    """Render a term in the input grammar (infix @, \\x:type. bodies).  A
    binder is printed with its hint, or with the first numbered variant of
    it that names no free variable of t and no enclosing binder."""
    return _text(t, (), t, [])


def _text(t: Term, binders: tuple[str, ...], root: Term, free: list[set[str]]) -> str:
    """`binders` names the enclosing binders, innermost last, and `free`
    holds the names of `root`'s free variables once the first binder is
    reached: a term without binders collects none."""
    if isinstance(t, Var):
        return t.var.name
    if isinstance(t, BVar):
        if t.index >= len(binders):
            raise IndexError(f"dangling bound variable {t.index}")
        return binders[len(binders) - 1 - t.index]
    if isinstance(t, Abs):
        if not free:
            free.append({v.name for v in free_vars(root)})
        name = fresh_name(t.hint or "x", free[0].union(binders))
        body = _text(t.body, binders + (name,), root, free)
        return f"\\{name}:{type_text(t.var_type)}. {body}"
    if isinstance(t, App):
        fn = _text(t.fn, binders, root, free)
        if isinstance(t.fn, Abs):
            fn = f"({fn})"
        arg = _text(t.arg, binders, root, free)
        if isinstance(t.arg, (App, Abs)):
            arg = f"({arg})"
        return f"{fn} @ {arg}"
    assert isinstance(t, FunApp)
    if not t.args:
        return t.fn.display
    args = ", ".join(_text(a, binders, root, free) for a in t.args)
    return f"{t.fn.display}({args})"
