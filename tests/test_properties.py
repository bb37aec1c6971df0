"""Property tests for the code the certificate checker trusts: the normal-form
comparator `nf_geq`, the well-formedness rules of `PolyFun`, which stand in
for a monotonicity check of each template, the recursive path ordering
that `check_argfun_rpo` re-runs, and the facts a term node works out when it
is built, which trust each bound variable to stay on its binder through
beta steps; and for the point evaluator, which the search trusts to refute
only what the comparator rejects."""

import pytest
from hypothesis import given, settings, strategies as st

from afsterm.orderings.poly import (
    PolyFun, Const, SlotRef, AppSlot, Add, Mul, MaxE, Interpreter,
    Unsupported, nf_const, nf_slot, nf_atom, nf_add, nf_mul, nf_max, nf_geq,
    PointInterpreter, point_slot, point_valuation,
)
from afsterm.orderings.rpo import Precedence, rpo_greater, rpo_geq
from afsterm.terms import (
    Abs, Base, Arrow, App, BVar, FunApp, FunctionSymbol, IllTyped, TypeDecl, Var,
    Variable, lam, fresh_const, pairing_symbol, rewrite_step, substitute, subterms,
    type_of, _type_of,
)

from helpers import (
    arrow, dangling_bvars, eval_expr, eval_nf, monotone_fun, nf_add_reference, point_assignments,
)

nat = Base("nat")
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


# --------------------------------------------------------------------------
# nf_geq is sound: s >= t (s > t) on normal forms holds for every valuation
# of the slots by naturals and of the atoms by monotone functions

SLOT_IDS = ("a", "b")
ATOM_ARITY = {"F": 1, "G": 2}


def _normal_forms():
    leaf = st.one_of(st.integers(0, 2).map(nf_const), st.sampled_from(SLOT_IDS).map(nf_slot))

    def extend(children):
        two = st.tuples(children, children)
        return st.one_of(
            two.map(lambda p: nf_add(*p)),
            two.map(lambda p: nf_mul(*p)),
            two.map(lambda p: nf_max(*p)),
            children.map(lambda x: nf_atom("F", [x])),
            two.map(lambda p: nf_atom("G", list(p))),
        )

    return st.recursive(leaf, extend, max_leaves=6)


NORMAL_FORMS = _normal_forms()


@st.composite
def comparisons(draw):
    """(s, t) with s often built on top of t, so that nf_geq often holds."""
    t, u = draw(NORMAL_FORMS), draw(NORMAL_FORMS)
    s = draw(st.sampled_from([
        t, u, nf_add(t, u), nf_max(t, u), nf_mul(t, nf_add(u, nf_const(1))),
        nf_atom("F", [t]), nf_add(nf_atom("F", [t]), t),
    ]))
    return nf_add(s, nf_const(draw(st.integers(0, 2)))), t


@st.composite
def nf_valuations(draw):
    val = {sid: draw(st.integers(0, 4)) for sid in SLOT_IDS}
    for sid, arity in ATOM_ARITY.items():
        val[sid] = monotone_fun(arity, draw(st.integers(0, 4)), draw(st.integers(0, 2)))
    return val


@PROPERTY
@given(comparisons(), st.booleans(), st.lists(nf_valuations(), min_size=1, max_size=4))
def test_nf_geq_is_sound(pair, strict, valuations):
    s, t = pair
    if nf_geq(s, t, strict):
        for val in valuations:
            sv, tv = eval_nf(s, val), eval_nf(t, val)
            assert sv > tv if strict else sv >= tv


# --------------------------------------------------------------------------
# nf_add, which merges canonical sums in one pass, gives what re-sorting and
# re-merging every pair of branches gives

@PROPERTY
@given(NORMAL_FORMS, NORMAL_FORMS)
def test_nf_add_merges_like_a_full_re_sort(a, b):
    try:
        want = nf_add_reference(a, b)
    except Unsupported:
        with pytest.raises(Unsupported):
            nf_add(a, b)
    else:
        assert nf_add(a, b) == want


# --------------------------------------------------------------------------
# PolyFun accepts exactly the bodies that evaluate, and each is weakly
# monotone in every slot

SLOTS = (Arrow(nat, nat), nat, arrow(nat, nat, nat), nat)


def _parts(children):
    return st.lists(children, min_size=1, max_size=3).map(tuple)


def well_formed_bodies():
    leaf = st.one_of(
        st.builds(Const, st.integers(0, 3)),
        st.sampled_from([SlotRef(i) for i, ty in enumerate(SLOTS) if ty.is_base()]))

    def extend(children):
        apps = [st.tuples(*[children] * len(ty.argument_types())).map(
                    lambda args, i=i: AppSlot(i, args))
                for i, ty in enumerate(SLOTS) if ty.is_arrow()]
        parts = _parts(children)
        return st.one_of(st.builds(Add, parts), st.builds(Mul, parts),
                         st.builds(MaxE, parts), *apps)

    return st.recursive(leaf, extend, max_leaves=8)


def any_bodies():
    """Bodies over SLOTS that may name a missing slot, apply a base slot,
    leave a functional slot bare, or pass it the wrong number of arguments."""
    index = st.integers(0, len(SLOTS))
    leaf = st.one_of(st.builds(Const, st.integers(0, 3)), st.builds(SlotRef, index))

    def extend(children):
        parts = _parts(children)
        args = st.lists(children, min_size=1, max_size=2).map(tuple)
        return st.one_of(st.builds(Add, parts), st.builds(Mul, parts),
                         st.builds(MaxE, parts), st.builds(AppSlot, index, args))

    return st.recursive(leaf, extend, max_leaves=6)


@st.composite
def ordered_envs(draw):
    """Two slot environments for SLOTS, the second pointwise >= the first."""
    low, high = [], []
    for ty in SLOTS:
        arity = len(ty.argument_types())
        if arity:
            a, b = draw(st.integers(0, 4)), draw(st.integers(0, 2))
            low.append(monotone_fun(arity, a, b))
            high.append(monotone_fun(arity, a + draw(st.integers(0, 1)),
                                     b + draw(st.integers(0, 1))))
        else:
            v = draw(st.integers(0, 4))
            low.append(v)
            high.append(v + draw(st.integers(0, 2)))
    return low, high


@PROPERTY
@given(well_formed_bodies(), ordered_envs())
def test_accepted_bodies_are_weakly_monotone(body, envs):
    fun = PolyFun(SLOTS, body)
    low, high = envs
    assert eval_expr(fun.body, low) <= eval_expr(fun.body, high)


def _evaluates(body) -> bool:
    env = [monotone_fun(len(ty.argument_types()), 2, 1) if ty.is_arrow() else 1
           for ty in SLOTS]
    try:
        return isinstance(eval_expr(body, env), int)
    except (TypeError, IndexError):
        return False


@PROPERTY
@given(any_bodies())
def test_accepts_exactly_the_bodies_that_evaluate(body):
    try:
        PolyFun(SLOTS, body)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _evaluates(body)


@pytest.mark.parametrize("body, message", [
    (SlotRef(4), "slot x5 out of range"),
    (AppSlot(1, (Const(0),)), "base slot x2 cannot be applied"),
    (SlotRef(0), "functional slot x1 must be applied"),
    (AppSlot(0, (SlotRef(1), Const(0))), "slot x1 takes 1 argument"),
    (Add((SlotRef(1), Const(-1))), "negative constant -1"),
])
def test_ill_formed_bodies_rejected(body, message):
    with pytest.raises(ValueError, match=message):
        PolyFun(SLOTS, body)


# --------------------------------------------------------------------------
# the point evaluator gives the values of the symbolic normal forms at its two
# points, for terms over a symbol h whose template is a random body over SLOTS

H = FunctionSymbol("h", TypeDecl(SLOTS, nat))
FV, GV = Variable("F", SLOTS[0]), Variable("G", SLOTS[2])
ZV, WV = Variable("z", nat), Variable("w", nat)


def point_terms():
    """(nat terms, nat -> nat terms) over h, the variables F, G, x, y and the
    binder variables z, w (free where no abstraction binds them), a fresh
    constant and the pairing symbol."""
    leaf = st.sampled_from([Var(Variable(n, nat)) for n in "xyzw"] + [FunApp(fresh_const(nat))])

    def extend(children):
        binary = st.one_of(st.just(Var(GV)), children.map(lambda b: lam(ZV, lam(WV, b))))
        unary = st.one_of(st.just(Var(FV)), children.map(lambda b: lam(ZV, b)),
                          st.tuples(binary, children).map(lambda p: App(*p)))
        return st.one_of(
            st.tuples(unary, children, binary, children).map(lambda a: FunApp(H, a)),
            st.tuples(unary, children).map(lambda p: App(*p)),
            st.tuples(children, children).map(lambda p: FunApp(pairing_symbol(nat), p)),
        )

    nats = st.recursive(leaf, extend, max_leaves=6)
    return nats, st.one_of(st.just(Var(FV)), nats.map(lambda b: lam(ZV, b)))


POINT_NATS, POINT_UNARY = point_terms()


@PROPERTY
@given(well_formed_bodies(),
       st.one_of(st.tuples(POINT_NATS, POINT_NATS), st.tuples(POINT_UNARY, POINT_UNARY)))
def test_points_are_the_normal_forms_at_two_points(body, sides):
    lhs, rhs = sides
    assign = {"h": PolyFun(SLOTS, body)}
    try:
        nfs = Interpreter(assign).sides(lhs, rhs)
    except Unsupported:
        nfs = None
    try:
        pairs = PointInterpreter(assign).sides(lhs, rhs)
    except Unsupported:
        assert nfs is None
        return
    if nfs is not None:  # else a normal form grew too large
        for k, at in enumerate(point_assignments(point_valuation([lhs, rhs]))):
            assert [eval_nf(nf, at) for nf in nfs] == [p[k] for p in pairs]


@PROPERTY
@given(st.integers(0, 30),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                          st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=3))
def test_functional_point_values_are_weakly_monotone(c, args):
    # a functional slot at the two points, applied to pairs (a, b) and to
    # pairs raised by (da, db): no value falls at either point
    fun = point_slot(c, arrow(*[nat] * (len(args) + 1)))
    low, high = fun, fun
    for a, b, da, db in args:
        low, high = low((a, b)), high((a + da, b + db))
    assert low[0] <= high[0] and low[1] <= high[1]


# --------------------------------------------------------------------------
# the recursive path ordering on AFS terms is irreflexive, its strict part is
# contained in its weak part, and it is stable under closed substitutions

NN = Arrow(nat, nat)
F2 = FunctionSymbol("f", TypeDecl((nat, nat), nat))
G1 = FunctionSymbol("g", TypeDecl((nat,), nat))
C0 = FunctionSymbol("c", TypeDecl((), nat))
H2 = FunctionSymbol("h", TypeDecl((NN, nat), nat))
APPLIED = Var(Variable("F", NN))
BOUND = Variable("z", nat)
RPO_VARS = tuple(Variable(v, nat) for v in "xyz")
PRECEDENCES = [(), (("f", "g"),), (("g", "f"), ("f", "c")), (("c", "g"),),
               (("h", "f"), ("g", "h"))]


def afs_terms(variables=RPO_VARS, applied=(APPLIED,)):
    """Small well-typed terms of type nat over f/2, g/1, c, a fresh constant,
    the variables, the applied variables, a beta-redex and an abstraction
    argument of h : [nat -> nat * nat] -> nat; both binders bind z."""
    leaf = st.sampled_from([FunApp(C0), FunApp(fresh_const(nat))] + [Var(v) for v in variables])

    def extend(children):
        two = st.tuples(children, children)
        nodes = [
            two.map(lambda p: FunApp(F2, p)),
            children.map(lambda a: FunApp(G1, (a,))),
            two.map(lambda p: App(lam(BOUND, p[0]), p[1])),
            two.map(lambda p: FunApp(H2, (lam(BOUND, p[0]), p[1]))),
        ]
        if applied:
            nodes.append(st.tuples(st.sampled_from(applied), children).map(lambda p: App(*p)))
        return st.one_of(nodes)

    return st.recursive(leaf, extend, max_leaves=6)


AFS_TERMS = afs_terms()
CLOSED_AFS_TERMS = afs_terms(variables=(), applied=())


def _precedence(facts) -> Precedence:
    return Precedence(facts, frozen=True)


@PROPERTY
@given(AFS_TERMS, st.sampled_from(PRECEDENCES))
def test_rpo_irreflexive(s, facts):
    assert not rpo_greater(s, s, _precedence(facts))


@PROPERTY
@given(AFS_TERMS, AFS_TERMS, st.sampled_from(PRECEDENCES))
def test_rpo_greater_implies_geq(s, t, facts):
    if rpo_greater(s, t, _precedence(facts)):
        assert rpo_geq(s, t, _precedence(facts))


@st.composite
def rpo_pairs(draw):
    """(s, t) with s often built on top of t, so that s > t often holds."""
    t, u = draw(AFS_TERMS), draw(AFS_TERMS)
    s = draw(st.sampled_from([
        u, FunApp(G1, (u,)), FunApp(G1, (t,)), FunApp(F2, (t, u)), FunApp(F2, (u, t)),
        App(APPLIED, t), App(lam(BOUND, t), u), FunApp(H2, (lam(BOUND, t), u)),
    ]))
    return s, t


@PROPERTY
@given(rpo_pairs(), st.fixed_dictionaries({v: CLOSED_AFS_TERMS for v in RPO_VARS}),
       st.sampled_from(PRECEDENCES))
def test_rpo_stable_under_closed_substitutions(pair, sigma, facts):
    s, t = pair
    if rpo_greater(s, t, _precedence(facts)):
        assert rpo_greater(substitute(s, sigma), substitute(t, sigma), _precedence(facts))


# --------------------------------------------------------------------------
# each term node's facts: `type_of` reads the type of a locally closed node
# and agrees with the typing walk, and the loose range is 1 + the largest
# index escaping the node, on well-typed terms, ill-typed terms and raw
# subterms whose bound variables escape

FACT_VARS = (Variable("x", nat), Variable("y", Base("o")), Variable("F", NN),
             Variable("G", Arrow(nat, Base("o"))))


def fact_terms():
    """Terms over f/2, g/1, c and x, y, F, G put together at any types, so
    many are ill-typed; each binder binds one of the variables, which the
    second form applies its body to, and g may miss its argument."""
    leaf = st.sampled_from([FunApp(C0), FunApp(G1)] + [Var(v) for v in FACT_VARS])

    def extend(children):
        two = st.tuples(children, children)
        return st.one_of(
            two.map(lambda p: App(*p)),
            two.map(lambda p: FunApp(F2, p)),
            children.map(lambda a: FunApp(G1, (a,))),
            st.tuples(st.sampled_from(FACT_VARS), children).map(lambda p: lam(*p)),
            st.tuples(st.sampled_from(FACT_VARS), children).map(
                lambda p: lam(p[0], App(p[1], Var(p[0])))),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def _typing(type_fn, t):
    try:
        return type_fn(t)
    except IllTyped as exc:
        return str(exc)


@PROPERTY
@given(fact_terms())
def test_node_facts_agree_with_the_walk(t):
    for s, _ in subterms(t):
        escaping = dangling_bvars(s)
        assert s.loose == (1 + max(escaping) if escaping else 0)
        assert _typing(type_of, s) == _typing(lambda u: _type_of(u, (), ()), s)


# --------------------------------------------------------------------------
# a beta step anywhere in a term, below binders too, keeps the term's type
# and its value: each index stays on its binder, neither escaping nor
# captured by a binder of the body

BETA_VARS = (Variable("x", nat), Variable("y", nat))


def beta_terms():
    """Well-typed terms of type nat over f/2, g/1, c, x and y, with
    beta-redexes and abstraction arguments of h : [nat -> nat * nat] -> nat
    whose binders bind x or y, and redexes below a binder, so that a
    redex's argument and body often name the binders around it."""
    leaf = st.sampled_from([FunApp(C0)] + [Var(v) for v in BETA_VARS])

    def extend(children):
        two = st.tuples(children, children)
        binder = st.sampled_from(BETA_VARS)
        return st.one_of(
            two.map(lambda p: FunApp(F2, p)),
            children.map(lambda a: FunApp(G1, (a,))),
            st.tuples(binder, two).map(lambda p: App(lam(p[0], p[1][0]), p[1][1])),
            st.tuples(binder, two).map(lambda p: FunApp(H2, (lam(p[0], p[1][0]), p[1][1]))),
            st.tuples(binder, binder, binder, two, leaf).map(_redex_below_a_binder),
        )

    return st.recursive(leaf, extend, max_leaves=10)


def _redex_below_a_binder(p):
    """h(\\u. (\\v. h(\\w. a, v)) @ f(u, b), e): a redex below a binder,
    whose argument names that binder and whose body binds again."""
    u, v, w, (a, b), e = p
    redex = App(lam(v, FunApp(H2, (lam(w, a), Var(v)))), FunApp(F2, (Var(u), b)))
    return FunApp(H2, (lam(u, redex), e))


def _value(t, env: dict, bound: tuple = ()):
    """The value of a locally closed t with f(a, b) = a + 2b, g(a) = a + 1,
    c = 0 and h(F, n) = F(n)."""
    if isinstance(t, Var):
        return env[t.var]
    if isinstance(t, BVar):
        return bound[len(bound) - 1 - t.index]
    if isinstance(t, Abs):
        return lambda v: _value(t.body, env, bound + (v,))
    if isinstance(t, App):
        return _value(t.fn, env, bound)(_value(t.arg, env, bound))
    args = [_value(a, env, bound) for a in t.args]
    return {"f": lambda a, b: a + 2 * b, "g": lambda a: a + 1, "c": lambda: 0,
            "h": lambda fn, n: fn(n)}[t.fn.name](*args)


@PROPERTY
@given(beta_terms())
def test_beta_steps_keep_type_and_value(t):
    env = {BETA_VARS[0]: 3, BETA_VARS[1]: 5}
    for r in rewrite_step(t, ()):
        assert r.loose == 0 and _type_of(r, (), ()) == nat
        assert _value(r, env) == _value(t, env)
