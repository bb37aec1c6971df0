"""The proof skeleton, walked once by `prove` and by `verify_proof`: prepare,
prune, discharge the first SCC with the subterm criterion or a reduction
pair, repeat.  The walk derives the preparation, every prune step and the
SCC each step works on from the problem; only the certificates and
give-ups come from outside it.  `prove` finds each one with an engine and
checks it before keeping it; `verify_proof` replays given ones, each on
the SCC that is due.  A reduction-pair step keeps the constraint set its
certificate orients.  Each check (`_step_error`, `_replay_loop` and the
certificate checker's `check_certificate`) returns its first problem as a
string, or None.  An SCC step removes exactly the pairs its certificate
orients strictly.  Also the corpus runner."""

from __future__ import annotations

import time
from bisect import insort
from operator import itemgetter
from .record import record, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from .afs import AFS
from .afs import complete, classify  # noqa: F401  (perfbench's layer tracer looks them up here)
from .dp import DependencyPair, DPProblem, dependency_pairs
from .graph import DPGraph, approximate_graph, sccs
from .graph import prune  # noqa: F401  (perfbench's layer tracer wraps it here)
from .orderings import (
    ConstraintSet, build_constraints, subterm_criterion, Projection,
    search_poly, PolyInterp, check_certificate,
)
from .terms import (
    Abs, App, Arrow, FunApp, FunctionSymbol, IllTyped, SimpleType, Term, Var, Variable,
    bounded_reductions, free_vars, fresh_const, lam, replace_nodes, rewrite_step,
    substitute, subterms, type_of,
)

if TYPE_CHECKING:
    from .orderings.rpo import ArgFunRPO

YES = "YES"
MAYBE = "MAYBE"

ENGINE_ORDER = ("subterm", "poly", "rpo")

# the reasons a give-up step names, each with the engines that may run before it
TIMEOUT = "timeout"
LOOPING = "a term reduces to itself, so the system does not terminate"
UNORIENTED = "no engine oriented a pair strictly"
RUN_BEFORE = {TIMEOUT: (), LOOPING: ("subterm",), UNORIENTED: ENGINE_ORDER}

# the loop check's bounds: reduction steps and explored terms per start term
LOOP_STEPS = 4
LOOP_NODES = 16


@record(frozen=False)
class Config:
    timeout: float = 60.0  # seconds for the whole proof, the only clock
    engines: tuple[str, ...] = ENGINE_ORDER

    def __post_init__(self) -> None:
        if not self.timeout > 0:  # also rejects NaN, which no deadline passes
            raise ValueError("timeout must be positive")
        for e in self.engines:
            if e not in ENGINE_ORDER:
                raise ValueError(f"unknown engine {e!r}")


@record
class Preparation:
    edge_count: int  # the rest of the preparation is read off the problem


@record
class PruneStep:
    removed: tuple[int, ...]


@record
class SubtermStep:
    scc: tuple[int, ...]
    cert: Projection

    @property
    def removed(self) -> tuple[int, ...]:
        return self.cert.strict


@record
class ReductionPairStep:
    scc: tuple[int, ...]
    cs: ConstraintSet  # the ordering problem the certificate solves
    cert: Union[PolyInterp, ArgFunRPO]

    @property
    def removed(self) -> tuple[int, ...]:
        return self.cert.strict


@record
class GiveUp:
    scc: tuple[int, ...]
    tried: tuple[str, ...]
    reason: str
    loop: tuple[Term, ...] = ()  # t0 -> ... -> tn = t0, when one was found


Step = Union[Preparation, PruneStep, SubtermStep, ReductionPairStep, GiveUp]
Certificate = Union[Projection, PolyInterp, "ArgFunRPO"]


@record(frozen=False)
class Proof:
    verdict: str
    steps: list[Step]
    problem: DPProblem


class InternalError(Exception):
    """A search produced a certificate the checker rejects."""


def prove(afs: AFS, cfg: Optional[Config] = None) -> Proof:
    """Prove termination of `afs` along `_walk`, taking each SCC step from
    `_discharge`; raises `InternalError` when `_walk` rejects a step."""
    cfg = cfg or Config()
    deadline = time.monotonic() + cfg.timeout
    problem = dependency_pairs(afs)
    templates: dict = {}  # the poly search's candidate lists, built once per proof
    explored: set[Union[int, Term]] = set()  # the loop check's rules and start terms
    steps, error, verdict = _walk(
        problem, lambda scc: _discharge(scc, problem, cfg, deadline, templates, explored))
    if error:
        raise InternalError(error)
    return Proof(verdict, steps, problem)


def _split_first(graph: DPGraph, components: list[tuple[int, ...]],
                 removed: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The first component loses `removed`. No other component changes, so
    only the rest of the first is decomposed again. Returns the nodes of the
    first that now lie on no cycle (the next prune step) and the new
    component list, ordered by smallest member as `sccs` orders it: the
    parts are inserted into the remainder, which is ordered already, so a
    step costs nothing per component it leaves alone.  `_walk` starts from
    the whole graph as one component."""
    rest = frozenset(components[0]).difference(removed)
    # a single node lies on a cycle exactly when it has a self-loop
    parts = sccs(DPGraph(graph.pairs, graph.edges, rest)) if len(rest) > 1 \
        else [(i,) for i in rest if i in graph.edges[i]]
    on_cycle = {i for part in parts for i in part}
    dropped = tuple(sorted(rest - on_cycle))
    remainder = components[1:]
    for part in parts:
        insort(remainder, part, key=itemgetter(0))
    return dropped, remainder


def _discharge(scc: tuple[int, ...], problem: DPProblem, cfg: Config, deadline: float,
               templates: dict, explored: set[Union[int, Term]]
               ) -> Union[SubtermStep, ReductionPairStep, GiveUp]:
    """The first step an engine finds for the SCC before the proof's
    `time.monotonic()` deadline, or a give-up step that names the engines
    that ran.  A reduction loop found before the ordering searches ends
    the proof: no reduction pair can orient the SCC then."""
    if time.monotonic() >= deadline:
        return GiveUp(scc, (), TIMEOUT)
    collapsing = any(problem.pairs[i].collapsing for i in scc)
    tried: list[str] = []
    if "subterm" in cfg.engines and not collapsing:
        tried.append("subterm")
        cert = subterm_criterion(scc, problem.pairs)
        if cert is not None:
            return SubtermStep(scc, cert)
    loop = _find_loop(scc, problem, explored)
    if loop:
        return GiveUp(scc, tuple(tried), LOOPING, loop)
    cs = build_constraints(scc, problem)
    if "poly" in cfg.engines:
        tried.append("poly")
        cert = search_poly(cs, store=templates, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs, cert)
    # the path ordering engine does not contain beta, which the collapsing
    # modes require; it is only offered on non-collapsing problems
    if "rpo" in cfg.engines and not collapsing:
        tried.append("rpo")
        cert = search_rpo(cs, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs, cert)
    return GiveUp(scc, tuple(tried), UNORIENTED)


def search_rpo(cs: ConstraintSet, deadline: float) -> Optional[ArgFunRPO]:
    """`orderings.rpo.search_rpo`, which loads the path ordering on the
    first call: with the default engines no proof of the corpus runs it."""
    from .orderings.rpo import search_rpo as search
    return search(cs, deadline=deadline)


# perfbench's layer tracer names a span by its function's module: these
# calls count as the path ordering's (`orderings.rpo.calls`)
search_rpo.__module__ = "afsterm.orderings.rpo"


def _ground(ty: SimpleType, signature: tuple[FunctionSymbol, ...]) -> Term:
    """A closed term of type ty: the first nullary signature symbol of a base
    type (its fresh constant if there is none), \\x. ground(tau) for an arrow
    type sigma -> tau."""
    if isinstance(ty, Arrow):
        return Abs(ty.left, _ground(ty.right, signature))
    f = next((f for f in signature if not f.decl.arity and f.decl.output == ty), None)
    return FunApp(f or fresh_const(ty))


def _grounding(t: Term, signature: tuple[FunctionSymbol, ...],
               keep: frozenset[Variable] = frozenset()) -> dict[Variable, Term]:
    """`_ground` for every free variable of t that is not in `keep`."""
    return {v: _ground(v.type, signature) for v in free_vars(t) if v not in keep}


def _self_application_starts(pair: DependencyPair,
                             signature: tuple[FunctionSymbol, ...]) -> Iterator[Term]:
    """Start terms whose reduction passes a beta step, for an applied-head
    pair l ~> F @ y: for each function application s in l outside every
    binder, of y's type, without y and holding every occurrence of F, the
    abstraction w = \\x. l[s := x, y := x] gives
    l[F := w, y := s[F := w]] -> w @ s[F := w] ->beta the start again.
    The other variables of l are grounded by `_ground`."""
    rhs = pair.rhs
    if pair.kind != "applied-head" or not isinstance(rhs, App) \
            or not isinstance(rhs.fn, Var) or not isinstance(rhs.arg, Var):
        return
    f, y = rhs.fn.var, rhs.arg.var
    lhs = substitute(pair.lhs, _grounding(pair.lhs, signature, frozenset((f, y))))
    x = Var(Variable("x", y.type))
    for s, depth in subterms(lhs):
        if depth or not isinstance(s, FunApp) or type_of(s) != y.type or y in free_vars(s):
            continue
        body = substitute(replace_nodes(lhs, lambda n, args: x if n == s else FunApp(n.fn, args)),
                          {y: x})
        if f in free_vars(body):
            continue  # s does not hold every occurrence of F
        w = {f: lam(x.var, body)}
        yield substitute(lhs, {**w, y: substitute(s, w)})


def _start_terms(scc: tuple[int, ...], problem: DPProblem,
                 explored: set[Union[int, Term]]) -> Iterator[Term]:
    """The loop check's start terms: a ground instance of the left-hand side
    of each rule behind a pair of the SCC whose index is not in `explored`
    (the index is added), then the pairs' self-application starts."""
    afs = problem.afs
    for i in scc:
        r = problem.pairs[i].rule_index
        if r in explored:
            continue
        explored.add(r)
        lhs = afs.rules[r].lhs
        yield substitute(lhs, _grounding(lhs, afs.signature))
    for i in scc:
        yield from _self_application_starts(problem.pairs[i], afs.signature)


def _find_loop(scc: tuple[int, ...], problem: DPProblem,
               explored: set[Union[int, Term]]) -> tuple[Term, ...]:
    """A reduction loop t0 -> ... -> tn = t0 under the completed rules from
    one of the SCC's start terms (`_start_terms`), or () when none shows
    within the step and node bounds.  The completed rules are derivable
    from the input rules, so a loop is a real infinite reduction.  Start
    terms in `explored` are skipped, and the new ones are added."""
    for start in _start_terms(scc, problem, explored):
        if start in explored:
            continue
        explored.add(start)
        trace = bounded_reductions(start, problem.afs.rules, LOOP_STEPS,
                                   max_nodes=LOOP_NODES).loop
        if trace is not None:
            return trace[trace.index(trace[-1]):]
    return ()


def _replay_loop(loop: tuple[Term, ...], rules) -> Optional[str]:
    """The first problem of a claimed loop: it must close, be well typed,
    and each step must be a one-step reduction."""
    if len(loop) < 2 or loop[-1] != loop[0]:
        return "loop does not end at its first term"
    try:
        for t in loop[:-1]:
            type_of(t)
    except IllTyped as exc:
        return f"loop term is ill-typed: {exc}"
    for k, (a, b) in enumerate(zip(loop, loop[1:])):
        if b not in rewrite_step(a, rules):
            return f"loop step {k} is not a one-step reduction"
    return None


def _walk(problem: DPProblem,
          take: Callable[[tuple[int, ...]], Optional[Step]]
          ) -> tuple[list[Step], Optional[str], Optional[str]]:
    """Walk the skeleton of `problem`: the preparation, then a prune step
    wherever pairs lie on no cycle, and `take(scc)` for each SCC that is
    due, which returns the step on that SCC (None: it has none).  Returns
    the steps, the first problem (`_step_error`'s, or an SCC without a step),
    and the verdict the steps prove (None after a problem)."""
    graph = approximate_graph(problem)
    steps: list[Step] = [Preparation(graph.edge_count())]
    pending, components = _split_first(graph, [tuple(graph.alive)], ())
    while True:
        if pending:
            steps.append(PruneStep(pending))
        if not components:
            break
        step = take(components[0])
        if step is None:
            return steps, f"no step for SCC {components[0]}", None
        error = _step_error(step, problem)
        if error:
            return steps, error, None
        steps.append(step)
        if isinstance(step, GiveUp):
            return steps, None, MAYBE
        pending, components = _split_first(graph, components, step.removed)
    # after the preparation, every step is a prune or an SCC step here
    removed = sorted(i for s in steps[1:] for i in s.removed)
    if removed != list(range(len(problem.pairs))):
        return steps, "removal bookkeeping does not cover all pairs exactly once", None
    return steps, None, YES


def _step_error(step: Union[SubtermStep, ReductionPairStep, GiveUp],
                problem: DPProblem) -> Optional[str]:
    """The first problem of an SCC step, or None: a give-up must be one
    `_discharge` could take, its loop must replay, and a certificate must
    orient its SCC (a reduction pair's, the step's constraint set) with the
    pairs the step removes strictly."""
    if isinstance(step, GiveUp):
        # engines run in their order, on a collapsing SCC only poly, and
        # the reason bounds them; the loop reason comes with the loop
        collapsing = any(problem.pairs[i].collapsing for i in step.scc)
        ran = tuple(e for e in RUN_BEFORE.get(step.reason, ())
                    if e in step.tried and (e == "poly" or not collapsing))
        if step.reason not in RUN_BEFORE or ran != step.tried \
                or bool(step.loop) != (step.reason == LOOPING):
            return (f"no give-up after {' '.join(step.tried) or 'no engine'} names the reason "
                    f"{step.reason!r} with {len(step.loop)} loop terms")
        return _replay_loop(step.loop, problem.afs.rules) if step.loop else None
    if isinstance(step, SubtermStep):
        error = check_certificate(None, step.cert, scc=step.scc, pairs=problem.pairs)
    else:
        error = check_certificate(step.cs, step.cert)
    return f"certificate rejected: {error}" if error else None


def verify_proof(problem: DPProblem,
                 given: Iterable[Union[Certificate, GiveUp]]) -> Union[Proof, str]:
    """Replay the given certificates and give-ups in order along the
    skeleton of `problem` (`_walk`), each on the SCC that is due, whatever
    SCC a give-up names; a certificate other than a projection gets the
    constraint set built for that SCC.  What is left over after the proof
    ends is not read.  Returns the replayed proof, or its first problem."""
    given = iter(given)

    def take(scc: tuple[int, ...]) -> Optional[Step]:
        item = next(given, None)
        if item is None:
            return None
        if isinstance(item, GiveUp):
            return replace(item, scc=scc)
        if isinstance(item, Projection):
            return SubtermStep(scc, item)
        return ReductionPairStep(scc, build_constraints(scc, problem), item)

    steps, error, verdict = _walk(problem, take)
    return error or Proof(verdict, steps, problem)


# corpus ----------------------------------------------------------------------


@record(frozen=False)
class CorpusEntry:
    path: Path
    expect: Optional[str]
    verdict: Optional[str]
    seconds: float
    steps: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        return self.expect is None or self.expect == self.verdict


def expected_verdict(text: str) -> Optional[str]:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#") and "expect:" in stripped:
            value = stripped.split("expect:", 1)[1].strip()
            if value in (YES, MAYBE):
                return value
    return None


def run_corpus(directory: Union[str, Path], cfg: Optional[Config] = None) -> list[CorpusEntry]:
    from .parser import parse_afs

    cfg = cfg or Config()
    out: list[CorpusEntry] = []
    for path in sorted(Path(directory).glob("*.afs")):
        expect = None
        start = time.monotonic()
        try:
            text = path.read_text()
            expect = expected_verdict(text)
            afs = parse_afs(text)
            proof = prove(afs, cfg)
            out.append(CorpusEntry(path, expect, proof.verdict,
                                   time.monotonic() - start, len(proof.steps)))
        except Exception as exc:  # read and parse failures must not abort the run
            out.append(CorpusEntry(path, expect, None,
                                   time.monotonic() - start, 0, error=str(exc)))
    return out
