"""The proof skeleton, walked once by `prove` and by `verify_proof`: prepare,
prune, discharge the first SCC with the subterm criterion or a reduction
pair, repeat.  `prove` checks each certificate against the constraint set it
was found for before keeping it; `check` replays the whole proof through
`verify_proof`.  Each check (`_step_error`, `_replay_loop` and the
certificate checker's `check_certificate`) returns its first problem as a
string, or None.  An SCC step removes exactly the pairs its certificate
orients strictly.  Also the corpus runner."""

from __future__ import annotations

import time
from bisect import insort
from operator import itemgetter
from .record import record
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

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
    local: bool
    static_mode: bool
    rule_count: int
    pair_count: int
    node_count: int
    edge_count: int


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
    mode: str
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
# what `_walk` expects next: this Preparation or PruneStep, a step on this SCC, or none
Due = Union[Preparation, PruneStep, tuple[int, ...], None]


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

    def take(due: Due) -> tuple[Optional[Step], Optional[ConstraintSet]]:
        if isinstance(due, tuple):
            return _discharge(due, problem, cfg, deadline, templates, explored)
        return due, None  # the preparation, a prune step, or the end

    steps, error, verdict = _walk(problem, take)
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
    rest = DPGraph(graph.pairs, graph.edges, frozenset(components[0]) - frozenset(removed))
    parts = sccs(rest)
    on_cycle = {i for part in parts for i in part}
    dropped = tuple(sorted(rest.alive - on_cycle))
    remainder = components[1:]
    for part in parts:
        insort(remainder, part, key=itemgetter(0))
    return dropped, remainder


def _discharge(scc: tuple[int, ...], problem: DPProblem, cfg: Config, deadline: float,
               templates: dict, explored: set[Union[int, Term]]
               ) -> tuple[Union[SubtermStep, ReductionPairStep, GiveUp], Optional[ConstraintSet]]:
    """The first step an engine finds for the SCC before the proof's
    `time.monotonic()` deadline, or a give-up step that names the engines
    that ran, with the constraint set of the ordering search when it ran.
    A reduction loop found before the ordering searches ends the proof: no
    reduction pair can orient the SCC then."""
    if time.monotonic() >= deadline:
        return GiveUp(scc, (), "timeout"), None
    collapsing = any(problem.pairs[i].collapsing for i in scc)
    tried: list[str] = []
    if "subterm" in cfg.engines and not collapsing:
        tried.append("subterm")
        cert = subterm_criterion(scc, problem.pairs)
        if cert is not None:
            return SubtermStep(scc, cert), None
    loop = _find_loop(scc, problem, explored)
    if loop:
        return GiveUp(scc, tuple(tried),
                      "a term reduces to itself, so the system does not terminate", loop), None
    cs = build_constraints(scc, problem)
    if "poly" in cfg.engines:
        tried.append("poly")
        cert = search_poly(cs, store=templates, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs.mode, cert), cs
    # the path ordering engine does not contain beta, which the collapsing
    # modes require; it is only offered on non-collapsing problems
    if "rpo" in cfg.engines and not collapsing:
        tried.append("rpo")
        cert = search_rpo(cs, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs.mode, cert), cs
    return GiveUp(scc, tuple(tried), "no engine oriented a pair strictly"), cs


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
          take: Callable[[Due], tuple[Optional[Step], Optional[ConstraintSet]]]
          ) -> tuple[list[Step], Optional[str], Optional[str]]:
    """Walk the skeleton of `problem`.  `take(due)` returns the next step (None:
    no more) and the constraint set its certificate was found for (None:
    build it).  Returns the steps taken, the first problem `_step_error`
    finds, and the verdict the steps prove (None if they stop early)."""
    graph = approximate_graph(problem)
    pending, components = _split_first(graph, [tuple(graph.alive)], ())
    due: Due = Preparation(problem.afs.local, problem.static_mode, len(problem.afs.rules),
                           len(problem.pairs), len(graph.alive), graph.edge_count())
    steps: list[Step] = []
    while True:
        step, cs = take(due)
        if step is None:
            break
        error = _step_error(step, cs, due, problem)
        if error:
            return steps, error, None
        steps.append(step)
        if isinstance(step, PruneStep):
            pending = ()
        elif isinstance(step, GiveUp):
            components = []  # nothing is due after a give-up
        elif not isinstance(step, Preparation):
            pending, components = _split_first(graph, components, step.removed)
        due = PruneStep(pending) if pending else components[0] if components else None
    if due is not None:
        return steps, None if steps else f"proof must start with {due}", None
    if isinstance(steps[-1], GiveUp):
        return steps, None, MAYBE
    # after the preparation, every step is a prune or an SCC step here
    removed = sorted(i for s in steps[1:] for i in s.removed)
    if removed != list(range(len(problem.pairs))):
        return steps, "removal bookkeeping does not cover all pairs exactly once", None
    return steps, None, YES


def _step_error(step: Step, cs: Optional[ConstraintSet], due: Due,
                problem: DPProblem) -> Optional[str]:
    """The first problem of `step` where `due` is due, or None.  An SCC
    step removes the pairs its certificate orients strictly, so the
    certificate's problem from `check_certificate` is the step's."""
    if step == due:
        return None
    if isinstance(due, Preparation):
        return f"proof must start with {due}"
    if isinstance(step, Preparation):
        return "duplicate preparation step"
    if isinstance(step, PruneStep):
        expected = due.removed if isinstance(due, PruneStep) else "no prune step"
        return f"prune step removed {step.removed}, expected {expected}"
    if isinstance(due, PruneStep):
        return "missing prune step before an SCC step"
    if due is None:
        return "step after the end of the proof"
    if step.scc != due:
        return f"step works on {step.scc}, expected SCC {due}"
    if isinstance(step, GiveUp):
        return _replay_loop(step.loop, problem.afs.rules) if step.loop else None
    if isinstance(step, SubtermStep):
        error = check_certificate(None, step.cert, scc=step.scc, pairs=problem.pairs)
    else:
        if cs is None:
            cs = build_constraints(step.scc, problem)
        if cs.mode != step.mode:
            return f"step mode {step.mode} does not match {cs.mode}"
        error = check_certificate(cs, step.cert)
    return f"certificate rejected: {error}" if error else None


def verify_proof(proof: Proof) -> list[str]:
    """Walk the proof's steps along the skeleton of its problem (`_walk`)
    and re-check every certificate; returns the list of problems found
    (empty for a valid proof)."""
    given = iter(proof.steps)
    _, error, verdict = _walk(proof.problem, lambda due: (next(given, None), None))
    if error:
        return [error]
    if verdict == proof.verdict:
        return []
    if proof.verdict == YES:
        return ["verdict YES but pairs remain"]
    return ["verdict MAYBE without a give-up step"]


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
