"""The main proving loop: prepare, prune, pick an SCC, discharge it with the
subterm criterion or a reduction pair, repeat; plus proof self-verification
and the corpus runner."""

from __future__ import annotations

import time
from .record import record
from pathlib import Path
from typing import Iterator, Optional, Union

from .afs import AFS, complete, classify
from .dp import DependencyPair, DPProblem, dependency_pairs
from .graph import DPGraph, approximate_graph, sccs, prune
from .orderings import (
    build_constraints, subterm_criterion, Projection,
    search_poly, search_rpo, PolyInterp, ArgFunRPO, check_certificate,
)
from .terms import (
    Abs, App, Arrow, FunApp, FunctionSymbol, IllTyped, SimpleType, Term, Var, Variable,
    bounded_reductions, free_vars, fresh_const, lam, replace_nodes, rewrite_step,
    substitute, subterms, type_of,
)

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
    removed: tuple[int, ...]


@record
class ReductionPairStep:
    scc: tuple[int, ...]
    mode: str
    cert: Union[PolyInterp, ArgFunRPO]
    removed: tuple[int, ...]


@record
class GiveUp:
    scc: tuple[int, ...]
    tried: tuple[str, ...]
    reason: str
    loop: tuple[Term, ...] = ()  # t0 -> ... -> tn = t0, when one was found


Step = Union[Preparation, PruneStep, SubtermStep, ReductionPairStep, GiveUp]


@record(frozen=False)
class Proof:
    verdict: str
    steps: list[Step]
    problem: DPProblem


class InternalError(Exception):
    """A search produced a certificate the checker rejects."""


def prove(afs: AFS, cfg: Optional[Config] = None) -> Proof:
    cfg = cfg or Config()
    deadline = time.monotonic() + cfg.timeout

    prepared = classify(complete(afs))
    problem = dependency_pairs(prepared)
    graph = approximate_graph(problem)
    steps: list[Step] = [Preparation(
        local=prepared.local,
        static_mode=problem.static_mode,
        rule_count=len(prepared.rules),
        pair_count=len(problem.pairs),
        node_count=len(graph.alive),
        edge_count=graph.edge_count(),
    )]

    pruned = prune(graph)
    dropped = tuple(sorted(graph.alive - pruned.alive))
    components = sccs(pruned)
    templates: dict = {}  # the poly search's candidate lists, built once per proof
    explored: set[Union[int, Term]] = set()  # the loop check's rules and start terms
    while True:
        if dropped:
            steps.append(PruneStep(dropped))
        if not components:
            proof = Proof(YES, steps, problem)
            break
        scc = components[0]
        if time.monotonic() >= deadline:
            steps.append(GiveUp(scc, (), "timeout"))
            proof = Proof(MAYBE, steps, problem)
            break
        step = _discharge(scc, problem, cfg, deadline, templates, explored)
        steps.append(step)
        if isinstance(step, GiveUp):
            proof = Proof(MAYBE, steps, problem)
            break
        dropped, components = _split_first(graph, components, step.removed)

    errors = verify_proof(proof)
    if errors:
        raise InternalError("; ".join(errors))
    return proof


def _split_first(graph: DPGraph, components: list[tuple[int, ...]],
                 removed: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The first component loses `removed`. No other component changes, so
    only the rest of the first is decomposed again. Returns the nodes of the
    first that now lie on no cycle (the next prune step) and the new
    component list, ordered by smallest member as `sccs` orders it."""
    rest = DPGraph(graph.pairs, graph.edges, frozenset(components[0]) - frozenset(removed))
    parts = sccs(rest)
    on_cycle = {i for part in parts for i in part}
    dropped = tuple(sorted(rest.alive - on_cycle))
    return dropped, sorted(components[1:] + parts, key=lambda c: c[0])


def _discharge(scc: tuple[int, ...], problem: DPProblem, cfg: Config, deadline: float,
               templates: dict, explored: set[Union[int, Term]]
               ) -> Union[SubtermStep, ReductionPairStep, GiveUp]:
    """The first step an engine finds for the SCC before the proof's
    `time.monotonic()` deadline, or a give-up step that names the engines
    that ran.  A reduction loop found before the ordering searches ends the
    proof: no reduction pair can orient the SCC then."""
    collapsing = any(problem.pairs[i].collapsing for i in scc)
    tried: list[str] = []
    if "subterm" in cfg.engines and not collapsing:
        tried.append("subterm")
        cert = subterm_criterion(scc, problem.pairs)
        if cert is not None:
            return SubtermStep(scc, cert, cert.strict)
    loop = _find_loop(scc, problem, explored)
    if loop:
        return GiveUp(scc, tuple(tried),
                      "a term reduces to itself, so the system does not terminate", loop)
    cs = build_constraints(scc, problem)
    if "poly" in cfg.engines:
        tried.append("poly")
        cert = search_poly(cs, store=templates, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs.mode, cert, cert.strict)
    # the path ordering engine does not contain beta, which the collapsing
    # modes require; it is only offered on non-collapsing problems
    if "rpo" in cfg.engines and not collapsing:
        tried.append("rpo")
        cert = search_rpo(cs, deadline=deadline)
        if cert is not None:
            return ReductionPairStep(scc, cs.mode, cert, cert.strict)
    return GiveUp(scc, tuple(tried), "no engine oriented a pair strictly")


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


def _replay_loop(loop: tuple[Term, ...], rules) -> list[str]:
    """The problems of a claimed loop: it must close, be well typed, and
    each step must be a one-step reduction."""
    if len(loop) < 2 or loop[-1] != loop[0]:
        return ["loop does not end at its first term"]
    try:
        for t in loop[:-1]:
            type_of(t)
    except IllTyped as exc:
        return [f"loop term is ill-typed: {exc}"]
    for k, (a, b) in enumerate(zip(loop, loop[1:])):
        if b not in rewrite_step(a, rules):
            return [f"loop step {k} is not a one-step reduction"]
    return []


def verify_proof(proof: Proof) -> list[str]:
    """Replay the proof skeleton and re-check every certificate; returns the
    list of problems found (empty for a valid proof)."""
    problem = proof.problem
    errors: list[str] = []
    graph = approximate_graph(problem)
    pruned = prune(graph)
    pending = tuple(sorted(graph.alive - pruned.alive))
    components = sccs(pruned)
    removed_total: list[int] = []

    steps = list(proof.steps)
    if not steps or not isinstance(steps[0], Preparation):
        return ["proof must start with a preparation step"]
    prep = steps[0]
    if prep.pair_count != len(problem.pairs):
        errors.append("preparation step records the wrong pair count")

    for step in steps[1:]:
        if isinstance(step, Preparation):
            errors.append("duplicate preparation step")
            break
        if isinstance(step, PruneStep):
            if pending != step.removed:
                errors.append(f"prune step removed {step.removed}, expected {pending}")
                break
            graph = graph.without(pending)
            pending = ()
            removed_total.extend(step.removed)
            continue
        if isinstance(step, GiveUp):
            if step.loop:
                errors.extend(_replay_loop(step.loop, problem.afs.rules))
            break
        # an SCC step: the chosen set must be the first SCC of the graph
        if pending:
            errors.append("missing prune step before an SCC step")
            break
        if not components:
            errors.append("SCC step on an empty graph")
            break
        if step.scc != components[0]:
            errors.append(f"step works on {step.scc}, expected SCC {components[0]}")
            break
        if isinstance(step, SubtermStep):
            verdict = check_certificate(None, step.cert, scc=step.scc, pairs=problem.pairs)
        else:
            cs = build_constraints(step.scc, problem)
            if cs.mode != step.mode:
                errors.append(f"step mode {step.mode} does not match {cs.mode}")
                break
            verdict = check_certificate(cs, step.cert)
        if not verdict.valid:
            errors.append(f"certificate rejected: {verdict.reason}")
            break
        if tuple(sorted(step.removed)) != tuple(sorted(verdict.strict)):
            errors.append("removed pairs do not match the strictly oriented ones")
            break
        if not set(step.removed) <= set(step.scc):
            errors.append("removed pairs outside the SCC")
            break
        if not step.removed:
            errors.append("step removed no pairs")
            break
        removed_total.extend(step.removed)
        graph = graph.without(step.removed)
        pending, components = _split_first(graph, components, step.removed)

    if not errors:
        if proof.verdict == YES:
            if graph.alive:
                errors.append("verdict YES but pairs remain")
            elif sorted(removed_total) != sorted(range(len(problem.pairs))):
                errors.append("removal bookkeeping does not cover all pairs exactly once")
        else:
            if not isinstance(proof.steps[-1], GiveUp):
                errors.append("verdict MAYBE without a give-up step")
    return errors


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
