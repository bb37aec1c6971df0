"""Termination prover for algebraic functional systems (simply-typed
higher-order rewriting with beta as a separate step), built on dynamic
dependency pairs with formative/usable rules, the subterm criterion,
weakly monotonic interpretations, and argument functions with a recursive
path ordering.  The path ordering's names (`search_rpo`, `ArgFunRPO`)
load it on first use."""

from importlib import import_module

from .terms import (
    Base, Arrow, SimpleType, TypeDecl, FunctionSymbol, Variable,
    Term, Var, Abs, App, FunApp, lam, app,
    match, rewrite_step, bounded_reductions, mark, subterms,
    head, free_vars, term_text, type_of, IllTyped,
)
from .afs import AFS, Rule, IllegalLhs, complete, build_rplus
from .parser import parse_afs, parse_term_text, ParseError
from .dp import (
    DependencyPair, DPProblem, candidate_terms, dependency_pairs, tag,
)
from .selection import formative_rules, usable_rules, TypedSymbol, NotLocal
from .graph import DPGraph, approximate_graph, sccs, prune, to_dot
from .orderings import (
    ConstraintSet, build_constraints, subterm_criterion, search_poly,
    check_certificate, Projection, PolyInterp,
)
from .engine import Config, Proof, prove, run_corpus, verify_proof, YES, MAYBE
from .prooftext import render_proof, check_proof_text

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("search_rpo", "ArgFunRPO"):
        return getattr(import_module(".orderings.rpo", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
