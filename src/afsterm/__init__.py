"""Termination prover for algebraic functional systems (simply-typed
higher-order rewriting with beta as a separate step), built on dynamic
dependency pairs with formative/usable rules, the subterm criterion,
weakly monotonic interpretations, and argument functions with a recursive
path ordering."""

from .terms import (
    Base, Arrow, arrow, SimpleType, TypeDecl, FunctionSymbol, Variable,
    Term, Var, Abs, App, FunApp, lam, app,
    apply_subst, match, rewrite_step, bounded_reductions, mark, subterms,
    head, free_vars, term_text, type_of, IllTyped, TypeMismatch,
    BudgetExceeded,
)
from .afs import AFS, Rule, IllegalLhs, complete, build_rplus
from .parser import parse_afs, parse_term_text, ParseError
from .dp import (
    DependencyPair, DPProblem, candidate_terms, dependency_pairs, tag, untag,
)
from .selection import formative_rules, usable_rules, TypedSymbol, NotLocal
from .graph import DPGraph, approximate_graph, sccs, prune, to_dot
from .orderings import (
    ConstraintSet, build_constraints, subterm_criterion, search_poly,
    search_rpo, check_certificate, Projection, PolyInterp, ArgFunRPO,
)
from .engine import Config, Proof, prove, run_corpus, verify_proof, YES, MAYBE
from .prooftext import render_proof, check_proof_text

__version__ = "0.1.0"
