"""Ordering constraints, reduction pair searches, and the certificate checker."""

from .constraints import (
    ConstraintSet, StrictCandidate, WeakConstraint, build_constraints,
    MODE_NON_COLLAPSING, MODE_BASIC, MODE_LOCAL_COLLAPSING,
    flatten_lhs, flatten_rhs,
)
from .subterm import Projection, subterm_criterion, check_projection
from .poly import PolyFun, PolyInterp, Interpreter, compare_terms, Expr, expr_text
from .poly_search import search_poly
from .rpo import ArgFunRPO, search_rpo, check_argfun_rpo, rpo_greater, rpo_geq, Precedence
from .certcheck import Certificate, check_certificate

__all__ = [
    "ConstraintSet", "StrictCandidate", "WeakConstraint", "build_constraints",
    "MODE_NON_COLLAPSING", "MODE_BASIC", "MODE_LOCAL_COLLAPSING",
    "flatten_lhs", "flatten_rhs",
    "Projection", "subterm_criterion", "check_projection",
    "PolyFun", "Interpreter", "compare_terms", "Expr", "expr_text",
    "PolyInterp", "search_poly",
    "ArgFunRPO", "search_rpo", "check_argfun_rpo", "rpo_greater",
    "rpo_geq", "Precedence",
    "Certificate", "check_certificate",
]
