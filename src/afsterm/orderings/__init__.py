"""Ordering constraints, reduction pair searches, and the certificate checker.

The path ordering (`rpo`) is loaded when one of its names is first asked
for: with the default engines no proof of the corpus runs it."""

from importlib import import_module

from .constraints import (
    ConstraintSet, StrictCandidate, WeakConstraint, build_constraints,
    MODE_NON_COLLAPSING, MODE_BASIC, MODE_LOCAL_COLLAPSING,
    flatten_lhs, flatten_rhs,
)
from .subterm import Projection, subterm_criterion, check_projection
from .poly import PolyFun, PolyInterp, Interpreter, compare_terms, Expr, expr_text
from .poly_search import search_poly
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

_RPO_NAMES = ("ArgFunRPO", "search_rpo", "check_argfun_rpo", "rpo_greater", "rpo_geq", "Precedence")


def __getattr__(name: str):
    if name in _RPO_NAMES:
        return getattr(import_module(".rpo", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
