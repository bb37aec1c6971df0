"""Independent re-verification of certificates.  Every check returns the
first problem it finds, or None when the certificate holds."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from .constraints import ConstraintSet
from .subterm import Projection, check_projection
from .poly import PolyInterp, Interpreter, compare_terms, recovers_argument
from .poly import nf_geq  # noqa: F401  (perfbench's layer tracer wraps it here)

if TYPE_CHECKING:
    from .rpo import ArgFunRPO

Certificate = Union[Projection, PolyInterp, "ArgFunRPO"]


def check_argfun_rpo(cs: ConstraintSet, cert: ArgFunRPO) -> Optional[str]:
    """`rpo.check_argfun_rpo`, which loads the path ordering on the first
    call: only a proof with a path ordering step needs it."""
    from .rpo import check_argfun_rpo as check
    return check(cs, cert)


# perfbench's layer tracer names a span by its function's module
check_argfun_rpo.__module__ = "afsterm.orderings.rpo"


def check_poly_interp(cs: ConstraintSet, cert: PolyInterp) -> Optional[str]:
    for name in cert.assign:
        if name.startswith("!c{") or name.startswith("!p{"):
            return f"certificate may not interpret {name}"

    # protected symbols: the argument recovery condition
    for sym in cs.S:
        fun = cert.assign.get(sym.display)
        if fun is None:
            continue
        for i in range(sym.decl.arity):
            if not recovers_argument(fun, i):
                return f"J({sym.display}) does not recover its argument {i + 1}"

    interp = Interpreter(cert.assign)
    for w in cs.weak:
        if not compare_terms(w.lhs, w.rhs, interp, strict=False):
            return f"weak constraint not oriented ({w.label})"
    for c in cs.strict_candidates:
        strict = c.pair_index in cert.strict
        if not compare_terms(c.lhs, c.rhs, interp, strict=strict):
            kind = "strictly" if strict else "weakly"
            return f"pair {c.pair_index} is not {kind} oriented"
    return None


def check_certificate(cs: Optional[ConstraintSet], cert: Certificate,
                      scc: Optional[tuple[int, ...]] = None,
                      pairs=None) -> Optional[str]:
    """The first problem of a certificate for one SCC, or None.  A Projection
    is checked against the SCC and the pair list, the others against the
    SCC's constraint set, whose strict candidates are exactly its pairs.
    Every certificate must claim a non-empty strict set inside the SCC."""
    if cs is not None:
        scc = tuple(c.pair_index for c in cs.strict_candidates)
    if not cert.strict:
        return "no pair is claimed strict"
    if not set(cert.strict) <= set(scc):
        return "strict set mentions pairs outside the SCC"
    if isinstance(cert, Projection):
        return check_projection(scc, pairs, cert)
    if isinstance(cert, PolyInterp):
        return check_poly_interp(cs, cert)
    return check_argfun_rpo(cs, cert)
