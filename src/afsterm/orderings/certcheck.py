"""Independent re-verification of certificates against a constraint set."""

from __future__ import annotations

from ..record import record
from typing import Optional, Union

from .constraints import ConstraintSet
from .subterm import Projection, check_projection
from .poly import PolyInterp, Interpreter, compare_terms, recovers_argument
from .poly import nf_geq  # noqa: F401  (perfbench's layer tracer wraps it here)
from .rpo import ArgFunRPO, check_argfun_rpo

Certificate = Union[Projection, PolyInterp, ArgFunRPO]


@record
class Verdict:
    valid: bool
    strict: tuple[int, ...] = ()
    reason: str = ""


def check_poly_interp(cs: ConstraintSet, cert: PolyInterp) -> Verdict:
    if not cert.strict:
        return Verdict(False, (), "no pair is claimed strict")
    cand_ids = {c.pair_index for c in cs.strict_candidates}
    if not set(cert.strict) <= cand_ids:
        return Verdict(False, (), "strict set mentions pairs outside the constraint set")
    for name in cert.assign:
        if name.startswith("!c{") or name.startswith("!p{"):
            return Verdict(False, (), f"certificate may not interpret {name}")

    # protected symbols: the argument recovery condition
    for sym in cs.S:
        fun = cert.assign.get(sym.display)
        if fun is None:
            continue
        for i in range(sym.decl.arity):
            if not recovers_argument(fun, i):
                return Verdict(
                    False, (),
                    f"J({sym.display}) does not recover its argument {i + 1}")

    interp = Interpreter(cert.assign)
    for w in cs.weak:
        if not compare_terms(w.lhs, w.rhs, interp, strict=False):
            return Verdict(False, (), f"weak constraint not oriented ({w.label})")
    for c in cs.strict_candidates:
        strict = c.pair_index in cert.strict
        if not compare_terms(c.lhs, c.rhs, interp, strict=strict):
            kind = "strictly" if strict else "weakly"
            return Verdict(False, (), f"pair {c.pair_index} is not {kind} oriented")
    return Verdict(True, tuple(cert.strict))


def check_certificate(cs: ConstraintSet, cert: Certificate,
                      scc: Optional[tuple[int, ...]] = None,
                      pairs=None) -> Verdict:
    """Re-verify a certificate; Projection certificates need the SCC and the
    pair list, the others are checked against the constraint set."""
    if isinstance(cert, Projection):
        assert scc is not None and pairs is not None
        ok, reason = check_projection(scc, pairs, cert)
        return Verdict(ok, tuple(cert.strict), reason)
    if isinstance(cert, PolyInterp):
        return check_poly_interp(cs, cert)
    if isinstance(cert, ArgFunRPO):
        ok, reason = check_argfun_rpo(cs, cert)
        return Verdict(ok, tuple(cert.strict), reason)
    return Verdict(False, (), f"unknown certificate type {type(cert).__name__}")
