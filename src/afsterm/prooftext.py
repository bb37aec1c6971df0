"""Stable textual proof format: rendering, parsing, and re-validation.

A proof file is the exact text `prove` prints.  The checker re-derives the
dependency pairs and the graph from the AFS, so the proof only has to carry
the step skeleton and the certificates.
"""

from __future__ import annotations

from typing import Optional

from .afs import AFS, complete, classify
from .dp import DPProblem, dependency_pairs
from .engine import (
    Proof, Preparation, PruneStep, SubtermStep, ReductionPairStep, GiveUp,
    verify_proof, YES, MAYBE,
)
from .orderings import (
    Projection, PolyInterp, ArgFunRPO, build_constraints,
)
from .orderings.poly import (
    PolyFun, Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE, expr_text,
    slot_types_for,
)
from .parser import (
    ParseError, SymbolTable, TokenStream, tokenize, parse_term, parse_term_text,
)
from .terms import (
    FunctionSymbol, Variable, Term, term_text, TypeDecl, EXT,
)


class ProofSyntaxError(Exception):
    pass


# rendering -------------------------------------------------------------------


def render_proof(proof: Proof, verbosity: int = 0) -> str:
    problem = proof.problem
    lines: list[str] = [proof.verdict]
    for step in proof.steps:
        if isinstance(step, Preparation):
            lines.append("PREPARATION")
            lines.append(f"  local: {'yes' if step.local else 'no'}")
            lines.append(f"  static-mode: {'yes' if step.static_mode else 'no'}")
            lines.append(f"  rules: {step.rule_count}")
            lines.append(f"  pairs: {step.pair_count}")
            for i, p in enumerate(problem.pairs):
                lines.append(f"  pair {i}: {p}")
            lines.append(f"  graph: {step.node_count} nodes, {step.edge_count} edges")
        elif isinstance(step, PruneStep):
            lines.append("PRUNE")
            lines.append("  removed: " + " ".join(map(str, step.removed)))
        elif isinstance(step, SubtermStep):
            lines.append("STEP")
            lines.append("  scc: " + " ".join(map(str, step.scc)))
            nus = ", ".join(f"nu({name}) = {idx}" for name, idx in sorted(step.cert.nu.items()))
            lines.append(f"  SUBTERM CRITERION {nus}")
            lines.append("  strict: " + " ".join(map(str, step.cert.strict)))
            lines.append("  removed: " + " ".join(map(str, step.removed)))
        elif isinstance(step, ReductionPairStep):
            lines.append("STEP")
            lines.append("  scc: " + " ".join(map(str, step.scc)))
            lines.append(f"  mode: {step.mode}")
            if verbosity >= 1:
                cs = build_constraints(step.scc, problem)
                for c in cs.strict_candidates:
                    lines.append(f"  strict? {term_text(c.lhs)} > {term_text(c.rhs)}")
                for w in cs.weak:
                    lines.append(f"  weak {term_text(w.lhs)} >= {term_text(w.rhs)} ({w.label})")
            if isinstance(step.cert, PolyInterp):
                lines.append("  POLY")
                for name in sorted(step.cert.assign):
                    lines.append(f"    J({name}) = {expr_text(step.cert.assign[name].body)}")
            else:
                lines.append("  ARGFUN+RPO")
                for name in sorted(step.cert.pi):
                    lines.append(f"    pi({name}) = {term_text(step.cert.pi[name])}")
                for a, b in step.cert.precedence:
                    lines.append(f"    prec: {a} > {b}")
            lines.append("  strict: " + " ".join(map(str, step.cert.strict)))
            lines.append("  removed: " + " ".join(map(str, step.removed)))
        elif isinstance(step, GiveUp):
            lines.append("GIVEUP")
            lines.append("  scc: " + " ".join(map(str, step.scc)))
            lines.append(" ".join(("  tried:", *step.tried)))
            lines.append(f"  reason: {step.reason}")
            lines.extend(f"  loop: {term_text(t)}" for t in step.loop)
    lines.append("END")
    return "\n".join(lines) + "\n"


# expression parsing ----------------------------------------------------------


def _parse_expr(ts: TokenStream) -> Expr:
    parts = [_parse_expr_mul(ts)]
    while ts.at("+"):
        ts.next()
        parts.append(_parse_expr_mul(ts))
    return parts[0] if len(parts) == 1 else Add(tuple(parts))


def _parse_expr_mul(ts: TokenStream) -> Expr:
    parts = [_parse_expr_atom(ts)]
    while ts.at("*"):
        ts.next()
        parts.append(_parse_expr_atom(ts))
    return parts[0] if len(parts) == 1 else Mul(tuple(parts))


def _parse_expr_args(ts: TokenStream) -> tuple[Expr, ...]:
    ts.expect("(")
    args = [_parse_expr(ts)]
    while ts.at(","):
        ts.next()
        args.append(_parse_expr(ts))
    ts.expect(")")
    return tuple(args)


def _parse_expr_atom(ts: TokenStream) -> Expr:
    tok = ts.next()
    if tok.text == "(":
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    if tok.kind == "IDENT" and tok.text.isdigit():
        return Const(int(tok.text))
    if tok.kind == "IDENT" and tok.text == "max":
        return MaxE(_parse_expr_args(ts))
    if tok.kind == "IDENT" and tok.text.startswith("x") and tok.text[1:].isdigit():
        index = int(tok.text[1:]) - 1
        if ts.at("("):
            return AppSlot(index, _parse_expr_args(ts))
        return SlotRef(index)
    raise ProofSyntaxError(f"cannot parse interpretation expression at {tok.text!r}")


def parse_polyfun(text: str, sym: FunctionSymbol) -> PolyFun:
    """Parse a template body; PolyFun rejects a body that is not well-formed
    over the symbol's slots."""
    ts = TokenStream(tokenize(text))
    body = _parse_expr(ts)
    if ts.next(skip_newlines=True).kind != "EOF":
        raise ProofSyntaxError(f"trailing input in interpretation of {sym.display}")
    try:
        return PolyFun(slot_types_for(sym), body)
    except ValueError as exc:
        raise ProofSyntaxError(f"J({sym.display}): {exc}") from None


# pi templates ---------------------------------------------------------------


def _register_primed(name: str, table: SymbolTable) -> Optional[FunctionSymbol]:
    if "'" not in name:
        return None
    base_name, _, digits = name.partition("'")
    base = table.lookup_symbol(base_name)
    if base is None or (digits and not digits.isdigit()):
        return None
    kept = [int(d) - 1 for d in digits]
    if any(not (0 <= i < base.decl.arity) for i in kept):
        return None
    decl = TypeDecl(tuple(base.decl.inputs[i] for i in kept), base.decl.output)
    sym = FunctionSymbol(name, decl, EXT)
    table.symbols[name] = sym
    return sym


def parse_pi_template(text: str, sym: FunctionSymbol, table: SymbolTable) -> Term:
    slots = [Variable(f"x{i + 1}", ty) for i, ty in enumerate(sym.decl.inputs)]
    local = SymbolTable(table.symbols, {v.name: v for v in slots}, auto_symbols=True)
    tokens = tokenize(text)
    for tok in tokens:
        if tok.kind == "IDENT" and "'" in tok.text and local.lookup_symbol(tok.text) is None:
            _register_primed(tok.text, local)
    ts = TokenStream(tokens)
    t = parse_term(ts, local)
    if ts.next(skip_newlines=True).kind != "EOF":
        raise ProofSyntaxError(f"trailing input in pi({sym.display})")
    return t


# proof parsing ---------------------------------------------------------------


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProofSyntaxError(f"not a number: {text.strip()!r}") from None


def _int_list(rest: str) -> tuple[int, ...]:
    return tuple(_int(x) for x in rest.split())


def _entry(line: str, prefix: str) -> tuple[str, str]:
    """Split `prefix(name) = value` into the name and the value."""
    name, close, rest = line[len(prefix):].partition(")")
    _, eq, value = rest.partition("=")
    if not close or not eq:
        raise ProofSyntaxError(f"malformed entry {line!r}")
    return name, value.strip()


def parse_proof(text: str, problem: DPProblem) -> tuple[Proof, list[str]]:
    """Parse a proof; returns the proof plus textual mismatches found while
    cross-checking the listed pairs against the recomputed ones."""
    table = SymbolTable({f.name: f for f in problem.afs.signature}, {}, auto_symbols=True)
    mismatches: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0].strip() not in (YES, MAYBE):
        raise ProofSyntaxError("first line must be YES or MAYBE")
    verdict = lines[0].strip()
    steps: list = []
    i = 1
    n = len(lines)

    def fields_block(start: int) -> tuple[dict, list[tuple[str, str]], int]:
        fields: dict[str, str] = {}
        ordered: list[tuple[str, str]] = []
        j = start
        while j < n:
            raw = lines[j]
            if not raw.startswith(" ") or not raw.strip():
                break
            stripped = raw.strip()
            key, _, value = stripped.partition(":")
            fields[key.strip()] = value.strip()
            ordered.append((key.strip(), value.strip()))
            j += 1
        return fields, ordered, j

    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "END":
            i += 1
            continue
        if line == "PREPARATION":
            fields, ordered, i = fields_block(i + 1)
            pair_lines = [(k, v) for k, v in ordered if k.startswith("pair ")]
            for k, v in pair_lines:
                idx = _int(k.split()[1])
                if idx >= len(problem.pairs):
                    mismatches.append(f"pair {idx} out of range")
                elif v != str(problem.pairs[idx]):
                    mismatches.append(f"pair {idx} differs from recomputed: {v!r}")
            if len(pair_lines) != len(problem.pairs):
                mismatches.append("pair listing is incomplete")
            try:
                steps.append(Preparation(
                    local=fields.get("local") == "yes",
                    static_mode=fields.get("static-mode") == "yes",
                    rule_count=int(fields.get("rules", "0")),
                    pair_count=int(fields.get("pairs", "0")),
                    node_count=int(fields.get("graph", "0 nodes").split()[0]),
                    edge_count=int(fields.get("graph", "0 nodes, 0 edges").split(",")[1].split()[0]),
                ))
            except (ValueError, IndexError) as exc:
                raise ProofSyntaxError(f"malformed PREPARATION block: {exc}")
            continue
        if line == "PRUNE":
            fields, _, i = fields_block(i + 1)
            steps.append(PruneStep(_int_list(fields.get("removed", ""))))
            continue
        if line == "GIVEUP":
            fields, ordered, i = fields_block(i + 1)
            lines_of_loop = [v for k, v in ordered if k == "loop"]
            terms = {v: parse_term_text(v, table) for v in dict.fromkeys(lines_of_loop)}
            loop = tuple(terms[v] for v in lines_of_loop)
            steps.append(GiveUp(_int_list(fields.get("scc", "")),
                                tuple(fields.get("tried", "").split()),
                                fields.get("reason", ""), loop))
            continue
        if line == "STEP":
            j = i + 1
            scc: tuple[int, ...] = ()
            mode = ""
            strict: tuple[int, ...] = ()
            removed: tuple[int, ...] = ()
            cert = None
            nu: dict[str, int] = {}
            poly_assign: dict[str, PolyFun] = {}
            pi_map: dict[str, Term] = {}
            prec: list[tuple[str, str]] = []
            kind = None
            while j < n and lines[j].startswith(" ") and lines[j].strip():
                stripped = lines[j].strip()
                if stripped.startswith("scc:"):
                    scc = _int_list(stripped[4:])
                elif stripped.startswith("mode:"):
                    mode = stripped[5:].strip()
                elif stripped.startswith("SUBTERM CRITERION"):
                    kind = "subterm"
                    for part in stripped[len("SUBTERM CRITERION"):].split(","):
                        part = part.strip()
                        if not part:
                            continue
                        if not part.startswith("nu("):
                            raise ProofSyntaxError(f"malformed projection entry {part!r}")
                        name, value = _entry(part, "nu(")
                        nu[name] = _int(value)
                elif stripped == "POLY":
                    kind = "poly"
                elif stripped == "ARGFUN+RPO":
                    kind = "rpo"
                elif stripped.startswith("J(") and kind == "poly":
                    name, body = _entry(stripped, "J(")
                    sym = table.lookup_symbol(name)
                    if sym is None:
                        raise ProofSyntaxError(f"unknown symbol in J({name})")
                    poly_assign[name] = parse_polyfun(body, sym)
                elif stripped.startswith("pi(") and kind == "rpo":
                    name, body = _entry(stripped, "pi(")
                    sym = table.lookup_symbol(name)
                    if sym is None:
                        raise ProofSyntaxError(f"unknown symbol in pi({name})")
                    pi_map[name] = parse_pi_template(body, sym, table)
                elif stripped.startswith("prec:") and kind == "rpo":
                    rest = stripped[5:]
                    if ">" not in rest:
                        raise ProofSyntaxError(f"malformed precedence line {stripped!r}")
                    a, b = rest.split(">", 1)
                    prec.append((a.strip(), b.strip()))
                elif stripped.startswith("strict?") or stripped.startswith("weak "):
                    pass  # informational constraint listing
                elif stripped.startswith("strict:"):
                    strict = _int_list(stripped[7:])
                elif stripped.startswith("removed:"):
                    removed = _int_list(stripped[8:])
                else:
                    raise ProofSyntaxError(f"unexpected proof line: {stripped!r}")
                j += 1
            i = j
            if kind == "subterm":
                cert = Projection(nu, strict)
                steps.append(SubtermStep(scc, cert, removed))
            elif kind == "poly":
                cert = PolyInterp(poly_assign, strict)
                steps.append(ReductionPairStep(scc, mode, cert, removed))
            elif kind == "rpo":
                cert = ArgFunRPO(pi_map, tuple(prec), strict)
                steps.append(ReductionPairStep(scc, mode, cert, removed))
            else:
                raise ProofSyntaxError("STEP block without a certificate")
            continue
        raise ProofSyntaxError(f"unexpected proof line: {line!r}")

    return Proof(verdict, steps, problem), mismatches


def check_proof_text(text: str, afs: AFS) -> list[str]:
    """Re-derive the problem from the AFS, parse the proof, and re-validate
    every step and certificate.  Returns the list of problems (empty = ok)."""
    prepared = classify(complete(afs))
    problem = dependency_pairs(prepared)
    try:
        proof, mismatches = parse_proof(text, problem)
    except (ProofSyntaxError, ParseError) as exc:
        return [f"proof does not parse: {exc}"]
    errors = list(mismatches)
    errors.extend(verify_proof(proof))
    return errors
