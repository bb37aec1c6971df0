"""Stable textual proof format: rendering, parsing, and re-validation.

A proof file is the exact text `prove` prints.  `parse_proof` reads the step
skeleton and the certificates from it and raises on a text that does not
parse; the engine's `verify_proof` re-derives the dependency pairs and the
graph from the AFS and re-checks every step.  `check_proof_text` then
renders the parsed proof again and requires the same lines, so the pair
listing, the `-v` constraint lines and any repeated or missing line are
held to what `prove` prints without a check of their own.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterator, Optional, Union

from .afs import AFS
from .afs import complete, classify  # noqa: F401  (perfbench's layer tracer looks them up here)
from .dp import DPProblem, dependency_pairs
from .engine import (
    Proof, Preparation, PruneStep, SubtermStep, ReductionPairStep, GiveUp,
    verify_proof, YES, MAYBE,
)
from .orderings import Projection, PolyInterp, build_constraints
from .orderings.poly import (
    PolyFun, Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE, expr_text,
    slot_types_for,
)
from .parser import (
    ParseError, SymbolTable, Token, at_line, expect, tokenize, parse_term, parse_term_text,
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
        elif isinstance(step, GiveUp):
            lines.append("GIVEUP")
            lines.append("  scc: " + " ".join(map(str, step.scc)))
            lines.append(" ".join(("  tried:", *step.tried)))
            lines.append(f"  reason: {step.reason}")
            lines.extend(f"  loop: {term_text(t)}" for t in step.loop)
        else:
            lines.append("STEP")
            lines.append("  scc: " + " ".join(map(str, step.scc)))
            if isinstance(step, SubtermStep):
                nus = ", ".join(f"nu({name}) = {idx}" for name, idx in sorted(step.cert.nu.items()))
                lines.append(f"  SUBTERM CRITERION {nus}")
            else:
                lines.append(f"  mode: {step.mode}")
                if verbosity >= 1:
                    cs = build_constraints(step.scc, problem)
                    for c in cs.strict_candidates:
                        lines.append(f"  strict? {term_text(c.lhs)} > {term_text(c.rhs)}")
                    for w in cs.weak:
                        lines.append(f"  weak {term_text(w.lhs)} >= {term_text(w.rhs)} ({w.label})")
                cert = step.cert
                if isinstance(cert, PolyInterp):
                    lines.append("  POLY")
                    for name in sorted(cert.assign):
                        lines.append(f"    J({name}) = {expr_text(cert.assign[name].body)}")
                else:
                    lines.append("  ARGFUN+RPO")
                    for name in sorted(cert.pi):
                        lines.append(f"    pi({name}) = {term_text(cert.pi[name])}")
                    for a, b in cert.precedence:
                        lines.append(f"    prec: {a} > {b}")
            strict = " ".join(map(str, step.cert.strict))
            lines.append(f"  strict: {strict}")
            lines.append(f"  removed: {strict}")
    lines.append("END")
    return "\n".join(lines) + "\n"


# expression parsing ----------------------------------------------------------


def _parse_expr(tokens: list[Token], i: int) -> tuple[Expr, int]:
    part, i = _parse_expr_mul(tokens, i)
    parts = [part]
    while tokens[i][1] == "+":
        part, i = _parse_expr_mul(tokens, i + 1)
        parts.append(part)
    return parts[0] if len(parts) == 1 else Add(tuple(parts)), i


def _parse_expr_mul(tokens: list[Token], i: int) -> tuple[Expr, int]:
    part, i = _parse_expr_atom(tokens, i)
    parts = [part]
    while tokens[i][1] == "*":
        part, i = _parse_expr_atom(tokens, i + 1)
        parts.append(part)
    return parts[0] if len(parts) == 1 else Mul(tuple(parts)), i


def _parse_expr_args(tokens: list[Token], i: int) -> tuple[tuple[Expr, ...], int]:
    arg, i = _parse_expr(tokens, expect(tokens, i, "("))
    args = [arg]
    while tokens[i][1] == ",":
        arg, i = _parse_expr(tokens, i + 1)
        args.append(arg)
    return tuple(args), expect(tokens, i, ")")


def _parse_expr_atom(tokens: list[Token], i: int) -> tuple[Expr, int]:
    kind, text, _ = tokens[i]
    i += 1
    if text == "(":
        e, i = _parse_expr(tokens, i)
        return e, expect(tokens, i, ")")
    if kind == "IDENT" and text.isdigit():
        return Const(int(text)), i
    if kind == "IDENT" and text == "max":
        args, i = _parse_expr_args(tokens, i)
        return MaxE(args), i
    if kind == "IDENT" and text.startswith("x") and text[1:].isdigit():
        index = int(text[1:]) - 1
        if tokens[i][1] == "(":
            args, i = _parse_expr_args(tokens, i)
            return AppSlot(index, args), i
        return SlotRef(index), i
    raise ProofSyntaxError(f"cannot parse interpretation expression at {text!r}")


def parse_polyfun(text: str, sym: FunctionSymbol, number: int = 1, offset: int = 0) -> PolyFun:
    """Parse a template body, found on line `number` after `offset`
    columns; PolyFun rejects a body that is not well-formed over the
    symbol's slots."""
    tokens = tokenize(text, number, offset)
    body, i = at_line(_parse_expr, tokens, number)
    if tokens[i][0] != "EOF":
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


def parse_pi_template(text: str, sym: FunctionSymbol, table: SymbolTable,
                      number: int = 1, offset: int = 0) -> Term:
    slots = [Variable(f"x{i + 1}", ty) for i, ty in enumerate(sym.decl.inputs)]
    # a copy: _register_primed adds this template's primed names to it
    local = SymbolTable(dict(table.symbols), {v.name: v for v in slots}, auto_symbols=True)
    tokens = tokenize(text, number, offset)
    for kind, name, _ in tokens:
        if kind == "IDENT" and "'" in name and local.lookup_symbol(name) is None:
            _register_primed(name, local)
    t, i = at_line(parse_term, tokens, number, local)
    if tokens[i][0] != "EOF":
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


def _blocks(lines: list[str], i: int) -> Iterator[tuple[str, list[tuple[int, str]]]]:
    """From lines[i] on, each header line with its block: the indented
    lines after it, up to the first blank or unindented line, each with its
    line number and without trailing whitespace.  Blank lines are
    skipped."""
    while i < len(lines):
        header = lines[i].strip()
        i += 1
        if not header:
            continue
        start = i
        while i < len(lines) and lines[i].startswith(" ") and lines[i].strip():
            i += 1
        yield header, [(n + 1, lines[n].rstrip()) for n in range(start, i)]


def _at(number: int, line: str, value: str) -> tuple[int, int]:
    """Where `value`, the end of `line`, starts: the line number and the
    columns before it."""
    return number, len(line) - len(value)


# the `key:` lines `prove` prints in each block other than STEP; PREPARATION
# also prints one `pair N:` line per pair, and GIVEUP a `loop:` line per term
_KEYS = {"PREPARATION": ("local", "static-mode", "rules", "pairs", "graph"),
         "PRUNE": ("removed",), "GIVEUP": ("scc", "tried", "reason", "loop")}


def _entries(header: str, block: list[tuple[int, str]]) -> list[tuple[int, str, str, str]]:
    """The lines of a PREPARATION, PRUNE or GIVEUP block as (line number,
    line, key, value): only the keys `prove` prints there."""
    out = []
    for number, raw in block:
        key, colon, value = raw.partition(":")
        key = key.strip()
        if not colon or key not in _KEYS[header] and not (
                header == "PREPARATION" and key.startswith("pair ")):
            raise ProofSyntaxError(f"unexpected proof line: {raw.strip()!r}")
        out.append((number, raw, key, value.strip()))
    return out


def _parse_step(block: list[tuple[int, str]],
                table: SymbolTable) -> Union[SubtermStep, ReductionPairStep]:
    """A STEP block, read from the lines `prove` prints there; the
    `removed:`, `strict?` and `weak` lines add nothing to the step."""
    fields: dict[str, str] = {}  # scc, mode, strict and removed
    kind = None
    nu: dict[str, int] = {}
    assign: dict[str, PolyFun] = {}
    pi: dict[str, Term] = {}
    prec: list[tuple[str, str]] = []
    for number, raw in block:
        line = raw.strip()
        key, colon, value = line.partition(":")
        if colon and key in ("scc", "mode", "strict", "removed"):
            fields[key] = value
        elif line.startswith("SUBTERM CRITERION") or line in ("POLY", "ARGFUN+RPO"):
            kind = {"POLY": "poly", "ARGFUN+RPO": "rpo"}.get(line, "subterm")
            entries = line[len("SUBTERM CRITERION"):] if kind == "subterm" else ""
            for part in entries.split(","):
                part = part.strip()
                if not part:
                    continue
                if not part.startswith("nu("):
                    raise ProofSyntaxError(f"malformed projection entry {part!r}")
                name, number = _entry(part, "nu(")
                nu[name] = _int(number)
        elif line.startswith("J(") and kind == "poly":
            name, body = _entry(line, "J(")
            sym = table.lookup_symbol(name)
            if sym is None:
                raise ProofSyntaxError(f"unknown symbol in J({name})")
            assign[name] = parse_polyfun(body, sym, *_at(number, raw, body))
        elif line.startswith("pi(") and kind == "rpo":
            name, body = _entry(line, "pi(")
            sym = table.lookup_symbol(name)
            if sym is None:
                raise ProofSyntaxError(f"unknown symbol in pi({name})")
            pi[name] = parse_pi_template(body, sym, table, *_at(number, raw, body))
        elif colon and key == "prec" and kind == "rpo":
            if ">" not in value:
                raise ProofSyntaxError(f"malformed precedence line {line!r}")
            a, b = value.split(">", 1)
            prec.append((a.strip(), b.strip()))
        elif not (line.startswith("strict?") or line.startswith("weak ")):
            raise ProofSyntaxError(f"unexpected proof line: {line!r}")
    scc, strict = _int_list(fields.get("scc", "")), _int_list(fields.get("strict", ""))
    mode = fields.get("mode", "").strip()
    if kind == "subterm":
        return SubtermStep(scc, Projection(nu, strict))
    if kind == "poly":
        return ReductionPairStep(scc, mode, PolyInterp(assign, strict))
    if kind == "rpo":
        from .orderings.rpo import ArgFunRPO
        return ReductionPairStep(scc, mode, ArgFunRPO(pi, tuple(prec), strict))
    raise ProofSyntaxError("STEP block without a certificate")


def parse_proof(text: str, problem: DPProblem) -> Proof:
    """Parse a proof of `problem`.  Raises ProofSyntaxError (or the term
    parser's ParseError) for a text that does not parse, for a block line
    `prove` never prints there, and unless END is the last non-blank line.
    Where a line repeats, the last one wins; the lines that carry nothing
    the proof is built from are left to `check_proof_text`."""
    table = SymbolTable({f.name: f for f in problem.afs.signature}, {}, auto_symbols=True)
    lines = text.splitlines()
    if not lines or lines[0].strip() not in (YES, MAYBE):
        raise ProofSyntaxError("first line must be YES or MAYBE")
    last = max(n for n, line in enumerate(lines) if line.strip())
    if lines[last].strip() != "END":
        raise ProofSyntaxError("last line must be END")
    steps: list = []
    for header, block in _blocks(lines[:last], 1):
        if header == "STEP":
            steps.append(_parse_step(block, table))
            continue
        if header not in _KEYS:
            raise ProofSyntaxError(f"unexpected proof line: {header!r}")
        entries = _entries(header, block)
        fields = {key: value for _, _, key, value in entries}
        if header == "PREPARATION":
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
        elif header == "PRUNE":
            steps.append(PruneStep(_int_list(fields.get("removed", ""))))
        else:
            terms: dict[str, Term] = {}  # each distinct loop line is parsed once
            loop = []
            for number, raw, key, value in entries:
                if key == "loop":
                    if value not in terms:
                        terms[value] = parse_term_text(value, table, *_at(number, raw, value))
                    loop.append(terms[value])
            steps.append(GiveUp(_int_list(fields.get("scc", "")),
                                tuple(fields.get("tried", "").split()),
                                fields.get("reason", ""), tuple(loop)))

    return Proof(lines[0].strip(), steps, problem)


def check_proof_text(text: str, afs: AFS) -> list[str]:
    """Re-derive the problem from the AFS, parse the proof, re-validate
    every step and certificate, and require the text to be the one `prove`
    prints for the proof: at verbosity 1 if it lists constraints, else at
    0.  Blank lines after END are ignored.  Returns the list of problems
    (empty = ok)."""
    problem = dependency_pairs(afs)
    try:
        proof = parse_proof(text, problem)
    except (ProofSyntaxError, ParseError) as exc:
        return [f"proof does not parse: {exc}"]
    errors = verify_proof(proof)
    if errors:
        return errors
    given = text.splitlines()
    while not given[-1].strip():
        given.pop()
    verbosity = 1 if any(line.startswith("  strict? ") for line in given) else 0
    expected = render_proof(proof, verbosity).splitlines()
    for number, (want, found) in enumerate(zip_longest(expected, given, fillvalue=""), 1):
        if want != found:
            return [f"line {number} is not the text prove prints: "
                    f"expected {want!r}, found {found!r}"]
    return []
