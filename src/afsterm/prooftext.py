"""Stable textual proof format: rendering, parsing, and re-validation.

A proof file is the exact text `prove` prints.  Most of it follows from the
AFS: the preparation, the pair listing, the prune steps, each step's SCC
and mode, the `-v` constraint lines and the verdict.  `parse_proof` reads
only what does not: each STEP's certificate and `strict:` set, and each
GIVEUP's `tried:`, `reason:` and `loop:` lines.  The engine's
`verify_proof` re-derives the dependency pairs and the graph from the AFS
and replays them along the skeleton `prove` walks, re-checking every
certificate.  `check_proof_text` then renders the replayed proof and
requires the same lines, so every other line is held to what `prove`
prints without a check of its own.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Container, Iterator, Optional, Union

from .afs import AFS
from .afs import complete, classify  # noqa: F401  (perfbench's layer tracer looks them up here)
from .dp import DPProblem, dependency_pairs
from .engine import Certificate, Proof, Preparation, PruneStep, SubtermStep, GiveUp, verify_proof
from .orderings import Projection, PolyInterp
from .orderings import build_constraints  # noqa: F401  (perfbench's layer tracer wraps it here)
from .orderings.poly import (
    PolyFun, Expr, Const, SlotRef, AppSlot, Add, Mul, MaxE, expr_text,
    slot_types_for,
)
from .parser import (
    NAME_CHARS, ParseError, SymbolTable, at_line, column, expect, tokenize, parse_term,
    parse_term_text,
)
from .terms import (
    Arrow, FunctionSymbol, Variable, Term, term_text, TypeDecl, EXT,
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
            lines.append(f"  local: {'yes' if problem.afs.local else 'no'}")
            lines.append(f"  static-mode: {'yes' if problem.static_mode else 'no'}")
            lines.append(f"  rules: {len(problem.afs.rules)}")
            lines.append(f"  pairs: {len(problem.pairs)}")
            for i, p in enumerate(problem.pairs):
                lines.append(f"  pair {i}: {p}")
            # the walk builds the graph with every pair alive
            lines.append(f"  graph: {len(problem.pairs)} nodes, {step.edge_count} edges")
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
                lines.append(f"  mode: {step.cs.mode}")
                if verbosity >= 1:
                    for c in step.cs.strict_candidates:
                        lines.append(f"  strict? {term_text(c.lhs)} > {term_text(c.rhs)}")
                    for w in step.cs.weak:
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


def _parse_expr(tokens: list[str], i: int) -> tuple[Expr, int]:
    part, i = _parse_expr_mul(tokens, i)
    parts = [part]
    while tokens[i] == "+":
        part, i = _parse_expr_mul(tokens, i + 1)
        parts.append(part)
    return parts[0] if len(parts) == 1 else Add(tuple(parts)), i


def _parse_expr_mul(tokens: list[str], i: int) -> tuple[Expr, int]:
    part, i = _parse_expr_atom(tokens, i)
    parts = [part]
    while tokens[i] == "*":
        part, i = _parse_expr_atom(tokens, i + 1)
        parts.append(part)
    return parts[0] if len(parts) == 1 else Mul(tuple(parts)), i


def _parse_expr_args(tokens: list[str], i: int) -> tuple[tuple[Expr, ...], int]:
    arg, i = _parse_expr(tokens, expect(tokens, i, "("))
    args = [arg]
    while tokens[i] == ",":
        arg, i = _parse_expr(tokens, i + 1)
        args.append(arg)
    return tuple(args), expect(tokens, i, ")")


def _parse_expr_atom(tokens: list[str], i: int) -> tuple[Expr, int]:
    text = tokens[i]
    i += 1
    if text == "(":
        e, i = _parse_expr(tokens, i)
        return e, expect(tokens, i, ")")
    if text.isdigit() and text[:1] in NAME_CHARS:
        return Const(int(text)), i
    if text == "max":
        args, i = _parse_expr_args(tokens, i)
        return MaxE(args), i
    if text.startswith("x") and text[1:].isdigit():
        index = int(text[1:]) - 1
        if tokens[i] == "(":
            args, i = _parse_expr_args(tokens, i)
            return AppSlot(index, args), i
        return SlotRef(index), i
    raise ProofSyntaxError(f"cannot parse interpretation expression at {text!r}")


def parse_polyfun(text: str, sym: FunctionSymbol, number: int = 1, offset: int = 0) -> PolyFun:
    """Parse a template body, found on line `number` after `offset`
    columns; PolyFun rejects a body that is not well-formed over the
    symbol's slots."""
    tokens = tokenize(text)
    body, i = at_line(_parse_expr, tokens, 0, text, number, offset)
    if tokens[i]:
        column(text, number, offset, i)  # a bad character on the line comes first
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
    tokens = tokenize(text)
    for name in tokens:
        if "'" in name and name[:1] in NAME_CHARS and local.lookup_symbol(name) is None:
            _register_primed(name, local)
    t, i = at_line(parse_term, tokens, 0, text, number, offset, local)
    if tokens[i]:
        column(text, number, offset, i)  # a bad character on the line comes first
        raise ProofSyntaxError(f"trailing input in pi({sym.display})")
    return t


# proof parsing ---------------------------------------------------------------


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProofSyntaxError(f"not a number: {text.strip()!r}") from None


def _entry(line: str, prefix: str) -> tuple[str, str]:
    """Split `prefix(name) = value` into the name and the value."""
    name, close, rest = line[len(prefix):].partition(")")
    _, eq, value = rest.partition("=")
    if not close or not eq:
        raise ProofSyntaxError(f"malformed entry {line!r}")
    return name, value.strip()


def _blocks(lines: list[str], wanted: Container[str]) -> Iterator[tuple[str, list[tuple[int, str]]]]:
    """Each header line in `wanted` with its block: the indented lines
    after it, up to the first blank or unindented line, each with its line
    number and without trailing whitespace.  Blank lines are skipped, and
    so are the other blocks, whose lines are not listed."""
    i = 0
    while i < len(lines):
        header = lines[i].strip()
        i += 1
        if not header:
            continue
        start = i
        while i < len(lines) and lines[i].startswith(" ") and lines[i].strip():
            i += 1
        if header in wanted:
            yield header, [(n + 1, lines[n].rstrip()) for n in range(start, i)]


def _at(number: int, line: str, value: str) -> tuple[int, int]:
    """Where `value`, the end of `line`, starts: the line number and the
    columns before it."""
    return number, len(line) - len(value)


def _parse_step(block: list[tuple[int, str]],
                table: SymbolTable) -> Certificate:
    """A STEP block's certificate, with its `strict:` set."""
    strict = ""
    kind = None
    nu: dict[str, int] = {}
    assign: dict[str, PolyFun] = {}
    pi: dict[str, Term] = {}
    prec: list[tuple[str, str]] = []
    for number, raw in block:
        line = raw.strip()
        key, colon, value = line.partition(":")
        if colon and key == "strict":
            strict = value
        elif line.startswith("SUBTERM CRITERION") or line in ("POLY", "ARGFUN+RPO"):
            kind = {"POLY": "poly", "ARGFUN+RPO": "rpo"}.get(line, "subterm")
            entries = line[len("SUBTERM CRITERION"):] if kind == "subterm" else ""
            for part in entries.split(","):
                part = part.strip()
                if not part:
                    continue
                if not part.startswith("nu("):
                    raise ProofSyntaxError(f"malformed projection entry {part!r}")
                name, index = _entry(part, "nu(")
                nu[name] = _int(index)
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
    strict = tuple(_int(x) for x in strict.split())
    if kind == "subterm":
        return Projection(nu, strict)
    if kind == "poly":
        return PolyInterp(assign, strict)
    if kind == "rpo":
        from .orderings.rpo import ArgFunRPO
        return ArgFunRPO(pi, tuple(prec), strict)
    raise ProofSyntaxError("STEP block without a certificate")


def _parse_give_up(block: list[tuple[int, str]], table: SymbolTable) -> GiveUp:
    """A GIVEUP block's `tried:`, `reason:` and `loop:` lines, as a give-up
    on no SCC yet; each distinct loop line is parsed once.  The table's
    types are first seeded with the base types of its symbols, so that a
    loop term shares their `Base` objects; a proof without a GIVEUP does
    not collect them."""
    types = [t for f in table.symbols.values() for t in (*f.decl.inputs, f.decl.output)]
    while types:
        t = types.pop()
        if isinstance(t, Arrow):
            types += t.left, t.right
        else:
            table.types[t.name] = t
    tried, reason = "", ""
    terms: dict[str, Term] = {}
    loop = []
    for number, raw in block:
        key, _, value = raw.partition(":")
        key, value = key.strip(), value.strip()
        if key == "tried":
            tried = value
        elif key == "reason":
            reason = value
        elif key == "loop":
            if value not in terms:
                terms[value] = parse_term_text(value, table, *_at(number, raw, value))
            loop.append(terms[value])
    return GiveUp((), tuple(tried.split()), reason, tuple(loop))


def parse_proof(text: str, problem: DPProblem) -> list[Union[Certificate, GiveUp]]:
    """What a proof text of `problem` holds that the walk cannot derive, in
    order: each STEP block's certificate and each GIVEUP block's give-up
    (on no SCC yet).  `verify_proof` places them on their SCCs; every other
    line is left to `check_proof_text`, and a repeated line's last copy is
    read.  Raises ProofSyntaxError (or the term parser's ParseError) for a
    value that does not parse and for a STEP without a certificate."""
    table = SymbolTable({f.name: f for f in problem.afs.signature}, {}, auto_symbols=True)
    readers = {"STEP": _parse_step, "GIVEUP": _parse_give_up}
    given: list = []
    for header, block in _blocks(text.splitlines(), readers):
        given.append(readers[header](block, table))
    return given


def check_proof_text(text: str, afs: AFS) -> list[str]:
    """Re-derive the problem from the AFS, read the proof's certificates,
    replay them along the skeleton `prove` walks, and require the text to
    be the one `prove` prints for the replayed proof: at verbosity 1 if it
    lists constraints, else at 0.  Blank lines after END are ignored.
    Returns the list of problems (empty = ok)."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    verbosity = 1 if any(line.startswith("  strict? ") for line in lines) else 0
    try:  # a term the reader accepts can still be too deep for the walks
        problem = dependency_pairs(afs)
        try:
            given = parse_proof(text, problem)
        except (ProofSyntaxError, ParseError) as exc:
            return [f"proof does not parse: {exc}"]
        proof = verify_proof(problem, given)
        if isinstance(proof, str):
            return [proof]
        expected = render_proof(proof, verbosity).splitlines()
    except RecursionError:
        return ["term nested too deeply"]
    for number, (want, found) in enumerate(zip_longest(expected, lines, fillvalue=""), 1):
        if want != found:
            return [f"line {number} is not the text prove prints: "
                    f"expected {want!r}, found {found!r}"]
    return []
