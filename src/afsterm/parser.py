"""Parser for the plain-text AFS format (SIG / VARS / RULES blocks).

Both text formats are line-based: `tokenize` scans one line with one
`findall` pass of one regular expression into plain `(kind, text, col)`
tuples, and `parse_afs` reads a file line by line, one declaration or rule
per line.  The grammar reads a line's token list by index: each function
takes the index of its first token and returns what it read with the index
after it.  A token carries no line number: the grammar raises its errors
at line 0, and the reader of the line, which knows the number, raises them
again at that line (`at_line`).  The same tokenizer and term grammar are
reused by the proof checker, which must re-read marked (f#), tagged (f-)
and fresh-constant (!c{type}) symbols; a fresh constant may only occur in
proofs.
"""

from __future__ import annotations

import re

from typing import Callable, Optional

from .terms import (
    Arrow, Base, SimpleType, TypeDecl, FunctionSymbol, Variable,
    Term, Var, FunApp, App, IllTyped, lam,
    PLAIN, MARKED, TAGGED, fresh_const,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# A token is a (kind, text, col) tuple; kind is IDENT, CONST, PUNCT or EOF.
Token = tuple[str, str, int]

# One match per token, run of spaces or comment; its groups are, in order,
# SKIP (spaces and a comment), CONST, IDENT, PUNCT and ERROR, any other
# character, so the matches cover the line and each token's column is the
# sum of the lengths before it.  A marked or tagged name may carry a
# filtered symbol's kept positions: f#'2, f-'12.
_TOKEN = re.compile(r"""
    ([ \t\r]+ | \#.*)
  | !c\{([^{}]*)\}
  | ([A-Za-z0-9_][A-Za-z0-9_']*(?:(?:\#|-(?!>))(?:'[A-Za-z0-9_']*)?)?)
  | (=>|->|[()\[\],:.\\@*>;=+])
  | ((?s:.))
""", re.VERBOSE)


def tokenize(line: str, number: int = 1, offset: int = 0) -> list[Token]:
    """The tokens of one line, then an EOF token at the line's end.  `line`
    is the text of line `number` after its first `offset` columns; a
    column counts from 1 at the start of the line.  `findall` builds no
    match object per token."""
    tokens: list[Token] = []
    col = offset + 1
    for skip, const, ident, punct, error in _TOKEN.findall(line):
        if ident:
            tokens.append(("IDENT", ident, col))
            col += len(ident)
        elif punct:
            tokens.append(("PUNCT", punct, col))
            col += len(punct)
        elif skip:
            col += len(skip)
        elif error:
            message = ("unterminated !c{...} constant" if line.startswith("!c{", col - offset - 1)
                       else f"unexpected character {error!r}")
            raise ParseError(message, number, col)
        else:  # a fresh constant !c{...}, the one match left; its type may be empty
            tokens.append(("CONST", const, col))
            col += len(const) + 4
    tokens.append(("EOF", "", offset + len(line) + 1))
    return tokens


def expect(tokens: list[Token], i: int, text: str) -> int:
    """The index after tokens[i], which must read `text`."""
    found = tokens[i]
    if found[1] != text:
        raise ParseError(f"expected {text!r}, found {found[1]!r}", 0, found[2])
    return i + 1


def at_line(parse: Callable, tokens: list[Token], number: int, *args):
    """`parse(tokens, 0, *args)` on the tokens of line `number`: what it
    read and the index after it.  A grammar error is raised at that line."""
    try:
        return parse(tokens, 0, *args)
    except ParseError as exc:
        raise ParseError(exc.message, number, exc.col) from None


def _end(tokens: list[Token], i: int, number: int, what: str) -> None:
    kind, text, col = tokens[i]
    if kind != "EOF":
        raise ParseError(f"trailing input after {what}: {text!r}", number, col)


# type parsing ---------------------------------------------------------------


def parse_type(tokens: list[Token], i: int, types: dict[str, Base]) -> tuple[SimpleType, int]:
    """A type; each base type name is looked up in, or added to, `types`,
    so that one parse builds one `Base` per name."""
    left, i = _parse_type_atom(tokens, i, types)
    if tokens[i][1] == "->":
        right, i = parse_type(tokens, i + 1, types)
        return Arrow(left, right), i
    return left, i


def _parse_type_atom(tokens: list[Token], i: int,
                     types: dict[str, Base]) -> tuple[SimpleType, int]:
    kind, text, col = tokens[i]
    if text == "(":
        t, i = parse_type(tokens, i + 1, types)
        return t, expect(tokens, i, ")")
    if kind != "IDENT":
        raise ParseError(f"expected a type, found {text!r}", 0, col)
    base = types.get(text)
    if base is None:
        base = types[text] = Base(text)
    return base, i + 1


def parse_type_text(text: str, types: dict[str, Base], number: int = 1,
                    offset: int = 0) -> SimpleType:
    tokens = tokenize(text, number, offset)
    t, i = at_line(parse_type, tokens, number, types)
    _end(tokens, i, number, "type")
    return t


def parse_type_decl(tokens: list[Token], i: int,
                    types: dict[str, Base]) -> tuple[TypeDecl, int]:
    if tokens[i][1] == "[":
        t, i = parse_type(tokens, i + 1, types)
        inputs = [t]
        while tokens[i][1] == "*":
            t, i = parse_type(tokens, i + 1, types)
            inputs.append(t)
        output, i = parse_type(tokens, expect(tokens, expect(tokens, i, "]"), "->"), types)
        return TypeDecl(tuple(inputs), output), i
    output, i = parse_type(tokens, i, types)
    return TypeDecl((), output), i


# term parsing ---------------------------------------------------------------


class SymbolTable:
    """Resolution context for term parsing: symbols and declared variables,
    read from the given dicts, not from copies, and the base types built so
    far, one per name."""

    def __init__(self, symbols: dict[str, FunctionSymbol], variables: dict[str, Variable],
                 auto_symbols: bool = False):
        self.symbols = symbols
        self.variables = variables
        self.types: dict[str, Base] = {}
        self.auto_symbols = auto_symbols  # checker mode: accept f#/f- for known f, and !c{type}

    def lookup_symbol(self, name: str) -> Optional[FunctionSymbol]:
        sym = self.symbols.get(name)
        if sym is not None or not self.auto_symbols:
            return sym
        if name.endswith("#") and name[:-1] in self.symbols:
            base = self.symbols[name[:-1]]
            return FunctionSymbol(base.name, base.decl, MARKED)
        if name.endswith("-") and name[:-1] in self.symbols:
            base = self.symbols[name[:-1]]
            return FunctionSymbol(base.name, base.decl, TAGGED)
        return None


def parse_term(tokens: list[Token], i: int, table: SymbolTable,
               bound: Optional[dict[str, Variable]] = None) -> tuple[Term, int]:
    bound = bound or {}
    term, i = _parse_term_atom(tokens, i, table, bound)
    while tokens[i][1] == "@":
        arg, i = _parse_term_atom(tokens, i + 1, table, bound)
        term = App(term, arg)
    return term, i


def _parse_term_atom(tokens: list[Token], i: int, table: SymbolTable,
                     bound: dict[str, Variable]) -> tuple[Term, int]:
    kind, name, col = tokens[i]
    if kind == "IDENT":
        i += 1
        if name in bound:
            return Var(bound[name]), i
        sym = table.symbols.get(name)
        if sym is None and table.auto_symbols:
            sym = table.lookup_symbol(name)
        if sym is not None:
            arity = len(sym.decl.inputs)
            if not arity:
                if tokens[i][1] == "(":
                    raise ParseError(f"symbol {name} takes no arguments", 0, col)
                return FunApp(sym), i
            arg, i = parse_term(tokens, expect(tokens, i, "("), table, bound)
            args = [arg]
            while tokens[i][1] == ",":
                arg, i = parse_term(tokens, i + 1, table, bound)
                args.append(arg)
            i = expect(tokens, i, ")")
            if len(args) != arity:
                raise ParseError(f"symbol {name} expects {arity} arguments, got {len(args)}",
                                 0, col)
            return FunApp(sym, tuple(args)), i
        var = table.variables.get(name)
        if var is not None:
            return Var(var), i
        raise ParseError(f"unknown identifier {name!r} (not in SIG or VARS)", 0, col)
    if name == "(":
        t, i = parse_term(tokens, i + 1, table, bound)
        return t, expect(tokens, i, ")")
    if name == "\\":
        kind, x, x_col = tokens[i + 1]
        if kind != "IDENT":
            raise ParseError("expected a bound variable name", 0, x_col)
        i += 2
        if tokens[i][1] == ":":
            vtype, i = parse_type(tokens, i + 1, table.types)
        else:
            var = table.variables.get(x)
            if var is None:
                raise ParseError(f"bound variable {x} needs a type annotation or a VARS entry",
                                 0, x_col)
            vtype = var.type
        v = Variable(x, vtype)
        body, i = parse_term(tokens, expect(tokens, i, "."), table, {**bound, x: v})
        return lam(v, body), i
    if kind == "CONST":
        if not table.auto_symbols:
            raise ParseError(f"!c{{{name}}} may only occur in proofs", 0, col)
        # the type starts after the three characters of "!c{"
        return FunApp(fresh_const(parse_type_text(name, table.types, 0, col + 2))), i + 1
    raise ParseError(f"expected a term, found {name!r}", 0, col)


def parse_term_text(text: str, table: SymbolTable, number: int = 1, offset: int = 0) -> Term:
    tokens = tokenize(text, number, offset)
    t, i = at_line(parse_term, tokens, number, table)
    _end(tokens, i, number, "term")
    return t


# AFS files ------------------------------------------------------------------


def parse_afs(text: str):
    """Parse and validate an AFS source file, one line at a time, into an
    AFS.  A rule sees the symbols and variables declared above it, and all
    of them share one `Base` per type name."""
    from .afs import AFS, IllegalLhs, Rule, validate_rule

    symbols: dict[str, FunctionSymbol] = {}
    variables: dict[str, Variable] = {}
    table = SymbolTable(symbols, variables)
    types = table.types
    rules: list[Rule] = []
    section: Optional[str] = None

    number = 0
    try:
        for number, line in enumerate(text.split("\n"), 1):
            tokens = tokenize(line, number)
            i = 0
            while tokens[i][0] == "IDENT" and tokens[i][1] in ("SIG", "VARS", "RULES"):
                section = tokens[i][1]
                i += 1
            kind, name, col = tokens[i]
            if kind == "EOF":
                continue
            if section is None:
                raise ParseError("declarations must appear inside a SIG, VARS or RULES block",
                                 number, col)
            if section == "RULES":
                lhs, i = parse_term(tokens, i, table)
                rhs, i = parse_term(tokens, expect(tokens, i, "=>"), table)
                rule = Rule(lhs, rhs, origin="user")
                try:
                    validate_rule(rule)
                except (IllegalLhs, IllTyped) as exc:
                    exc.args = (f"{number}:{col}: {exc}",)  # the rule's position, as in a ParseError
                    raise
                rules.append(rule)
            else:
                sig = section == "SIG"
                if kind != "IDENT" or name.endswith(("#", "-")):
                    raise ParseError(
                        f"expected a {'function symbol' if sig else 'variable'} name", number, col)
                if name in symbols or name in variables:
                    what = "symbol" if sig and name in symbols else "name"
                    raise ParseError(f"duplicate {what} {name}", number, col)
                i = expect(tokens, i + 1, ":")
                if sig:
                    decl, i = parse_type_decl(tokens, i, types)
                    symbols[name] = FunctionSymbol(name, decl, PLAIN)
                else:
                    vtype, i = parse_type(tokens, i, types)
                    variables[name] = Variable(name, vtype)
            kind, rest, col = tokens[i]
            if kind != "EOF":
                raise ParseError(f"unexpected {rest!r} (one declaration per line)", number, col)
    except ParseError as exc:
        raise ParseError(exc.message, number, exc.col) from None

    return AFS(tuple(symbols.values()), tuple(rules))
