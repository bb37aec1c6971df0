"""Parser for the plain-text AFS format (SIG / VARS / RULES blocks).

Both text formats are line-based: `tokenize` scans one line with one regular
expression, and `parse_afs` reads a file line by line, one declaration or
rule per line.  The same tokenizer and term grammar are reused by the proof
checker, which must re-read marked (f#), tagged (f-) and fresh-constant
(!c{type}) symbols; a fresh constant may only occur in proofs.
"""

from __future__ import annotations

import re

from .record import record
from typing import Optional

from .terms import (
    Arrow, Base, SimpleType, TypeDecl, FunctionSymbol, Variable,
    Term, Var, FunApp, App, lam,
    PLAIN, MARKED, TAGGED, fresh_const,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


@record(frozen=False)
class Token:
    kind: str   # IDENT, CONST, PUNCT, EOF
    text: str
    line: int
    col: int


# whitespace and comments match no named group; a marked or tagged name may
# carry a filtered symbol's kept positions: f#'2, f-'12
_TOKEN = re.compile(r"""
    [ \t\r]+ | \#.*
  | !c\{(?P<CONST>[^{}]*)\}
  | (?P<IDENT>[A-Za-z0-9_][A-Za-z0-9_']*(?:(?:\#|-(?!>))(?:'[A-Za-z0-9_']*)?)?)
  | (?P<PUNCT>=>|->|[()\[\],:.\\@*>;=+])
""", re.VERBOSE)


def tokenize(line: str, number: int = 1, offset: int = 0) -> list[Token]:
    """The tokens of one line, then an EOF token at the line's end.  `line`
    is the text of line `number` after its first `offset` columns."""
    tokens: list[Token] = []
    pos, end = 0, len(line)
    while pos < end:
        m = _TOKEN.match(line, pos)
        if m is None:
            message = ("unterminated !c{...} constant" if line.startswith("!c{", pos)
                       else f"unexpected character {line[pos]!r}")
            raise ParseError(message, number, offset + pos + 1)
        kind = m.lastgroup
        if kind:
            tokens.append(Token(kind, m[kind], number, offset + pos + 1))
        pos = m.end()
    tokens.append(Token("EOF", "", number, offset + end + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def end(self, what: str) -> None:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            raise ParseError(f"trailing input after {what}: {tok.text!r}", tok.line, tok.col)


# type parsing ---------------------------------------------------------------


def parse_type(ts: TokenStream, types: dict[str, Base]) -> SimpleType:
    """A type; each base type name is looked up in, or added to, `types`,
    so that one parse builds one `Base` per name."""
    left = _parse_type_atom(ts, types)
    if ts.at("->"):
        ts.next()
        return Arrow(left, parse_type(ts, types))
    return left


def _parse_type_atom(ts: TokenStream, types: dict[str, Base]) -> SimpleType:
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        t = parse_type(ts, types)
        ts.expect(")")
        return t
    if tok.kind != "IDENT":
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)
    ts.next()
    base = types.get(tok.text)
    if base is None:
        base = types[tok.text] = Base(tok.text)
    return base


def parse_type_text(text: str, types: dict[str, Base], number: int = 1,
                    offset: int = 0) -> SimpleType:
    ts = TokenStream(tokenize(text, number, offset))
    t = parse_type(ts, types)
    ts.end("type")
    return t


def parse_type_decl(ts: TokenStream, types: dict[str, Base]) -> TypeDecl:
    if ts.at("["):
        ts.next()
        inputs = [parse_type(ts, types)]
        while ts.at("*"):
            ts.next()
            inputs.append(parse_type(ts, types))
        ts.expect("]")
        ts.expect("->")
        return TypeDecl(tuple(inputs), parse_type(ts, types))
    return TypeDecl((), parse_type(ts, types))


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


def parse_term(ts: TokenStream, table: SymbolTable,
               bound: Optional[dict[str, Variable]] = None) -> Term:
    bound = bound or {}
    term = _parse_term_atom(ts, table, bound)
    while ts.at("@"):
        ts.next()
        term = App(term, _parse_term_atom(ts, table, bound))
    return term


def _parse_term_atom(ts: TokenStream, table: SymbolTable, bound: dict[str, Variable]) -> Term:
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        t = parse_term(ts, table, bound)
        ts.expect(")")
        return t
    if tok.text == "\\":
        ts.next()
        name_tok = ts.next()
        if name_tok.kind != "IDENT":
            raise ParseError("expected a bound variable name", name_tok.line, name_tok.col)
        if ts.at(":"):
            ts.next()
            vtype = parse_type(ts, table.types)
        else:
            var = table.variables.get(name_tok.text)
            if var is None:
                raise ParseError(
                    f"bound variable {name_tok.text} needs a type annotation or a VARS entry",
                    name_tok.line, name_tok.col)
            vtype = var.type
        ts.expect(".")
        x = Variable(name_tok.text, vtype)
        inner = dict(bound)
        inner[x.name] = x
        body = parse_term(ts, table, inner)
        return lam(x, body)
    if tok.kind == "CONST":
        if not table.auto_symbols:
            raise ParseError(f"!c{{{tok.text}}} may only occur in proofs", tok.line, tok.col)
        ts.next()
        # the type starts after the three characters of "!c{"
        return FunApp(fresh_const(parse_type_text(tok.text, table.types, tok.line, tok.col + 2)))
    if tok.kind != "IDENT":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
    ts.next()
    name = tok.text
    if name in bound:
        return Var(bound[name])
    sym = table.lookup_symbol(name)
    if sym is not None:
        if sym.decl.arity == 0:
            if ts.at("("):
                raise ParseError(f"symbol {name} takes no arguments", tok.line, tok.col)
            return FunApp(sym)
        ts.expect("(")
        args = [parse_term(ts, table, bound)]
        while ts.at(","):
            ts.next()
            args.append(parse_term(ts, table, bound))
        ts.expect(")")
        if len(args) != sym.decl.arity:
            raise ParseError(
                f"symbol {name} expects {sym.decl.arity} arguments, got {len(args)}",
                tok.line, tok.col)
        return FunApp(sym, tuple(args))
    if name in table.variables:
        return Var(table.variables[name])
    raise ParseError(f"unknown identifier {name!r} (not in SIG or VARS)", tok.line, tok.col)


def parse_term_text(text: str, table: SymbolTable, number: int = 1, offset: int = 0) -> Term:
    ts = TokenStream(tokenize(text, number, offset))
    t = parse_term(ts, table)
    ts.end("term")
    return t


# AFS files ------------------------------------------------------------------


def parse_afs(text: str):
    """Parse and validate an AFS source file, one line at a time, into an
    AFS.  A rule sees the symbols and variables declared above it, and all
    of them share one `Base` per type name."""
    from .afs import AFS, Rule, validate_rule

    symbols: dict[str, FunctionSymbol] = {}
    variables: dict[str, Variable] = {}
    table = SymbolTable(symbols, variables)
    rules: list[Rule] = []
    section: Optional[str] = None

    for number, line in enumerate(text.split("\n"), 1):
        ts = TokenStream(tokenize(line, number))
        while (tok := ts.peek()).kind == "IDENT" and tok.text in ("SIG", "VARS", "RULES"):
            section = ts.next().text
        if tok.kind == "EOF":
            continue
        if section is None:
            raise ParseError("declarations must appear inside a SIG, VARS or RULES block",
                             tok.line, tok.col)
        if section == "RULES":
            lhs = parse_term(ts, table)
            ts.expect("=>")
            rule = Rule(lhs, parse_term(ts, table), origin="user")
            validate_rule(rule, tok.line, tok.col)
            rules.append(rule)
        else:
            sig = section == "SIG"
            ts.next()
            if tok.kind != "IDENT" or tok.text.endswith(("#", "-")):
                raise ParseError(f"expected a {'function symbol' if sig else 'variable'} name",
                                 tok.line, tok.col)
            if tok.text in symbols or tok.text in variables:
                what = "symbol" if sig and tok.text in symbols else "name"
                raise ParseError(f"duplicate {what} {tok.text}", tok.line, tok.col)
            ts.expect(":")
            if sig:
                decl = parse_type_decl(ts, table.types)
                symbols[tok.text] = FunctionSymbol(tok.text, decl, PLAIN)
            else:
                variables[tok.text] = Variable(tok.text, parse_type(ts, table.types))
        end = ts.peek()
        if end.kind != "EOF":
            raise ParseError(f"unexpected {end.text!r} (one declaration per line)", end.line, end.col)

    return AFS(tuple(symbols.values()), tuple(rules))
