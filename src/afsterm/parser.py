"""Parser for the plain-text AFS format (SIG / VARS / RULES blocks).

The same tokenizer and term grammar are reused by the proof checker, which
must re-read marked (f#), tagged (f-) and fresh-constant (!c{type}) symbols.
"""

from __future__ import annotations

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
    kind: str   # IDENT, CONST, PUNCT, NEWLINE, EOF
    text: str
    line: int
    col: int


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789")
_IDENT_CONT = _IDENT_START | set("'")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def push(kind: str, s: str, l: int, c: int) -> None:
        tokens.append(Token(kind, s, l, c))

    while i < n:
        ch = text[i]
        if ch == "\n":
            push("NEWLINE", "\n", line, col)
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == "!" and text.startswith("!c{", i):
            start_l, start_c = line, col
            j = i + 3
            depth = 1
            while j < n and depth:
                if text[j] == "{":
                    depth += 1
                elif text[j] == "}":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError("unterminated !c{...} constant", line, col)
            push("CONST", text[i + 3:j - 1], start_l, start_c)
            col += j - i
            i = j
            continue
        if ch in _IDENT_START:
            start_l, start_c = line, col
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            # marked / tagged suffixes attach only directly after the name;
            # a filtered marked or tagged symbol's kept positions follow: f#'2
            if j < n and (text[j] == "#" or text[j] == "-" and not text.startswith("->", j)):
                j += 1
                if j < n and text[j] == "'":
                    while j < n and text[j] in _IDENT_CONT:
                        j += 1
            push("IDENT", text[i:j], start_l, start_c)
            col += j - i
            i = j
            continue
        if text.startswith("=>", i):
            push("PUNCT", "=>", line, col)
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            push("PUNCT", "->", line, col)
            i += 2
            col += 2
            continue
        if ch in "()[],:.\\@*>;=+":
            push("PUNCT", ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    push("EOF", "", line, col)
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, skip_newlines: bool = False) -> Token:
        pos = self.pos
        while skip_newlines and self.tokens[pos].kind == "NEWLINE":
            pos += 1
        return self.tokens[pos]

    def next(self, skip_newlines: bool = False) -> Token:
        while skip_newlines and self.tokens[self.pos].kind == "NEWLINE":
            self.pos += 1
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, text: str, skip_newlines: bool = False) -> Token:
        tok = self.next(skip_newlines)
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str, skip_newlines: bool = False) -> bool:
        return self.peek(skip_newlines).text == text


# type parsing ---------------------------------------------------------------


def parse_type(ts: TokenStream) -> SimpleType:
    left = _parse_type_atom(ts)
    if ts.at("->"):
        ts.next()
        return Arrow(left, parse_type(ts))
    return left


def _parse_type_atom(ts: TokenStream) -> SimpleType:
    tok = ts.peek()
    if tok.text == "(":
        ts.next()
        t = parse_type(ts)
        ts.expect(")")
        return t
    if tok.kind != "IDENT":
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)
    ts.next()
    return Base(tok.text)


def parse_type_text(text: str) -> SimpleType:
    ts = TokenStream(tokenize(text))
    t = parse_type(ts)
    tok = ts.next(skip_newlines=True)
    if tok.kind != "EOF":
        raise ParseError(f"trailing input after type: {tok.text!r}", tok.line, tok.col)
    return t


def parse_type_decl(ts: TokenStream) -> TypeDecl:
    if ts.at("["):
        ts.next()
        inputs = [parse_type(ts)]
        while ts.at("*"):
            ts.next()
            inputs.append(parse_type(ts))
        ts.expect("]")
        ts.expect("->")
        return TypeDecl(tuple(inputs), parse_type(ts))
    return TypeDecl((), parse_type(ts))


# term parsing ---------------------------------------------------------------


class SymbolTable:
    """Resolution context for term parsing: symbols and declared variables."""

    def __init__(self, symbols: dict[str, FunctionSymbol], variables: dict[str, Variable],
                 auto_symbols: bool = False):
        self.symbols = dict(symbols)
        self.variables = dict(variables)
        self.auto_symbols = auto_symbols  # checker mode: accept f#/f- for known f

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
            vtype = parse_type(ts)
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
        ts.next()
        return FunApp(fresh_const(parse_type_text(tok.text)))
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


def parse_term_text(text: str, table: SymbolTable) -> Term:
    ts = TokenStream(tokenize(text))
    t = parse_term(ts, table)
    tok = ts.next(skip_newlines=True)
    if tok.kind != "EOF":
        raise ParseError(f"trailing input after term: {tok.text!r}", tok.line, tok.col)
    return t


# AFS files ------------------------------------------------------------------


def parse_afs(text: str):
    """Parse and validate an AFS source file; returns a classified AFS."""
    from .afs import AFS, Rule, validate_rule, classify

    ts = TokenStream(tokenize(text))
    symbols: dict[str, FunctionSymbol] = {}
    variables: dict[str, Variable] = {}
    rules: list[Rule] = []
    section: Optional[str] = None

    while True:
        tok = ts.peek(skip_newlines=True)
        if tok.kind == "EOF":
            break
        if tok.text in ("SIG", "VARS", "RULES"):
            ts.next(skip_newlines=True)
            section = tok.text
            continue
        if section is None:
            raise ParseError("declarations must appear inside a SIG, VARS or RULES block",
                             tok.line, tok.col)
        if section == "SIG":
            name_tok = ts.next(skip_newlines=True)
            if name_tok.kind != "IDENT" or name_tok.text.endswith(("#", "-")):
                raise ParseError("expected a function symbol name", name_tok.line, name_tok.col)
            if name_tok.text in symbols:
                raise ParseError(f"duplicate symbol {name_tok.text}", name_tok.line, name_tok.col)
            ts.expect(":")
            decl = parse_type_decl(ts)
            symbols[name_tok.text] = FunctionSymbol(name_tok.text, decl, PLAIN)
        elif section == "VARS":
            name_tok = ts.next(skip_newlines=True)
            if name_tok.kind != "IDENT" or name_tok.text.endswith(("#", "-")):
                raise ParseError("expected a variable name", name_tok.line, name_tok.col)
            if name_tok.text in variables or name_tok.text in symbols:
                raise ParseError(f"duplicate name {name_tok.text}", name_tok.line, name_tok.col)
            ts.expect(":")
            variables[name_tok.text] = Variable(name_tok.text, parse_type(ts))
        else:  # RULES
            while ts.peek().kind == "NEWLINE":
                ts.next()
            table = SymbolTable(symbols, variables)
            line, col = tok.line, tok.col
            lhs = parse_term(ts, table)
            ts.expect("=>")
            rhs = parse_term(ts, table)
            rule = Rule(lhs, rhs, origin="user")
            validate_rule(rule, line, col)
            rules.append(rule)
        # each declaration or rule ends at the line break
        end = ts.peek()
        if end.kind not in ("NEWLINE", "EOF"):
            raise ParseError(f"unexpected {end.text!r} (one declaration per line)", end.line, end.col)

    afs = AFS(tuple(symbols.values()), tuple(rules))
    return classify(afs)
