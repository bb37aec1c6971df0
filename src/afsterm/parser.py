"""Parser for the plain-text AFS format (SIG / VARS / RULES blocks).

Both text formats are line-based: `tokenize` splits one line into its
tokens, plain strings, with one `findall` of one regular expression, and
`parse_afs` reads a file line by line, one declaration or rule per line.
The grammar reads a line's token list by index: each function takes the
index of its first token and returns what it read with the index after
it.  A token knows neither its line nor its column, and a line that reads
works out neither: the grammar raises its errors at a token's index, and
`at_line`, which runs the grammar on a line, maps the index to a column
(`column`) only when the line fails.  That second scan also finds the
line's first bad character, which is the error of any line that has one.
The same tokenizer and term grammar are reused by the proof checker, which
must re-read marked (f#), tagged (f-) and fresh-constant (!c{type})
symbols; a fresh constant may only occur in proofs.

One parse builds each leaf once, as it builds one `Base` per type name:
its `SymbolTable` keeps one node per declared variable and nullary symbol,
so every occurrence outside a binder is the same object, which `==` and
`hash` answer at once.  A binder's own variable is a fresh `Var` at each
occurrence, because `lam` replaces it by an index.
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
    """An error at column `col` of line `line`.  The grammar, which knows no
    line, raises its errors at line 0 and at a token's index instead of a
    column, `shift` columns into that token, and `at_line` raises them again
    at the line and column."""

    shift = 0

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# One match per token: a fresh constant, a name, a punctuation mark, a
# comment, or any other single character but a space, tab or carriage
# return, which is a bad one.  A marked or tagged name may carry a filtered
# symbol's kept positions: f#'2, f-'12.
_TOKEN = re.compile(r"""
    !c\{[^{}]*\}
  | [A-Za-z0-9_][A-Za-z0-9_']*(?:(?:\#|-(?!>))(?:'[A-Za-z0-9_']*)?)?
  | => | -> | [()\[\],:.\\@*>;=+]
  | \#.*
  | [^ \t\r]
""", re.VERBOSE)

# A token is a name if its first character is one of these: not
# `str.isalnum`, which accepts letters outside ASCII.
NAME_CHARS = frozenset("_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# the one-character tokens that are not bad characters
_SOLO = NAME_CHARS | frozenset("()[],:.\\@*>;=+#")


def tokenize(line: str) -> list[str]:
    """The tokens of one line, then "" for its end, which a comment at the
    end becomes.  Spaces, tabs and carriage returns are no token."""
    tokens = _TOKEN.findall(line)
    if tokens and tokens[-1][0] == "#":
        tokens[-1] = ""
    else:
        tokens.append("")
    return tokens


def column(line: str, number: int, offset: int, index: int) -> int:
    """The column of token `index` of `line`, the text of line `number`
    after its first `offset` columns; a column counts from 1 at the start
    of the line, and the end of the line is one past its last character.
    Scanning the line once more, it raises the line's first bad character
    instead if it has one: that is the error of any line that fails."""
    starts = []
    for match in _TOKEN.finditer(line):
        text, start = match.group(), match.start()
        if len(text) == 1 and text not in _SOLO:
            message = ("unterminated !c{...} constant" if line.startswith("!c{", start)
                       else f"unexpected character {text!r}")
            raise ParseError(message, number, offset + start + 1)
        starts.append(len(line) if text[0] == "#" else start)
    starts.append(len(line))
    return offset + starts[index] + 1


def expect(tokens: list[str], i: int, text: str) -> int:
    """The index after tokens[i], which must read `text`."""
    if tokens[i] != text:
        raise ParseError(f"expected {text!r}, found {tokens[i]!r}", 0, i)
    return i + 1


def at_line(parse: Callable, tokens: list[str], i: int, line: str, number: int,
            offset: int, *args):
    """`parse(tokens, i, *args)` on the tokens of `line`, the text of line
    `number` after its first `offset` columns: what it read.  If the line
    fails, a grammar error is raised at its token's column, a term nested
    too deeply for the interpreter's stack at token i's, and any other
    exception as it is, but a bad character on the line comes first."""
    try:
        return parse(tokens, i, *args)
    except ParseError as exc:
        col = column(line, number, offset, exc.col) + exc.shift
        raise ParseError(exc.message, number, col) from None
    except RecursionError:
        raise ParseError("term nested too deeply", number,
                         column(line, number, offset, i)) from None
    except Exception:
        column(line, number, offset, i)
        raise


def _read(parse: Callable, what: str, text: str, number: int, offset: int, *args):
    """What `parse` reads from all of `text`, the text of line `number`
    after its first `offset` columns."""
    tokens = tokenize(text)
    value, i = at_line(parse, tokens, 0, text, number, offset, *args)
    if tokens[i]:
        raise ParseError(f"trailing input after {what}: {tokens[i]!r}", number,
                         column(text, number, offset, i))
    return value


# type parsing ---------------------------------------------------------------


def parse_type(tokens: list[str], i: int, types: dict[str, Base]) -> tuple[SimpleType, int]:
    """A type; each base type name is looked up in, or added to, `types`,
    so that one parse builds one `Base` per name."""
    left, i = _parse_type_atom(tokens, i, types)
    if tokens[i] == "->":
        right, i = parse_type(tokens, i + 1, types)
        return Arrow(left, right), i
    return left, i


def _parse_type_atom(tokens: list[str], i: int,
                     types: dict[str, Base]) -> tuple[SimpleType, int]:
    text = tokens[i]
    if text == "(":
        t, i = parse_type(tokens, i + 1, types)
        return t, expect(tokens, i, ")")
    if text[:1] not in NAME_CHARS:
        raise ParseError(f"expected a type, found {text!r}", 0, i)
    base = types.get(text)
    if base is None:
        base = types[text] = Base(text)
    return base, i + 1


def parse_type_decl(tokens: list[str], i: int,
                    types: dict[str, Base]) -> tuple[TypeDecl, int]:
    inputs = []
    if tokens[i] == "[":
        t, i = parse_type(tokens, i + 1, types)
        inputs.append(t)
        while tokens[i] == "*":
            t, i = parse_type(tokens, i + 1, types)
            inputs.append(t)
        i = expect(tokens, expect(tokens, i, "]"), "->")
    output, i = parse_type(tokens, i, types)
    return TypeDecl(tuple(inputs), output), i


# term parsing ---------------------------------------------------------------


class SymbolTable:
    """Resolution context for term parsing: symbols and declared variables,
    read from the given dicts, not from copies, and what one parse builds
    once per name: the base types (`types`) and the leaves, the node of each
    declared variable and nullary symbol read so far (`leaves`)."""

    def __init__(self, symbols: dict[str, FunctionSymbol], variables: dict[str, Variable],
                 auto_symbols: bool = False):
        self.symbols = symbols
        self.variables = variables
        self.types: dict[str, Base] = {}
        self.leaves: dict[str, Term] = {}
        self.auto_symbols = auto_symbols  # checker mode: accept f#/f- for known f, and !c{type}

    def lookup_symbol(self, name: str) -> Optional[FunctionSymbol]:
        """The symbol of `name`; in checker mode the marked or tagged symbol
        of a known f is built once and then kept among the symbols."""
        sym = self.symbols.get(name)
        if sym is not None or not self.auto_symbols:
            return sym
        kind = {"#": MARKED, "-": TAGGED}.get(name[-1:])
        base = self.symbols.get(name[:-1]) if kind else None
        if base is None:
            return None
        sym = self.symbols[name] = FunctionSymbol(base.name, base.decl, kind)
        return sym


def parse_term(tokens: list[str], i: int, table: SymbolTable,
               bound: Optional[dict[str, Variable]] = None) -> tuple[Term, int]:
    bound = bound or {}
    term, i = _parse_term_atom(tokens, i, table, bound)
    while tokens[i] == "@":
        arg, i = _parse_term_atom(tokens, i + 1, table, bound)
        term = App(term, arg)
    return term, i


def _parse_term_atom(tokens: list[str], i: int, table: SymbolTable,
                     bound: dict[str, Variable]) -> tuple[Term, int]:
    name = tokens[i]
    if name[:1] in NAME_CHARS:
        at = i
        i += 1
        if name in bound:
            return Var(bound[name]), i
        leaf = table.leaves.get(name)
        if leaf is not None and tokens[i] != "(":
            return leaf, i
        sym = table.symbols.get(name)
        if sym is None and table.auto_symbols:
            sym = table.lookup_symbol(name)
        if sym is not None:
            arity = len(sym.decl.inputs)
            if not arity:
                if tokens[i] == "(":
                    raise ParseError(f"symbol {name} takes no arguments", 0, at)
                leaf = table.leaves[name] = FunApp(sym)
                return leaf, i
            arg, i = parse_term(tokens, expect(tokens, i, "("), table, bound)
            args = [arg]
            while tokens[i] == ",":
                arg, i = parse_term(tokens, i + 1, table, bound)
                args.append(arg)
            i = expect(tokens, i, ")")
            if len(args) != arity:
                raise ParseError(f"symbol {name} expects {arity} arguments, got {len(args)}",
                                 0, at)
            return FunApp(sym, tuple(args)), i
        var = table.variables.get(name)
        if var is not None:
            leaf = table.leaves[name] = Var(var)
            return leaf, i
        raise ParseError(f"unknown identifier {name!r} (not in SIG or VARS)", 0, at)
    if name == "(":
        t, i = parse_term(tokens, i + 1, table, bound)
        return t, expect(tokens, i, ")")
    if name == "\\":
        x = tokens[i + 1]
        if x[:1] not in NAME_CHARS:
            raise ParseError("expected a bound variable name", 0, i + 1)
        if tokens[i + 2] == ":":
            vtype, i = parse_type(tokens, i + 3, table.types)
        else:
            var = table.variables.get(x)
            if var is None:
                raise ParseError(f"bound variable {x} needs a type annotation or a VARS entry",
                                 0, i + 1)
            vtype = var.type
            i += 2
        v = Variable(x, vtype)
        body, i = parse_term(tokens, expect(tokens, i, "."), table, {**bound, x: v})
        return lam(v, body), i
    if name.startswith("!c{"):
        if not table.auto_symbols:
            raise ParseError(f"{name} may only occur in proofs", 0, i)
        try:
            ctype = _read(parse_type, "type", name[3:-1], 1, 0, table.types)
        except ParseError as exc:
            error = ParseError(exc.message, 0, i)
            error.shift = exc.col + 2  # the type starts after the three characters of "!c{"
            raise error from None
        return FunApp(fresh_const(ctype)), i + 1
    raise ParseError(f"expected a term, found {name!r}", 0, i)


def parse_term_text(text: str, table: SymbolTable, number: int = 1, offset: int = 0) -> Term:
    return _read(parse_term, "term", text, number, offset, table)


# AFS files ------------------------------------------------------------------


def parse_afs(text: str):
    """Read an AFS source file, one line at a time, into an AFS, which checks
    its rules, each reported at its line and first token if rejected.  A
    rule sees the symbols and variables declared above it, and all of them
    share one `Base` per type name and one node per leaf.  The first error
    in line order wins."""
    from .afs import AFS, IllegalLhs, Rule

    symbols: dict[str, FunctionSymbol] = {}
    variables: dict[str, Variable] = {}
    table = SymbolTable(symbols, variables)
    types = table.types
    rules: list[Rule] = []
    places = []  # each rule's line number, line and first token
    section: Optional[str] = None

    def declaration(tokens: list[str], i: int) -> Optional[Rule]:
        rule = None
        if section is None:
            raise ParseError("declarations must appear inside a SIG, VARS or RULES block", 0, i)
        if section == "RULES":
            lhs, i = parse_term(tokens, i, table)
            rhs, i = parse_term(tokens, expect(tokens, i, "=>"), table)
            rule = Rule(lhs, rhs)
        else:
            name = tokens[i]
            sig = section == "SIG"
            if name[:1] not in NAME_CHARS or name.endswith(("#", "-")):
                raise ParseError(f"expected a {'function symbol' if sig else 'variable'} name",
                                 0, i)
            if name in symbols or name in variables:
                what = "symbol" if sig and name in symbols else "name"
                raise ParseError(f"duplicate {what} {name}", 0, i)
            i = expect(tokens, i + 1, ":")
            if sig:
                decl, i = parse_type_decl(tokens, i, types)
                symbols[name] = FunctionSymbol(name, decl, PLAIN)
            else:
                vtype, i = parse_type(tokens, i, types)
                variables[name] = Variable(name, vtype)
        if tokens[i]:
            raise ParseError(f"unexpected {tokens[i]!r} (one declaration per line)", 0, i)
        return rule

    def build():
        try:
            return AFS(tuple(symbols.values()), tuple(rules))
        except (IllegalLhs, IllTyped) as exc:
            number, line, i = places[exc.rule_index]
            exc.args = (f"{number}:{column(line, number, 0, i)}: {exc}",)
            raise

    for number, line in enumerate(text.split("\n"), 1):
        tokens = tokenize(line)
        i = 0
        while tokens[i] in ("SIG", "VARS", "RULES"):
            section = tokens[i]
            i += 1
        if not tokens[i]:
            continue
        try:
            rule = at_line(declaration, tokens, i, line, number, 0)
        except ParseError:
            build()  # a rule on a line above fails first
            raise
        if rule:
            rules.append(rule)
            places.append((number, line, i))

    return build()
