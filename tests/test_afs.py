"""Parsing, rule validation, completion, classification, and R+."""

import pytest
from hypothesis import given, settings, strategies as st

from afsterm import parse_afs
from afsterm.afs import AFS, IllegalLhs, Rule, complete, build_rplus
from afsterm.parser import ParseError, SymbolTable, column, parse_term_text, tokenize
from afsterm.prooftext import (
    ProofSyntaxError, check_proof_text, parse_pi_template, parse_polyfun,
)
from afsterm.record import replace
from afsterm.terms import (
    App, Arrow, Base, FunApp, FunctionSymbol, IllTyped, PLAIN, TypeDecl, Var, Variable,
    term_text, free_vars, subterms, Abs,
)

from helpers import CORPUS, GOLDEN, corpus_names, load, reference_tokenize, wide_system


# two good rules on lines 10 and 11; a test appends the third
REJECTED_THIRD_RULE = """SIG
  o : nat
  s : [nat] -> nat
  f : [nat] -> nat
  g : [nat -> nat] -> nat
VARS
  x : nat
  y : nat
RULES
  f(o) => o
  f(s(x)) => f(x)
"""


class TestParsing:
    def test_twice_counts(self):
        afs = load("twice")
        assert len(afs.signature) == 4
        assert len(afs.rules) == 3

    def test_empty_rules_block(self):
        afs = parse_afs("SIG\n  o : nat\nRULES\n")
        assert afs.rules == ()
        assert afs.local and afs.spfp  # vacuously

    def test_illegal_lhs_beta_redex(self):
        src = "SIG\n  o : nat\nVARS\n  y : nat\nRULES\n  (\\x:nat. x) @ y => y\n"
        with pytest.raises(IllegalLhs):
            parse_afs(src)

    def test_rhs_beta_redex_rejected(self):
        src = ("SIG\n  f : [nat] -> nat\n  o : nat\nVARS\n  y : nat\nRULES\n"
               "  f(y) => (\\x:nat. x) @ y\n")
        with pytest.raises(IllegalLhs):
            parse_afs(src)

    def test_variable_headed_lhs(self):
        src = "SIG\n  o : nat\nVARS\n  F : nat -> nat\n  y : nat\nRULES\n  F @ y => y\n"
        with pytest.raises(IllegalLhs):
            parse_afs(src)

    def test_primed_positions_follow_a_mark_or_tag(self):
        # `rpo.pi_options` names a filtered marked or tagged symbol so
        tokens = tokenize("f#'2(x) f-'12 F->G")
        assert tokens == ["f#'2", "(", "x", ")", "f-'12", "F", "->", "G", ""]

    @pytest.mark.parametrize("line, expected", [
        ("f## note", ["f#", ""]),
        ("!c{nat -> nat} x", ["!c{nat -> nat}", "x", ""]),
        ("a - b", "4:3: unexpected character '-'"),
        ("f(!c{nat -> nat", "4:3: unterminated !c{...} constant"),
    ], ids=["comment-after-a-marked-name", "fresh-constant-of-an-arrow-type",
            "minus-alone", "unterminated-fresh-constant"])
    def test_one_line_scans_to_its_tokens(self, line, expected):
        # a line's tokens, or, from the second scan a failing line gets, the
        # error of its first bad character
        try:
            column(line, 4, 0, 0)
            got = tokenize(line)
        except ParseError as exc:
            got = str(exc)
        assert got == expected

    def test_a_rule_ends_at_its_line_end(self):
        with pytest.raises(ParseError, match=r"^5:10: expected a term, found ''$"):
            parse_afs("SIG\n  o : nat\n  s : [nat] -> nat\nRULES\n  s(o) =>\n  o\n")

    def test_sections_interleave(self):
        # a rule sees every symbol and variable declared on the lines above it
        src = ("SIG\n  o : nat\n  f : [nat] -> nat\nVARS\n  x : nat\nRULES\n  f(x) => o\n"
               "SIG\n  g : [nat] -> nat\nRULES\n  g(x) => f(x)\n")
        afs = parse_afs(src)
        assert [term_text(r.rhs) for r in afs.rules] == ["o", "f(x)"]
        with pytest.raises(ParseError, match=r"^7:11: unknown identifier 'g'"):
            parse_afs(src.replace("f(x) => o", "f(x) => g(o)"))

    @pytest.mark.parametrize("first, second", [("VARS", "SIG"), ("SIG", "VARS")])
    def test_a_name_is_a_symbol_or_a_variable(self, first, second):
        # either order is an error at the second declaration; a symbol that
        # shadowed a variable would make f(x) => x read x as a constant
        src = f"SIG\n  f : [nat] -> nat\n{first}\n  x : nat\n{second}\n  x : nat\n" \
              "RULES\n  f(x) => x\n"
        with pytest.raises(ParseError, match=r"^6:3: duplicate name x$"):
            parse_afs(src)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_afs("SIG\n  o : nat\nRULES\n  mystery(o) => o\n")

    def test_rhs_variable_not_in_lhs(self):
        src = "SIG\n  f : [nat] -> nat\nVARS\n  x : nat\n  y : nat\nRULES\n  f(x) => y\n"
        with pytest.raises(IllegalLhs):
            parse_afs(src)

    def test_arity_error_has_position(self):
        try:
            parse_afs("SIG\n  s : [nat] -> nat\n  o : nat\nRULES\n  s(o, o) => o\n")
            assert False
        except ParseError as exc:
            assert exc.line == 5

    @pytest.mark.parametrize("third, error, message", [
        ("  f(x) => y", IllegalLhs,
         "12:3: right-hand side uses variables not in the left-hand side: y"),
        ("    g(x) => o", IllTyped,
         "12:5: ill-typed term at position [0]: argument 1 of g has type nat, expected nat -> nat"),
    ], ids=["illegal", "ill-typed"])
    def test_a_rejected_rule_names_its_line(self, third, error, message):
        # the first error in line order wins: a later line that does not
        # parse leaves the rule's error, and one above the rule replaces it
        for later in ("", "  f(o) =>\n"):
            with pytest.raises(error) as rejected:
                parse_afs(REJECTED_THIRD_RULE + third + "\n" + later)
            assert str(rejected.value) == message
        with pytest.raises(ParseError, match=r"^12:10: expected a term, found ''$"):
            parse_afs(REJECTED_THIRD_RULE + "  f(o) =>\n" + third + "\n")

    def test_ill_typed_rule(self):
        src = ("SIG\n  o : nat\n  g : [nat -> nat] -> nat\nVARS\n  x : nat\nRULES\n"
               "  g(x) => o\n")
        with pytest.raises((IllTyped, ParseError)):
            parse_afs(src)


class TestSharedLeaves:
    """One parse builds one node per declared variable and nullary symbol,
    as it builds one `Base` per type name; a binder's own variable is not
    one of them."""

    def test_one_node_per_variable_and_constant(self):
        afs = parse_afs(wide_system(2001))
        leaves: dict[str, list] = {}
        for rule in afs.rules:
            for side in (rule.lhs, rule.rhs):
                for s, depth in subterms(side):
                    if isinstance(s, Var) or (isinstance(s, FunApp) and not s.args):
                        assert not depth  # `wide` has no binder
                        leaves.setdefault(term_text(s), []).append(s)
        constants = [f for f in afs.signature if not f.decl.inputs]
        variables = {v for rule in afs.rules for v in free_vars(rule.lhs)}
        assert len(leaves) == len(constants) + len(variables) == 50 * (4 + 12)
        for name, nodes in leaves.items():
            assert all(node is nodes[0] for node in nodes), name

    def test_every_rule_side_reads_back(self):
        afs = parse_afs(wide_system(2001))
        variables = {v.name: v for rule in afs.rules for v in free_vars(rule.lhs)}
        table = SymbolTable({f.name: f for f in afs.signature}, variables)
        for rule in afs.rules:
            for side in (rule.lhs, rule.rhs):
                assert parse_term_text(term_text(side), table) == side

    def test_a_binder_variable_is_not_the_shared_leaf(self):
        afs = parse_afs(MALFORMED_BASE.replace(RULE, "f(x, o) => g(\\x:nat. s(x))"))
        lhs_x = afs.rules[0].lhs.args[0]
        body = afs.rules[0].rhs.args[0].body
        assert isinstance(lhs_x, Var) and not isinstance(body.args[0], Var)


class TestRuleContract:
    """An AFS checks its rules when it is built, whoever builds it: a
    library caller and `replace` get the reader's errors, without the
    line and column the reader puts in front, and the rule's index."""

    def test_a_right_hand_side_variable_not_on_the_left_is_rejected(self):
        # ack(o, y) => x does not terminate (x := ack(o, y)), and adds no pair
        ack = load("ack")
        o, y = ack.rules[0].lhs.args
        x = Var(Variable("x", o._type))
        rules = (Rule(FunApp(ack.rules[0].lhs.fn, (o, y)), x),) + ack.rules[1:]
        with pytest.raises(IllegalLhs) as rejected:
            AFS(ack.signature, rules)
        assert str(rejected.value) == "right-hand side uses variables not in the left-hand side: x"
        assert rejected.value.rule_index == 0

    def test_a_variable_headed_left_hand_side_is_rejected(self):
        nat = Base("nat")
        o = FunctionSymbol("o", TypeDecl((), nat), PLAIN)
        F, y = Var(Variable("F", Arrow(nat, nat))), Var(Variable("y", nat))
        good = Rule(FunApp(FunctionSymbol("f", TypeDecl((nat,), nat), PLAIN), (y,)), y)
        with pytest.raises(IllegalLhs) as rejected:
            AFS((o,), (good, Rule(App(F, y), y)))
        assert str(rejected.value) == "left-hand side must be headed by a function symbol: F @ y"
        assert rejected.value.rule_index == 1

    def test_replacing_the_rules_checks_them(self):
        ack = load("ack")
        lhs = ack.rules[1].lhs
        with pytest.raises(IllTyped) as rejected:
            replace(ack, rules=ack.rules + (Rule(lhs, App(lhs, lhs)),))
        assert rejected.value.rule_index == 3


# every ParseError of the AFS reader, each at the line and column it names:
# (what in MALFORMED_BASE is replaced, by what, the error)
MALFORMED_BASE = """SIG
  o : nat
  s : [nat] -> nat
  f : [nat * nat] -> nat
  g : [nat -> nat] -> nat
VARS
  x : nat
  F : nat -> nat
RULES
  f(x, o) => s(x)
"""
RULE = "f(x, o) => s(x)"


@pytest.mark.parametrize("old, new, error", [
    ("SIG\n  o : nat\n", "  o : nat\nSIG\n",
     "1:3: declarations must appear inside a SIG, VARS or RULES block"),
    ("  o : nat", "  ( : nat", "2:3: expected a function symbol name"),
    ("  x : nat", "  x# : nat", "7:3: expected a variable name"),
    ("  o : nat", "  o : nat\n  o : nat", "3:3: duplicate symbol o"),
    ("  x : nat", "  x : nat\n  x : list", "8:3: duplicate name x"),
    ("RULES", "SIG\n  x : nat\nRULES", "10:3: duplicate name x"),
    ("  o : nat", "  o nat", "2:5: expected ':', found 'nat'"),
    ("  o : nat", "  o : ->", "2:7: expected a type, found '->'"),
    ("  f : [nat * nat] -> nat", "  f : [nat * nat -> nat", "4:24: expected ']', found ''"),
    ("  s : [nat] -> nat", "  s : [nat] nat", "3:13: expected '->', found 'nat'"),
    ("  F : nat -> nat", "  F : (nat -> nat", "8:18: expected ')', found ''"),
    ("  o : nat", "  o : nat nat", "2:11: unexpected 'nat' (one declaration per line)"),
    (RULE, "f(x, o) s(x)", "10:11: expected '=>', found 's'"),
    (RULE, "f(x, o) =>", "10:13: expected a term, found ''"),
    (RULE, "f(x) => s(x)", "10:3: symbol f expects 2 arguments, got 1"),
    (RULE, "f(x, o, o) => s(x)", "10:3: symbol f expects 2 arguments, got 3"),
    (RULE, "f(x, o()) => s(x)", "10:8: symbol o takes no arguments"),
    (RULE, "f(x, o) => s(o(o))", "10:16: symbol o takes no arguments"),
    (RULE, "f(x, o) => x(o)", "10:15: unexpected '(' (one declaration per line)"),
    (RULE, "f(x, o) => s", "10:15: expected '(', found ''"),
    (RULE, "f(y, o) => s(x)", "10:5: unknown identifier 'y' (not in SIG or VARS)"),
    (RULE, "f(x, ) => s(x)", "10:8: expected a term, found ')'"),
    (RULE, "(f(x, o) => s(x)", "10:12: expected ')', found '=>'"),
    (RULE, "f(x, o) => s(x) o", "10:19: unexpected 'o' (one declaration per line)"),
    (RULE, "f(x, o)$ => s(x)", "10:10: unexpected character '$'"),
    (RULE, "f(x, o) => s(x)$", "10:18: unexpected character '$'"),
    (RULE, "f(x, o) => g(\\y. s(y))",
     "10:17: bound variable y needs a type annotation or a VARS entry"),
    (RULE, "f(x, o) => g(\\(:nat. s(x)))", "10:17: expected a bound variable name"),
    (RULE, "f(x, o) => g(\\y:nat s(y))", "10:23: expected '.', found 's'"),
    (RULE, "f(x, o) => f(x, !c{nat})", "10:19: !c{nat} may only occur in proofs"),
    (RULE, "f(x, o) => f(x, !c{nat)", "10:19: unterminated !c{...} constant"),
], ids=[
    "outside-a-block", "symbol-name", "marked-variable-name", "duplicate-symbol",
    "duplicate-variable", "symbol-named-like-a-variable", "declaration-without-colon",
    "not-a-type", "unclosed-input-list", "input-list-without-arrow",
    "unclosed-type-parenthesis", "two-declarations-on-a-line", "rule-without-arrow",
    "rule-without-right-hand-side", "too-few-arguments", "too-many-arguments",
    "arguments-of-a-constant", "arguments-of-a-constant-read-before",
    "arguments-of-a-variable-read-before", "symbol-without-arguments", "unknown-identifier",
    "missing-argument", "unclosed-parenthesis", "trailing-input-after-a-rule",
    "stray-character-after-a-token", "stray-character-at-the-line-end",
    "binder-without-a-type", "binder-without-a-name", "binder-without-a-dot",
    "fresh-constant-in-a-system", "unterminated-fresh-constant"])
def test_a_malformed_system_is_reported_at_its_line_and_column(old, new, error):
    parse_afs(MALFORMED_BASE)
    assert old in MALFORMED_BASE
    with pytest.raises(ParseError) as exc:
        parse_afs(MALFORMED_BASE.replace(old, new, 1))
    assert str(exc.value) == error
    assert (exc.value.line, exc.value.col) == tuple(map(int, error.split(":")[:2]))


# a bad character is the error of its line, whatever else fails there:
# (a system's or a proof's, what is replaced, by what, the error)
@pytest.mark.parametrize("name, old, new, error", [
    (None, RULE, "o => o $", "10:10: unexpected character '$'"),
    (None, RULE, "f(x, o) => s(x) o $", "10:21: unexpected character '$'"),
    (None, RULE, "x => o $", "10:10: unexpected character '$'"),
    (None, RULE, "f(é) => o", "10:5: unexpected character 'é'"),
    (None, "  o : nat", "  o : nat # $ ok", None),
    (None, "  x : nat", "  x : nat\t'", "7:11: unexpected character \"'\""),
    (None, RULE, "f(x, o) =>\ts(x) o", "10:19: unexpected 'o' (one declaration per line)"),
    ("apeq", "    J(ap) = x1(x2) + x2\n", "    J(ap) = x1 + $\n",
     "27:18: unexpected character '$'"),
    ("apeq", "    J(ap) = x1(x2) + x2\n", "    J(ap) =\tx1(x2) x2 $\n",
     "27:23: unexpected character '$'"),
    ("fga", "  loop: f(o)\n", "  loop: f(o) - o\n", "18:14: unexpected character '-'"),
    ("fga", "  loop: f(o)\n", "  loop:\tf(o) o\n", "18:14: trailing input after term: 'o'"),
], ids=["after-a-complete-rule", "after-trailing-input", "after-a-rejected-rule",
        "non-ascii-letter", "in-a-comment", "after-a-tab", "tab-before-trailing-input",
        "J-after-a-plus", "J-after-a-tab-and-trailing-input", "loop-lone-minus",
        "loop-tab-before-trailing-input"])
def test_a_bad_character_takes_precedence(name, old, new, error):
    if name is None:
        assert old in MALFORMED_BASE
        try:
            parse_afs(MALFORMED_BASE.replace(old, new, 1))
            got = None
        except (ParseError, IllegalLhs, IllTyped) as exc:
            got = str(exc)
    else:
        text = (GOLDEN / f"{name}.proof").read_text()
        assert old in text
        [got] = check_proof_text(text.replace(old, new, 1), load(name))
        error = f"proof does not parse: {error}"
    assert got == error


@pytest.mark.parametrize("name", corpus_names() + ["wide-2001"])
def test_every_rule_side_prints_as_text_that_parses_back_to_it(name):
    text = wide_system(2001) if name == "wide-2001" else (CORPUS / f"{name}.afs").read_text()
    afs = parse_afs(text)
    symbols = {f.name: f for f in afs.signature}
    for rule in afs.rules:
        for side in (rule.lhs, rule.rhs):
            table = SymbolTable(symbols, {v.name: v for v in free_vars(side)})
            assert parse_term_text(term_text(side), table) == side, term_text(side)


class TestCompletion:
    def test_twice_adds_applied_rule(self):
        completed = complete(load("twice"))
        added = [r for r in completed.rules if r.origin == "completion"]
        assert len(added) == 1
        assert term_text(added[0].lhs) == "twice(F) @ y"
        assert term_text(added[0].rhs) == "F @ (F @ y)"

    def test_base_type_rules_unchanged(self):
        afs = load("map")
        assert complete(afs).rules == afs.rules + ()

    def test_idempotent(self):
        once = complete(load("twice"))
        assert complete(once).rules == once.rules

    def test_abstraction_body_applied(self):
        # f(o) => \x. f(x) @ x   produces   f(o) @ x => f(x) @ x
        src = ("SIG\n  o : nat\n  f : [nat] -> nat -> nat\nRULES\n"
               "  f(o) => \\x:nat. f(x) @ x\n")
        completed = complete(parse_afs(src))
        added = [r for r in completed.rules if r.origin == "completion"]
        assert len(added) == 1
        assert term_text(added[0].lhs) == "f(o) @ x"
        assert term_text(added[0].rhs) == "f(x) @ x"

    def test_multi_binder_peels_stepwise(self):
        src = ("SIG\n  o : nat\n  g : [nat] -> nat -> nat -> nat\nRULES\n"
               "  g(o) => \\x:nat. \\y:nat. x\n")
        completed = complete(parse_afs(src))
        added = [r for r in completed.rules if r.origin == "completion"]
        assert len(added) == 2
        assert isinstance(added[0].rhs, Abs)
        assert not isinstance(added[1].rhs, Abs)


class TestClassify:
    def test_twice_local_not_spfp(self):
        afs = load("twice")
        assert afs.local
        assert not afs.spfp  # twice has a functional output type

    def test_eval_flags(self):
        # mechanical three-clause check: F is not a direct argument of the
        # eval rule's left-hand side, so the system is not plain function
        # passing (and hence not SPFP) even though outputs are base
        afs = load("eval")
        assert afs.local
        assert afs.base_output
        assert not afs.pfp
        assert not afs.spfp

    def test_non_left_linear(self):
        src = "SIG\n  b : nat\n  f : [nat * nat] -> nat\nVARS\n  x : nat\nRULES\n  f(x, x) => b\n"
        afs = parse_afs(src)
        assert not afs.local

    def test_not_fully_extended(self):
        src = ("SIG\n  f : [nat -> nat] -> nat\n  o : nat\nVARS\n  y : nat\nRULES\n"
               "  f(\\x:nat. y) => y\n")
        afs = parse_afs(src)
        assert not afs.local

    def test_rec_is_spfp(self):
        afs = load("rec")
        assert afs.local and afs.base_output and afs.pfp and afs.spfp

    def test_fga_not_spfp(self):
        # defined symbol under a binder using the bound variable
        afs = load("fga")
        assert afs.local and afs.pfp and afs.base_output
        assert not afs.spfp

    def test_map_is_spfp(self):
        assert load("map").spfp

    SIG_K = ("SIG\n  o : nat\n  f : [nat] -> nat\n  h : [nat] -> nat\n"
             "  k : [nat -> nat] -> nat\nVARS\n  n : nat\nRULES\n  f(n) => o\n")

    def test_defined_call_without_the_bound_variable_stays_spfp(self):
        afs = parse_afs(self.SIG_K + "  h(n) => k(\\x:nat. f(o))\n")
        assert afs.pfp and afs.base_output
        assert afs.spfp

    def test_defined_call_on_an_outer_binder_variable_is_not_spfp(self):
        # f(x) sits below \y and uses the outer binder's x, index 1 there
        afs = parse_afs(self.SIG_K + "  h(n) => k(\\x:nat. k(\\y:nat. f(x)))\n")
        assert afs.pfp and afs.base_output
        assert not afs.spfp


class TestRPlus:
    def test_twice_unchanged(self):
        completed = complete(load("twice"))
        assert build_rplus(completed) == completed.rules

    def test_base_only_unchanged(self):
        completed = complete(load("map"))
        assert build_rplus(completed) == completed.rules

    def test_if_head_system(self):
        # functional-type rules with non-abstraction right-hand sides get
        # applied variants
        src = (
            "SIG\n"
            "  true : bool\n  false : bool\n  nil : funlist\n  s : [nat] -> nat\n"
            "  cons : [(nat -> nat) * funlist] -> funlist\n"
            "  head : [funlist] -> nat -> nat\n"
            "  tail : [funlist] -> funlist\n"
            "  test : [nat -> nat] -> bool\n"
            "  if : [bool * (nat -> string) * (nat -> string)] -> nat -> string\n"
            "VARS\n  F1 : nat -> string\n  F2 : nat -> string\n  F : nat -> nat\n"
            "  t : funlist\n"
            "RULES\n"
            "  if(true, F1, F2) => F1\n"
            "  if(false, F1, F2) => F2\n"
            "  test(\\x:nat. s(x)) => true\n"
            "  head(cons(F, t)) => F\n"
            "  tail(cons(F, t)) => t\n"
        )
        afs = complete(parse_afs(src))
        rplus = build_rplus(afs)
        added = [r for r in rplus if r.origin == "extension-R+"]
        texts = {str(r) for r in added}
        assert "if(true, F1, F2) @ x => F1 @ x" in texts
        assert "if(false, F1, F2) @ x => F2 @ x" in texts
        assert "head(cons(F, t)) @ x => F @ x" in texts
        assert len(added) == 3


class TestCompletionSimulation:
    def test_added_rules_simulated(self):
        # every completion rule instance is reachable from the original rules
        import random
        from afsterm.terms import bounded_reductions, free_vars
        from helpers import apply_subst
        from helpers import random_closed_term, corpus_names, reached

        rng = random.Random(11)
        checked = 0
        for name in corpus_names():
            afs = load(name)
            completed = complete(afs)
            for rule in completed.rules:
                if rule.origin != "completion":
                    continue
                for _ in range(3):
                    gamma = {v: random_closed_term(rng, afs, v.type, 4)
                             for v in sorted(free_vars(rule.lhs), key=lambda v: v.name)}
                    start = apply_subst(rule.lhs, gamma)
                    target = apply_subst(rule.rhs, gamma)
                    ex = bounded_reductions(start, afs.rules, 4)
                    assert any(u == target for u in reached(ex))
                    checked += 1
        assert checked > 0


# the readers against the tuple scanner they replaced: each line reads as
# the same tokens at the same columns, and a line that scanner rejects is
# rejected by every reader with the same message at the same column
_F = FunctionSymbol("f", TypeDecl((Base("nat"), Base("nat")), Base("nat")), PLAIN)
_PROOF_TABLE = SymbolTable({"f": _F}, {}, auto_symbols=True)


def _errors(line: str, number: int, offset: int) -> set:
    """What each reader raises on `line`, the text of line `number` after
    its first `offset` columns, or None for one that reads it."""
    readers = [
        lambda: column(line, number, offset, 0),
        lambda: parse_term_text(line, _PROOF_TABLE, number, offset),
        lambda: parse_polyfun(line, _F, number, offset),
        lambda: parse_pi_template(line, _F, _PROOF_TABLE, number, offset),
    ]
    if not offset:
        readers.append(lambda: parse_afs("SIG\n" * (number - 1) + line))
    errors = set()
    for read in readers:
        try:
            read()
            errors.add(None)
        except (ParseError, ProofSyntaxError) as exc:
            errors.add(str(exc))
    return errors


def assert_reads_as_the_reference(line: str, number: int = 1, offset: int = 0) -> None:
    try:
        reference = reference_tokenize(line, number, offset)
    except ParseError as exc:
        assert _errors(line, number, offset) == {str(exc)}, line
        return
    assert tokenize(line) == [f"!c{{{text}}}" if kind == "CONST" else text
                              for kind, text, _ in reference], line
    assert [column(line, number, offset, i) for i in range(len(reference))] == \
        [col for _, _, col in reference], line


@pytest.mark.parametrize("source", ["corpus", "golden", "wide-2001", "wide-7"])
def test_every_line_reads_as_the_reference_scanner_reads_it(source):
    if source == "corpus":
        texts = [path.read_text() for path in sorted(CORPUS.glob("*.afs"))]
    elif source == "golden":
        texts = [path.read_text() for path in sorted(GOLDEN.glob("*.proof"))]
    else:
        texts = [wide_system(int(source.split("-")[1]))]
    for text in texts:
        for number, line in enumerate(text.split("\n"), 1):
            assert_reads_as_the_reference(line, number)


LINE_PIECES = ["f", "x", "x1", "nat", "max", "12", "f#", "f-", "f#'2", "f-'", "!c{nat}",
               "!c{nat -> nat}", "!c{", "!c", "=>", "->", "(", ")", "[", "]", ",", ":", ".",
               "\\", "@", "*", ">", ";", "=", "+", "#", " ", "  ", "\t",
               "$", "é", "-", "'", "!", "{", "}", "\f"]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=10).map("".join),
       st.integers(1, 4), st.integers(0, 6))
def test_a_short_line_reads_as_the_reference_scanner_reads_it(line, number, offset):
    assert_reads_as_the_reference(line, number, offset)
