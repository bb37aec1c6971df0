"""Proof serialization: expression and template grammar, hand-written proofs."""

import re

import pytest

from afsterm.dp import dependency_pairs
from afsterm import parse_afs, prooftext
from afsterm.engine import Config, GiveUp, prove, verify_proof
from afsterm.orderings.poly import expr_text
from afsterm.parser import SymbolTable, parse_term_text
from afsterm.prooftext import (
    parse_polyfun, parse_pi_template, parse_proof, render_proof, check_proof_text,
    ProofSyntaxError,
)
from afsterm.terms import Abs, FunApp, FRESH, MARKED, TAGGED, subterms, term_text

from helpers import load, corpus_names, symbol, GOLDEN


class TestExprGrammar:
    def test_round_trip(self):
        afs = load("twice")
        tw = symbol(afs, "twice")
        for text in ("x1(x1(x2))", "max(x1(x1(x2)), x2) + 1",
                     "x2*x1(x2) + x2", "2*x2 + 1", "0"):
            fun = parse_polyfun(text, tw)
            assert expr_text(fun.body) == text

    # twice's slots are x1 : nat -> nat and x2 : nat
    @pytest.mark.parametrize("text", ["x3", "x1(x1(x2), 0)", "x2(0)", "x1"], ids=[
        "out-of-range", "over-applied", "applied-base", "bare-functional"])
    def test_slot_bounds(self, text):
        afs = load("twice")
        with pytest.raises(ProofSyntaxError):
            parse_polyfun(text, symbol(afs, "twice"))

    def test_pi_template_with_primed_symbol(self):
        afs = load("eval")
        dom = symbol(afs, "dom")
        table = SymbolTable({f.name: f for f in afs.signature}, {},
                            auto_symbols=True)
        t = parse_pi_template("dom'12(x1, x2)", dom, table)
        assert term_text(t) == "dom'12(x1, x2)"

    def test_pi_collapse(self):
        afs = load("quot")
        minus = symbol(afs, "minus")
        table = SymbolTable({f.name: f for f in afs.signature}, {},
                            auto_symbols=True)
        t = parse_pi_template("x1", minus, table)
        assert term_text(t) == "x1"


class TestHandWrittenProof:
    def test_map_path_ordering_certificate_checks(self):
        afs = load("map")
        text = "\n".join([
            "YES",
            "PREPARATION",
            "  local: yes",
            "  static-mode: yes",
            "  rules: 2",
            "  pairs: 1",
            "  pair 0: map#(F, cons(h, t)) ~> map#(F, t)",
            "  graph: 1 nodes, 1 edges",
            "STEP",
            "  scc: 0",
            "  mode: non-collapsing",
            "  ARGFUN+RPO",
            "    prec: cons > map#",
            "    prec: map > cons",
            "  strict: 0",
            "  removed: 0",
            "END",
        ]) + "\n"
        assert check_proof_text(text, afs) == []

    def test_published_eval_certificate_checks(self):
        # the proof skeleton the engine derives, but with the published
        # argument-function certificate for the collapsing component: it
        # belongs to an ordering that contains beta, and the path ordering
        # does not (abfun's A(B(w)) @ B(w) loop gets such a proof)
        afs = load("eval")
        text = "\n".join([
            "YES",
            "PREPARATION",
            "  local: yes",
            "  static-mode: no",
            "  rules: 5",
            "  pairs: 4",
            "  pair 0: dom#(s(x), s(y), s(z)) ~> dom#(x, y, z)",
            "  pair 1: dom#(o, s(y), s(z)) ~> dom#(o, y, z)",
            "  pair 2: eval#(fun(F, x, y), z) ~> F @ dom(x, y, z)",
            "  pair 3: eval#(fun(F, x, y), z) ~> dom#(x, y, z)",
            "  graph: 4 nodes, 9 edges",
            "PRUNE",
            "  removed: 3",
            "STEP",
            "  scc: 0",
            "  SUBTERM CRITERION nu(dom#) = 1",
            "  strict: 0",
            "  removed: 0",
            "STEP",
            "  scc: 1",
            "  SUBTERM CRITERION nu(dom#) = 2",
            "  strict: 1",
            "  removed: 1",
            "STEP",
            "  scc: 2",
            "  mode: local-collapsing",
            "  ARGFUN+RPO",
            "    pi(dom) = dom'12(x1, x2)",
            "    prec: fun > dom'12",
            "    prec: dom'12 > s",
            "    prec: dom'12 > o",
            "  strict: 2",
            "  removed: 2",
            "END",
        ]) + "\n"
        assert check_proof_text(text, afs) == [
            "certificate rejected: the path ordering does not contain beta, "
            "which mode local-collapsing requires"]

    def test_wrong_pair_listing_flagged(self):
        afs = load("map")
        proof = render_proof(prove(afs, Config()))
        tampered = proof.replace("map#(F, t)", "map#(F, h)")
        errors = check_proof_text(tampered, afs)
        assert errors

    def test_unknown_symbol_rejected(self):
        afs = load("eval")
        golden = (GOLDEN / "eval.proof").read_text()
        for old, new, error in [
            ("PRUNE", "NONSENSE",
             "line 12 is not the text prove prints: expected 'PRUNE', found 'NONSENSE'"),
            ("J(o) = 0", "J(nosuch) = 0", "proof does not parse: unknown symbol in J(nosuch)"),
        ]:
            broken = golden.replace(old, new)
            assert broken != golden
            assert check_proof_text(broken, afs) == [error]

    # END closes the proof: it is the last non-blank line, and on any other
    # line it is a line `prove` does not print there
    @pytest.mark.parametrize("tamper, error", [
        (lambda t: t.replace("END\n", ""),
         "line 21 is not the text prove prints: expected 'END', found ''"),
        (lambda t: t.replace("END\n", "END\nPRUNE\n  removed:\n"),
         "line 22 is not the text prove prints: expected '', found 'PRUNE'"),
        (lambda t: t.replace("\nSTEP\n", "\nEND\nSTEP\n", 1),
         "line 11 is not the text prove prints: expected 'STEP', found 'END'"),
        (lambda t: t.replace("\nSTEP\n", "\n  END\nSTEP\n", 1),
         "line 11 is not the text prove prints: expected 'STEP', found '  END'"),
        (lambda t: t + "END\n", "line 22 is not the text prove prints: expected '', found 'END'"),
    ], ids=["deleted", "a-block-after-it", "between-blocks", "indented-in-a-block", "twice"])
    def test_one_end_line_closes_the_proof(self, tamper, error):
        golden = (GOLDEN / "ack.proof").read_text()
        broken = tamper(golden)
        assert broken != golden
        assert check_proof_text(broken, load("ack")) == [error]
        # blank lines after END are no lines of the proof
        assert check_proof_text(golden + "\n \n", load("ack")) == []

    # the reader demands no first line and no END: a text without steps
    # replays up to the first SCC that is due (eval's), and on a system
    # without pairs the replay is one preparation, so each such text gets
    # one problem; a bare GIVEUP names no reason `_discharge` prints
    @pytest.mark.parametrize("text, eval_error, no_pairs_error", [
        ("", "no step for SCC (0,)",
         "line 1 is not the text prove prints: expected 'YES', found ''"),
        ("\n \n", "no step for SCC (0,)",
         "line 1 is not the text prove prints: expected 'YES', found ''"),
        ("YES\n", "no step for SCC (0,)",
         "line 2 is not the text prove prints: expected 'PREPARATION', found ''"),
        ("YES\nEND\n", "no step for SCC (0,)",
         "line 2 is not the text prove prints: expected 'PREPARATION', found 'END'"),
        ("MAYBE\nGIVEUP\nEND\n",
         "no give-up after no engine names the reason '' with 0 loop terms",
         "line 1 is not the text prove prints: expected 'YES', found 'MAYBE'"),
    ], ids=["empty", "blank", "verdict-only", "verdict-and-end", "bare-give-up"])
    def test_a_degenerate_text_gets_one_problem(self, text, eval_error, no_pairs_error):
        assert check_proof_text(text, load("eval")) == [eval_error]
        assert check_proof_text(text, parse_afs("SIG\n  o : nat\nRULES\n")) == [no_pairs_error]

    # a STEP carries each line `prove` prints for its kind once; each of
    # these edits keeps the genuine line last, so the parsed proof is the
    # golden's and the re-rendered text differs at the first added line
    @pytest.mark.parametrize("old, new, error", [
        ("  SUBTERM CRITERION nu(dom#) = 1", "  mode: basic\n  POLY\n  SUBTERM CRITERION nu(dom#) = 1",
         "line 16 is not the text prove prints: "
         "expected '  SUBTERM CRITERION nu(dom#) = 1', found '  mode: basic'"),
        ("  SUBTERM CRITERION nu(dom#) = 1", "  mode: basic\n  SUBTERM CRITERION nu(dom#) = 1",
         "line 16 is not the text prove prints: "
         "expected '  SUBTERM CRITERION nu(dom#) = 1', found '  mode: basic'"),
        ("  scc: 0\n", "  scc: 99\n  scc: 0\n",
         "line 15 is not the text prove prints: expected '  scc: 0', found '  scc: 99'"),
        ("  strict: 0\n  removed: 0\n", "  strict: 99\n  removed: 99\n  strict: 0\n  removed: 0\n",
         "line 17 is not the text prove prints: expected '  strict: 0', found '  strict: 99'"),
    ], ids=["certificate-before-subterm", "mode-in-subterm", "repeated-scc",
            "repeated-strict-and-removed"])
    def test_a_line_prove_does_not_print_is_rejected(self, old, new, error):
        golden = (GOLDEN / "eval.proof").read_text()
        broken = golden.replace(old, new, 1)
        assert broken != golden
        assert check_proof_text(broken, load("eval")) == [error]

    # PREPARATION, PRUNE and GIVEUP carry only the lines `prove` prints
    # there, each once except `loop:`; the reader skips the lines the walk
    # derives, and the rendered replay has none of these
    @pytest.mark.parametrize("name, after, extra, error", [
        ("fga", "PREPARATION\n", "  bogus: 1\n",
         "line 3 is not the text prove prints: expected '  local: yes', found '  bogus: 1'"),
        ("fga", "  rules: 3\n", "  rules: 99\n",
         "line 6 is not the text prove prints: expected '  pairs: 4', found '  rules: 99'"),
        ("ack", "PREPARATION\n", "  bogus: 1\n",
         "line 3 is not the text prove prints: expected '  local: yes', found '  bogus: 1'"),
        ("fga", "  pair 1: f#(o) ~> f#(!c{nat})\n", "  pair 1: f#(o) ~> f#(!c{nat})\n",
         "line 9 is not the text prove prints: "
         "expected '  pair 2: f#(o) ~> a#', found '  pair 1: f#(o) ~> f#(!c{nat})'"),
        ("fga", "PRUNE\n", "  nonsense here\n",
         "line 13 is not the text prove prints: "
         "expected '  removed: 1 2', found '  nonsense here'"),
        ("fga", "PRUNE\n", "  removed: 1 2\n",
         "line 14 is not the text prove prints: expected 'GIVEUP', found '  removed: 1 2'"),
        ("fga", "GIVEUP\n", "  whatever: 3\n",
         "line 15 is not the text prove prints: expected '  scc: 0 3', found '  whatever: 3'"),
        ("fga", "GIVEUP\n", "  reason: none\n",
         "line 15 is not the text prove prints: expected '  scc: 0 3', found '  reason: none'"),
    ], ids=["unknown-preparation-key", "repeated-rules", "unknown-key-in-ack",
            "repeated-pair", "prune-line-without-key", "repeated-removed",
            "unknown-giveup-key", "repeated-reason"])
    def test_a_block_line_prove_does_not_print_is_rejected(self, name, after, extra, error):
        golden = (GOLDEN / f"{name}.proof").read_text()
        assert after in golden
        broken = golden.replace(after, after + extra, 1)
        assert check_proof_text(broken, load(name)) == [error]

    # every diagnostic of the value readers, as the proof's line and column
    # (where the error has one) and message
    @pytest.mark.parametrize("name, engines, old, new, error", [
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = max x2\n",
         "27:17: expected '(', found 'x2'"),
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = x1(x2 + x2\n",
         "27:23: expected ')', found ''"),
        ("apeq", None, "    J(dbl) = x1 + x1 + 1\n", "    J(dbl) = (x1 + x1 + 1\n",
         "29:26: expected ')', found ''"),
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = x1(x2) x2\n",
         "trailing input in interpretation of ap"),
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = + x2\n",
         "cannot parse interpretation expression at '+'"),
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = x1(x2) + x2 $\n",
         "27:25: unexpected character '$'"),
        ("quot", ("rpo",), "    pi(minus) = x1\n", "    pi(minus) = x1 x1\n",
         "trailing input in pi(minus)"),
        ("quot", ("rpo",), "    pi(minus) = x1\n", "    pi(minus) = minus(x1, x2\n",
         "35:29: expected ')', found ''"),
        ("quot", ("rpo",), "    pi(minus) = x1\n", "    pi(minus) = x3\n",
         "35:17: unknown identifier 'x3' (not in SIG or VARS)"),
        ("fga", None, "  loop: f(o)\n", "  loop: f(o) o\n",
         "18:14: trailing input after term: 'o'"),
        ("fga", None, "  loop: f(o)\n", "  loop: f(!c{nat nat})\n",
         "18:18: trailing input after type: 'nat'"),
        ("fga", None, "  loop: f(o)\n", "  loop: f(!c{nat $})\n",
         "18:18: unexpected character '$'"),
        ("fga", None, "  loop: f(o)\n", "  loop: f(zz)\n",
         "18:11: unknown identifier 'zz' (not in SIG or VARS)"),
        ("fga", None, "  loop: g(\\x:nat. f(x), a)\n", "  loop: g(\\x. f(x), a)\n",
         "19:12: bound variable x needs a type annotation or a VARS entry"),
        ("fga", None, "  loop: f(o)\n", "  loop: (f(o)\n", "18:14: expected ')', found ''"),
    ], ids=["J-max-without-arguments", "J-unclosed-application", "J-unclosed-parenthesis",
            "J-trailing-input", "J-not-an-expression", "J-stray-character",
            "pi-trailing-input", "pi-unclosed-arguments", "pi-unknown-identifier",
            "loop-trailing-input", "loop-trailing-type", "loop-stray-character-in-a-type",
            "loop-unknown-identifier", "loop-binder-without-a-type",
            "loop-unclosed-parenthesis"])
    def test_a_malformed_value_line_is_reported(self, name, engines, old, new, error):
        afs = load(name)
        text = (render_proof(prove(afs, Config(engines=engines)), 1) if engines
                else (GOLDEN / f"{name}.proof").read_text())
        assert old in text
        broken = text.replace(old, new, 1)
        assert check_proof_text(broken, afs) == [f"proof does not parse: {error}"]

    # an error inside a loop term, a J body, a pi template or a !c{...}
    # type is reported at its line and column in the proof file
    @pytest.mark.parametrize("name, engines, old, new, column, error", [
        ("fga", None, "  loop: f(o)\n", "  loop: f(!c{nat ->})\n", 20,
         "expected a type, found ''"),
        ("apeq", None, "    J(ap) = x1(x2) + x2\n", "    J(ap) = x1(x2) ? x2\n", 20,
         "unexpected character '?'"),
        ("quot", ("rpo",), "    pi(minus) = x1\n", "    pi(minus) = x1 @ !c{nat\n", 22,
         "unterminated !c{...} constant"),
    ], ids=["loop-fresh-constant", "J-body", "pi-template"])
    def test_a_parse_error_in_a_value_has_its_file_position(self, name, engines, old, new,
                                                            column, error):
        afs = load(name)
        text = (render_proof(prove(afs, Config(engines=engines)), 1) if engines
                else (GOLDEN / f"{name}.proof").read_text())
        line = text[:text.index(old)].count("\n") + 1
        broken = text.replace(old, new, 1)
        assert check_proof_text(broken, afs) == [f"proof does not parse: {line}:{column}: {error}"]

    def test_all_corpus_proofs_round_trip_verbose(self):
        # the goldens are pinned to `prove -v` output by TestGoldenProofs
        for name in corpus_names():
            afs = load(name)
            golden = (GOLDEN / f"{name}.proof").read_text()
            problem = dependency_pairs(afs)
            proof = verify_proof(problem, parse_proof(golden, problem))
            assert render_proof(proof, 1) == golden, name
            for verbosity in (0, 1):
                text = render_proof(proof, verbosity)
                assert check_proof_text(text, afs) == [], name

    def test_a_loop_line_is_parsed_once_per_distinct_term(self, monkeypatch):
        # the closing line repeats the first one; it becomes the same term
        afs = load("abfun")
        golden = (GOLDEN / "abfun.proof").read_text()
        parsed = []
        parse = prooftext.parse_term_text
        monkeypatch.setattr(prooftext, "parse_term_text",
                            lambda text, table, *at: parsed.append(text) or parse(text, table, *at))
        loop = parse_proof(golden, dependency_pairs(afs))[-1].loop
        assert len(loop) == 3 and loop[0] is loop[2]
        assert len(parsed) == 2


class TestSharing:
    """The proof reader shares as the AFS reader does: the terms of its
    loop lines have the signature's `Base` objects, and a marked or tagged
    name reads as one symbol."""

    def test_loop_terms_have_the_signature_types(self):
        afs = load("fga")
        nat = symbol(afs, "o").decl.output
        text = (GOLDEN / "fga.proof").read_text()
        text = text.replace("  loop: f(o)\n", "  loop: f(!c{nat})\n", 1)
        give_up = parse_proof(text, dependency_pairs(afs))[-1]
        types = [s.var_type if isinstance(s, Abs) else s.fn.decl.output
                 for t in give_up.loop for s, _ in subterms(t)
                 if isinstance(s, Abs) or (isinstance(s, FunApp) and s.fn.kind == FRESH)]
        assert len(types) == 4  # three binders and one fresh constant
        assert all(ty is nat for ty in types)

    def test_a_marked_or_tagged_name_is_one_symbol(self):
        afs = load("twice")
        table = SymbolTable({f.name: f for f in afs.signature}, {}, auto_symbols=True)
        for name, kind in (("I#", MARKED), ("I-", TAGGED)):
            t = parse_term_text(f"{name}({name}(o))", table)
            assert t.fn.kind == kind and t.fn is t.args[0].fn
            assert table.lookup_symbol(name) is t.fn
        assert table.lookup_symbol("J#") is None


class TestGiveUpLines:
    # `check` accepts a GIVEUP's `tried:` and `reason:` lines only as
    # `_discharge` prints them: engines the SCC runs (a collapsing one only
    # poly) in their order, no engine before a timeout, at most the subterm
    # criterion before a loop, and loop lines exactly after the loop reason.
    # fga's SCC is collapsing and ends at a loop of 5 terms; quot's is not
    # and, with the subterm criterion alone, ends unoriented.
    LOOPING = "a term reduces to itself, so the system does not terminate"
    UNORIENTED = "no engine oriented a pair strictly"

    @pytest.mark.parametrize("name, tried, reason, loops", [
        ("fga", "rpo poly", LOOPING, 5),
        ("fga", "", "timeout", 5),
        ("fga", "rpo poly", "timeout", 5),
        ("fga", "subterm", LOOPING, 5),
        ("fga", "poly", LOOPING, 5),
        ("fga", "", UNORIENTED, 5),
        ("fga", "", "tired", 5),
        ("quot", "poly subterm", UNORIENTED, 0),
        ("quot", "subterm subterm", UNORIENTED, 0),
        ("quot", "subterm magic", UNORIENTED, 0),
        ("quot", "subterm", "timeout", 0),
        ("quot", "subterm", LOOPING, 0),
    ], ids=["fga-rpo-poly", "fga-timeout-with-a-loop", "fga-both", "fga-subterm-on-collapsing",
            "fga-poly-before-a-loop", "fga-unoriented-with-a-loop", "fga-unknown-reason",
            "quot-out-of-order", "quot-repeated", "quot-unknown-engine",
            "quot-timeout-after-subterm", "quot-loop-reason-without-loop"])
    def test_a_give_up_discharge_cannot_print_is_rejected(self, name, tried, reason, loops):
        afs = load(name)
        if name == "fga":
            text = (GOLDEN / "fga.proof").read_text()
            old_tried, old_reason = "  tried:\n", f"  reason: {self.LOOPING}\n"
        else:
            text = render_proof(prove(afs, Config(engines=("subterm",))))
            old_tried, old_reason = "  tried: subterm\n", f"  reason: {self.UNORIENTED}\n"
        assert old_tried in text and old_reason in text
        text = text.replace(old_tried, " ".join(("  tried:", *tried.split())) + "\n")
        text = text.replace(old_reason, f"  reason: {reason}\n")
        assert check_proof_text(text, afs) == [
            f"no give-up after {tried or 'no engine'} names the reason {reason!r} "
            f"with {loops} loop terms"]

    @pytest.mark.parametrize("engines", [("subterm",), ("subterm", "rpo")])
    def test_every_give_up_prove_prints_is_accepted(self, engines):
        # the corpus's give-ups under engine sets that skip the long poly
        # searches: loops, unoriented SCCs after one or two engines
        reasons = set()
        for name in corpus_names():
            afs = load(name)
            proof = prove(afs, Config(engines=engines))
            assert check_proof_text(render_proof(proof), afs) == [], name
            if proof.verdict == "MAYBE":
                reasons.add((proof.steps[-1].tried, proof.steps[-1].reason[:8]))
        assert len(reasons) >= 3, reasons

    def test_a_timeout_before_any_engine_is_accepted(self):
        afs = load("quot")
        text = render_proof(prove(afs, Config(engines=("subterm",))))
        text = text.replace("  tried: subterm\n", "  tried:\n").replace(
            f"  reason: {self.UNORIENTED}\n", "  reason: timeout\n")
        assert check_proof_text(text, afs) == []


def one_line_edits(text):
    """Each text one edit away from `text`: a line deleted, a line
    repeated, or one integer in a line increased by 1."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        before, after = "".join(lines[:i]), "".join(lines[i + 1:])
        yield before + after
        yield before + line + line + after
        for m in re.finditer(r"\d+", line):
            yield f"{before}{line[:m.start()]}{int(m.group()) + 1}{line[m.end():]}{after}"


def certificates(given):
    return [None if isinstance(item, GiveUp) else item for item in given]


class TestOneLineEdits:
    def test_an_accepted_edit_changes_a_certificate(self):
        # `check` accepts only the text `prove` prints for the parsed proof,
        # and the skeleton around the certificates is forced, so an edit it
        # accepts must have changed a certificate; the goldens' 1,163 edits
        # and the 247 of the two verbosity-0 renders hold 27 such edits
        inputs = [(name, (GOLDEN / f"{name}.proof").read_text()) for name in corpus_names()]
        inputs += [(name, render_proof(prove(load(name)))) for name in ("twice", "eval")]
        edits = accepted = 0
        for name, text in inputs:
            afs = load(name)
            problem = dependency_pairs(afs)
            original = certificates(parse_proof(text, problem))
            for edited in one_line_edits(text):
                edits += 1
                if check_proof_text(edited, afs) == []:
                    accepted += 1
                    assert certificates(parse_proof(edited, problem)) != original, (name, edited)
        assert (edits, accepted) == (1_163 + 247, 27)
