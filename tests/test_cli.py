"""Command-line contract: first-line verdicts, exit codes, check round-trip."""

import os
import re
import subprocess
import sys

import pytest

from afsterm.cli import main

from helpers import CORPUS, GOLDEN, ROOT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m afsterm.cli` in a fresh interpreter, whose stack depth
    does not depend on pytest's."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "afsterm.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


class TestProve:
    def test_first_line_yes(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "twice.afs"))
        assert code == 0
        assert out.splitlines()[0] == "YES"

    def test_first_line_maybe(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "abfun.afs"),
                               "--timeout", "30")
        assert code == 0
        assert out.splitlines()[0] == "MAYBE"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        # a fresh constant !c{nat} is the prover's own device: f(!c{nat})
        # rewrites to itself, and no input file may write it
        bad = tmp_path / "bad.afs"
        for text, diagnostic in [
                ("RULES\n  ???\n", "2:3: unexpected character '?'"),
                ("SIG\n  f : [nat] -> nat\nRULES\n  f(!c{nat}) => f(!c{nat})\n",
                 "4:5: !c{nat} may only occur in proofs"),
                ("SIG\n  o : nat\nRULES\n  !c{RULES} o => o\n",
                 "4:3: !c{RULES} may only occur in proofs"),
                ("VARS\n  x : nat\nSIG\n  x : nat\n", "4:3: duplicate name x"),
                ("SIG\n  x : nat\nVARS\n  x : nat\n", "4:3: duplicate name x")]:
            bad.write_text(text)
            for argv in (["prove", str(bad)], ["check", str(bad), str(GOLDEN / "map.proof")]):
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (2, "")
                assert "Traceback" not in err
                assert f"{bad}: {diagnostic}" in err

    def test_rejected_rule_exit_2(self, capsys, tmp_path):
        # the third rule is rejected after parsing, at its own line
        bad = tmp_path / "bad.afs"
        bad.write_text("SIG\n  o : nat\n  f : [nat] -> nat\nVARS\n  x : nat\n  y : nat\n"
                       "RULES\n  f(o) => o\n  f(f(x)) => f(x)\n  f(x) => y\n")
        for argv in (["prove", str(bad)], ["check", str(bad), str(GOLDEN / "map.proof")]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (f"{bad}: 10:3: right-hand side uses variables not in the "
                           "left-hand side: y\n")

    @pytest.mark.parametrize("depth", [400, 600, 2000])
    def test_a_deeply_nested_term_proves_or_is_reported(self, tmp_path, depth):
        # the reader recurses once per nesting level; a term too deep for
        # the interpreter's stack is a diagnostic at the rule, not a crash
        system = tmp_path / "deep.afs"
        system.write_text("SIG\n  o : nat\n  s : [nat] -> nat\n  f : [nat] -> nat\nRULES\n"
                          f"  f(o) => {'s(' * depth}o{')' * depth}\n")
        proved = run_module("prove", str(system))
        if proved.returncode == 2:
            assert proved.stdout == ""
            assert proved.stderr == f"{system}: 6:3: term nested too deeply\n"
            return
        assert (proved.returncode, proved.stdout.splitlines()[0]) == (0, "YES"), proved.stderr
        proof = tmp_path / "deep.proof"
        proof.write_text(proved.stdout)
        checked = run_module("check", str(system), str(proof))
        assert (checked.returncode, checked.stdout, checked.stderr) == (0, "proof valid\n", "")

    def test_a_term_too_deep_to_render_is_reported(self, tmp_path):
        # the rule reads, but printing it in the pair listing needs more
        # stack than reading it did
        system = tmp_path / "deep.afs"
        system.write_text("SIG\n  s : [nat] -> nat\n  f : [nat] -> nat\nVARS\n  x : nat\n"
                          f"RULES\n  f({'s(' * 350}x{')' * 350}) => f(x)\n")
        proved = run_module("prove", str(system))
        assert (proved.returncode, proved.stdout) == (2, "")
        assert proved.stderr == f"{system}: term nested too deeply\n"

    @pytest.mark.parametrize("depth", [250, 450])
    def test_a_loop_term_too_deep_to_replay_is_reported(self, tmp_path, depth):
        # the loop lines read, but comparing (250) or rewriting (450) them
        # needs more stack than reading them did
        text = (GOLDEN / "fga.proof").read_text()
        deep = f"  loop: {'f(' * depth}o{')' * depth}\n"
        proof = tmp_path / "deep.proof"
        proof.write_text(re.sub(r"(  loop: .*\n)+", deep * 2, text))
        checked = run_module("check", str(CORPUS / "fga.afs"), str(proof))
        assert (checked.returncode, checked.stdout) == (1, "")
        assert checked.stderr == "invalid proof: term nested too deeply\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "prove", "/nonexistent/x.afs")
        assert code == 2
        assert err.strip()

    @pytest.mark.parametrize("cmd", ["prove", "check"])
    def test_system_not_utf8_exit_2(self, capsys, tmp_path, cmd):
        bad = tmp_path / "bad.afs"
        bad.write_bytes(b"\xff\xfe")
        extra = [str(GOLDEN / "map.proof")] if cmd == "check" else []
        code, _, err = run_cli(capsys, cmd, str(bad), *extra)
        assert code == 2
        assert f"cannot read {bad}: " in err

    def test_dot_unwritable_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "prove", str(CORPUS / "map.afs"),
                                 "--dot", "/nonexistent/x.dot")
        assert code == 2
        assert out == ""
        assert "cannot write /nonexistent/x.dot: " in err

    def test_verbose_lists_constraints(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "eval.afs"), "-v")
        assert code == 0
        assert "SUBTERM CRITERION nu(dom#) = 2" in out
        assert "weak " in out and "strict? " in out

    def test_dot_output(self, capsys, tmp_path):
        dot = tmp_path / "g.dot"
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "eval.afs"),
                               "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph")

    def test_engine_selection(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "map.afs"),
                               "--engines", "subterm")
        assert code == 0
        assert out.splitlines()[0] == "YES"


class TestCheck:
    def test_round_trip_all_corpus(self, capsys):
        # the goldens are pinned to `prove -v` output by TestGoldenProofs
        for path in sorted(CORPUS.glob("*.afs")):
            proof_file = GOLDEN / (path.stem + ".proof")
            code, _, err = run_cli(capsys, "check", str(path), str(proof_file))
            assert code == 0, f"{path.name}: {err}"

    @pytest.mark.parametrize("system, old, new", [
        ("eval", "nu(dom#) = 2", "nu(dom#) = 1"),
        # an over-applied functional slot: a proof that does not parse
        ("twice", "J(twice) = x1(x1(x2))", "J(twice) = x1(x1(x2), 0)"),
        # malformed numbers and entries: proofs that do not parse
        ("ack", "scc: 0 1 2", "scc: 0 1 x"),
        ("ack", "removed: 0 1", "removed: 0 1 q"),
        ("ack", "pair 0:", "pair x:"),
        ("ack", "nu(ack#) = 2", "nu(ack#) = two"),
        ("ack", "nu(ack#) = 2", "nu(ack# = 2"),
        ("twice", "J(twice) = x1(x1(x2))", "J(twice) x1(x1(x2))"),
    ], ids=["eval-projection", "twice-over-applied", "scc-not-a-number",
            "removed-not-a-number", "pair-index-not-a-number",
            "projection-not-a-number", "projection-unclosed",
            "interpretation-without-equals"])
    def test_tampered_proof_rejected(self, capsys, tmp_path, system, old, new):
        afs_file = str(CORPUS / f"{system}.afs")
        code, out, _ = run_cli(capsys, "prove", afs_file)
        tampered = out.replace(old, new)
        assert tampered != out
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(tampered)
        code, _, err = run_cli(capsys, "check", afs_file, str(proof_file))
        assert code == 1
        assert "invalid proof" in err
        assert "Traceback" not in err

    # a SUBTERM step of eval and a POLY step of twice; pair 0 lies outside
    # both steps' SCCs
    @pytest.mark.parametrize("system, old, new", [
        ("eval", "strict: 1\n  removed: 1\n", "strict: 1\n  removed: 0\n"),
        ("eval", "strict: 1\n  removed: 1\n", "strict: 1 0\n  removed: 1 0\n"),
        ("eval", "strict: 1\n  removed: 1\n", "strict:\n  removed:\n"),
        ("twice", "strict: 5 6\n  removed: 5 6\n", "strict: 5 6\n  removed: 5\n"),
        ("twice", "strict: 5 6\n  removed: 5 6\n", "strict: 5 6 0\n  removed: 5 6 0\n"),
        ("twice", "strict: 5 6\n  removed: 5 6\n", "strict:\n  removed:\n"),
    ], ids=["subterm-removed-not-strict", "subterm-outside-the-scc", "subterm-empty",
            "poly-removed-not-strict", "poly-outside-the-scc", "poly-empty"])
    def test_tampered_strict_and_removed_rejected(self, capsys, tmp_path, system, old, new):
        text = (GOLDEN / f"{system}.proof").read_text()
        tampered = text.replace(old, new)
        assert tampered != text
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(tampered)
        code, _, err = run_cli(capsys, "check", str(CORPUS / f"{system}.afs"), str(proof_file))
        assert code == 1
        assert "invalid proof" in err
        assert "Traceback" not in err

    # lines that add nothing to the parsed proof: the re-rendered text
    # differs from the given one at the first such line
    @pytest.mark.parametrize("old, new, number, expected, found", [
        ("    J(I) = x1\n", "    J(I) = x1\n    J(I) = x1\n", 32, "    J(I#) = x1", "    J(I) = x1"),
        ("  weak I-(x1) >= I(x1) (untag)\n", "", 28,
         "  weak I-(x1) >= I(x1) (untag)", "  weak I-(x1) >= I#(x1) (mark)"),
        ("  static-mode: no\n", "", 4, "  static-mode: no", "  rules: 4"),
    ], ids=["duplicated-interpretation", "deleted-weak-line", "deleted-static-mode"])
    def test_a_line_prove_does_not_print_is_rejected(self, capsys, tmp_path, old, new,
                                                     number, expected, found):
        text = (GOLDEN / "twice.proof").read_text()
        assert text.count(old) == 1
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(text.replace(old, new))
        code, _, err = run_cli(capsys, "check", str(CORPUS / "twice.afs"), str(proof_file))
        assert code == 1
        assert err == (f"invalid proof: line {number} is not the text prove prints: "
                       f"expected {expected!r}, found {found!r}\n")

    # `check` reads no first line and no END of its own, so a text without
    # steps stops at eval's first SCC, and a bare give-up names no reason
    # `prove` gives
    @pytest.mark.parametrize("text, error", [
        ("", "no step for SCC (0,)"),
        ("\n \n", "no step for SCC (0,)"),
        ("YES\n", "no step for SCC (0,)"),
        ("YES\nEND\n", "no step for SCC (0,)"),
        ("MAYBE\nGIVEUP\nEND\n",
         "no give-up after no engine names the reason '' with 0 loop terms"),
    ], ids=["empty", "blank", "verdict-only", "verdict-and-end", "bare-give-up"])
    def test_a_degenerate_text_is_rejected(self, capsys, tmp_path, text, error):
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(text)
        code, _, err = run_cli(capsys, "check", str(CORPUS / "eval.afs"), str(proof_file))
        assert (code, err) == (1, f"invalid proof: {error}\n")

    # quot's path ordering proof collapses minus to its first argument; an
    # argument function must give a well-typed term of its symbol's output type
    @pytest.mark.parametrize("template", ["\\z:nat. x1", "x1 @ x2"],
                             ids=["pi-of-an-arrow-type", "pi-ill-typed"])
    def test_ill_typed_argument_function_rejected(self, capsys, tmp_path, template):
        afs_file = str(CORPUS / "quot.afs")
        _, out, _ = run_cli(capsys, "prove", afs_file, "--engines", "rpo")
        tampered = out.replace("pi(minus) = x1\n", f"pi(minus) = {template}\n")
        assert tampered != out
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(tampered)
        code, _, err = run_cli(capsys, "check", afs_file, str(proof_file))
        assert code == 1
        assert "invalid proof" in err
        assert "Traceback" not in err

    def test_filtered_marked_symbol_round_trips(self, capsys, tmp_path):
        # the path ordering filters f#'s first argument away: pi(f#) = f#'2(x2)
        system = tmp_path / "f.afs"
        system.write_text("SIG\n  o : nat\n  s : [nat] -> nat\n  f : [nat * nat] -> bool\n"
                          "VARS\n  x : nat\n  y : nat\nRULES\n  f(x, s(y)) => f(s(x), y)\n")
        code, out, _ = run_cli(capsys, "prove", str(system), "--engines", "rpo")
        assert code == 0 and out.splitlines()[0] == "YES"
        assert "pi(f#) = f#'2(x2)" in out
        proof_file = tmp_path / "f.proof"
        proof_file.write_text(out)
        code, out, err = run_cli(capsys, "check", str(system), str(proof_file))
        assert (code, out, err) == (0, "proof valid\n", "")

    def test_verdict_flip_rejected(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "prove", str(CORPUS / "fga.afs"))
        assert out.splitlines()[0] == "MAYBE"
        proof_file = tmp_path / "flip.proof"
        proof_file.write_text(out.replace("MAYBE", "YES", 1))
        code, _, err = run_cli(capsys, "check", str(CORPUS / "fga.afs"),
                               str(proof_file))
        assert code == 1

    @pytest.mark.parametrize("old, new, diagnostic", [
        # the loop stops one step short of its first term
        ("  loop: (\\x:nat. f(x)) @ o\n  loop: f(o)\n", "  loop: (\\x:nat. f(x)) @ o\n",
         "loop does not end at its first term"),
        # g(\x. f(x), a) does not reduce to itself in one step
        ("loop: g(\\x:nat. f(x), b)", "loop: g(\\x:nat. f(x), a)",
         "loop step 1 is not a one-step reduction"),
        ("loop: g(\\x:nat. f(x), b)", "loop: h(\\x:nat. f(x), b)",
         "proof does not parse"),
        ("loop: g(\\x:nat. f(x), b)", "loop: g(\\x:nat. f(x), \\x:nat. b)",
         "loop term is ill-typed"),
    ], ids=["loop-not-closed", "loop-step-not-a-reduction", "loop-unknown-symbol",
            "loop-ill-typed"])
    def test_tampered_loop_rejected(self, capsys, tmp_path, old, new, diagnostic):
        afs_file = str(CORPUS / "fga.afs")
        text = (GOLDEN / "fga.proof").read_text()
        tampered = text.replace(old, new)
        assert tampered != text
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(tampered)
        code, _, err = run_cli(capsys, "check", afs_file, str(proof_file))
        assert code == 1
        assert f"invalid proof: {diagnostic}" in err
        assert "Traceback" not in err

    def test_tampered_self_application_loop_rejected(self, capsys, tmp_path):
        # another abstraction for w: (\x. x) @ B(w) reduces to B(w), which
        # is not the loop's first term
        text = (GOLDEN / "abfun.proof").read_text()
        tampered = text.replace("\\x:o. A(x) @ x", "\\x:o. x")
        assert tampered != text
        proof_file = tmp_path / "bad.proof"
        proof_file.write_text(tampered)
        code, _, err = run_cli(capsys, "check", str(CORPUS / "abfun.afs"), str(proof_file))
        assert code == 1
        assert "invalid proof: loop step 1 is not a one-step reduction" in err
        assert "Traceback" not in err

    def test_proof_not_utf8_exit_2(self, capsys, tmp_path):
        proof_file = tmp_path / "bad.proof"
        proof_file.write_bytes(b"YES\n\xff\xfe")
        code, _, err = run_cli(capsys, "check", str(CORPUS / "map.afs"), str(proof_file))
        assert code == 2
        assert f"cannot read {proof_file}: " in err

    def test_give_up_without_a_loop_checks(self, capsys, tmp_path):
        # a MAYBE proof claims nothing, so a give-up needs no loop lines;
        # but `prove` names the loop reason only with the loop it found
        looping = "  reason: a term reduces to itself, so the system does not terminate\n"
        unoriented = "  reason: no engine oriented a pair strictly\n"
        for name in ("fga", "abfun"):
            text = (GOLDEN / f"{name}.proof").read_text()
            bare = "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("  loop: "))
            assert bare != text and "GIVEUP" in bare and looping in bare
            proof_file = tmp_path / "bare.proof"
            proof_file.write_text(bare)
            code, _, err = run_cli(capsys, "check", str(CORPUS / f"{name}.afs"), str(proof_file))
            assert code == 1 and "with 0 loop terms" in err, name
            proof_file.write_text(bare.replace(looping, unoriented))
            assert run_cli(capsys, "check", str(CORPUS / f"{name}.afs"),
                           str(proof_file))[0] == 0, name

    def test_path_ordering_yes_for_abfun_rejected(self, capsys, tmp_path):
        # abfun does not terminate: with w = \x:o. A(x) @ x,
        # A(B(w)) @ B(w) -> w @ B(w) -> A(B(w)) @ B(w).  The path ordering
        # orients its collapsing pair with an empty pi and precedence, but it
        # does not contain beta, which the collapsing modes require.
        proof_file = tmp_path / "abfun.proof"
        proof_file.write_text("\n".join([
            "YES",
            "PREPARATION",
            "  local: yes",
            "  static-mode: no",
            "  rules: 1",
            "  pairs: 1",
            "  pair 0: A(B(F)) @ y ~> F @ y",
            "  graph: 1 nodes, 1 edges",
            "STEP",
            "  scc: 0",
            "  mode: local-collapsing",
            "  ARGFUN+RPO",
            "  strict: 0",
            "  removed: 0",
            "END",
        ]) + "\n")
        code, _, err = run_cli(capsys, "check", str(CORPUS / "abfun.afs"),
                               str(proof_file))
        assert code == 1
        assert "mode local-collapsing" in err


class TestCorpusCmd:
    def test_all_expectations(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", str(CORPUS))
        assert code == 0
        assert "0 unexpected" in out

    def test_violation_exit_1(self, capsys, tmp_path):
        (tmp_path / "x.afs").write_text("# expect: MAYBE\nSIG\n  o : nat\nRULES\n")
        code, out, _ = run_cli(capsys, "corpus", str(tmp_path))
        assert code == 1
        assert "EXPECTED MAYBE" in out

    def test_file_not_utf8_is_an_error_row(self, capsys, tmp_path):
        (tmp_path / "a.afs").write_bytes(b"\xff\xfe")
        (tmp_path / "b.afs").write_text("# expect: YES\nSIG\n  o : nat\nRULES\n")
        code, out, _ = run_cli(capsys, "corpus", str(tmp_path))
        assert code == 1
        rows = out.splitlines()
        assert rows[0].startswith("a.afs  ERROR (")
        assert rows[1].startswith("b.afs  YES")
        assert rows[2] == "2 systems, 1 unexpected"

    def test_module_entry_point(self):
        out = run_module("prove", str(CORPUS / "map.afs"))
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "YES"


class TestReadmeSynopsis:
    @pytest.mark.parametrize("cmd", ["prove", "corpus"])
    def test_documented_flags_are_the_real_ones(self, capsys, cmd):
        # the options in README's "Command line" block are exactly those of
        # the usage line `--help` prints (minus -h), so a removed flag
        # cannot stay documented
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        synopsis = block.split(f"afsterm {cmd} ", 1)[1].split("\nafsterm ", 1)[0]
        code, out, _ = run_cli(capsys, cmd, "--help")
        assert code == 0
        usage = out.split("\n\n", 1)[0]

        def flags(text):
            return set(re.findall(r"\[(--?[\w-]+)", text))

        assert flags(synopsis) and flags(synopsis) == flags(usage) - {"-h"}
