"""The proving loop: verdicts, determinism, self-verification, corpus."""

import ast
import functools
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from afsterm import afs as afs_module, engine, parse_afs, prooftext
from afsterm.afs import complete
from afsterm.dp import dependency_pairs
from afsterm.cli import main
from afsterm.engine import (
    Config, prove, run_corpus, YES, MAYBE, Preparation, GiveUp,
    ReductionPairStep, SubtermStep,
)
from afsterm.prooftext import check_proof_text, render_proof
from afsterm.record import replace
from afsterm.terms import (
    Abs, Base, BVar, Var, bounded_reductions, rewrite_step, subterms, term_text, type_subterms,
)

from helpers import (
    ROOT, load, CORPUS, GOLDEN, corpus_names, count_calls, mutants, random_starts,
    rederived_steps, reference_rewrite_step, type_walks, wide_system,
)

# Proves, renders and checks the systems named on the command line in a
# fresh interpreter, and prints the length of every module-level dict, list
# and set (and functools cache) of every afsterm module before and after.
GLOBALS_AROUND_THE_CORPUS = """
import importlib, json, pkgutil, sys
import afsterm
from afsterm.engine import prove
from afsterm.parser import parse_afs
from afsterm.prooftext import check_proof_text, render_proof

modules = [importlib.import_module(m.name)
           for m in pkgutil.walk_packages(afsterm.__path__, "afsterm.")]

def sizes():
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            key = f"{module.__name__}.{name}"
            if isinstance(value, (dict, list, set)) and not name.startswith("__"):
                out[key] = len(value)
            elif hasattr(value, "cache_info"):
                out[key] = value.cache_info().currsize
    return out

afsterm.parser._planted = ["sentinel"]  # the scan must see this one
before = sizes()
verdicts = []
for path in sys.argv[1:]:
    afs = parse_afs(open(path).read())
    proof = prove(afs)
    verdicts.append([proof.verdict, check_proof_text(render_proof(proof), afs)])
print(json.dumps({"before": before, "after": sizes(), "verdicts": verdicts}))
"""

# Proves, renders and checks the systems named on the command line in a
# fresh interpreter, first with the default engines and then with the path
# ordering alone, and prints whether `afsterm.orderings.rpo` was loaded
# after each round, which systems the second round proved, the number of
# `record`'s method templates after the import and after each round, and
# which of `dataclasses` and `inspect` were loaded at the end.
RPO_ON_FIRST_USE = """
import json, sys
import afsterm
from afsterm.engine import Config, prove
from afsterm.parser import parse_afs
from afsterm.prooftext import check_proof_text, render_proof
from afsterm.record import _TEMPLATES

systems = [parse_afs(open(path).read()) for path in sys.argv[1:]]
loaded, proved, templates = [], [], [len(_TEMPLATES)]
for cfg in (Config(), Config(engines=("rpo",))):
    for path, afs in zip(sys.argv[1:], systems):
        proof = prove(afs, cfg)
        assert check_proof_text(render_proof(proof), afs) == []
        if cfg.engines == ("rpo",) and proof.verdict == "YES":
            proved.append(path.rsplit("/", 1)[-1])
    loaded.append("afsterm.orderings.rpo" in sys.modules)
    templates.append(len(_TEMPLATES))
print(json.dumps({"loaded": loaded, "proved": proved, "templates": templates,
                  "unwanted": sorted({"dataclasses", "inspect"} & set(sys.modules))}))
"""


@functools.lru_cache(maxsize=None)
def corpus_in_two_rounds() -> dict:
    """`RPO_ON_FIRST_USE`'s report on the corpus, run once per session."""
    paths = [str(CORPUS / f"{name}.afs") for name in corpus_names()]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", RPO_ON_FIRST_USE, *paths],
                         capture_output=True, text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


# Imports afsterm in a fresh interpreter with `exec` and `compile` counted,
# and prints the AST nodes of the source of every afsterm module the import
# loaded and the characters of the source text the import passed to either
# (the method templates `record` compiles).
COMPILE_WORK = """
import ast, builtins, json, sys
real = builtins.exec, builtins.compile
chars = []

def counting(run):
    def counted(source, *args, **kwargs):
        if isinstance(source, str):
            chars.append(len(source))
        return run(source, *args, **kwargs)
    return counted

builtins.exec, builtins.compile = map(counting, real)
import afsterm
builtins.exec, builtins.compile = real
nodes = 0
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "afsterm":
        with open(module.__file__) as f:
            nodes += sum(1 for _ in ast.walk(ast.parse(f.read())))
print(json.dumps({"nodes": nodes, "chars": sum(chars)}))
"""


class TestVerdicts:
    @pytest.mark.parametrize("name", ["twice", "map", "eval", "mapappend",
                                      "quot", "ack", "rec", "dupapp", "apeq",
                                      "fromchain"])
    def test_yes(self, name):
        afs = load(name)
        proof = prove(afs)
        assert proof.verdict == YES
        assert check_proof_text(render_proof(proof), afs) == []

    @pytest.mark.parametrize("name", ["fga", "abfun"])
    def test_maybe(self, name):
        proof = prove(load(name))
        assert proof.verdict == MAYBE
        assert isinstance(proof.steps[-1], GiveUp)
        assert proof.steps[-1].loop  # both end at a replayable loop

    def test_empty_rules_yes(self):
        proof = prove(parse_afs("SIG\n  o : nat\nRULES\n"))
        assert proof.verdict == YES
        assert len(proof.steps) == 1
        assert isinstance(proof.steps[0], Preparation)


class TestLoopCheck:
    def test_a_lasso_is_cut_to_its_loop(self):
        # f(o) -> f(a) -> f(a): the reduction from the start term reaches a
        # loop that does not pass through the start term again
        afs = parse_afs("SIG\n  o : nat\n  a : nat\n  f : [nat] -> nat\n"
                        "VARS\n  x : nat\nRULES\n  f(x) => f(a)\n")
        proof = prove(afs)
        assert proof.verdict == MAYBE
        text = render_proof(proof)
        assert text.endswith("  loop: f(a)\n  loop: f(a)\nEND\n")
        assert check_proof_text(text, afs) == []

    def test_each_start_term_is_grounded_and_explored_once(self, monkeypatch):
        starts, built = [], []
        explore, substitute = engine.bounded_reductions, engine.substitute

        def recorded(t, *args, **kwargs):
            starts.append(term_text(t))
            return explore(t, *args, **kwargs)

        def counted(*args):
            built.append(1)
            return substitute(*args)

        monkeypatch.setattr(engine, "bounded_reductions", recorded)
        monkeypatch.setattr(engine, "substitute", counted)
        explored, builds = {}, {}
        # f(x, o) and f(o, y) are both grounded to f(o, o)
        overlap = parse_afs("SIG\n  o : nat\n  s : [nat] -> nat\n  f : [nat * nat] -> nat\n"
                            "  g : [nat] -> nat\nVARS\n  x : nat\n  y : nat\nRULES\n"
                            "  f(x, o) => g(x)\n  f(o, y) => g(y)\n  g(s(x)) => f(x, x)\n")
        for name, afs in [*((n, load(n)) for n in corpus_names()), ("overlap", overlap)]:
            starts.clear()
            built.clear()
            prove(afs)
            assert len(starts) == len(set(starts)), name
            explored[name] = starts[:]
            builds[name] = len(built)
        assert explored["overlap"] == ["f(o, o)", "g(s(o))"]
        # each rule's start term is built once per proof, however many SCCs
        # its pairs lie in
        assert builds["twice"] == len(explored["twice"]) == 3
        assert builds["overlap"] == 3
        # a base-type variable becomes the first constant of its type, or
        # the fresh constant when there is none; a functional one an
        # abstraction over such a term
        assert explored["apeq"] == ["ap(\\x:a. !c{a}, !c{a})", "dbl(!c{a})"]
        assert explored["fga"] == ["f(o)"]
        # twice(\x. o) is the start of two pairs' rules
        assert explored["twice"] == ["I(s(o))", "twice(\\x:nat. o)", "twice(\\x:nat. o) @ o"]
        # the self-application start comes after the ground start
        w = "\\x:o. A(x) @ x"
        assert explored["abfun"] == ["A(B(\\x:o. !c{o}))", f"A(B({w})) @ B({w})"]

    def test_abfun_ends_at_its_self_application_loop(self):
        proof = prove(load("abfun"))
        give_up = proof.steps[-1]
        assert isinstance(give_up, GiveUp) and give_up.tried == ()
        w = "\\x:o. A(x) @ x"
        assert [term_text(t) for t in give_up.loop] == [
            f"A(B({w})) @ B({w})", f"({w}) @ B({w})", f"A(B({w})) @ B({w})"]

    @pytest.mark.parametrize("sig, rule", [
        # F below two symbols: s may be C(B(F)) or B(F)
        ("A : [o] -> o -> o\n  B : [o -> o] -> o\n  C : [o] -> o", "A(C(B(F))) => F"),
        # an extra argument, grounded in the start and in w
        ("A : [o * o] -> o -> o\n  B : [o -> o] -> o\n  c : o", "A(B(F), z) => F"),
    ], ids=["deeper", "extra-argument"])
    def test_self_application_variants_end_at_a_loop(self, sig, rule):
        afs = parse_afs(f"SIG\n  {sig}\nVARS\n  F : o -> o\n  z : o\nRULES\n  {rule}\n")
        proof = prove(afs)
        assert proof.verdict == MAYBE
        loop = proof.steps[-1].loop
        assert loop and isinstance(loop[1].fn, Abs)  # w @ s[F := w]
        assert check_proof_text(render_proof(proof), afs) == []

    def test_no_self_application_start_when_F_occurs_outside_s(self):
        afs = parse_afs("SIG\n  A : [o * (o -> o)] -> o -> o\n  B : [o -> o] -> o\n"
                        "VARS\n  F : o -> o\nRULES\n  A(B(F), F) => F\n")
        problem = dependency_pairs(afs)
        collapsing = [p for p in problem.pairs if p.kind == "applied-head" and p.collapsing]
        assert [str(p) for p in collapsing] == ["A(B(F), F) @ y ~> F @ y"]
        assert list(engine._self_application_starts(collapsing[0], afs.signature)) == []

    def test_reducts_as_before_the_head_index(self):
        # rewrite_step keeps the reducts and their order (loop traces depend
        # on it) on every corpus start term, on the random twice starts and
        # on every term their explorations reach; `choice` has three rules
        # for one position
        choice = parse_afs("SIG\n  o : nat\n  s : [nat] -> nat\n  f : [nat * nat] -> nat\n"
                           "VARS\n  x : nat\n  y : nat\nRULES\n  f(x, y) => x\n"
                           "  f(x, y) => y\n  f(s(x), y) => f(x, s(y))\n")
        starts = []
        for afs in [*map(load, corpus_names()), choice]:
            problem = dependency_pairs(afs)
            scc = tuple(range(len(problem.pairs)))
            starts += [(problem.afs.rules, t)
                       for t in engine._start_terms(scc, problem, set())]
        twice = complete(load("twice"))
        starts += [(twice.rules, t) for t in random_starts("twice")]
        compared = ordered = 0
        for rules, start in starts:
            ex = bounded_reductions(start, rules, engine.LOOP_STEPS, max_nodes=engine.LOOP_NODES)
            for u in ex.traces:
                reducts = rewrite_step(u, rules)
                assert reducts == reference_rewrite_step(u, rules), term_text(u)
                compared += 1
                ordered += len(reducts) > 1
        assert compared > 400 and ordered > 100


class TestGoldenProofs:
    """`afsterm prove -v` must print exactly the committed proof of every
    corpus system.  A refactor that changes a proof changes its golden file
    too, so proof drift between commits shows up in the diff."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_prove_v_matches_golden(self, name, capsys):
        assert main(["prove", "-v", str(CORPUS / f"{name}.afs")]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}.proof").read_text()

    def test_one_golden_per_corpus_system(self):
        assert sorted(p.stem for p in GOLDEN.glob("*.proof")) == corpus_names()


class TestTypeWalks:
    """A work pin: a term node knows its type from construction, so
    parsing, proving and checking a well-typed system walk no term to type
    it.  `type_of` walks a term only to find where it is ill-typed, or to
    type it under binders."""

    @pytest.mark.parametrize("texts", [
        pytest.param(lambda: [(CORPUS / f"{name}.afs").read_text() for name in corpus_names()],
                     id="corpus"),
        pytest.param(lambda: [wide_system(2001)], id="wide-2001"),
    ])
    def test_no_walk(self, texts, monkeypatch):
        texts = texts()
        walks = type_walks(monkeypatch)
        for text in texts:
            afs = parse_afs(text)
            assert check_proof_text(render_proof(prove(afs), 1), afs) == []
        assert walks == []


class TestLinearWork:
    """A work pin: marking a pair, stepping the SCC walk and printing a term
    cost the same on a system of any size, so prove, render and check make
    as many Python-level calls per rule on 25, 50 and 100 copies of the
    `wide` systems (within 1 %).  It counts calls, not time."""

    def test_calls_per_rule_do_not_grow_with_the_system(self):
        per_rule = []
        for copies in (25, 50, 100):
            afs = parse_afs(wide_system(2001, copies))
            calls, errors = count_calls(
                lambda: check_proof_text(render_proof(prove(afs), 1), afs))
            assert errors == []
            per_rule.append(calls / len(afs.rules))
        assert max(per_rule) <= 1.01 * min(per_rule), per_rule


class TestPairWork:
    """A work pin: the dependency pairs, the graph and the subterm criterion
    walk each rule, pair and projected side once, so prove, render and
    check of the `wide` system of seed 2001 make at most 113,159
    Python-level calls; walks repeated per rule, per edge test and per
    projection made 164,359, and pairs marked and hashed before they were
    looked up, on a system that built a node per leaf occurrence, 120,715."""

    def test_calls_of_prove_render_and_check(self):
        afs = parse_afs(wide_system(2001))
        calls, errors = count_calls(
            lambda: check_proof_text(render_proof(prove(afs), 1), afs))
        assert errors == []
        assert calls <= 113_159, calls


class TestReaderWork:
    """A work pin: `parse_afs` reads each token and walks each rule side a
    bounded number of times, so it makes as many Python-level calls per
    rule on 25, 50 and 100 copies of the `wide` systems (within 1 %).  On
    50 copies it makes 44,466 calls, against the 163,597 (297 per rule) of
    a reader that built a record per token and walked each rule side about
    eight times, the 50,365 of one that walked each rule side twice, once
    to validate it and once to classify it, and the 48,166 of one that
    built a node for every occurrence of a variable or constant."""

    def test_calls_per_rule_do_not_grow_with_the_system(self):
        per_rule = []
        for copies in (25, 50, 100):
            text = wide_system(2001, copies)
            calls, afs = count_calls(lambda: parse_afs(text))
            per_rule.append(calls / len(afs.rules))
            if copies == 50:
                assert len(afs.rules) == 550
                assert calls <= 44_466, calls
        assert max(per_rule) <= 1.01 * min(per_rule), per_rule

    def test_each_rule_side_is_walked_once(self, monkeypatch):
        walks = []
        side_facts = afs_module._side_facts
        monkeypatch.setattr(afs_module, "_side_facts",
                            lambda t: walks.append(t) or side_facts(t))
        afs = parse_afs(wide_system(2001))
        assert len(walks) == 2 * len(afs.rules) == 1_100


def corpus_or_wide(name: str) -> str:
    return wide_system(2001) if name == "wide-2001" else (CORPUS / f"{name}.afs").read_text()


class TestClassification:
    """Work pins: an AFS works out its flags once, when it is built, and
    `complete` returns its input when it adds no rule, so parse, prove,
    render and check classify a system once.  Where completion adds a rule
    (`twice`), prove and check each build the completed system, which is
    classified when it is built.  One parse builds one `Base` per type
    name, so the type comparisons of node construction mostly meet the
    same object."""

    @pytest.mark.parametrize("name", corpus_names() + ["wide-2001"])
    def test_each_system_is_classified_once(self, name, monkeypatch):
        text = corpus_or_wide(name)
        parsed = parse_afs(text)
        extended = complete(parsed) is not parsed
        classified = []
        classify = afs_module.classify
        monkeypatch.setattr(afs_module, "classify",
                            lambda afs: classified.append(afs) or classify(afs))
        afs = parse_afs(text)
        assert check_proof_text(render_proof(prove(afs), 1), afs) == []
        assert len(classified) == (3 if extended else 1)
        assert classified[0] is afs and len(set(map(id, classified))) == len(classified)
        assert extended == (name == "twice")

    @pytest.mark.parametrize("name", corpus_names() + ["wide-2001"])
    def test_one_base_per_type_name(self, name):
        afs = parse_afs(corpus_or_wide(name))
        types = [t for f in afs.signature for t in f.decl.inputs + (f.decl.output,)]
        for rule in afs.rules:
            for s, _ in subterms(rule.lhs) + subterms(rule.rhs):
                types.append(s._type)
                if isinstance(s, Var):
                    types.append(s.var.type)
                elif isinstance(s, (BVar, Abs)):
                    types.append(s.type if isinstance(s, BVar) else s.var_type)
        bases: dict[str, set[int]] = {}
        for t in types:
            for u in type_subterms(t):
                if isinstance(u, Base):
                    bases.setdefault(u.name, set()).add(id(u))
        assert bases and all(len(ids) == 1 for ids in bases.values())


class TestDeterminism:
    @pytest.mark.parametrize("name", corpus_names())
    def test_a_slow_clock_changes_no_proof(self, name, monkeypatch):
        # each reading of the clock advances it by a second, as on a very
        # slow machine; the searches compare it only with the proof's
        # deadline, which is far away, so each proof is still its golden
        ticks = itertools.count()
        monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
        proof = prove(load(name), Config(timeout=1e9))
        assert render_proof(proof, 1) == (GOLDEN / f"{name}.proof").read_text()


class TestConfig:
    def test_engine_subset(self):
        # with only the path ordering engine, twice cannot be proved: the
        # collapsing modes never run it
        proof = prove(load("twice"), Config(engines=("rpo",)))
        assert proof.verdict == MAYBE
        # map is fine with the subterm criterion alone
        assert prove(load("map"), Config(engines=("subterm",))).verdict == YES

    def test_rpo_alone_proves_five_systems(self):
        # the path ordering engine on its own (it runs on non-collapsing
        # SCCs only), each proof accepted by the text checker; skipping the
        # argument-function tables that failed once changes no certificate
        certificates = {
            "ack": ["ARGFUN+RPO", "prec: ack > s", "prec: ack# > ack", "prec: ack# > s",
                    "prec: s > o", "strict: 0 1 2"],
            "map": ["ARGFUN+RPO", "prec: map > cons", "strict: 0"],
            "mapappend": ["ARGFUN+RPO", "prec: append > cons", "prec: map > cons", "strict: 0",
                          "ARGFUN+RPO", "prec: append > cons", "prec: cons > append#",
                          "strict: 1"],
            "quot": ["ARGFUN+RPO", "strict: 0",
                     "ARGFUN+RPO", "pi(minus) = x1", "prec: quot > s", "strict: 1"],
            "rec": ["ARGFUN+RPO", "strict: 0"],
        }
        proved = {}
        for name in corpus_names():
            afs = load(name)
            proof = prove(afs, Config(engines=("rpo",)))
            text = render_proof(proof)
            assert check_proof_text(text, afs) == [], name
            if proof.verdict == YES:
                proved[name] = [line.strip() for line in text.splitlines() if line.startswith(
                    ("    pi(", "    prec:", "  ARGFUN+RPO", "  strict:"))]
        assert proved == certificates

    def test_bad_config(self):
        with pytest.raises(ValueError):
            Config(timeout=0)
        with pytest.raises(ValueError):
            Config(timeout=float("nan"))
        with pytest.raises(ValueError):
            Config(engines=("magic",))

    def test_first_line_on_timeout(self):
        proof = prove(load("fga"), Config(timeout=0.001))
        assert proof.verdict == MAYBE


def count_engine_calls(monkeypatch) -> dict[str, int]:
    """The calls of `approximate_graph` through the engine's namespace and
    of `build_constraints` through the engine's and the proof text's from
    now on, counted in the returned dict."""
    calls = {"approximate_graph": 0, "build_constraints": 0}

    def counted(module, fn_name):
        fn = getattr(module, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, fn_name in ((engine, "approximate_graph"), (engine, "build_constraints"),
                            (prooftext, "build_constraints")):
        monkeypatch.setattr(module, fn_name, counted(module, fn_name))
    return calls


class TestSelfVerification:
    def test_tampered_proof_detected(self):
        afs = load("eval")
        proof = prove(afs)
        # remove the last step: the replay has none for the last SCC
        broken = type(proof)(proof.verdict, proof.steps[:-1], proof.problem)
        assert check_proof_text(render_proof(broken), afs) == ["no step for SCC (2,)"]

    def test_wrong_verdict_detected(self):
        afs = load("fga")
        proof = prove(afs)
        broken = type(proof)(YES, proof.steps, proof.problem)
        assert check_proof_text(render_proof(broken), afs) == [
            "line 1 is not the text prove prints: expected 'MAYBE', found 'YES'"]

    def test_missing_prune_step_detected(self):
        afs = load("eval")
        text = (GOLDEN / "eval.proof").read_text()
        assert check_proof_text(text.replace("PRUNE\n  removed: 3\n", ""), afs) == [
            "line 12 is not the text prove prints: expected 'PRUNE', found 'STEP'"]

    def test_scc_out_of_order_detected(self):
        afs = load("eval")
        text = (GOLDEN / "eval.proof").read_text()
        swapped = text.replace("scc: 0\n", "scc: X\n").replace("scc: 1\n", "scc: 0\n") \
            .replace("scc: X\n", "scc: 1\n")
        assert swapped != text
        assert check_proof_text(swapped, afs) == [
            "line 15 is not the text prove prints: expected '  scc: 0', found '  scc: 1'"]

    def test_strict_bookkeeping(self):
        proof = prove(load("eval"))
        for step in proof.steps:
            if isinstance(step, (SubtermStep, ReductionPairStep)):
                assert set(step.removed) <= set(step.scc)
                assert step.removed

    # the replay places a step on the SCC that is due and stops after a
    # give-up, so each of these texts differs from the rendered replay
    @pytest.mark.parametrize("name, tamper, error", [
        ("fga", lambda t: t.replace("  scc: 0 3\n", "  scc: 99\n"),
         "line 15 is not the text prove prints: expected '  scc: 0 3', found '  scc: 99'"),
        ("fga", lambda t: t.replace("  scc: 0 3\n", "  scc:\n"),
         "line 15 is not the text prove prints: expected '  scc: 0 3', found '  scc:'"),
        ("abfun", lambda t: t.replace("  scc: 0\n", "  scc: 99\n"),
         "line 10 is not the text prove prints: expected '  scc: 0', found '  scc: 99'"),
        ("abfun", lambda t: t.replace("  scc: 0\n", "  scc:\n"),
         "line 10 is not the text prove prints: expected '  scc: 0', found '  scc:'"),
        ("fga", lambda t: t.replace("PRUNE\n  removed: 1 2\n", ""),
         "line 12 is not the text prove prints: expected 'PRUNE', found 'GIVEUP'"),
        ("fga", lambda t: t.replace("END\n", t[t.index("GIVEUP"):]),
         "line 23 is not the text prove prints: expected 'END', found 'GIVEUP'"),
        ("abfun", lambda t: t.replace("END\n", t[t.index("GIVEUP"):]),
         "line 16 is not the text prove prints: expected 'END', found 'GIVEUP'"),
    ], ids=["fga-scc-99", "fga-scc-empty", "abfun-scc-99", "abfun-scc-empty",
            "fga-no-prune", "fga-second-giveup", "abfun-second-giveup"])
    def test_tampered_give_up_detected(self, name, tamper, error):
        text = (GOLDEN / f"{name}.proof").read_text()
        tampered = tamper(text)
        assert tampered != text
        assert check_proof_text(tampered, load(name)) == [error]

    @pytest.mark.parametrize("old, new, number", [
        ("  local: yes", "  local: no", 3),
        ("  static-mode: no", "  static-mode: yes", 4),
        ("  rules: 5", "  rules: 6", 5),
        ("  graph: 4 nodes, 9 edges", "  graph: 5 nodes, 9 edges", 11),
        ("  graph: 4 nodes, 9 edges", "  graph: 4 nodes, 8 edges", 11),
    ], ids=["local", "static-mode", "rules", "nodes", "edges"])
    def test_tampered_preparation_detected(self, old, new, number):
        text = (GOLDEN / "eval.proof").read_text()
        assert text.count(old + "\n") == 1
        assert check_proof_text(text.replace(old + "\n", new + "\n"), load("eval")) == [
            f"line {number} is not the text prove prints: expected {old!r}, found {new!r}"]

    # each certificate claims every pair it may orient strictly; on these
    # systems the first one found orients one of them only weakly
    @pytest.mark.parametrize("name, engine_fn, claim", [
        ("ack", "subterm_criterion", lambda scc, pairs: scc),
        ("twice", "search_poly",
         lambda cs, **_: tuple(c.pair_index for c in cs.strict_candidates)),
    ], ids=["subterm", "poly"])
    def test_a_rejected_certificate_is_an_internal_error(self, name, engine_fn, claim,
                                                         monkeypatch, capsys):
        search = getattr(engine, engine_fn)

        def overclaiming(*args, **kwargs):
            cert = search(*args, **kwargs)
            return cert and replace(cert, strict=claim(*args, **kwargs))

        monkeypatch.setattr(engine, engine_fn, overclaiming)
        with pytest.raises(engine.InternalError, match="certificate rejected"):
            prove(load(name))
        assert main(["prove", str(CORPUS / f"{name}.afs")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("internal error:")

    @pytest.mark.parametrize("name", corpus_names())
    def test_prove_builds_the_graph_and_each_constraint_set_once(self, name, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        proof = prove(load(name))
        searched = [s for s in proof.steps if isinstance(s, ReductionPairStep)
                    or isinstance(s, GiveUp) and {"poly", "rpo"} & set(s.tried)]
        assert calls == {"approximate_graph": 1, "build_constraints": len(searched)}

    # the replay builds a constraint set only for a reduction-pair step,
    # and rendering builds none: the `-v` constraint lines are the step's
    # (`NAME-v`: the `-v` golden of NAME)
    @pytest.mark.parametrize("name", corpus_names() + [f"{n}-v" for n in corpus_names()])
    def test_check_builds_the_graph_once_and_each_constraint_set_once(self, name, monkeypatch):
        system = name.removesuffix("-v")
        afs = load(system)
        proof = prove(afs)
        text = (GOLDEN / f"{system}.proof").read_text() if system != name else render_proof(proof)
        calls = count_engine_calls(monkeypatch)
        assert check_proof_text(text, afs) == []
        steps = [s for s in proof.steps if isinstance(s, ReductionPairStep)]
        assert calls == {"approximate_graph": 1, "build_constraints": len(steps)}
        render_proof(proof, 1)
        assert calls["build_constraints"] == len(steps)


class TestIncrementalDecomposition:
    # f(s(x)) => g(x) and g(x) => f(x): one SCC of two pairs; removing the
    # f# pair leaves the g# pair on no cycle, so a PRUNE follows the step
    MID_PRUNE = ("SIG\n  s : [nat] -> nat\n  f : [nat] -> nat\n  g : [nat] -> nat\n"
                 "VARS\n  x : nat\nRULES\n  f(s(x)) => g(x)\n  g(x) => f(x)\n")
    PRUNE_1 = "PRUNE\n  removed: 1\n"

    def test_prune_after_an_scc_step(self):
        afs = parse_afs(self.MID_PRUNE)
        text = render_proof(prove(afs))
        assert text.endswith("STEP\n  scc: 0 1\n  SUBTERM CRITERION nu(f#) = 1, nu(g#) = 1\n"
                             "  strict: 0\n  removed: 0\n" + self.PRUNE_1 + "END\n")
        assert check_proof_text(text, afs) == []
        assert check_proof_text(text.replace(self.PRUNE_1, ""), afs) == [
            "line 15 is not the text prove prints: expected 'PRUNE', found 'END'"]
        assert check_proof_text(text.replace(self.PRUNE_1, "PRUNE\n  removed: 0\n"), afs) == [
            "line 16 is not the text prove prints: expected '  removed: 1', found '  removed: 0'"]
        assert check_proof_text(text.replace("END\n", "PRUNE\n  removed:\nEND\n"), afs) == [
            "line 17 is not the text prove prints: expected 'END', found 'PRUNE'"]

    @pytest.mark.parametrize("name", corpus_names() + ["wide-0", "wide-3"])
    def test_same_steps_as_a_from_scratch_replay(self, name):
        if name.startswith("wide-"):
            afs = parse_afs(wide_system(int(name[5:])))
        else:
            afs = load(name)
        proof = prove(afs)
        assert rederived_steps(proof) == proof.steps


class TestSoundnessHarness:
    @pytest.mark.parametrize("name", ["twice", "map", "eval", "quot"])
    def test_no_loops_from_random_starts(self, name):
        afs = complete(load(name))
        assert prove(load(name)).verdict == YES
        found = 0
        for t in random_starts(name):
            ex = bounded_reductions(t, afs.rules, 200, max_nodes=600)
            assert ex.loop is None, f"loop from {t}"
            found += 1
        assert found == 50

    @pytest.mark.parametrize("name", corpus_names())
    def test_each_mutant_proves_and_checks(self, name):
        # a slice of the mutation harness: `check` shares dp, graph,
        # selection and constraints with `prove`, so the corpus alone would
        # not show a fault there that both pass; 9 mutants per system, but
        # abfun, whose one rule gives one, 100 in all
        systems = mutants(name, 9)
        assert len(systems) == (1 if name == "abfun" else 9)
        for afs in systems:
            proof = prove(afs)
            for verbosity in (0, 1):
                assert check_proof_text(render_proof(proof, verbosity), afs) == [], \
                    [str(rule) for rule in afs.rules]


class TestCorpus:
    def test_expectations_met(self):
        entries = run_corpus(CORPUS, Config())
        assert len(entries) == 12
        for e in entries:
            assert e.error is None, f"{e.path.name}: {e.error}"
            assert e.expect is not None
            assert e.verdict == e.expect, f"{e.path.name}"

    def test_no_module_global_changes_while_proving_it(self):
        # no module-level cache: in a fresh interpreter, proving and checking
        # the whole corpus leaves every module-level container of every
        # afsterm module at its length after import (constants are allowed)
        paths = [str(CORPUS / f"{name}.afs") for name in corpus_names()]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", GLOBALS_AROUND_THE_CORPUS, *paths],
                             capture_output=True, text=True, timeout=300, env=env)
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert len(report["verdicts"]) == 12
        assert all(not errors for _verdict, errors in report["verdicts"])
        assert report["before"]["afsterm.parser._planted"] == 1
        assert report["after"] == report["before"]

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # every command starts a fresh interpreter; `dataclasses` would add
        # `inspect` (and `ast`, `dis`, `tokenize`) to each cold start
        code = ("import sys; before = set(sys.modules); import afsterm; "
                "print(' '.join(sorted(set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=60, env=env)
        assert out.returncode == 0, out.stderr
        added = set(out.stdout.split())
        assert "afsterm.record" in added
        assert not added & {"dataclasses", "inspect"}

    def test_import_compiles_within_its_budget(self):
        # every command compiles the modules `import afsterm` loads and the
        # method templates `record` generates (bytecode is not cached), so
        # their size is a budget: a change that raises either sum says why
        # in CHANGES.md and raises the bound.  Counted on Python 3.11, whose
        # `ast` node set the node count depends on.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", COMPILE_WORK],
                             capture_output=True, text=True, timeout=60, env=env)
        assert out.returncode == 0, out.stderr
        work = json.loads(out.stdout)
        assert work["nodes"] <= 30_723, work
        assert work["chars"] <= 4_537, work

    def test_the_path_ordering_is_loaded_on_first_use(self):
        # no default proof of the corpus runs the path ordering, so neither
        # importing the package nor proving and checking loads its module
        report = corpus_in_two_rounds()
        assert report["loaded"] == [False, True]
        assert report["proved"] == ["ack.afs", "map.afs", "mapappend.afs", "quot.afs", "rec.afs"]

    def test_proving_and_checking_it_compiles_no_record_method(self):
        # `import afsterm` compiles every method template its record classes
        # need (34 shapes for 39 classes); neither round of proofs, nor the
        # path ordering's records, adds one, and no round loads `dataclasses`
        # or `inspect`
        report = corpus_in_two_rounds()
        assert report["templates"] == [34, 34, 34]
        assert report["unwanted"] == []

    def test_every_module_level_definition_has_a_user(self):
        # no helpers that nothing calls: each module-level function or class
        # of the package is referenced somewhere in the package outside its
        # own definition, or exported by the package
        src = ROOT / "src" / "afsterm"
        exported = {a.name for node in ast.parse((src / "__init__.py").read_text()).body
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        defined = []  # (file, name) of each module-level def and class
        users = {}  # name -> {(file, the module-level def it sits in, or None)}
        for path in sorted(src.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                owner = None
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    owner = stmt.name
                    defined.append((path, owner))
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.Name, ast.Attribute)):
                        name = node.id if isinstance(node, ast.Name) else node.attr
                        users.setdefault(name, set()).add((path, owner))
        exported.add("__getattr__")  # the import system calls a module's own (PEP 562)
        unused = [f"{path.relative_to(src)}:{name}" for path, name in defined
                  if name not in exported and not users.get(name, set()) - {(path, name)}]
        assert unused == []

    def test_empty_directory(self, tmp_path):
        assert run_corpus(tmp_path, Config()) == []

    def test_parse_failure_isolated(self, tmp_path):
        (tmp_path / "bad.afs").write_text("RULES\n  (\\x:nat. x) @ y => y\n")
        (tmp_path / "good.afs").write_text(
            "# expect: YES\nSIG\n  o : nat\nRULES\n")
        entries = run_corpus(tmp_path, Config())
        assert len(entries) == 2
        bad = next(e for e in entries if e.path.name == "bad.afs")
        good = next(e for e in entries if e.path.name == "good.afs")
        assert bad.error is not None and not bad.ok
        assert good.ok
