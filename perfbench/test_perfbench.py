"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os

import run
import tracing
import wide
import worker
from afsterm import parse_afs, prooftext

CORPUS = os.path.join(worker.ROOT, "corpus")


def corpus_text(name: str) -> str:
    with open(os.path.join(CORPUS, f"{name}.afs")) as f:
        return f.read()


def test_wide_generator_is_deterministic_per_seed():
    assert wide.generate(7) == wide.generate(7)
    assert wide.generate(7) != wide.generate(8)
    assert sorted(wide.generate(7).splitlines()[2:]) == \
        sorted(wide.generate(8).splitlines()[2:])


def test_wide_systems_parse_with_disjoint_names():
    for seed in range(3):
        afs = parse_afs(wide.generate(seed, copies=3))
        assert len(afs.rules) == 3 * 11
    afs = parse_afs(wide.generate(0))
    names = [f.name for f in afs.signature]
    assert len(names) == len(set(names)) == wide.DEFAULT_COPIES * 13
    assert worker.reference_verdict(wide.generate(0)) == "YES"


def test_small_wide_system_is_proved_and_checked():
    row = worker.run_system("wide", wide.generate(5, copies=2))
    assert row["verdict"] == "YES" and row["failure"] == []


def test_wrong_verdict_and_raising_system_count_as_failed():
    wrong = corpus_text("ack").replace("# expect: YES", "# expect: MAYBE")
    out = worker.run_pass([("ack", corpus_text("ack")), ("ack-wrong", wrong),
                           ("broken", "SIG\n  f : \n")])
    failures = {row["system"]: row["failure"] for row in out["systems"]}
    assert failures["ack"] == []
    assert failures["ack-wrong"] == ["verdict YES, reference MAYBE"]
    assert failures["broken"][0].startswith("raised ParseError")


def test_corrupted_proof_text_counts_as_failed(monkeypatch):
    render = prooftext.render_proof

    def corrupt(proof, verbosity=0):
        text = render(proof, verbosity)
        assert "nu(ack#) = 2" in text
        return text.replace("nu(ack#) = 2", "nu(ack#) = 1")

    monkeypatch.setattr(prooftext, "render_proof", corrupt)
    row = worker.run_system("ack", corpus_text("ack"))
    assert row["verdict"] == "YES"
    assert row["failure"] and row["failure"][0].startswith("check_proof_text:")


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 2], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 1]]
    layers = tracing.summarize(spans)["layers"]
    assert layers["a"]["self_s"] == 6.0
    assert layers["b"] == {"calls": 2, "self_s": 3.0, "s": 4.0, "work": 3}
    assert tracing.summarize(spans, 1)["layers"]["b"]["s"] == 4.0


def test_traced_work_counts_repeat_and_cover_the_declared_metrics(tmp_path):
    job = ["--corpus", "ack", "apeq", "twice", "--spans", str(tmp_path / "s.json")]
    first, _ = run.spawn(job)
    second, _ = run.spawn(job)
    counts = [{k: v for k, v in out["layer_metrics"].items() if not k.endswith(("_s", ".s"))}
              for out in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["orderings.poly_search.calls"] > 0
    assert first["unwrapped"] == []
    spans = json.loads((tmp_path / "s.json").read_text())["spans"]
    assert spans and all(len(s) == 5 for s in spans)

    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"] for m in bench["per_layer"]}
    assert declared == set(first["layer_metrics"]) | {"trace.overhead_ratio"}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
