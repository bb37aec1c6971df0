"""One benchmark pass in a fresh process: import afsterm, then for each system
parse, prove, render the proof and check the rendered text, the path of
`afsterm prove` followed by `afsterm check`.

Prints one JSON object on stdout. `ready` is the CLOCK_MONOTONIC reading once
`import afsterm` is done; the parent subtracts its own reading taken before
the spawn to get the set-up time. Times are raw; each comes with the `scale`
that turns it into seconds at the reference speed, from machine-speed probes
(calibrate.py) taken next to it: `setup_scale` right after the import, a
system's `scale` around the system, and the pass's `scale` over the whole
pass.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import afsterm  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from afsterm import engine, parser, prooftext  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import wide  # noqa: E402

VERDICTS = ("YES", "MAYBE")
CHECK_REPEATS = 5
CHECK_MIN_S = 0.05
PROBES = 3  # speed probes per block
PROBE_EVERY_S = 1.0


def reference_verdict(text: str):
    """The `# expect:` header of an AFS source, read independently of the
    prover."""
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#") and "expect:" in line:
            value = line.split("expect:", 1)[1].strip()
            return value if value in VERDICTS else None
    return None


def gate(expect, verdict, check_errors) -> list[str]:
    """Reasons an operation failed; empty when the verdict matches the
    reference and the rendered proof checks."""
    reasons = []
    if expect is None:
        reasons.append("source has no '# expect: YES|MAYBE' header")
    elif verdict != expect:
        reasons.append(f"verdict {verdict}, reference {expect}")
    reasons += [f"check_proof_text: {e}" for e in check_errors]
    return reasons


def run_system(name: str, text: str, check_repeats: int = 1) -> dict:
    """Prove one system and check the rendered proof; the check is repeated
    up to `check_repeats` times while the repeats total under CHECK_MIN_S,
    and `check_s` is the median, because one check can take a few ms."""
    # layer functions are looked up at call time so a tracer's wrappers apply
    row = {"system": name, "verdict": None, "prove_s": 0.0, "check_s": 0.0,
           "digest": None, "failure": []}
    expect = reference_verdict(text)
    cfg = engine.Config()
    try:
        t0 = time.perf_counter()
        afs = parser.parse_afs(text)
        proof = engine.prove(afs, cfg)
        rendered = prooftext.render_proof(proof)
        t1 = time.perf_counter()
        errors = prooftext.check_proof_text(rendered, afs)
        checks = [time.perf_counter() - t1]
        while len(checks) < check_repeats and sum(checks) < CHECK_MIN_S:
            start = time.perf_counter()
            prooftext.check_proof_text(rendered, afs)
            checks.append(time.perf_counter() - start)
    except Exception as exc:  # a raising system is a failed operation
        row["failure"] = [f"raised {type(exc).__name__}: {exc}"]
        return row
    row.update(verdict=proof.verdict, prove_s=t1 - t0,
               check_s=statistics.median(checks),
               digest=hashlib.sha256(rendered.encode()).hexdigest()[:16],
               failure=gate(expect, proof.verdict, errors))
    return row


def load_systems(corpus: list[str], wide_seed) -> list[tuple[str, str]]:
    systems = []
    for name in corpus:
        with open(os.path.join(ROOT, "corpus", f"{name}.afs")) as f:
            systems.append((name, f.read()))
    if wide_seed is not None:
        systems.append((f"wide-{wide_seed}", wide.generate(wide_seed)))
    return systems


def probe_block() -> list[float]:
    return [calibrate.probe() for _ in range(PROBES)]


def scale_of(probes: list[float]) -> float:
    """Factor that turns raw seconds into seconds at the reference speed."""
    return calibrate.REFERENCE_S / statistics.median(probes)


def run_pass(systems: list[tuple[str, str]], tracer=None, blocks=None) -> dict:
    """Run the systems in order. A block of speed probes precedes them and
    follows every stretch of systems that took PROBE_EVERY_S or more, and the
    last one; a system's `scale` comes from the two blocks around it. A
    traced pass checks each proof once, so its work counts do not depend on
    how fast the checks ran."""
    blocks = blocks or [probe_block()]
    rows, pending = [], []
    since = time.perf_counter()
    for i, (name, text) in enumerate(systems):
        lo = len(tracer.spans) if tracer else 0
        row = run_system(name, text, 1 if tracer else CHECK_REPEATS)
        if tracer:
            row["layers"] = tracing.summarize(tracer.spans, lo)["layers"]
        rows.append(row)
        pending.append(row)
        if time.perf_counter() - since >= PROBE_EVERY_S or i == len(systems) - 1:
            blocks.append(probe_block())
            for r in pending:
                r["scale"] = scale_of(blocks[-2] + blocks[-1])
            pending = []
            since = time.perf_counter()
    out = {"systems": rows, "scale": scale_of([p for b in blocks for p in b])}
    if tracer:
        out["layer_metrics"] = tracing.layer_metrics(tracing.summarize(tracer.spans))
        out["unwrapped"] = tracer.missing
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--corpus", nargs="*", default=[], help="corpus system names")
    ap.add_argument("--wide", type=int, help="seed of the generated wide system")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the pass and write its spans here")
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(afsterm.__file__)) != os.path.join(SRC, "afsterm"):
        print(f"afsterm imported from {afsterm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    first = probe_block()
    out: dict = {"ready": READY, "setup_scale": scale_of(first)}
    if not args.setup_only:
        systems = load_systems(args.corpus, args.wide)
        tracer = None
        if args.spans:
            tracer = tracing.Tracer()
            tracer.install()
        out.update(run_pass(systems, tracer, [first]))
        if tracer:
            tracer.write(args.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
