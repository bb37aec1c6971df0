"""Prover benchmark: time to verdict, re-check time, set-up time and memory of
afsterm on three workloads, plus a traced run that breaks the time down by
layer.

    python3 perfbench/run.py --workload search|light|wide --seed N \
        --seconds S --trace 0|1

Each pass runs in a fresh worker process, one at a time: `orderings/poly.py`
keeps a process-global memo, and a command-line user starts cold. Passes are
repeated until `--seconds` have elapsed (at least MIN_PASSES); timings are
medians over passes, in seconds at a reference machine speed (calibrate.py),
because the speed of a shared machine drifts between runs. Every operation is
gated: the verdict must equal the `# expect:` header of the source and
`check_proof_text` must accept the rendered proof. The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# search: the two corpus systems whose time is ~99 % polynomial search;
# fga exhausts its space, fromchain finds a certificate.
# light: every other corpus system; small or no searches, so fixed costs show.
# wide: one generated system with many subterm-discharged SCCs; no search.
WORKLOADS = {
    "search": ["--corpus", "fga", "fromchain"],
    "light": ["--corpus", "abfun", "ack", "apeq", "dupapp", "eval", "map",
              "mapappend", "quot", "rec", "twice"],
    "wide": [],  # the seed is appended
}
SETUP_WORKERS = 10
MIN_PASSES = 4
WORKER_TIMEOUT_S = 150


class WorkerError(Exception):
    pass


def spawn(args: list[str]) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its raw set-up
    time (from just before the spawn to `import afsterm` done)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker exited with {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out, out["ready"] - start


def run_passes(job: list[str], seconds: float, trace: bool, spans_path: str):
    """Set-up-only workers, then passes until time is up. With `trace`, every
    second pass is traced."""
    begin = time.monotonic()
    spawn(["--setup-only"])  # compiles the bytecode; not measured
    setups = []  # set-up seconds at the reference speed
    for _ in range(SETUP_WORKERS):
        out, setup = spawn(["--setup-only"])
        setups.append(setup * out["setup_scale"])
    passes: list[tuple[bool, dict]] = []
    while len(passes) < MIN_PASSES or time.monotonic() - begin < seconds:
        traced = trace and len(passes) % 2 == 1
        out, setup = spawn(job + (["--spans", spans_path] if traced else []))
        setups.append(setup * out["setup_scale"])
        passes.append((traced, out))
    return setups, passes


def pass_sum(out: dict, key: str, scaled: bool = True) -> float:
    """Sum of a time over the pass's systems, at the reference speed unless
    `scaled` is false."""
    return sum(row[key] * (row["scale"] if scaled else 1.0) for row in out["systems"])


def report_systems(passes) -> tuple[int, int]:
    """Print one row per system and every failure; returns (attempted, failed)."""
    attempted = failed = 0
    rows: dict[str, list[dict]] = {}
    for _traced, out in passes:
        for row in out["systems"]:
            rows.setdefault(row["system"], []).append(row)
            attempted += 1
            if row["failure"]:
                failed += 1
                print(f"FAILED {row['system']}: {'; '.join(row['failure'])}")
    print(f"{'system':<12} {'verdict':<7} {'prove_s':>9} {'check_s':>9}  digest")
    for name, rs in rows.items():
        digests = sorted({r["digest"] or "-" for r in rs})
        note = "" if len(digests) == 1 else "  (proof text differs between passes)"
        print(f"{name:<12} {rs[0]['verdict'] or '-':<7} "
              f"{statistics.median(r['prove_s'] for r in rs):9.4f} "
              f"{statistics.median(r['check_s'] for r in rs):9.4f}  "
              f"{','.join(digests)}{note}")
    return attempted, failed


def report_layers(traced: list[dict]) -> None:
    """Per-system layer rows of the first traced pass, then the workload
    table over traced passes."""
    first = traced[0]
    print("layers per system (first traced pass): layer calls self_s")
    for row in first["systems"]:
        layers = row.get("layers", {})
        cells = [f"{layer} {v['calls']} {v['self_s']:.4f}"
                 for layer, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])]
        print(f"  {row['system']}: " + " | ".join(cells))
    totals: dict[str, dict] = {}
    for out in traced:
        for row in out["systems"]:
            for layer, v in row.get("layers", {}).items():
                t = totals.setdefault(layer, {"calls": 0, "self_s": 0.0, "work": 0})
                for key in t:
                    t[key] += v[key]
    n = len(traced)
    print(f"layer table (mean per traced pass over {n}):")
    print(f"  {'layer':<44} {'calls':>9} {'self_s':>9} {'work':>9}")
    for layer, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:<44} {t['calls'] / n:9.0f} {t['self_s'] / n:9.4f} {t['work'] / n:9.0f}")
    if first.get("unwrapped"):
        print(f"not traced (no longer in the program): {', '.join(first['unwrapped'])}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = WORKLOADS[workload] + (["--wide", str(seed)] if workload == "wide" else [])
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    setups, passes = run_passes(job, seconds, trace, spans_path)
    plain = [out for traced, out in passes if not traced]
    traced = [out for t, out in passes if t]

    print(f"workload {workload}, seed {seed}: {len(passes)} passes "
          f"({len(traced)} traced), {len(setups)} set-ups; medians over passes, raw seconds")
    attempted, failed = report_systems(passes)
    prove = statistics.median(pass_sum(out, "prove_s") for out in plain)
    print(f"untraced prove_s: raw {statistics.median(pass_sum(o, 'prove_s', False) for o in plain):.4f}"
          f", at the reference speed {prove:.4f}; median speed scale "
          f"{statistics.median(o['scale'] for o in plain):.3f}")
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "prove_s": (prove, "s"),
            "check_s": (statistics.median(pass_sum(out, "check_s") for out in plain), "s"),
            "peak_rss_mb": (statistics.median(out["rss_mb"] for out in plain), "MB"),
        }
    else:
        report_layers(traced)
        names = traced[0]["layer_metrics"]
        metrics = {}
        for name in names:
            unit = "s" if name.endswith(("_s", ".s")) else (
                "ratio" if name.endswith("_ratio") else "count")
            values = [out["layer_metrics"][name] * (out["scale"] if unit == "s" else 1)
                      for out in traced]
            if unit == "count" and len(set(values)) > 1:
                print(f"work count {name} differs between traced passes: {values}")
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = (median(values), unit)
        traced_prove = statistics.median(pass_sum(out, "prove_s") for out in traced)
        metrics["trace.overhead_ratio"] = (traced_prove / prove, "ratio")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(ops_failed {failed / attempted:.4f})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="afsterm prover benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "afsterm", "__init__.py")):
        print(f"afsterm sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
