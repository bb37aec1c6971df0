"""Machine-speed probe used to normalise timings.

On a shared machine the speed of one core drifts by up to ~1.7x over minutes
(measured on a 2-core Xeon VM), and CPU time drifts with it, so raw seconds
from runs minutes apart are not comparable. Every worker times this fixed,
pure-Python kernel before and after its work, and its times are scaled by
REFERENCE_S / (median kernel time of the worker), giving seconds at a
reference speed. The speed also jitters within a second, so one probe is
noisy; the median of a worker's six is steadier. The kernel uses no afsterm
code, so a change to the prover cannot move it; it exercises what the prover
spends its time on: building frozen dataclasses, hashing them in a memo,
recursion, small sorts and dict updates.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

ROUNDS = 60
# kernel time at the reference speed; about its time on the machine above
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("v", (i % 5,))
    return _Node("f" if i % 2 else "g",
                 (_build(depth - 1, i + 1), _build(depth - 1, i * 3 + 1)))


def _walk(t: _Node, memo: dict) -> int:
    hit = memo.get(t)
    if hit is not None:
        return hit
    if t.op == "v":
        out = t.args[0]
    else:
        vals = sorted(_walk(a, memo) for a in t.args)
        out = (vals[0] * 3 + vals[-1]) % 97 + len(t.op)
    memo[t] = out
    return out


def kernel() -> int:
    acc = 0
    for r in range(ROUNDS):
        acc += _walk(_build(7, r), {})
        counts: dict = {}
        for i in range(300):
            key = (i % 17, r, "k")
            counts[key] = counts.get(key, 0) + i
        acc += len(counts)
    return acc


def probe() -> float:
    """Seconds the kernel takes now. The cyclic collector is off meanwhile:
    its cost grows with the caller's heap, not with the machine's speed."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
