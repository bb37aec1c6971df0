"""Generator for the `wide` workload: one AFS made of k renamed copies of
each of four small terminating systems (ack, mapappend, map, rec).

Every symbol and variable of copy i carries the suffix `_i`, so no two
copies share a name; shared names such as `F` have clashing types across the
four systems and would be rejected by the parser. Base types (`nat`, `list`)
are shared. The disjoint union of terminating systems terminates, so the
reference verdict is YES. All four systems are discharged by the subterm
criterion alone, so the polynomial search never runs and the graph,
dependency-pair and engine-loop layers carry the work. Higher-order systems
whose SCCs need an interpretation (such as `twice`) are deliberately left
out: formative rules are selected by type across copies, which makes the
polynomial search dominate and grow faster than linearly in k.

The seed shuffles the order of the rules, which renumbers pairs and SCCs
but keeps the amount of work nearly constant.
"""

from __future__ import annotations

import random

# `{p}` marks every symbol and variable name; it becomes `_<copy index>`.
TEMPLATES = {
    "ack": (
        ["o{p} : nat", "s{p} : [nat] -> nat", "ack{p} : [nat * nat] -> nat"],
        ["x{p} : nat", "y{p} : nat"],
        [
            "ack{p}(o{p}, y{p}) => s{p}(y{p})",
            "ack{p}(s{p}(x{p}), o{p}) => ack{p}(x{p}, s{p}(o{p}))",
            "ack{p}(s{p}(x{p}), s{p}(y{p})) => ack{p}(x{p}, ack{p}(s{p}(x{p}), y{p}))",
        ],
    ),
    "mapappend": (
        ["nil{p} : list", "cons{p} : [list * list] -> list",
         "map{p} : [(list -> list) * list] -> list",
         "append{p} : [list * list] -> list"],
        ["F{p} : list -> list", "h{p} : list", "t{p} : list", "l{p} : list"],
        [
            "map{p}(F{p}, nil{p}) => nil{p}",
            "map{p}(F{p}, cons{p}(h{p}, t{p})) => cons{p}(F{p} @ h{p}, map{p}(F{p}, t{p}))",
            "append{p}(nil{p}, l{p}) => l{p}",
            "append{p}(cons{p}(h{p}, t{p}), l{p}) => cons{p}(append{p}(h{p}, t{p}), l{p})",
        ],
    ),
    "map": (
        ["nil{p} : list", "cons{p} : [nat * list] -> list",
         "map{p} : [(nat -> nat) * list] -> list"],
        ["F{p} : nat -> nat", "h{p} : nat", "t{p} : list"],
        [
            "map{p}(F{p}, nil{p}) => nil{p}",
            "map{p}(F{p}, cons{p}(h{p}, t{p})) => cons{p}(F{p} @ h{p}, map{p}(F{p}, t{p}))",
        ],
    ),
    "rec": (
        ["o{p} : nat", "s{p} : [nat] -> nat",
         "rec{p} : [nat * nat * (nat -> nat -> nat)] -> nat"],
        ["x{p} : nat", "y{p} : nat", "F{p} : nat -> nat -> nat"],
        [
            "rec{p}(o{p}, y{p}, F{p}) => y{p}",
            "rec{p}(s{p}(x{p}), y{p}, F{p}) => F{p} @ x{p} @ (rec{p}(x{p}, y{p}, F{p}))",
        ],
    ),
}

REFERENCE_VERDICT = "YES"
DEFAULT_COPIES = 50


def generate(seed: int, copies: int = DEFAULT_COPIES) -> str:
    """Return the AFS source text for `seed`; the same seed gives the same
    text. The first line is the `# expect:` header the gate reads."""
    rng = random.Random(seed)
    sig: list[str] = []
    var: list[str] = []
    rules: list[str] = []
    index = 0
    for _ in range(copies):
        for name in sorted(TEMPLATES):
            s, v, r = TEMPLATES[name]
            p = f"_{index}"
            index += 1
            sig += [line.format(p=p) for line in s]
            var += [line.format(p=p) for line in v]
            rules += [line.format(p=p) for line in r]
    rng.shuffle(rules)
    lines = [f"# expect: {REFERENCE_VERDICT}",
             f"# wide: {copies} copies each of {', '.join(sorted(TEMPLATES))}; seed {seed}",
             "SIG"]
    lines += ["  " + x for x in sig]
    lines.append("VARS")
    lines += ["  " + x for x in var]
    lines.append("RULES")
    lines += ["  " + x for x in rules]
    return "\n".join(lines) + "\n"
