"""Command line front end: prove a file, check a saved proof, run a corpus
directory, dump the dependency graph."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .afs import IllegalLhs
from .engine import Config, ENGINE_ORDER, prove, run_corpus, InternalError
from .graph import approximate_graph, to_dot
from .parser import ParseError, parse_afs
from .prooftext import render_proof, check_proof_text
from .terms import IllTyped


def _load(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return parse_afs(text)
    except (ParseError, IllegalLhs, IllTyped) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _config(args) -> Config:
    engines = getattr(args, "engines", None)
    try:
        return Config(timeout=args.timeout,
                      engines=tuple(engines.split(",")) if engines else ENGINE_ORDER)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2)


def cmd_prove(args) -> int:
    afs = _load(args.file)
    cfg = _config(args)
    try:  # a term the reader accepts can still be too deep for the walks
        proof = prove(afs, cfg)
        text = render_proof(proof, args.verbose)
        dot = args.dot and to_dot(approximate_graph(proof.problem))
    except InternalError as exc:
        print(f"internal error: search produced an invalid certificate: {exc}",
              file=sys.stderr)
        return 1
    except RecursionError:
        print(f"{args.file}: term nested too deeply", file=sys.stderr)
        return 2
    if dot:
        try:
            Path(args.dot).write_text(dot)
        except OSError as exc:
            print(f"cannot write {args.dot}: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    afs = _load(args.file)
    try:
        text = Path(args.proof).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.proof}: {exc}", file=sys.stderr)
        return 2
    errors = check_proof_text(text, afs)
    if errors:
        for e in errors:
            print(f"invalid proof: {e}", file=sys.stderr)
        return 1
    print("proof valid")
    return 0


def cmd_corpus(args) -> int:
    cfg = _config(args)
    if not Path(args.dir).is_dir():
        print(f"not a directory: {args.dir}", file=sys.stderr)
        return 2
    entries = run_corpus(args.dir, cfg)
    width = max((len(e.path.name) for e in entries), default=10)
    bad = 0
    for e in entries:
        if e.error is not None:
            status = f"ERROR ({e.error})"
            bad += 1
        else:
            status = e.verdict or "?"
            if e.expect and e.expect != e.verdict:
                status += f"  EXPECTED {e.expect}"
                bad += 1
        print(f"{e.path.name:<{width}}  {status:<28} {e.seconds:6.2f}s  {e.steps} steps")
    print(f"{len(entries)} systems, {bad} unexpected")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afsterm",
        description="Termination prover for algebraic functional systems "
                    "(simply-typed higher-order rewriting with beta).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove termination of an .afs file")
    p.add_argument("file")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--engines", help="comma separated subset of subterm,poly,rpo")
    p.add_argument("--dot", help="write the dependency graph in DOT format")
    p.add_argument("-v", "--verbose", action="count", default=0)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="re-validate a saved proof")
    p.add_argument("file")
    p.add_argument("proof")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("corpus", help="run every .afs file in a directory")
    p.add_argument("dir")
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(func=cmd_corpus)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
