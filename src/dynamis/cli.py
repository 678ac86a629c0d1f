"""``dynamis`` command line: generate, replay and fit update streams.

Exit codes: 0 on success, 1 when continuous verification fails, 2 on usage
and input errors (bad arguments, unreadable or malformed stream, incompatible
stream, events naming non-live vertices or missing edges, generator
preconditions).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache

from .bench import ALGORITHMS, replay, scaling
from .errors import DynamisError, GeneratorParameterError, VerificationFailedError
from .generators import FAMILIES, GenSpec
from .stream import parse_stream, serialize_stream


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dynamis`` parser, built once per process: ``main`` may run many times in one."""
    parser = argparse.ArgumentParser(prog="dynamis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a stream file through one algorithm")
    p_run.add_argument("algorithm", choices=ALGORITHMS)
    p_run.add_argument("stream", help="stream file path, or - for stdin")
    p_run.add_argument("--verify", action="store_true", help="audit after every event")
    p_run.add_argument("--report", metavar="FILE", help="also write the JSON report here")

    # a GenSpec option left out keeps GenSpec's own default
    p_gen = sub.add_parser("gen", help="write a generated stream", argument_default=argparse.SUPPRESS)
    p_gen.add_argument("--family", choices=FAMILIES, required=True)
    p_gen.add_argument("--m", type=int, help="edge budget")
    p_gen.add_argument("--delta", type=int, help="max degree (arbitrary-removal)")
    p_gen.add_argument("--n", type=int, help="vertex budget (random families)")
    p_gen.add_argument("--events", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--p-insert", type=float)
    p_gen.add_argument("--query-rate", type=float)
    p_gen.add_argument("--vertex-rate", type=float)
    p_gen.add_argument("--out", metavar="FILE", default=None, help="output path (default stdout)")

    p_sc = sub.add_parser("scaling", help="fit a log-log work slope over stream sizes")
    p_sc.add_argument("algorithm", choices=ALGORITHMS)
    p_sc.add_argument("family", choices=FAMILIES)
    p_sc.add_argument(
        "--sizes",
        default="4096,8192,16384,32768,65536",
        help="comma-separated edge budgets",
    )
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--report", metavar="FILE", help="also write the JSON report here")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    # bytes from either source, decoded strictly once, whatever the locale
    if args.stream == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.stream, "rb") as fh:
            data = fh.read()
    text = data.decode("utf-8")
    # query answers are printed as they are produced, ahead of the report
    report = replay(args.algorithm, parse_stream(text), verify=args.verify, on_query=print)
    _emit(report, args.report)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in fields(GenSpec) if hasattr(args, f.name)})
    text = serialize_stream(spec.generate())
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_sizes(text: str) -> list[int]:
    """``--sizes`` as edge budgets: positive integers, at least two distinct ones."""
    try:
        sizes = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise GeneratorParameterError(f"--sizes takes comma-separated integers, got {text!r}") from None
    if any(m <= 0 for m in sizes):
        raise GeneratorParameterError(f"--sizes must be positive, got {text!r}")
    if len(set(sizes)) < 2:
        raise GeneratorParameterError(f"--sizes needs two distinct sizes to fit a slope, got {text!r}")
    return sizes


def cmd_scaling(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    report = scaling(args.algorithm, args.family, sizes, seed=args.seed)
    _emit(report, args.report)
    return 0


def _report_text(report: dict) -> str:
    """``json.dumps(report, indent=2)``, with the query pairs written directly.

    ``indent`` sends ``json`` to its pure-Python encoder, which is slow on the
    hundreds of pairs a query stream gives, so the rest of the report is
    dumped on its own and the pairs, ``[v, answer]`` integers, are laid out as
    that encoder lays them out.  The report builder adds ``query_results``
    last, so the text is the same.
    """
    pairs = report.get("query_results")
    if not pairs:
        return json.dumps(report, indent=2)
    rest = json.dumps({k: x for k, x in report.items() if k != "query_results"}, indent=2)
    body = ",\n".join(f"    [\n      {v},\n      {answer}\n    ]" for v, answer in pairs)
    return f'{rest[:-2]},\n  "query_results": [\n{body}\n  ]\n}}'


def _emit(report: dict, path: str | None) -> None:
    text = _report_text(report)
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "gen":
            return cmd_gen(args)
        return cmd_scaling(args)
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (DynamisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: stream is not UTF-8 text: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
