"""Benchmark entry point.

    python3 perfbench/run.py --workload mis-churn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Prints each metric by name and unit, writes a result file
with the environment under ``.bench_build/perfbench/``, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Exits 1 if any replay failed a check, 2 if the checkout has no source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("mis-churn", "mis-adversarial", "flow-match", "verified")
OUT_DIR = os.path.join(".bench_build", "perfbench")


def use_checkout_source(root: str) -> str | None:
    """Put ``root/src`` first on the import path; return an error if it is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dynamis", "__init__.py")):
        return f"no dynamis source under {src}"
    for path in (src, root):
        if path not in sys.path:
            sys.path.insert(0, path)
    import dynamis

    if not os.path.abspath(dynamis.__file__).startswith(src + os.sep):
        return f"dynamis imported from {dynamis.__file__}, not from {src}"
    return None


def git_sha(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(root),
        "seed": seed,
    }


def result_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }
    )


def write_result(result: dict, env: dict, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    )
    body = dict(result, environment=env)
    body["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = use_checkout_source(ROOT)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench.suite import run_workload

    out_dir = os.path.join(ROOT, OUT_DIR)
    work_dir = os.path.join(out_dir, f"work-{args.workload}-seed{args.seed}-trace{args.trace}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    env = environment(ROOT, args.seed)
    path = write_result(result, env, out_dir)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu_model']}  sha {env['git_sha']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} replays)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  result file {os.path.relpath(path, ROOT)}")
    print(result_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
