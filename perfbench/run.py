"""Whole-path benchmark of the hiding service: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py                                  # all workloads, untraced
    python3 perfbench/run.py --workload mem-mixed --seed 3 --seconds 15
    python3 perfbench/run.py --workload oblivious-read --trace 1 --out spans/

Each workload runs in a child process of its own, so warm state stays
apart and ``peak_rss_mib`` belongs to that workload; the parent kills a
child that overruns or is interrupted, and removes the temporary
directory (inside the checkout) that holds the file-backed volumes.
Nothing else is written unless ``--out`` names a directory.

The report lists, per workload, the operations attempted and failed (by
exception type), every metric with its unit and every check.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKLOADS = ("mem-mixed", "file-journal-mixed", "engine-read-heavy", "oblivious-read")
#: A child that has not finished by then is killed (runs must end within 180 s).
CHILD_TIMEOUT_S = 170.0
#: Span records kept for --out (the aggregates cover every span regardless).
RETAINED_SPANS = 200_000


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced phase and report per-layer metrics")
    parser.add_argument("--out", help="directory for result JSON and span JSON lines")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result as JSON."""
    # One CPU for the whole workload: with the interpreter lock its threads
    # cannot run Python in parallel anyway, and same-CPU hand-offs avoid the
    # cross-CPU wake-up delays that made the engine's rate swing on a shared
    # host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [SOURCE, HERE]
    import workloads

    result = workloads.run(
        args.child, args.seed, args.seconds, bool(args.trace), args.tmp,
        RETAINED_SPANS if args.out else 0,
    )
    recorder = result.pop("spans")
    if args.out and args.trace:
        recorder.write_jsonl(os.path.join(args.out, f"{args.child}.spans.jsonl"))
        result["spans_dropped"] = recorder.dropped
    print(json.dumps(result))
    return 0


def _run_child(name: str, args: argparse.Namespace, tmp: str) -> dict | None:
    os.makedirs(tmp)
    command = [
        sys.executable, os.path.abspath(__file__), "--child", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp,
    ]
    if args.out:
        command += ["--out", args.out]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} ran past {CHILD_TIMEOUT_S:.0f} s and was killed", file=sys.stderr)
        return None
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"perfbench: {name} exited with code {process.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _print_report(result: dict, args: argparse.Namespace) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{args.seconds:g} s per phase, {mode}) ==")
    failures = ", ".join(f"{kind} {count}" for kind, count in sorted(result["failures"].items()))
    print(f"attempted {result['attempted']}  failed {result['failed']}"
          + (f" ({failures})" if failures else ""))
    for title, table in (("metrics", result["metrics"]), ("report only", result["extra"]),
                         ("per layer", result["per_layer"])):
        if table:
            print(f"  {title}:")
            for name, (value, unit) in table.items():
                print(f"    {name:<36} {value:>14.6g} {unit}")
    print("  checks:")
    for name, ok, detail in result["checks"]:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))


def _summary(results: list[dict], args: argparse.Namespace) -> dict:
    table = "per_layer" if args.trace else "metrics"
    if len(results) == 1:
        metrics = results[0][table]
    else:
        metrics = {f"{r['workload']}.{name}": v for r in results for name, v in r[table].items()}
    return {
        "correct": all(ok for r in results for _, ok, _ in r["checks"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def _stray_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def _on_terminate(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if args.child:
        return _child(args)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}; run it from a checkout", file=sys.stderr)
        return 2
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _on_terminate)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    results = []
    try:
        for name in names:
            result = _run_child(name, args, os.path.join(tmp, name))
            if result is None:
                return 1
            results.append(result)
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if _stray_children() or threading.active_count() != 1:
        print("perfbench: a child process or thread outlived its workload", file=sys.stderr)
        return 1
    for result in results:
        _print_report(result, args)
    summary = _summary(results, args)
    if args.out:
        with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as out:
            json.dump({"results": results, "summary": summary}, out, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
