"""Benchmark of the steklov toolkit: one workload, timed, checked, reported.

Run from the repository root:

    python3 perfbench/run.py --workload lambda_ladder --seed 1 --seconds 15 --trace 0

Workloads are ``lambda_ladder``, ``certify_planar``, ``small_queries`` and
``cli_fresh`` (see ``perfbench/README.md``).  The run starts two set-up-only
worker processes and then the measuring worker, each from a fresh
interpreter; ``setup_s`` is the median of their three set-up times.  The
worker's outputs are then checked against the independent oracle in
``oracle.py``.

Standard output ends with one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it hold the
environment, the operation inventory and each metric with its unit and
sample counts.  The exit code is 1 when any operation failed its check and
2 when the benchmark could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from checks import Checker
from spans import metric_units
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(args, workdir: str, setup_only: bool, deadline: float):
    """Start a worker, wait for it, and return (result, set-up seconds)."""
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", SRC, "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            cwd=ROOT, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + err.decode("utf-8", "replace")[-3000:])
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["setup_ready"] - spawned


def import_seconds(samples: int = 3) -> float:
    """Median wall time of a fresh ``python -c "import steklov"``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import steklov"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# Tail percentile per workload: the highest that leaves at least ten samples
# beyond it in one pass (certify_planar, 106 operations; small_queries, 225)
# or, where one pass has too few operations for a useful tail, in the
# minimum run of two passes (lambda_ladder, 14; cli_fresh, 7).  It depends
# only on the operation list, never on how many passes fit in a run, so it
# stays put when the code gets faster.
TAIL_PCT = {"lambda_ladder": 64, "certify_planar": 90, "small_queries": 95,
            "cli_fresh": 28}


def percentile(latencies, pct: int):
    """(value, samples beyond it) for the sample at rank floor(pct% * N) + 1.

    The result is always a sample.  For p50 of an even count it is the upper
    of the two middle samples.  In lambda_ladder their mean would fall in the
    gap between two kinds of operation, and the lower one is the slowest
    cheap operation, a maximum that any stray slow sample moves; the upper
    one is the fastest expensive operation, a minimum that stray slow
    samples leave alone.
    """
    xs = sorted(latencies)
    rank = min(len(xs), math.floor(pct / 100 * len(xs)) + 1)
    return xs[rank - 1], len(xs) - rank


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "steklov")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(args, result) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": result.get("blas_threads"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "steklov", "__init__.py")):
        print(f"error: no steklov package under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            _, s = run_worker(args, os.path.join(run_dir, f"setup{i}"), True, deadline)
            setups.append(s)
        main_dir = os.path.join(run_dir, "main")
        result, s = run_worker(args, main_dir, False, deadline)
        setups.append(s)
        report = evaluate(args, result, main_dir, setups)
        if args.trace:
            shutil.copyfile(os.path.join(main_dir, "spans.jsonl"),
                            os.path.join(WORK, f"spans-{args.workload}.jsonl"))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env, lines, out = report
    print(json.dumps({"env": env}))
    print(json.dumps({"inventory": result["inventory"]}))
    for line in lines:
        print(line)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def evaluate(args, result, workdir, setups):
    checker = Checker(workdir)
    specs = {s["name"]: s for s in result["specs"]}
    records = result["records"]
    failures = []
    digests = {}
    for rec in records:
        spec = specs[rec["op"]]
        probs = checker.check(spec, rec)
        if spec["kind"].startswith("cli-") and rec["status"] == "ok":
            first = digests.setdefault(rec["op"], rec["out"]["sha"])
            if rec["out"]["sha"] != first:
                probs.append("stdout differs between passes")
        if probs:
            failures.append(f"{rec['op']} (pass {rec['pass']}): " + "; ".join(probs))
    for f in failures[:20]:
        print("FAILED " + f, file=sys.stderr)

    attempted, failed = len(records), len(failures)
    lines = [f"error_rate {failed / attempted:.6g} 1 ({failed} of {attempted} operations)"]
    walls = result["walls"]
    if not args.trace:
        lat = [r["latency"] for r in records]
        pct = TAIL_PCT[args.workload]
        tail_s, beyond = percentile(lat, pct)
        values = {
            "wall_s": statistics.mean(walls),
            "op_p50_ms": 1e3 * percentile(lat, 50)[0],
            "op_tail_ms": 1e3 * tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = {
            "wall_s": f"mean of {len(walls)} passes of {len(specs)} operations",
            "op_p50_ms": f"p50 of {len(lat)} operations",
            "op_tail_ms": f"p{pct} of {len(lat)} operations, {beyond} beyond it",
            "setup_s": f"median of {len(setups)} fresh set-ups",
            "peak_rss_mb": "max resident set of the worker and its children",
        }
    else:
        units = metric_units()
        values = dict(result["trace"])
        traced = result["traced_walls"]
        values["trace.wall_s"] = statistics.mean(traced)
        values["trace.overhead_s"] = statistics.mean(traced) - statistics.mean(walls)
        values["cli.import_s"] = import_seconds()
        notes = {"trace.overhead_s": f"traced minus untraced pass, {len(traced)} pairs"}
    for name, val in values.items():
        lines.append(f"{name} {val:.6g} {units[name]}"
                     + (f" ({notes[name]})" if name in notes else ""))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    env = environment(args, result)
    return env, lines, {"correct": failed == 0, "attempted": attempted,
                        "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
