"""One workload in one process: set up, run timed passes, write results.

Started by ``run.py``; not meant to be run by hand.  The process imports
``steklov`` from the ``--src`` directory, builds the workload's inputs,
notes the monotonic clock when set-up is done, and (unless
``--setup-only``) runs passes over the operation list as one closed-loop
client.  Results go to ``<workdir>/result.json``.

Untraced runs make at least two passes and start another only when the
mean pass time still fits in ``--seconds``.  Traced runs make pairs of one
untraced and one traced pass by the same rule, at least one pair; for
``cli_fresh`` both run the CLI in process so the two differ only by the
tracing.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import sys
import time

import workloads
from spans import Tracer


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh
                 if ".so" in line and "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def run_pass(ops, tracer=None):
    records = []
    for op in ops:
        token = tracer.begin_op(op.spec["name"]) if tracer else None
        exc = res = None
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as e:  # every failure is recorded and judged by run.py
            exc = e
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op(token, exc is not None)
        rec = {"op": op.spec["name"], "latency": latency}
        if exc is None:
            rec["status"] = "ok"
            rec["out"] = op.digest(res)
        elif op.refusal is not None and isinstance(exc, op.refusal):
            rec["status"] = "refused"
        else:
            rec["status"] = "error"
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        del res
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import steklov as sk

    runner = None
    if args.workload == "cli_fresh":
        ops, inventory, runner = workloads.cli_fresh(sk, args.seed, args.workdir, args.src)
    else:
        ops, inventory = getattr(workloads, args.workload)(sk, args.seed, args.workdir)
    ready = time.monotonic()
    result = {"setup_ready": ready}
    # Set-up objects live for the whole run; keep them out of the cyclic
    # collector so a full collection does not land on a random operation.
    gc.collect()
    gc.freeze()
    if not args.setup_only:
        result.update(measure(args, ops, runner))
        result["inventory"] = inventory
        result["specs"] = [op.spec for op in ops]
        result["blas_threads"] = blas_threads()
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(args, ops, runner) -> dict:
    start = time.perf_counter()
    records, walls, traced_walls = [], [], []

    def one(tracer=None):
        recs = run_pass(ops, tracer)
        for r in recs:
            r["pass"] = len(walls) + len(traced_walls)
        records.extend(recs)
        (traced_walls if tracer else walls).append(sum(r["latency"] for r in recs))

    if not args.trace:
        while len(walls) < 2 or (time.perf_counter() - start
                                 + sum(walls) / len(walls) <= args.seconds):
            one()
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"records": records, "walls": walls, "peak_rss_kb": rss_kb}

    if runner is not None:
        runner.in_process = True
    tracer = Tracer()
    while not traced_walls or (time.perf_counter() - start
                               + (sum(walls) + sum(traced_walls)) / len(walls)
                               <= args.seconds):
        # Alternate which pass of a pair goes first, so a warm-up or drift
        # does not always land on the same side of the overhead.
        for traced in (False, True) if len(walls) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                one(tracer if traced else None)
            finally:
                tracer.uninstall()
    tracer.write_jsonl(os.path.join(args.workdir, "spans.jsonl"))
    return {"records": records, "walls": walls, "traced_walls": traced_walls,
            "trace": tracer.summary(len(traced_walls))}


if __name__ == "__main__":
    sys.exit(main())
