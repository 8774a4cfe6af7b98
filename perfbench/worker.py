"""One workload in one fresh process.

Prints ``ready`` once set-up is done (imports, window sampling, warm-up),
then runs whole rounds of the workload until ``--seconds`` have passed
(or ``--rounds`` rounds), and prints one JSON line with every op's latency
and failures, the peak RSS and, when traced, the per-layer metrics.
Started by ``run.py``, which sets PYTHONPATH, the cache root and the BLAS
thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--root", required=True, help="scratch dir for caches and outdirs")
    ap.add_argument("--rounds", type=int, default=None, help="stop after this many rounds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="trace, and write the spans here")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.smoke, args.root)
    wl.setup()
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install()
    rng = np.random.default_rng(args.seed)
    limits = [r for r in (args.rounds, wl.max_rounds) if r]
    max_rounds = min(limits) if limits else math.inf
    ops: list[list] = []  # [latency_s, failures, kind]
    start = time.perf_counter()
    rounds = 0
    cut = False
    while rounds < max_rounds and not cut:
        for op in wl.round(rounds, rng):
            if op.prepare is not None:
                op.prepare()
            if tracer is not None:
                tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op, the run goes on
                dt = time.perf_counter() - t0
                ops.append([dt, [f"exception:{op.kind}:{type(exc).__name__}"], op.kind])
                continue
            dt = time.perf_counter() - t0
            ops.append([dt, op.check(out), op.kind])
            # a single-round workload is cut at the time limit; others end
            # only at a round boundary, so every run holds whole rounds
            if wl.max_rounds == 1 and time.perf_counter() - start >= args.seconds:
                cut = True
                break
        shutil.rmtree(os.path.join(args.root, f"r{rounds}"), ignore_errors=True)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    for pos, fails in wl.finish().items():  # single-round workloads only
        ops[pos][1].extend(fails)

    result = {
        "ops": ops,
        "rounds": rounds,
        "cut": cut,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"blas": blas_build(), "grids": wl.grids()},
    }
    if args.workload == "cli-mix":
        result["repeat_share"] = wl.repeat_share
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        result["span_problems"] = tracing.check_tree(tracer.spans)[:20]
        result["spans"] = len(tracer.spans)
        tracer.dump(args.spans)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
