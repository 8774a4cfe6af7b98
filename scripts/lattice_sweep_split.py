#!/usr/bin/env python3
"""Time each library call of the lattice-sweep workload, one pass over its triples.

A pass runs one round of ``perfbench/workloads.py`` ``LatticeSweep`` (one op
per (window, grid, lattice) triple, through ``LatticeSweep.one``) in process
with BLAS on one thread.  The functions ``one`` calls, ``frame_bounds``,
``canonical_dual``, ``canonical_tight``, ``analysis``, ``synthesis`` and
``zak_tightness``, are replaced by timed wrappers in their modules, so the
split follows the workload's own call sequence.  After one warm-up pass, the
min and the median over PASSES passes are printed as JSON, in ms per pass.
Run it from two checkouts to compare them:

    PYTHONPATH=src python scripts/lattice_sweep_split.py
"""

import importlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 5
SEED = 0  # seeds the round: the order of the triples and the signals f
STAGES = {
    "frame_bounds": "gaborlab.frames",
    "canonical_dual": "gaborlab.frames",
    "canonical_tight": "gaborlab.frames",
    "analysis": "gaborlab.frames",
    "synthesis": "gaborlab.frames",
    "zak_tightness": "gaborlab.zak",
}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads its BLAS, below

    import numpy as np

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import LatticeSweep

    sweep = LatticeSweep(smoke=False, root=ROOT)
    sweep.setup()
    ops = sweep.round(0, np.random.default_rng(SEED))
    spent = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn):
        def call(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            spent[stage] += time.perf_counter() - t0
            return out

        return call

    # Every lattice of the sweep has a b < L, so no timed function reaches another through its module.
    for stage, module in STAGES.items():
        mod = importlib.import_module(module)
        setattr(mod, stage, timed(stage, getattr(mod, stage)))

    def one_pass():
        spent.update(dict.fromkeys(STAGES, 0.0))
        for op in ops:
            op.call()
        return dict(spent)

    one_pass()
    runs = [one_pass() for _ in range(PASSES)]
    totals = [sum(r.values()) for r in runs]
    report = {
        "triples": len(ops),
        "passes": PASSES,
        "ms_per_pass": {
            stage: {"min": 1e3 * min(r[stage] for r in runs),
                    "median": 1e3 * statistics.median(r[stage] for r in runs)}
            for stage in STAGES
        },
        "total_ms": {"min": 1e3 * min(totals), "median": 1e3 * statistics.median(totals)},
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
