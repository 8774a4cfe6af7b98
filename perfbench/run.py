"""gaborlab benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``scan``,
``lattice-sweep`` and ``cli-mix``.  Every workload runs closed-loop with one
client in a fresh worker process, with BLAS on one thread and every cache
and output dir under a temporary root in ``.perfbench/``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median, over several fresh processes, of the time from
  process start to the first timed op (imports, window sampling, warm-up);
* ``ops_per_s``: ops per second of request time over whole rounds;
* ``op_p50_ms`` / ``op_p90_ms``: latency percentiles of one op (the sample
  count is printed on the summary line);
* ``peak_rss_mb``: peak resident memory of the worker process.

``--trace 1`` runs one round untraced and the same round traced, and
reports per-layer self times and counts from spans recorded around every
public gaborlab function, plus ``trace.overhead_share``.  The spans are
written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Every op is checked against independent closed forms.  ``failed`` counts
ops with a wrong exit code, a failed oracle or a missing artifact
(``failed_share`` is on the summary line).  ``correct`` is false when an
oracle or an exit code failed; a missing artifact fails the op but does not
make the computed values wrong.  ``--smoke`` runs tiny sizes for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SETUP_SAMPLES = 7  # fresh processes timed for setup_s, the main worker included
DEADLINE_S = 170.0  # the whole run, all workers included
T_START = time.perf_counter()


class BenchError(RuntimeError):
    pass


def worker_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["GABORLAB_CACHE_DIR"] = os.path.join(root, "cache")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], root: str) -> tuple[float, dict | None]:
    """Run a worker; return (seconds from start to 'ready', final JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--root", root]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(root), cwd=ROOT)
    timer = threading.Timer(max(DEADLINE_S - (t0 - T_START), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def why_line(workload: str) -> str:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), "")


def tally(results: list[dict]) -> tuple[int, int, bool, list[float]]:
    """(attempted, failed, correct, latencies) over the ops of all results."""
    ops = [op for r in results for op in r["ops"]]
    failed = sum(1 for op in ops if op[1])
    wrong = any(f.split(":", 1)[0] in ("oracle", "exit", "exception") for op in ops for f in op[1])
    return len(ops), failed, not wrong, [op[0] for op in ops]


def failure_kinds(results: list[dict]) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for r in results:
        for op in r["ops"]:
            for f in op[1]:
                kinds[f] = kinds.get(f, 0) + 1
    return kinds


def kind_medians(result: dict) -> dict[str, list]:
    """Per op kind: [count, median latency in ms]."""
    by_kind: dict[str, list[float]] = {}
    for lat, _, kind in result["ops"]:
        by_kind.setdefault(kind, []).append(lat)
    return {k: [len(v), round(statistics.median(v) * 1e3, 3)] for k, v in sorted(by_kind.items())}


def ops_per_s(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def measure(root: str, base: list[str]) -> dict:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, _ = spawn([*base, "--setup-only"], root)
        samples.append(ready)
    ready, res = spawn(base, root)
    samples.append(ready)
    attempted, failed, correct, lat = tally([res])
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (ops_per_s(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    summary = {
        "ops": attempted,
        "beyond_p90": sum(1 for x in lat if x > deciles[8]),
        "rounds": res["rounds"],
        "cut_at_time_limit": res["cut"],
        "wall_s": round(res["wall_s"], 3),
        "failed_share": failed / attempted,
        "failures": failure_kinds([res]),
        "kinds": kind_medians(res),
        "setup_samples_s": [round(s, 4) for s in samples],
    }
    if "repeat_share" in res:
        summary["configured_repeat_share"] = res["repeat_share"]
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "metrics": metrics, "summary": summary, "env": res["env"]}


def measure_traced(root: str, base: list[str], spans_path: str) -> dict:
    _, plain = spawn([*base, "--rounds", "1"], os.path.join(root, "plain"))
    _, traced = spawn([*base, "--rounds", "1", "--spans", spans_path], os.path.join(root, "traced"))
    attempted, failed, correct, _ = tally([plain, traced])
    if traced["span_problems"]:
        correct = False
    untraced_rate = ops_per_s([op[0] for op in plain["ops"]])
    traced_rate = ops_per_s([op[0] for op in traced["ops"]])
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = (untraced_rate - traced_rate) / untraced_rate
    metrics = {name: (value, tracing.layer_unit(name)) for name, value in layers.items()}
    summary = {
        "ops": attempted,
        "traced_request_s": round(sum(op[0] for op in traced["ops"]), 4),
        "spans": traced["spans"],
        "span_problems": traced["span_problems"],
        "failed_share": failed / attempted,
        "failures": failure_kinds([plain, traced]),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "computed_counts": list(tracing.COMPUTED),
    }
    if "repeat_share" in traced:
        summary["configured_repeat_share"] = traced["repeat_share"]
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "metrics": metrics, "summary": summary, "env": traced["env"]}


def record(a) -> dict:
    """Where and on what the run was made."""
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": a.workload,
        "why": why_line(a.workload),
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "smoke": a.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["scan", "lattice-sweep", "cli-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gaborlab", "__init__.py")):
        print("perfbench: no gaborlab sources under src/; run from a checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=scratch)
    base = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.smoke:
        base.append("--smoke")
    spans_path = os.path.join(scratch, f"spans-{a.workload}-seed{a.seed}.jsonl")
    try:
        out = measure_traced(root, base, spans_path) if a.trace else measure(root, base)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)

    rec = dict(record(a), **out["env"])
    print(json.dumps({"record": rec}))
    print(json.dumps({"summary": out["summary"]}))
    for name, (value, unit) in out["metrics"].items():
        print(f"# {a.workload:13s} {name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
