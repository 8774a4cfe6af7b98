"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_and_summary(lines):
    result = json.loads(lines[-1])
    summary = next(json.loads(l)["summary"] for l in lines if l.startswith('{"summary"'))
    return result, summary


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    rc, lines = bench(workload, 0)
    assert rc == 0
    result, summary = result_and_summary(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the only failures at seed are cache hits that write no artifacts
    assert all(k.startswith("artifact_missing:") and k.endswith("-repeat") for k in summary["failures"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    rc, lines = bench(workload, 1)
    assert rc == 0
    result, summary = result_and_summary(lines)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] is True
    assert summary["span_problems"] == []
    spans = []
    with open(os.path.join(ROOT, summary["spans_file"]), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == summary["spans"] > 0
    assert tracing.check_tree(spans) == []
    assert min(tracing.self_times(spans)) >= -1e-9
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "lattice-sweep":
        assert metrics["frames.blocks_per_solve"] == 2.0
        assert metrics["zak.calls"] > 0
    if workload == "scan":
        assert metrics["frameset.cells"] > 0
        assert metrics["cache.hits"] == 0
    if workload == "cli-mix":
        assert metrics["cache.hit_ratio"] == summary["configured_repeat_share"]
        assert metrics["cli.exit_2"] > 0 and metrics["cli.exit_3"] > 0
        assert metrics["serialize.bytes"] > 0


def test_counts_repeat_for_a_seed():
    runs = [result_and_summary(bench("scan", 1, seed=5)[1])[0]["metrics"] for _ in range(2)]
    for name in ("frames.blocks_gmac", "frames.eig_blocks", "frameset.cells", "serialize.bytes"):
        assert runs[0][name]["value"] == runs[1][name]["value"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("scan", 0, cwd=str(tmp_path))
    assert rc != 0
    assert not any(line.startswith('{"correct"') for line in lines)


# -- the oracles reject wrong values ------------------------------------------


def test_result_oracles_catch_wrong_values():
    good_stft = {"isometry_residual": 1e-15, "inversion_residual": 1e-15}
    assert workloads.stft_oracle(good_stft) == []
    assert workloads.stft_oracle(dict(good_stft, inversion_residual=1e-6))
    lat = {"alpha": 1.0, "beta": 0.5, "redundancy": 2.0}
    assert workloads.half_oracle({"A": 1.0, "B": 2.0, "lattice": lat}) == []
    assert workloads.half_oracle({"A": 1.0, "B": 2.0 + 1e-9, "lattice": lat})
    tight = {"system_A": 1.0, "system_B": 1.0, "window_norm": 0.5 ** 0.5, "lattice": lat}
    assert workloads.tight_oracle(tight) == []
    assert workloads.tight_oracle(dict(tight, window_norm=0.8))
    assert workloads.extension_oracle({"integral": 3.0, "F_min": 0.0, "F_max": 0.99}) == []
    assert workloads.extension_oracle({"integral": 2.9, "F_min": 0.0, "F_max": 0.99})
    assert workloads.region_oracle({"label": "painless"}, 2.0, 0.75)
    assert workloads.points_oracle({"labels": []}, collinear=True)


def test_gram_oracle_matches_the_library():
    from gaborlab import Configuration, SampleGrid, WindowSpec, gramian, sample_window

    pts = [(0.0, 0.0), (0.3, -1.2), (1.1, 0.4), (-0.7, 0.9)]
    g = sample_window(WindowSpec("gaussian"), SampleGrid(1024, 1 / 32)).unit()
    rep = gramian(g, Configuration(tuple(pts)))
    assert np.max(np.abs(np.abs(rep.G) - np.abs(workloads.gaussian_gram(pts)))) <= 1e-13
    result = {"eigenvalues": rep.eigenvalues.tolist()}
    assert workloads.gram_oracle(result, pts) == []
    assert workloads.gram_oracle({"eigenvalues": (rep.eigenvalues * 1.001).tolist()}, pts)


def test_scan_map_oracle(tmp_path):
    scan = workloads.Scan(smoke=True, root=str(tmp_path))
    scan.setup()
    # bspline:2 at the painless lattice (1, 1/2) has bounds exactly 1 and 2
    row = "1,0.5,1,0.5,{A},{B},painless"
    csv = tmp_path / "frameset.csv"
    for A, B, ok in ((1, 2, True), (1, 2.5, False)):
        csv.write_text("header\n" + "\n".join([row.format(A=A, B=B)] * 4) + "\n")
        assert (scan.check_map("bspline:2", str(tmp_path)) == []) is ok
