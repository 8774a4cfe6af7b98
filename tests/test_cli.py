"""Command-line interface: exit codes, reports, cache, config precedence."""

import json
import os
import threading

import numpy as np
import pytest

import gaborlab.cache
from gaborlab.cache import cache_get_or_compute, cache_key
from gaborlab.cli import run
from gaborlab.config import ConfigError, load_config_file


@pytest.fixture()
def env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GABORLAB_CACHE_DIR", str(tmp_path / "cache"))
    outdir = tmp_path / "out"

    def invoke(*argv):
        code = run([*argv, "--outdir", str(outdir)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    invoke.outdir = outdir
    return invoke


def test_framebounds_onb(env):
    code, out, _ = env("framebounds", "--window", "indicator:1", "--alpha", "1", "--beta", "1")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["A"] - 1.0) < 1e-10
    assert abs(rep["result"]["B"] - 1.0) < 1e-10
    assert rep["version"] == "0.1.0"
    assert rep["config"]["L"] == 1024
    assert rep["result"]["lattice"]["alpha_snap_error"] == 0.0


def test_unknown_flag_exits_2(env):
    code, out, _ = env("framebounds", "--alpha", "1", "--beta", "1", "--bogus", "3")
    assert code == 2
    assert "error" in json.loads(out)


def test_bad_window_exits_2(env):
    code, out, _ = env("framebounds", "--window", "hann", "--alpha", "1", "--beta", "1")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_not_a_frame_exits_3(env):
    code, out, _ = env("dual", "--window", "gaussian", "--alpha", "2", "--beta", "1")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "numerical"


def test_singular_slice_exits_3(env):
    code, out, _ = env(
        "bspline-dual", "--window", "bspline:2", "--alpha", "1", "--beta", "0.5", "--m", "2"
    )
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "numerical"


def test_snap_tolerance_exits_2(env):
    code, out, _ = env(
        "framebounds",
        "--window",
        "gaussian",
        "--alpha",
        "1.41",
        "--beta",
        "1",
        "--snap-tol",
        "1e-4",
    )
    assert code == 2


def test_cache_hit_byte_identical(env):
    code1, out1, err1 = env("framebounds", "--window", "gaussian", "--alpha", "1", "--beta", "0.5")
    code2, out2, err2 = env("framebounds", "--window", "gaussian", "--alpha", "1", "--beta", "0.5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache: hit" not in err1
    assert "cache: hit" in err2


def test_cache_key_ignores_flag_order():
    sem1 = {"alpha": 1.0, "beta": 0.5, "L": 1024}
    sem2 = {"L": 1024, "beta": 0.5, "alpha": 1.0}
    assert cache_key("framebounds", sem1) == cache_key("framebounds", sem2)


def test_cache_version_invalidates(tmp_path):
    calls = []

    def thunk():
        calls.append(1)
        return b"payload"

    p1, hit1 = cache_get_or_compute("k", thunk, version="1", cache_dir=str(tmp_path))
    p2, hit2 = cache_get_or_compute("k", thunk, version="1", cache_dir=str(tmp_path))
    p3, hit3 = cache_get_or_compute("k", thunk, version="2", cache_dir=str(tmp_path))
    assert (hit1, hit2, hit3) == (False, True, False)
    assert len(calls) == 2
    assert p1 == p2 == p3


def test_cache_corruption_recovers(tmp_path):
    def thunk():
        return b"fresh"

    cache_get_or_compute("k", thunk, version="1", cache_dir=str(tmp_path))
    path = os.path.join(str(tmp_path), "k.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    msgs = []
    p, hit = cache_get_or_compute("k", thunk, version="1", cache_dir=str(tmp_path), log=msgs.append)
    assert p == b"fresh" and not hit
    assert any("corrupt" in m for m in msgs)
    # entry is restored
    _, hit2 = cache_get_or_compute("k", thunk, version="1", cache_dir=str(tmp_path))
    assert hit2


def test_cache_concurrent_single_entry(tmp_path):
    results = []

    def thunk():
        return b"same-bytes"

    def worker():
        p, _ = cache_get_or_compute("con", thunk, version="1", cache_dir=str(tmp_path))
        results.append(p)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [b"same-bytes"] * 8
    entries = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert entries == ["con.json"]


def test_cache_entry_holds_the_payload_bytes_unchanged(tmp_path):
    payload = b"head\r\nline\0\xff\xfe\n\r" + bytes(range(256))
    p1, hit1 = cache_get_or_compute("raw", lambda: payload, version="1", cache_dir=str(tmp_path))
    p2, hit2 = cache_get_or_compute("raw", lambda: b"", version="1", cache_dir=str(tmp_path))
    assert (hit1, hit2) == (False, True)
    assert p1 == p2 == payload
    path = tmp_path / "raw.json"
    header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
    assert os.path.getsize(path) == len(header) + len(payload)


def _entries(d):
    return sorted(f for f in os.listdir(d) if f.endswith(".json"))


def test_cache_evicts_least_recently_used(tmp_path, monkeypatch):
    d = str(tmp_path)
    for key in ("old", "used", "mid"):
        cache_get_or_compute(key, lambda: b"x" * 100, version="1", cache_dir=d)
    for age, key in enumerate(("used", "old", "mid")):  # "used" oldest by write time
        os.utime(os.path.join(d, key + ".json"), ns=(10**9 * (age + 1),) * 2)
    entry = os.path.getsize(os.path.join(d, "old.json"))  # +-2 bytes: the header holds a time
    _, hit = cache_get_or_compute("used", lambda: b"y", version="1", cache_dir=d)
    assert hit  # the hit makes "used" the most recently used entry
    monkeypatch.setattr(gaborlab.cache, "MAX_CACHE_BYTES", 3 * entry + entry // 2)
    cache_get_or_compute("new", lambda: b"x" * 100, version="1", cache_dir=d)
    assert _entries(d) == ["mid.json", "new.json", "used.json"]
    monkeypatch.setattr(gaborlab.cache, "MAX_CACHE_BYTES", 1)
    cache_get_or_compute("big", lambda: b"x" * 1000, version="1", cache_dir=d)
    assert _entries(d) == ["big.json"]  # the newest entry stays even above the bound


def test_cache_scans_only_when_the_running_total_passes_the_bound(tmp_path, monkeypatch):
    d = str(tmp_path)
    scans = []
    evict = gaborlab.cache._evict
    monkeypatch.setattr(gaborlab.cache, "_evict", lambda *a: scans.append(1) or evict(*a))

    def usage():
        with open(os.path.join(d, gaborlab.cache.USAGE_FILE)) as fh:
            return int(fh.read())

    def on_disk():
        return sum(os.path.getsize(os.path.join(d, f)) for f in _entries(d))

    for i in range(5):
        cache_get_or_compute(f"k{i}", lambda: b"x" * 100, version="1", cache_dir=d)
    assert len(scans) == 1  # the first write finds no total and scans once
    assert usage() == on_disk()
    monkeypatch.setattr(gaborlab.cache, "MAX_CACHE_BYTES", on_disk() + 50)
    cache_get_or_compute("k5", lambda: b"x" * 100, version="1", cache_dir=d)
    assert len(scans) == 2 and len(_entries(d)) == 5
    assert usage() == on_disk()  # the scan resets the total to the bytes left
    os.remove(os.path.join(d, gaborlab.cache.USAGE_FILE))
    cache_get_or_compute("k6", lambda: b"x" * 10, version="1", cache_dir=d)
    assert len(scans) == 3 and usage() == on_disk()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("L = 512\ndelta = 0.0625\n\nwindow = bspline:2\n")
    values = load_config_file(str(path), {"L", "delta", "window"})
    assert values == {"L": "512", "delta": "0.0625", "window": "bspline:2"}


def test_config_file_malformed_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha==\n")
    with pytest.raises(ConfigError, match="1"):
        load_config_file(str(path), {"L", "delta", "window"})


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma = 3\n")
    with pytest.raises(ConfigError, match="gamma"):
        load_config_file(str(path), {"L", "delta", "window"})


def test_flags_override_config_file(env, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 512\nwindow = indicator:1\nalpha = 1\nbeta = 1\n")
    code, out, err = env(
        "framebounds",
        "--config",
        str(cfg),
        "--L",
        "1024",
        "--alpha",
        "2",
        "--no-cache",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["L"] == 1024  # flag wins
    assert rep["config"]["window"] == "indicator:1"  # file value survives
    assert rep["result"]["lattice"]["alpha"] == 2.0  # flag overrides file alpha
    assert "alpha from flags overrides file value 1" in err  # provenance logged
    assert "beta = 1 (from file)" in err


def test_missing_required_parameter_exits_2(env):
    code, out, _ = env("framebounds", "--window", "gaussian", "--no-cache")
    assert code == 2
    assert "alpha" in json.loads(out)["error"]["message"]


def test_empty_config_file_defaults(env, tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code, out, _ = env(
        "framebounds", "--config", str(cfg), "--alpha", "1", "--beta", "1", "--no-cache"
    )
    rep = json.loads(out)
    assert rep["config"]["L"] == 1024
    assert rep["config"]["delta"] == 1 / 32


def test_invalid_L_rejected(env):
    code, out, _ = env(
        "framebounds", "--L", "1000", "--alpha", "1", "--beta", "1", "--no-cache"
    )
    assert code == 2  # 1000 = 2^3 * 125 is not 2^a 3^b


def test_scan_artifacts_deterministic(env):
    args = (
        "scan",
        "--window",
        "bspline:2",
        "--alpha",
        "0..2",
        "--beta",
        "0..2",
        "--res",
        "4",
        "--L",
        "256",
        "--delta",
        "0.0625",
        "--no-cache",
    )
    code, out, _ = env(*args)
    assert code == 0
    csv1 = (env.outdir / "frameset.csv").read_bytes()
    pgm1 = (env.outdir / "frameset.pgm").read_bytes()
    code, _, _ = env(*args, "--threads", "4")
    assert code == 0
    assert (env.outdir / "frameset.csv").read_bytes() == csv1
    assert (env.outdir / "frameset.pgm").read_bytes() == pgm1
    assert pgm1.startswith(b"P5\n4 4\n255\n")


def test_wilson_command_writes_manifest(env):
    code, out, _ = env(
        "wilson",
        "--window",
        "gaussian",
        "--beta",
        "0.5",
        "--L",
        "256",
        "--delta",
        "0.0625",
        "--no-cache",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["is_onb"] is True
    manifest = json.loads((env.outdir / "wilson_atoms" / "manifest.json").read_text())
    assert manifest["n_atoms"] == 256
    assert len(manifest["norms"]) == 256
    atoms = np.load(env.outdir / "wilson_atoms" / "atoms.npy", allow_pickle=False)
    assert atoms.shape == (256, 256) and atoms.dtype == np.complex128
    assert sorted(os.listdir(env.outdir / "wilson_atoms")) == ["atoms.npy", "manifest.json"]


def test_hrt_extension_command(env):
    code, out, _ = env(
        "hrt-extension",
        "--window",
        "gaussian",
        "--base",
        "0,0;0,1;1,0",
        "--domain",
        "-6..6",
        "--res",
        "60",
        "--no-cache",
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["integral"] - 3.0) / 3.0 < 0.02
    assert (env.outdir / "extension_field.csv").exists()
    assert (env.outdir / "extension_field.pgm").read_bytes().startswith(b"P5\n60 60\n255\n")


def test_hrt_gram_command_matches_the_gaussian_closed_form(env):
    points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, -0.75), (2**0.5, 2**0.5)]
    text = ";".join(f"{a!r},{b!r}" for a, b in points)
    code, out, _ = env("hrt-gram", "--points", text, "--L", "256", "--delta", "0.0625", "--no-cache")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["n_points"] == len(points) and result["independent"] is True
    # <M_b1 T_a1 g, M_b2 T_a2 g> for the unit Gaussian g(x) = 2^(1/4) e^(-pi x^2)
    a, b = np.array(points).T
    da, db = a[:, None] - a, b[:, None] - b
    G = np.exp(1j * np.pi * db * (a[:, None] + a)) * np.exp(-np.pi * (da**2 + db**2) / 2)
    assert np.abs(np.array(result["eigenvalues"]) - np.linalg.eigvalsh(G)).max() < 1e-12


def test_classify_commands(env):
    code, out, _ = env("classify", "--alpha", "1.5", "--beta", "0.5", "--no-cache")
    assert json.loads(out)["result"]["label"] == "region_b"
    code, out, _ = env("classify", "--points", "0,0;0,1;1,0;1,1", "--no-cache")
    assert "two_two" in json.loads(out)["result"]["labels"]
    code, out, _ = env("classify", "--no-cache")
    assert code == 2


def test_stft_command(env):
    code, out, _ = env(
        "stft", "--window", "gaussian", "--L", "256", "--delta", "0.0625", "--no-cache"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["isometry_residual"] < 1e-10
    assert rep["result"]["inversion_residual"] < 1e-10


def test_janssen_and_tight_commands(env):
    code, out, _ = env(
        "janssen", "--window", "bspline:2", "--alpha", "1", "--beta", "0.5", "--no-cache"
    )
    assert code == 0
    assert json.loads(out)["result"]["janssen_residual"] < 1e-8
    code, out, _ = env(
        "tight", "--window", "gaussian", "--alpha", "1", "--beta", "0.5", "--no-cache"
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["result"]["system_A"] - 1.0) < 1e-8
    assert abs(rep["result"]["system_B"] - 1.0) < 1e-8
    assert (env.outdir / "tight_window.csv").exists()


def test_unwritable_outdir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GABORLAB_CACHE_DIR", str(tmp_path / "cache"))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run(
        [
            "dual",
            "--window",
            "gaussian",
            "--alpha",
            "1",
            "--beta",
            "0.5",
            "--no-cache",
            "--outdir",
            str(blocker / "sub"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_cli_flag_reordering_hits_cache(env):
    code1, out1, err1 = env("framebounds", "--alpha", "1", "--beta", "1", "--window", "indicator:1")
    code2, out2, err2 = env("framebounds", "--window", "indicator:1", "--beta", "1", "--alpha", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "cache: hit" in err2
