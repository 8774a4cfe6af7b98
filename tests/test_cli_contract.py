"""CLI contract on cache hits, config-file keys and numeric input."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gaborlab import cli, windows
from gaborlab.cache import source_fingerprint
from gaborlab.core import SampleGrid
from gaborlab.wilson import build_wilson_classical, build_wilson_general, make_wilson_window
from gaborlab.windows import parse_window

SMALL = ("--L", "128", "--delta", "0.125")


@pytest.fixture()
def invoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GABORLAB_CACHE_DIR", str(tmp_path / "cache"))

    def call(*argv):
        code = cli.run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


def tree(root):
    """{relative path: bytes} of every file under root."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


REQUESTS = {
    "wilson": ("wilson", *SMALL, "--beta", "0.5"),
    "scan": ("scan", *SMALL, "--window", "bspline:2", "--alpha", "0..2", "--beta", "0..2",
             "--res", "3"),
    "stft": ("stft", *SMALL),
    "hrt-extension": ("hrt-extension", *SMALL, "--base", "0,0;0,1;1,0", "--domain", "-4..4",
                      "--res", "12"),
    "tight": ("tight", *SMALL, "--alpha", "1", "--beta", "0.5"),
    "dual": ("dual", *SMALL, "--alpha", "1", "--beta", "0.5"),
    "bspline-dual": ("bspline-dual", "--window", "bspline:2", "--alpha", "1", "--beta", "0.7"),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_hit_with_new_outdir_restores_artifacts(invoke, tmp_path, name):
    first, second = tmp_path / "first", tmp_path / "second"
    code1, out1, err1 = invoke(*REQUESTS[name], "--outdir", str(first))
    code2, out2, err2 = invoke(*REQUESTS[name], "--outdir", str(second), "--threads", "2")
    code3, out3, err3 = invoke(*REQUESTS[name], "--outdir", str(first))
    assert code1 == code2 == code3 == 0
    assert "cache: hit" not in err1 and "cache: hit" in err2 and "cache: hit" in err3
    assert tree(second) == tree(first) != {}
    rep1, rep2, rep3 = json.loads(out1), json.loads(out2), json.loads(out3)
    assert rep2["config"]["outdir"] == str(second)
    assert rep2["config"]["threads"] == 2
    assert rep3["result"] == rep2["result"] == rep1["result"]
    # a miss, a hit into a new outdir and a hit into the same one list exactly the files on disk
    assert rep1["result"]["artifacts"] == sorted(tree(first))
    assert "artifact" not in rep1["result"]
    if name == "wilson":
        assert sorted(tree(second)) == ["wilson_atoms/atoms.npy", "wilson_atoms/manifest.json"]
        atoms = np.load(second / "wilson_atoms" / "atoms.npy", allow_pickle=False)
        assert atoms.shape == (rep2["result"]["n_atoms"], 128) == (128, 128)


@pytest.mark.parametrize(
    "argv",
    [
        ("framebounds", *SMALL, "--alpha", "1", "--beta", "0.5"),
        ("janssen", "--window", "bspline:2", "--alpha", "1", "--beta", "0.7"),
        ("hrt-gram", "--points", "0,0;0,1;1,0"),
        ("classify", "--alpha", "1", "--beta", "0.7"),
    ],
    ids=["framebounds", "janssen", "hrt-gram", "classify"],
)
def test_report_without_files_lists_no_artifacts(invoke, tmp_path, argv):
    outdir = tmp_path / "out"
    for _ in range(2):  # a miss, then a hit
        code, out, _ = invoke(*argv, "--outdir", str(outdir))
        assert code == 0
        result = json.loads(out)["result"]
        assert "artifacts" not in result and "artifact" not in result
        assert tree(outdir) == {}


def test_hit_restores_deleted_and_altered_artifacts(invoke, tmp_path):
    outdir = tmp_path / "out"
    argv = (*REQUESTS["hrt-extension"], "--outdir", str(outdir))
    assert invoke(*argv)[0] == 0
    before = tree(outdir)
    os.unlink(outdir / "extension_field.pgm")
    (outdir / "extension_field.csv").write_bytes(b"x" * len(before["extension_field.csv"]))
    code, out, err = invoke(*argv)
    assert code == 0 and "cache: hit" in err
    assert tree(outdir) == before


def test_hit_leaves_artifacts_with_the_same_bytes_untouched(invoke, tmp_path):
    outdir = tmp_path / "out"
    argv = (*REQUESTS["hrt-extension"], "--outdir", str(outdir))
    assert invoke(*argv)[0] == 0
    past = 1_000_000_000 * 10**9  # 2001-09-09, in nanoseconds
    for name in ("extension_field.csv", "extension_field.pgm"):
        os.utime(outdir / name, ns=(past, past))
    code, _, err = invoke(*argv)
    assert code == 0 and "cache: hit" in err
    for name in ("extension_field.csv", "extension_field.pgm"):
        assert os.stat(outdir / name).st_mtime_ns == past


def test_entry_from_other_source_fingerprint_misses(invoke, tmp_path, monkeypatch):
    argv = ("framebounds", *SMALL, "--alpha", "1", "--beta", "0.5", "--outdir", str(tmp_path))
    assert "cache: hit" not in invoke(*argv)[2]
    assert "cache: hit" in invoke(*argv)[2]
    (entry,) = [f for f in os.listdir(tmp_path / "cache") if f.endswith(".json")]
    with open(tmp_path / "cache" / entry) as fh:
        assert json.loads(fh.readline())["version"] == f"0.1.0+{source_fingerprint()}"
    monkeypatch.setattr(cli, "source_fingerprint", lambda: "0" * 16)
    code, _, err = invoke(*argv)
    assert code == 0 and "cache: hit" not in err


@pytest.mark.parametrize("line", ["alpha_range = 0..2", "beta_range = 0..1", "no_cache = 1"])
def test_config_keys_outside_the_command_exit_2(invoke, tmp_path, line):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(line + "\n")
    code, out, _ = invoke("scan", "--config", str(cfg), "--alpha", "0..2", "--beta", "0..2",
                          "--res", "2", *SMALL, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert "unknown key" in json.loads(out)["error"]["message"]


def test_config_keys_are_the_flag_names(invoke, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wrap_tol = 1e-10\nsnap_tol = 0.5\ncache = no\nalpha = 1\nbeta = 0.5\n")
    code, out, err = invoke("framebounds", "--config", str(cfg), *SMALL, "--outdir", str(tmp_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["wrap_tol"] == 1e-10 and rep["config"]["cache"] is False
    assert "snap_tol = 0.5 (from file)" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("framebounds", "--alpha", "inf", "--beta", "1"),
        ("framebounds", "--alpha", "1", "--beta", "nan"),
        ("framebounds", "--delta", "inf", "--alpha", "1", "--beta", "1"),
        ("framebounds", "--delta", "1e308", "--alpha", "1", "--beta", "1"),  # T = L * delta = inf
        ("framebounds", "--alpha", "1", "--beta", "1", "--wrap-tol", "1e400"),
        ("scan", "--alpha", "0..inf", "--beta", "0..2", "--res", "2"),
        ("hrt-gram", "--points", "0,0;nan,0;1,1"),
        ("hrt-gram", "--points", "0,0;1e300,0;1,1"),
        ("classify", "--points", "0,0;-inf,1"),
    ],
)
def test_non_finite_and_overflowing_numbers_exit_2(invoke, tmp_path, argv):
    code, out, _ = invoke(*argv, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


_OVERFLOW = ("--L", "256", "--delta", "0.0625")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "--alpha", "0.25..2", "--beta", "0..1.7e308", "--res", "2"),
         "the cell centres of 0..1.7e+308 overflow"),
        (("scan", "--window", "bspline:2", "--alpha", "0.25..2", "--beta", "0..1.7e308",
          "--res", "2"), "the cell centres of 0..1.7e+308 overflow"),
        # finite centres whose step beta * T overflows: no longer the smallest divisor
        (("framebounds", "--alpha", "1", "--beta", "1e308"),
         "alpha / delta or beta * T overflows for these targets"),
        (("framebounds", "--alpha", "1e308", "--beta", "1"),
         "alpha / delta or beta * T overflows for these targets"),
        (("scan", "--alpha", "0.25..2", "--beta", "1e307..1.5e307", "--res", "2"),
         "alpha / delta or beta * T overflows for these targets"),
        # finite centres whose phases 2 pi b x overflow: no longer a NaN field
        (("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "0..1e308", "--res", "2"),
         "domain 0..1e+308 overflows the phases of this grid"),
        (("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "-1e308..1e308", "--res", "2"),
         "the cell centres of -1e+308..1e+308 overflow"),
    ],
    ids=["scan-centres", "scan-bspline-centres", "framebounds-beta-step",
         "framebounds-alpha-step", "scan-beta-step", "extension-phases", "extension-centres"],
)
def test_overflowing_targets_and_ranges_exit_2_without_warning(invoke, tmp_path, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = invoke(*argv, *_OVERFLOW, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": message}
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert os.listdir(tmp_path) == []


def test_overflowing_region_product_is_a_density_failure(invoke, tmp_path):
    # alpha * beta overflows to inf, which is >= 1: not a frame, and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = invoke("classify", "--alpha", "1e200", "--beta", "1e200", "--no-cache",
                              "--outdir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["result"]["label"] == "not_frame_density"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["janssen", "bspline-dual"])
def test_negative_lattice_parameters_exit_2_naming_the_sign(invoke, tmp_path, command):
    # alpha * beta = 0.5 passes the density check; the sign check must come first
    code, out, _ = invoke(command, "--window", "bspline:2", "--alpha", "-1", "--beta", "-0.5",
                          "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "validation", "message": "alpha and beta must be positive"
    }


def test_high_order_bspline_frame_bounds(invoke, tmp_path):
    # g_40 is sampled to rounding level: B = 1 to rounding, A from an exact-rational sampling
    code, out, _ = invoke("framebounds", "--L", "2048", "--delta", "0.03125", "--window",
                          "bspline:40", "--alpha", "1", "--beta", "0.5", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["B"] - 1.0) <= 1e-12
    assert result["A"] == pytest.approx(4.4940682105144e-4, rel=1e-9)


def test_bspline_order_above_the_bound_exits_2(invoke, tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the order reached the evaluation")

    monkeypatch.setattr(windows, "bspline_values", unreachable)
    code, out, _ = invoke("framebounds", "--L", "2048", "--delta", "16", "--window",
                          "bspline:20000", "--alpha", "1", "--beta", "0.5", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "validation", "message": "bspline order must be at most 64, got 20000"
    }


_SNAP_TOL_REQUESTS = {
    "framebounds": ("framebounds", *SMALL, "--alpha", "1", "--beta", "0.5"),
    "scan": ("scan", *SMALL, "--alpha", "0..2", "--beta", "0..2", "--res", "2"),
}


@pytest.mark.parametrize("command", sorted(_SNAP_TOL_REQUESTS))
def test_negative_snap_tolerance_exits_2(invoke, tmp_path, command):
    argv = (*_SNAP_TOL_REQUESTS[command], "--no-cache", "--outdir", str(tmp_path))
    expected = "expected a non-negative number, got '-1'"
    code, out, _ = invoke(*argv, "--snap-tol", "-1")
    assert code == 2
    message = f"argument --snap-tol: {expected}"
    assert json.loads(out)["error"] == {"kind": "validation", "message": message}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snap_tol = -1\n")
    code, out, _ = invoke(*argv, "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": expected}
    assert not (tmp_path / "frameset.csv").exists()
    code, out, _ = invoke(*argv, "--snap-tol", "0")  # (alpha, beta) = (1 or 0.5, 0.5) snaps exactly
    assert code == 0, out


def test_negative_wrap_tolerance_exits_2(invoke, tmp_path):
    argv = ("framebounds", *SMALL, "--window", "bspline:2", "--alpha", "1", "--beta", "0.5",
            "--no-cache", "--outdir", str(tmp_path))
    expected = "expected a non-negative number, got '-1'"
    code, out, _ = invoke(*argv, "--wrap-tol", "-1")
    assert code == 2
    message = f"argument --wrap-tol: {expected}"
    assert json.loads(out)["error"] == {"kind": "validation", "message": message}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wrap_tol = -1\n")
    code, out, _ = invoke(*argv, "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": expected}
    code, out, _ = invoke(*argv, "--wrap-tol", "0")  # the order-2 B-spline wraps by exactly 0
    assert code == 0, out


def test_scan_where_no_cell_snaps_exits_2_naming_the_tolerance(invoke, tmp_path):
    code, out, _ = invoke("scan", "--L", "64", "--delta", "0.125", "--alpha", "1e-300..1",
                          "--beta", "0.25..2", "--res", "3", "--snap-tol", "1e-7", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "validation", "message": "no cell of the scan snaps within tolerance 1e-07"
    }
    assert not (tmp_path / "frameset.csv").exists()


def test_non_finite_config_value_exits_2(invoke, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = inf\n")
    code, out, _ = invoke("framebounds", "--config", str(cfg), "--alpha", "1", "--beta", "1",
                          "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert "finite" in json.loads(out)["error"]["message"]


def test_config_value_outside_choices_exits_2(invoke, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("variant = both\n")
    code, out, _ = invoke("wilson", "--config", str(cfg), "--beta", "0.5", *SMALL, "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 2
    assert "classical" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("word", ["maybe", "tru"])
def test_config_switch_rejects_other_words(invoke, tmp_path, word):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cache = {word}\n")
    code, out, _ = invoke("framebounds", "--config", str(cfg), *SMALL, "--alpha", "1", "--beta",
                          "0.5", "--outdir", str(tmp_path))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation" and repr(word) in err["message"]


@pytest.mark.parametrize("word, on", [("OFF", False), ("True", True)])
def test_config_switch_accepts_any_letter_case(invoke, tmp_path, word, on):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cache = {word}\n")
    code, out, _ = invoke("framebounds", "--config", str(cfg), *SMALL, "--alpha", "1", "--beta",
                          "0.5", "--outdir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["config"]["cache"] is on
    assert (tmp_path / "cache").exists() is on


def test_failed_allocation_exits_2_and_caches_nothing(invoke, tmp_path, monkeypatch):
    message = "Unable to allocate 298. TiB for an array with shape (1024, 199999, 199999)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "bspline_compact_dual", refuse)
    code, out, _ = invoke("janssen", "--window", "bspline:2", "--alpha", "1", "--beta", "0.5",
                          "--outdir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": message}
    cache = tmp_path / "cache"
    assert not cache.exists() or not [f for f in os.listdir(cache) if f.endswith(".json")]


@pytest.mark.parametrize(
    "argv",
    [
        ("hrt-gram", "--points", "0,0;0,32"),
        ("hrt-gram", "--points", "0,0;32,0"),
        ("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "-40..40", "--res", "160"),
    ],
)
def test_shifts_the_default_grid_aliases_exit_2(invoke, tmp_path, argv):
    # the default grid has T/2 = 16 and 1/(2 delta) = 16
    code, out, _ = invoke(*argv, "--no-cache", "--outdir", str(tmp_path / "out"))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation" and "alias" in err["message"]
    assert not (tmp_path / "out").exists()


def test_linalg_error_exits_3(invoke, monkeypatch):
    # LinAlgError subclasses ValueError; it is still a numerical failure
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "frame_bounds", singular)
    code, out, _ = invoke("framebounds", *SMALL, "--alpha", "1", "--beta", "0.5", "--no-cache")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "numerical"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("framebounds", "--alpha", "1", "--beta", "1", "--L", "1001"), "L must be a positive even integer, got 1001"),
        (("framebounds", "--alpha", "1", "--beta", "1", "--delta", "0"), "delta must be positive, got 0.0"),
        (("framebounds", "--alpha", "1", "--beta", "1", "--threads", "0"), "threads must be at least 1"),
        (("janssen", "--window", "gaussian", "--alpha", "1", "--beta", "0.5"),
         "this command needs a bspline window, got gaussian"),
        (("hrt-gram", "--points", ";"), "argument --points: empty point list"),
    ],
    ids=["odd-L", "zero-delta", "zero-threads", "janssen-gaussian", "empty-points"],
)
def test_out_of_range_value_exits_2_with_its_message(invoke, tmp_path, argv, message):
    code, out, _ = invoke(*argv, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": message}
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("res", ["0", "-3", "1"])
def test_extension_resolution_below_two_exits_2(invoke, tmp_path, res):
    code, out, _ = invoke("hrt-extension", *SMALL, "--base", "0,0;0,1;1,0", "--domain", "-4..4",
                          "--res", res, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["message"] == "resolution must be at least 2"


def test_extension_tiny_base_matches_unit_base(invoke, tmp_path):
    # the normal form of a base 1e-7 across is the unit base (0,0), (0,1), (1,0)
    trees = []
    for base in ("0,0;0,1;1,0", "0,0;0,1e-7;1e-7,0"):
        outdir = tmp_path / base.replace(";", "_")
        code, out, _ = invoke("hrt-extension", *SMALL, "--base", base, "--domain", "-4..4",
                              "--res", "12", "--no-cache", "--outdir", str(outdir))
        assert code == 0, out
        assert json.loads(out)["result"]["base"] == [[0, 0], [0, 1], [1, 0]]
        trees.append(tree(outdir))
    assert trees[0] == trees[1] != {}


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "10..10"),
         "domain needs lo < hi, got 10..10"),
        (("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "2..-2"),
         "domain needs lo < hi, got 2..-2"),
        (("scan", "--alpha", "2..0.25", "--beta", "1..2"), "alpha needs lo < hi, got 2..0.25"),
        (("scan", "--alpha", "0.25..2", "--beta", "1..1"), "beta needs lo < hi, got 1..1"),
    ],
    ids=["10..10", "2..-2", "scan-alpha-2..0.25", "scan-beta-1..1"],
)
def test_extension_empty_domain_exits_2(invoke, tmp_path, argv, message):
    code, out, _ = invoke(*argv, *SMALL, "--res", "8", "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["message"] == message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "-4..4"),
        ("scan", "--alpha", "0..2", "--beta", "0..2"),
    ],
)
def test_resolution_above_the_bound_exits_2(invoke, tmp_path, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("the resolution reached the computation")

    monkeypatch.setattr(cli, "extension_field", unreachable)
    monkeypatch.setattr(cli, "scan_frame_set", unreachable)
    message = f"res must be at most {cli.MAX_RES}, got 20000"
    code, out, err = invoke(*argv, *SMALL, "--res", "20000", "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": f"argument --res: {message}"}
    assert message in err  # argparse names the bound
    cfg = tmp_path / "run.cfg"
    cfg.write_text("res = 20000\n")
    code, out, _ = invoke(*argv, *SMALL, "--config", str(cfg), "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["message"] == message
    assert cli._resolution(str(cli.MAX_RES)) == cli.MAX_RES


@pytest.mark.parametrize(
    "argv, key, value, flag_message, file_message",
    [
        (("framebounds", "--beta", "1"), "alpha", "inf",
         "argument --alpha: expected a finite number, got 'inf'",
         "expected a finite number, got 'inf'"),
        (("framebounds", "--alpha", "1", "--beta", "1"), "bogus", "3",
         "unrecognized arguments: --bogus 3",
         "unknown key 'bogus'"),
    ],
)
def test_rejected_argument_names_its_reason_in_the_json_error(
    invoke, tmp_path, argv, key, value, flag_message, file_message
):
    code, out, err = invoke(*argv, *SMALL, f"--{key}", value, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": flag_message}
    assert f"error: {flag_message}" in err  # argparse's usage and message, as before
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, _ = invoke(*argv, *SMALL, "--config", str(cfg), "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "validation" and error["message"].endswith(file_message)


_LATTICE = ("framebounds", "--alpha", "1", "--beta", "1")


@pytest.mark.parametrize(
    "argv, key, value, expected",
    [
        (("dual", "--beta", "0.3"), "alpha", "one", "expected a finite number, got 'one'"),
        (_LATTICE, "L", "1e3", "expected an integer, got '1e3'"),
        (_LATTICE, "threads", "two", "expected an integer, got 'two'"),
        (("scan", "--alpha", "0..1", "--beta", "0..1"), "res", "2.5",
         "expected an integer, got '2.5'"),
        (("scan", "--beta", "0..1", "--res", "2"), "alpha", "x..1",
         "expected a range of finite numbers like 0..2, got 'x..1'"),
        (("hrt-gram",), "points", "0,0;a,1",
         "expected finite 'a,b' pairs joined by ';', got 'a,1'"),
        (("janssen", "--window", "bspline:2", "--alpha", "0.5", "--beta", "0.5"), "m", "two",
         "expected an integer, got 'two'"),
    ],
    ids=["finite", "L", "threads", "res", "range", "points", "m"],
)
def test_malformed_value_names_what_its_parameter_expects(invoke, tmp_path, argv, key, value, expected):
    code, out, _ = invoke(*argv, f"--{key}", value, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": f"argument --{key}: {expected}"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, out, _ = invoke(*argv, "--config", str(cfg), "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "validation", "message": expected}


@pytest.mark.parametrize(
    "argv, stdout", [(("--version",), "0.1.0\n"), (("framebounds", "--help"), "usage:")]
)
def test_help_and_version_exit_0(invoke, argv, stdout):
    code, out, _ = invoke(*argv)
    assert code == 0 and out.startswith(stdout)


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_reused_parser_answers_as_a_fresh_process(invoke, tmp_path, monkeypatch):
    # one process: errors, help and version first, then successful runs on the same parser
    monkeypatch.setenv("COLUMNS", "80")  # --help and usage lines wrap to the terminal width
    out = str(tmp_path / "out")
    sequence = [
        ("framebounds", *SMALL, "--alpha", "inf", "--beta", "1"),
        ("--help",),
        ("--version",),
        ("bogus",),
        ("framebounds", *SMALL, "--alpha", "0.5", "--beta", "1", "--no-cache", "--outdir", out),
        ("scan", *SMALL, "--alpha", "0.25..2", "--beta", "0.25..2", "--res", "3", "--no-cache",
         "--outdir", out),
    ]
    in_process = [invoke(*argv) for argv in sequence]
    code, _, err = in_process[0]
    assert code == 2
    assert err.startswith("usage: gaborlab framebounds [-h]")
    assert "gaborlab framebounds: error: argument --alpha: expected a finite number, got 'inf'" in err
    assert [code for code, _, _ in in_process] == [2, 0, 0, 2, 0, 0]
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    for argv, (code, stdout, stderr) in zip(sequence, in_process):
        fresh = subprocess.run([sys.executable, "-m", "gaborlab.cli", *argv], capture_output=True,
                               text=True, env=env, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, stdout, stderr), argv


@pytest.mark.parametrize("variant, beta", [("classical", 0.5), ("general", 0.25)])
def test_wilson_atoms_npy_holds_the_system_atoms(invoke, tmp_path, variant, beta):
    code, _, _ = invoke("wilson", *SMALL, "--beta", str(beta), "--variant", variant, "--no-cache",
                        "--outdir", str(tmp_path))
    assert code == 0
    w = make_wilson_window(parse_window("gaussian"), beta, SampleGrid(128, 0.125), wrap_tol=1e-12)
    system = build_wilson_classical(w) if variant == "classical" else build_wilson_general(w, beta)
    atoms = np.load(tmp_path / "wilson_atoms" / "atoms.npy", allow_pickle=False)
    manifest = json.loads((tmp_path / "wilson_atoms" / "manifest.json").read_text())
    assert np.array_equal(atoms, system.atoms)
    assert atoms.shape == (manifest["n_atoms"], 128)


def test_classical_wilson_rejects_other_beta(invoke, tmp_path):
    code, out, _ = invoke("wilson", *SMALL, "--beta", "0.25", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 2
    assert "classical" in json.loads(out)["error"]["message"]
    assert not (tmp_path / "wilson_atoms").exists()
    code, out, _ = invoke("wilson", *SMALL, "--beta", "0.25", "--variant", "general", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 0 and json.loads(out)["result"]["beta"] == 0.25


def test_closed_stdout_exits_2_with_the_error_on_stderr(tmp_path):
    # the reader is gone before the child writes: no traceback, the error line on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, GABORLAB_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaborlab.cli", "wilson", *SMALL, "--beta", "0.5",
             "--outdir", str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "validation" and "Broken pipe" in error["message"]


def test_cli_import_loads_no_third_party_module_beyond_numpy():
    # every fresh `gaborlab` process imports the CLI before its request, so a heavy import
    # there is set-up cost on every invocation
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                                       os.environ.get("PYTHONPATH", "")]))

    def loaded(module):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print(*sys.modules, sep='\\n')"],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return set(proc.stdout.split())

    extra = loaded("gaborlab.cli") - loaded("numpy")
    assert "gaborlab.cli" in extra
    top = {name.split(".")[0] for name in extra}
    assert sorted(top - sys.stdlib_module_names - {"gaborlab"}) == []
