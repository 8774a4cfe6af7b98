"""CLI contract on cache hits, config-file keys and numeric input."""

import json
import os

import numpy as np
import pytest

from gaborlab import cli
from gaborlab.cache import source_fingerprint

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
    "bspline-dual": ("bspline-dual", "--window", "bspline:2", "--alpha", "1", "--beta", "0.7"),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_hit_with_new_outdir_restores_artifacts(invoke, tmp_path, name):
    first, second = tmp_path / "first", tmp_path / "second"
    code1, out1, err1 = invoke(*REQUESTS[name], "--outdir", str(first))
    code2, out2, err2 = invoke(*REQUESTS[name], "--outdir", str(second), "--threads", "2")
    assert code1 == code2 == 0
    assert "cache: hit" not in err1 and "cache: hit" in err2
    assert tree(second) == tree(first) != {}
    rep1, rep2 = json.loads(out1), json.loads(out2)
    assert rep2["config"]["outdir"] == str(second)
    assert rep2["config"]["threads"] == 2
    assert rep2["result"] == rep1["result"]
    if name == "wilson":
        atoms = [f for f in tree(second) if f.startswith("wilson_atoms/atom_")]
        assert len(atoms) == rep2["result"]["n_atoms"] == 128


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


def test_linalg_error_exits_3(invoke, monkeypatch):
    # LinAlgError subclasses ValueError; it is still a numerical failure
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "frame_bounds", singular)
    code, out, _ = invoke("framebounds", *SMALL, "--alpha", "1", "--beta", "0.5", "--no-cache")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "numerical"


@pytest.mark.parametrize("res", ["0", "-3", "1"])
def test_extension_resolution_below_two_exits_2(invoke, tmp_path, res):
    code, out, _ = invoke("hrt-extension", *SMALL, "--base", "0,0;0,1;1,0", "--domain", "-4..4",
                          "--res", res, "--no-cache", "--outdir", str(tmp_path))
    assert code == 2
    assert json.loads(out)["error"]["message"] == "resolution must be at least 2"


def test_classical_wilson_rejects_other_beta(invoke, tmp_path):
    code, out, _ = invoke("wilson", *SMALL, "--beta", "0.25", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 2
    assert "classical" in json.loads(out)["error"]["message"]
    assert not (tmp_path / "wilson_atoms").exists()
    code, out, _ = invoke("wilson", *SMALL, "--beta", "0.25", "--variant", "general", "--no-cache",
                          "--outdir", str(tmp_path))
    assert code == 0 and json.loads(out)["result"]["beta"] == 0.25
