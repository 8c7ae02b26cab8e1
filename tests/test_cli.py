"""Command-line workflow, config parsing, and exit codes."""

import dataclasses
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import stridect as st
import stridect.cli as cli
import stridect.denoiser as denoiser
import stridect.pipeline as pipeline
from stridect.cli import (
    _UsageError,
    build_pipeline_config,
    main,
    parse_config_file,
)
from stridect.errors import InvalidArgumentError


def _run(*argv):
    return main(list(argv))


@pytest.fixture()
def workdir(tmp_path):
    """Phantom image plus matching full and sparse sinogram files."""
    ph = tmp_path / "ph.bin"
    assert _run("phantom", "--size", "16", "--out", str(ph)) == 0
    sino = tmp_path / "sino.bin"
    assert _run("simulate", "--image", str(ph), "--views", "12",
                "--detectors", "16", "--r", "3", "--out", str(sino)) == 0
    full = tmp_path / "full.bin"
    assert _run("simulate", "--image", str(ph), "--views", "12",
                "--detectors", "16", "--out", str(full)) == 0
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("# quick profile\nddim_steps = 4\nn_steps = 0\nnu = 0.9\n")
    return tmp_path


def test_import_loads_no_scipy():
    # scipy.ndimage alone took most of the package's import time
    src = os.path.dirname(os.path.dirname(os.path.abspath(st.__file__)))
    code = ("import sys, stridect, stridect.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# ------------------------------------------------------------------ phantom


def test_phantom_writes_image(tmp_path, capsys):
    out = tmp_path / "ph.bin"
    assert _run("phantom", "--size", "16", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("wrote")
    raw = out.read_bytes()
    assert raw.startswith(b"IMGF 16 16\n")
    img = st.read_image(out)
    expect = st.shepp_logan(16, 16).values.astype(np.float32).astype(np.float64)
    assert np.array_equal(img.values, expect)


def test_phantom_size_floor(tmp_path, capsys):
    assert _run("phantom", "--size", "8", "--out", str(tmp_path / "x.bin")) == 2
    assert "at least 16" in capsys.readouterr().err


def test_phantom_pgm_sidecar(tmp_path):
    out = tmp_path / "ph.bin"
    pgm = tmp_path / "ph.pgm"
    assert _run("phantom", "--size", "16", "--out", str(out),
                "--pgm", str(pgm)) == 0
    assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")


# ----------------------------------------------------------------- simulate


def test_simulate_masks_rows_and_reruns_identically(workdir):
    sino = st.read_sinogram(workdir / "sino.bin")
    active = st.make_sparse_mask(12, 3).active
    assert not sino.values[~active].any()
    assert sino.values[active].any()

    a = workdir / "n1.bin"
    b = workdir / "n2.bin"
    for out in (a, b):
        assert _run("simulate", "--image", str(workdir / "ph.bin"),
                    "--views", "12", "--dets", "16", "--noise", "0.1",
                    "--seed", "5", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_negative_noise_sigma_exit_three(workdir, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("projection started")

    monkeypatch.setattr(cli, "simulate_measurement", reached)
    out = workdir / "neg.bin"
    # an infinite sigma too, which used to fail after the projection
    for sigma in ("-0.1", "inf"):
        assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                    "--dets", "16", "--noise", sigma, "--out", str(out)) == 3
        assert "noise sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_overflowing_noise_exit_three(workdir, capsys):
    # a finite sigma whose draws overflow is refused after the projection
    out = workdir / "huge.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                "--dets", "16", "--r", "3", "--noise", "1e308", "--out", str(out)) == 3
    assert "noise sigma 1e+308 overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["0", "13"])
def test_simulate_stride_out_of_range_exit_three(workdir, capsys, r):
    out = workdir / "bad_r.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                "--dets", "16", "--r", r, "--out", str(out)) == 3
    assert "stride r" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_beyond_float32_range_exit_three(workdir, capsys):
    # line integrals past float32's range would be written as inf, and
    # reconstruct would then refuse the file
    out = workdir / "huge.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                "--dets", "16", "--pixel-size", "1e38", "--out", str(out)) == 3
    assert "float32" in capsys.readouterr().err
    assert not out.exists()
    assert not (workdir / "huge.bin.geom").exists()


def test_simulate_stride_one_keeps_every_view(workdir, capsys):
    out = workdir / "r1.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                "--dets", "16", "--r", "1", "--out", str(out)) == 0
    assert "12 views, 12 kept" in capsys.readouterr().out
    assert st.read_sinogram(out).values.any(axis=1).all()


# -------------------------------------------------------------------- train


def test_train_writes_loadable_params(workdir, capsys):
    out = workdir / "net.bin"
    assert _run("train", "--sino", str(workdir / "full.bin"), "--epochs", "1",
                "--steps", "2", "--hidden", "4", "--out", str(out)) == 0
    assert "loss" in capsys.readouterr().out
    params = st.load_params(out)
    assert params.in_channels == 2 and params.out_channels == 1


def test_train_numeric_abort_exit_code(workdir, capsys):
    with np.errstate(all="ignore"):
        code = _run("train", "--sino", str(workdir / "full.bin"),
                    "--epochs", "1", "--steps", "3", "--hidden", "4",
                    "--lr", "1e200", "--out", str(workdir / "x.bin"))
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_train_without_hidden_units_exit_three(workdir, capsys):
    assert _run("train", "--sino", str(workdir / "full.bin"), "--epochs", "1",
                "--steps", "1", "--hidden", "0", "--out", str(workdir / "x.bin")) == 3
    assert "hidden" in capsys.readouterr().err
    assert not (workdir / "x.bin").exists()


@pytest.mark.parametrize("flag", ["--epochs", "--steps"])
def test_train_zero_count_exit_three(workdir, capsys, flag):
    counts = {"--epochs": "1", "--steps": "1", flag: "0"}
    argv = [a for kv in counts.items() for a in kv]
    assert _run("train", "--sino", str(workdir / "full.bin"), *argv,
                "--hidden", "4", "--out", str(workdir / "x.bin")) == 3
    assert "epochs and steps_per_epoch must be >= 1" in capsys.readouterr().err
    assert not (workdir / "x.bin").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
def test_train_bad_learning_rate_exit_three(workdir, capsys, lr):
    # nan and inf used to write a model of nan parameters, and -1 to step uphill
    assert _run("train", "--sino", str(workdir / "full.bin"), "--epochs", "1",
                "--steps", "1", "--hidden", "4", "--lr", lr,
                "--out", str(workdir / "x.bin")) == 3
    assert "lr must be finite and > 0" in capsys.readouterr().err
    assert not (workdir / "x.bin").exists()


# -------------------------------------------------------------- reconstruct


@pytest.mark.parametrize("size", ["0", "-3"])
def test_bad_size_exit_three_before_any_file_is_read(workdir, capsys, monkeypatch, size):
    def reached(*args, **kwargs):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(cli, "read_sinogram", reached)
    monkeypatch.setattr(cli, "parse_config_file", reached)
    sino, out = str(workdir / "sino.bin"), workdir / "o.bin"
    for argv in (["reconstruct", "--sino", sino, "--r", "3", "--method", "stride"],
                 ["reconstruct", "--sino", sino, "--r", "3", "--method", "fbp"],
                 ["ablate", "--sino", sino, "--r", "3", "--reference", sino],
                 ["ablate", "--sino", sino, "--r", "3", "--reference", sino,
                  "--lambda-sweep"]):
        assert _run(*argv, "--size", size, "--config", sino, "--out", str(out)) == 3
        assert "bad image dimensions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_pixel_size_exit_three_before_chain(workdir, capsys, monkeypatch, value):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    monkeypatch.setattr(cli, "sparse_fbp_baseline", reached)
    out = str(workdir / "o.bin")
    for argv in (["phantom", "--size", "16"],
                 ["reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                  "--size", "16", "--method", "stride"],
                 ["reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                  "--size", "16", "--method", "fbp"]):
        assert _run(*argv, "--pixel-size", value, "--out", out) == 3
        assert "pixel_size" in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()


def test_reconstruct_fbp_method(workdir):
    out = workdir / "fbp.bin"
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--method", "fbp", "--out", str(out)) == 0
    sino = st.read_sinogram(workdir / "sino.bin")
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    direct = st.sparse_fbp_baseline(sino, st.make_sparse_mask(12, 3), grid)
    expect = direct.values.astype(np.float32).astype(np.float64)
    assert np.array_equal(st.read_image(out).values, expect)


@pytest.mark.parametrize("flag", ["--net", "--reference", "--report", "--sino-out",
                                  "--seed", "--final-dc"])
def test_reconstruct_fbp_refuses_stride_only_flags_before_any_file_is_read(
        workdir, capsys, monkeypatch, flag):
    def reached(*args, **kwargs):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(cli, "read_sinogram", reached)
    monkeypatch.setattr(cli, "parse_config_file", reached)
    out = workdir / "o.bin"
    value = {"--seed": "9", "--final-dc": "off"}.get(flag, str(workdir / "x.bin"))
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--method", "fbp", "--config", str(workdir / "fast.cfg"),
                flag, value, "--out", str(out)) == 2
    assert f"{flag} has no effect with --method fbp" in capsys.readouterr().err
    assert not out.exists() and not (workdir / "x.bin").exists()


def test_reconstruct_stride_outputs(workdir):
    out = workdir / "rec.bin"
    sout = workdir / "rec_sino.bin"
    report = workdir / "stages.csv"
    args = ("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
            "--size", "16", "--config", str(workdir / "fast.cfg"),
            "--reference", str(workdir / "full.bin"),
            "--out", str(out), "--sino-out", str(sout),
            "--report", str(report))
    assert _run(*args) == 0
    first = out.read_bytes()
    assert _run(*args) == 0
    assert out.read_bytes() == first

    assert report.read_text().startswith("stage,mse_masked,mse_full,psnr,ssim\n")
    back = st.read_sinogram(sout)
    assert back.values.shape == (12, 16)
    img = st.read_image(out)
    assert np.all(np.isfinite(img.values))


def test_reconstruct_seed_reseeds_the_default_chain(workdir):
    # the default refinement keeps ~1e-8 of the coarse stage, so --seed
    # must reach the corrector's band streams to change the image
    cfg = workdir / "seeded.cfg"
    cfg.write_text("ddim_steps = 4\n")
    images = []
    for seed in ("1", "2"):
        out = workdir / f"rec{seed}.bin"
        assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                    "--size", "16", "--config", str(cfg), "--seed", seed,
                    "--out", str(out)) == 0
        images.append(st.read_image(out).values)
    a, b = images
    assert np.max(np.abs(a - b)) > 1e-2 * np.max(np.abs(a))


# a negative seed on each route that sets one: the arguments, the work it
# must come before and the refusal
_NEGATIVE_SEED = {
    "simulate": (["simulate", "--image", "ph.bin", "--views", "12", "--dets", "16",
                  "--noise-sigma", "0.1", "--noise-seed", "-1"],
                 (cli, "simulate_measurement"), "noise seed must be >= 0, got -1"),
    "simulate-noiseless": (["simulate", "--image", "ph.bin", "--views", "12",
                            "--dets", "16", "--noise-sigma", "0", "--noise-seed", "-1"],
                           (cli, "simulate_measurement"), "noise seed must be >= 0, got -1"),
    "reconstruct": (["reconstruct", "--sino", "sino.bin", "--r", "3", "--size", "16",
                     "--seed", "-1"], (cli, "stride_reconstruct"), "seed must be >= 0, got -1"),
    "reconstruct-config": (["reconstruct", "--sino", "sino.bin", "--r", "3", "--size", "16",
                            "--config", "neg.cfg"], (cli, "stride_reconstruct"),
                           "corrector seed must be >= 0, got -1"),
    "ablate": (["ablate", "--sino", "sino.bin", "--r", "3", "--size", "16",
                "--reference", "full.bin", "--config", "neg.cfg"],
               (cli, "run_component_ablation"), "corrector seed must be >= 0, got -1"),
    "train": (["train", "--sino", "full.bin", "--epochs", "1", "--steps", "1",
               "--hidden", "4", "--seed", "-2"], (denoiser, "_fit"),
              "seed must be >= 0, got -2"),
}


@pytest.mark.parametrize("route", list(_NEGATIVE_SEED))
def test_negative_seed_exits_three_before_any_work(workdir, capsys, monkeypatch, route):
    # each used to end in numpy's bare ValueError (exit 1), the config file's
    # only after the coarse stage had run
    argv, work, message = _NEGATIVE_SEED[route]

    def reached(*args, **kwargs):
        raise AssertionError(f"{work[1]} reached")

    monkeypatch.setattr(*work, reached)
    monkeypatch.chdir(workdir)
    (workdir / "neg.cfg").write_text("ddim_steps = 4\ncorrector_seed = -1\n")
    assert _run(*argv, "--out", "o.bin") == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "o.bin").exists()


def test_reconstruct_with_trained_net(workdir):
    net = workdir / "net.bin"
    assert _run("train", "--sino", str(workdir / "full.bin"), "--epochs", "1",
                "--steps", "2", "--hidden", "4", "--out", str(net)) == 0
    out = workdir / "rec_net.bin"
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(workdir / "fast.cfg"),
                "--net", str(net), "--out", str(out)) == 0
    assert np.all(np.isfinite(st.read_image(out).values))


# --------------------------------------------------------------------- eval


def test_eval_identical_images(workdir, capsys):
    ph = str(workdir / "ph.bin")
    assert _run("eval", "--image", ph, "--reference", ph) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "mse,psnr,ssim,kl"
    fields = lines[1].split(",")
    assert fields == ["0", "inf", "1", "0"]


def test_eval_text_matches_the_metrics(workdir, capsys):
    ph = workdir / "ph.bin"
    other = workdir / "shift.bin"
    img = st.read_image(ph)
    st.write_image(other, img.with_values(np.roll(img.values, 1, axis=0)))
    assert _run("eval", "--image", str(other), "--reference", str(ph)) == 0
    va, vb = st.read_image(other).values, img.values
    # the line as it was formatted before one CSV writer served every table
    assert capsys.readouterr().out == (
        "mse,psnr,ssim,kl\n"
        f"{st.mse(vb, va):.10g},{st.psnr(vb, va):.10g},"
        f"{st.ssim(vb, va):.10g},{st.kl_divergence(vb, va):.10g}\n")


def test_eval_flag_aliases(workdir, capsys):
    ph = str(workdir / "ph.bin")
    assert _run("eval", "--test", ph, "--ref", ph) == 0
    assert "inf" in capsys.readouterr().out


def test_eval_size_mismatch_exit_three(workdir, capsys):
    big = workdir / "big.bin"
    assert _run("phantom", "--size", "24", "--out", str(big)) == 0
    capsys.readouterr()
    assert _run("eval", "--image", str(workdir / "ph.bin"),
                "--reference", str(big)) == 3
    assert "test of shape (16, 16), expected (24, 24)" in capsys.readouterr().err


# ------------------------------------------------------------------- ablate


def test_ablate_component_rows(workdir):
    out = workdir / "ablate.csv"
    assert _run("ablate", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--reference", str(workdir / "full.bin"),
                "--config", str(workdir / "fast.cfg"), "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "variant,mse_full"
    assert len(lines) == 6
    assert lines[1].startswith("full,")


def test_ablate_lambda_sweep(workdir):
    out = workdir / "sweep.csv"
    assert _run("ablate", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--reference", str(workdir / "full.bin"),
                "--config", str(workdir / "fast.cfg"), "--lambda-sweep",
                "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "guidance,mse_full,psnr,kl"
    assert len(lines) == 13
    assert lines[-1].startswith("temporal,")


# --------------------------------------------------------------- exit codes


def test_missing_input_exit_two(tmp_path, capsys):
    code = _run("reconstruct", "--sino", str(tmp_path / "absent.bin"),
                "--r", "3", "--size", "16", "--out", str(tmp_path / "o.bin"))
    assert code == 2
    assert "missing input" in capsys.readouterr().err


def test_unknown_config_key_exit_two(workdir, capsys):
    bad = workdir / "bad.cfg"
    # fixed mode's weight is nu; fixed_lambda is no longer a key, and a band
    # branch is switched off by its lambda_low or lambda_high, not a flag
    for line in ("warp_speed = 9", "fixed_lambda = 0.4", "low_band = false",
                 "high_band = false"):
        bad.write_text(line + "\n")
        code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                    "--size", "16", "--config", str(bad),
                    "--out", str(workdir / "o.bin"))
        assert code == 2
        assert "unknown key" in capsys.readouterr().err


def test_corrupt_sidecar_exit_three(workdir, capsys):
    geom = workdir / "sino.bin.geom"
    text = geom.read_text().replace("n_views=12", "n_views=24")
    geom.write_text(text)
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--out", str(workdir / "o.bin"))
    assert code == 3
    capsys.readouterr()


def test_unreadable_sidecar_value_exit_three(workdir, capsys):
    geom = workdir / "sino.bin.geom"
    text = geom.read_text()
    out = workdir / "o.bin"
    for raw, word in ((text.replace("sod_mm=", "sod_mm=abc"), "sod_mm"),
                      (text.replace("n_views=12", "n_views=twelve"), "n_views"),
                      ("\udcff" + text, "sod_mm")):
        geom.write_bytes(raw.encode(errors="surrogateescape"))
        code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                    "--size", "16", "--method", "fbp", "--out", str(out))
        assert code == 3
        assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["sod_mm", "cdd_mm", "det_width_mm"])
def test_infinite_sidecar_distance_exit_three_before_chain(workdir, capsys, monkeypatch,
                                                           key):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    geom = workdir / "sino.bin.geom"
    lines = [f"{key}=inf" if line.startswith(key + "=") else line
             for line in geom.read_text().splitlines()]
    geom.write_text("\n".join(lines) + "\n")
    out = workdir / "o.bin"
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--out", str(out))
    assert code == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_reference_ssim_cannot_score_exit_three_before_chain(workdir, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(pipeline, "coarse_generate", reached)
    ph = str(workdir / "ph.bin")
    for name, extra in (("narrow.bin", ("--r", "3")), ("narrow_full.bin", ())):
        assert _run("simulate", "--image", ph, "--views", "12", "--detectors", "6",
                    "--out", str(workdir / name), *extra) == 0
    out = workdir / "o.bin"
    for cmd in ("reconstruct", "ablate"):
        code = _run(cmd, "--sino", str(workdir / "narrow.bin"), "--r", "3", "--size", "16",
                    "--reference", str(workdir / "narrow_full.bin"), "--out", str(out))
        assert code == 3
        assert "SSIM window" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exit_two(capsys):
    assert _run("phantom", "--size", "16", "--out", "x.bin",
                "--warp", "9") == 2
    capsys.readouterr()
    assert _run("reconstruct", "--sino", "x.bin", "--r", "3", "--size", "16",
                "--out", "o.bin", "--final-dc", "trust") == 2
    err = capsys.readouterr().err
    assert "--final-dc" in err and "trust" in err


def test_non_positive_prior_var_exit_three_without_corrector(workdir, capsys):
    # with the corrector off only the surrogate reads prior_var, and 0 ran
    cfg = workdir / "point.cfg"
    cfg.write_text("ddim_steps = 4\nn_steps = 0\nprior_var = 0\n")
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg),
                "--out", str(workdir / "o.bin"))
    assert code == 3
    assert "prior_var must be finite and > 0" in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()


def test_one_active_view_with_alignment_exit_three_before_chain(workdir, capsys,
                                                                 monkeypatch):
    # --r 12 on the 12-view scan keeps one view, too few to align to
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(pipeline, "interpolate_views", reached)
    out = workdir / "o.bin"
    code = _run("reconstruct", "--sino", str(workdir / "full.bin"), "--r", "12",
                "--size", "16", "--config", str(workdir / "fast.cfg"), "--out", str(out))
    assert code == 3
    assert "alignment needs at least 2 active views" in capsys.readouterr().err
    assert not out.exists()


def test_net_with_layers_that_do_not_chain_exit_three_before_chain(workdir, capsys,
                                                                   monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    arrays = st.init_tiny_net(2, 1, hidden=4).as_list()
    arrays[4] = np.zeros((3, 3, 3, 3))  # w2 under hidden 4
    net = workdir / "bad_net.bin"
    st.save_params(SimpleNamespace(as_list=lambda: arrays), net)
    out = workdir / "o.bin"
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(workdir / "fast.cfg"),
                "--net", str(net), "--out", str(out))
    assert code == 3
    assert "w2 has shape (3, 3, 3, 3)" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_is_unknown(workdir, capsys):
    ph = str(workdir / "ph2.bin")
    assert _run("phantom", "--size", "16", "--out", ph, "--threads", "2") == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert _run("--threads", "2", "phantom", "--size", "16", "--out", ph) == 2
    capsys.readouterr()


def test_unstable_langevin_setting_exit_three(workdir, capsys):
    cfg = workdir / "unstable.cfg"
    cfg.write_text("ddim_steps = 4\nprior_var = 1e-5\n")
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg),
                "--out", str(workdir / "o.bin"))
    assert code == 3
    assert "prior_var" in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()
    cfg.write_text("ddim_steps = 4\nfinal_dc = trust\n")
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg),
                "--out", str(workdir / "o.bin"))
    assert code == 3
    assert "final_dc must be active or off" in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()


@pytest.mark.parametrize("line,word", [("weighting = bogus", "weighting"),
                                       ("wavelet = sym4", "wavelet"),
                                       ("guidance_mode = optimal-oracle",
                                        "guidance mode"),
                                       ("guidance_mode = optimal-closed-form",
                                        "guidance mode")])
def test_unknown_weighting_or_wavelet_exit_three_before_chain(workdir, capsys,
                                                               monkeypatch, line,
                                                               word):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    monkeypatch.setattr(cli, "sparse_fbp_baseline", reached)
    cfg = workdir / "bogus.cfg"
    cfg.write_text(f"n_steps = 0\n{line}\n")
    for method in ("stride", "fbp"):
        code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                    "--size", "16", "--config", str(cfg), "--method", method,
                    "--out", str(workdir / "o.bin"))
        assert code == 3
        assert word in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()


def test_align_per_step_without_alignment_exit_three_before_chain(workdir, capsys,
                                                                  monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    cfg = workdir / "dead.cfg"
    cfg.write_text("n_steps = 0\nalignment = false\nalign_per_step = true\n")
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg), "--out", str(workdir / "o.bin"))
    assert code == 3
    assert "align_per_step needs alignment" in capsys.readouterr().err
    assert not (workdir / "o.bin").exists()


def test_config_prior_var_reaches_pipeline_config(workdir, monkeypatch):
    seen = []

    def reached(sino, mask, grid, cfg, **kwargs):
        seen.append(cfg)
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    cfg = workdir / "prior.cfg"
    cfg.write_text("prior_var = 0.01\n")
    with pytest.raises(AssertionError, match="chain started"):
        _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
             "--size", "16", "--config", str(cfg), "--out", str(workdir / "o.bin"))
    assert [c.prior_var for c in seen] == [0.01]


def test_mismatched_reference_exit_three_before_chain(workdir, capsys, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(st.pipeline, "interpolate_views", reached)
    more_views = workdir / "full24.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "24",
                "--detectors", "16", "--out", str(more_views)) == 0
    common = ("--sino", str(workdir / "sino.bin"), "--r", "3", "--size", "16",
              "--config", str(workdir / "fast.cfg"), "--reference", str(more_views))
    out = workdir / "o.out"
    for argv in (("reconstruct",) + common, ("ablate",) + common,
                 ("ablate", "--lambda-sweep") + common):
        capsys.readouterr()
        assert _run(*argv, "--out", str(out)) == 3
        assert ("reference sinogram of shape (24, 16), expected (12, 16)"
                in capsys.readouterr().err)
    assert not out.exists()


def test_omega_without_conditional_net_exit_three(workdir, capsys):
    cfg = workdir / "omega.cfg"
    cfg.write_text("ddim_steps = 4\nn_steps = 0\nomega = 0.7\n")
    out = workdir / "o.bin"
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg), "--out", str(out))
    assert code == 3
    assert "omega" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ config helpers


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# comment line\n"
        "ddim_steps = 7   # trailing comment\n"
        "alignment = off\n"
        "nu=0.25\n"
        "guidance_mode = fixed\n"
        "\n"
    )
    kv = parse_config_file(cfg)
    assert kv == {"ddim_steps": 7, "alignment": False, "nu": 0.25,
                  "guidance_mode": "fixed"}

    # each error names the file and the line
    for name, text, word in (("bad1.cfg", "mystery = 1\n", "unknown key 'mystery'"),
                             ("bad2.cfg", "alignment = maybe\n", "alignment: bad boolean"),
                             ("bad3.cfg", "just a line\n", "expected key=value")):
        bad = tmp_path / name
        bad.write_text("# settings\nnu = 0.5\n" + text)
        with pytest.raises(_UsageError, match=f"{name}: line 3: {word}"):
            parse_config_file(bad)


def test_undecodable_config_file_exit_two(workdir, capsys):
    # as in a sidecar, an undecodable byte is refused as text, not raised
    cfg = workdir / "bytes.cfg"
    cfg.write_bytes(b"ddim_steps = 4\xff\n")
    out = workdir / "o.bin"
    code = _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert "bytes.cfg: line 1: ddim_steps" in capsys.readouterr().err
    assert not out.exists()


def test_build_pipeline_config_defaults_and_overrides():
    assert build_pipeline_config({}) == st.PipelineConfig()

    cfg2 = build_pipeline_config({
        "ddim_steps": 8,
        "guidance_mode": "fixed",
        "nu": 0.4,
        "n_steps": 12,
        "corrector_seed": 9,
        "filter_kind": "hann",
        "cutoff": 0.5,
        "weighting": "exact",
        "pre_weight": False,
        "alignment": False,
        "prior_var": 0.2,
    })
    assert cfg2 == st.PipelineConfig(
        ddim_steps=8, guidance=st.GuidanceConfig(mode="fixed", nu=0.4),
        corrector=st.CorrectorConfig(n_steps=12, seed=9),
        filter=st.FilterSpec(kind="hann", cutoff=0.5, pre_weight=False,
                             weighting="exact"),
        alignment=False, prior_var=0.2)
    every_key = build_pipeline_config({
        "guidance_mode": "temporal", "nu": 0.7, "n_steps": 3, "eps_start": 1e-3,
        "eps_end": 1e-6, "lambda_low": 0.5, "lambda_high": 0.25, "corrector_seed": 4,
        "filter_kind": "hann", "cutoff": 0.8})
    assert every_key == st.PipelineConfig(
        guidance=st.GuidanceConfig(mode="temporal", nu=0.7),
        corrector=st.CorrectorConfig(n_steps=3, eps_start=1e-3, eps_end=1e-6,
                                     lambda_low=0.5, lambda_high=0.25, seed=4),
        filter=st.FilterSpec(kind="hann", cutoff=0.8))
    # the corrector follows the run's seed unless given its own
    assert build_pipeline_config({"seed": 5}).corrector.seed == 5
    assert build_pipeline_config({"seed": 5, "corrector_seed": 9}).corrector.seed == 9



# each config key: a value as a file writes it, the type it parses to, and
# the config it builds on its own
ONE_KEY = {
    "ddim_steps": ("7", int, st.PipelineConfig(ddim_steps=7)),
    "sigma_ddim": ("0.5", float, st.PipelineConfig(sigma_ddim=0.5)),
    "omega": ("0.7", float, st.PipelineConfig(omega=0.7)),
    "alignment": ("off", bool, st.PipelineConfig(alignment=False)),
    "align_per_step": ("yes", bool, st.PipelineConfig(align_per_step=True)),
    "wavelet": ("db2", str, st.PipelineConfig(wavelet="db2")),
    "final_dc": ("off", str, st.PipelineConfig(final_dc="off")),
    "normalize": ("false", bool, st.PipelineConfig(normalize=False)),
    "prior_var": ("0.01", float, st.PipelineConfig(prior_var=0.01)),
    "seed": ("5", int, st.PipelineConfig(seed=5, corrector=st.CorrectorConfig(seed=5))),
    "guidance_mode": ("fixed", str,
                      st.PipelineConfig(guidance=st.GuidanceConfig(mode="fixed"))),
    "nu": ("0.25", float, st.PipelineConfig(guidance=st.GuidanceConfig(nu=0.25))),
    "n_steps": ("12", int, st.PipelineConfig(corrector=st.CorrectorConfig(n_steps=12))),
    "eps_start": ("1e-3", float,
                  st.PipelineConfig(corrector=st.CorrectorConfig(eps_start=1e-3))),
    "eps_end": ("1e-6", float,
                st.PipelineConfig(corrector=st.CorrectorConfig(eps_end=1e-6))),
    "lambda_low": ("0.5", float,
                   st.PipelineConfig(corrector=st.CorrectorConfig(lambda_low=0.5))),
    "lambda_high": ("0", float,
                    st.PipelineConfig(corrector=st.CorrectorConfig(lambda_high=0.0))),
    "corrector_seed": ("9", int, st.PipelineConfig(corrector=st.CorrectorConfig(seed=9))),
    "filter_kind": ("hann", str, st.PipelineConfig(filter=st.FilterSpec(kind="hann"))),
    "cutoff": ("0.5", float, st.PipelineConfig(filter=st.FilterSpec(cutoff=0.5))),
    "pre_weight": ("0", bool, st.PipelineConfig(filter=st.FilterSpec(pre_weight=False))),
    "weighting": ("exact", str,
                  st.PipelineConfig(filter=st.FilterSpec(weighting="exact"))),
}


def test_config_keys_are_every_scalar_field_once():
    nested = (st.GuidanceConfig, st.CorrectorConfig, st.FilterSpec)
    n_fields = (len(dataclasses.fields(st.PipelineConfig)) - len(nested)
                + sum(len(dataclasses.fields(c)) for c in nested))
    assert set(cli.CONFIG_SCHEMA) == set(ONE_KEY)
    assert len(cli.CONFIG_SCHEMA) == n_fields == 22
    assert {tp for _, _, tp in cli.CONFIG_SCHEMA.values()} <= {bool, int, float, str}


@pytest.mark.parametrize("key", list(ONE_KEY))
def test_one_key_config_file_builds_its_config(tmp_path, key):
    text, tp, expect = ONE_KEY[key]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {text}\n")
    kv = parse_config_file(cfg)
    assert list(kv) == [key] and type(kv[key]) is tp
    assert build_pipeline_config(kv) == expect


def test_every_config_key_changes_the_output(tmp_path):
    # no knob that does nothing: each key's ONE_KEY value, set on its own,
    # changes the default chain's image or sinogram bytes on a 16², 12-view,
    # r = 3 scan, or is refused as documented; a key the table lacks fails
    phantom = st.shepp_logan(16, 16)
    sino = st.forward_project(phantom, st.desk_geometry(12, 16, 16))
    m = st.make_sparse_mask(12, 3)
    masked, grid = st.apply_mask(sino, m), st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))

    def output(cfg):
        res = st.stride_reconstruct(masked, m, grid, cfg)
        return res.image.values.tobytes(), res.sinogram.values.tobytes()

    default = output(build_pipeline_config({}))
    idle = []
    for key in cli.CONFIG_SCHEMA:
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {ONE_KEY[key][0]}\n")
        cfg = build_pipeline_config(parse_config_file(path))
        if key == "omega":
            with pytest.raises(InvalidArgumentError, match="needs a conditional model"):
                output(cfg)
            continue
        image, sinogram = output(cfg)
        if image == default[0] and sinogram == default[1]:
            idle.append(key)
    assert idle == []


# a value each type cannot take, and the exit code it gives: a text that
# does not parse is a usage error, a string no setting accepts is rejected
_BAD_VALUE = {bool: ("maybe", 2), int: ("4.5", 2), float: ("abc", 2), str: ("bogus", 3)}


@pytest.mark.parametrize("key", list(ONE_KEY))
def test_one_key_bad_value_exits_before_chain(workdir, capsys, monkeypatch, key):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    text, code = _BAD_VALUE[ONE_KEY[key][1]]
    cfg = workdir / "bad.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg),
                "--out", str(workdir / "o.bin")) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (code == 3 or f"{key}: " in err)
    assert not (workdir / "o.bin").exists()


_FLOAT_KEYS = [key for key, (_, _, tp) in cli.CONFIG_SCHEMA.items() if tp is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_setting_exits_three_before_chain(workdir, capsys, monkeypatch,
                                                           key, value):
    def reached(*args, **kwargs):
        raise AssertionError("chain started")

    monkeypatch.setattr(cli, "stride_reconstruct", reached)
    cfg = workdir / "nonfinite.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--config", str(cfg),
                "--out", str(workdir / "o.bin")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (workdir / "o.bin").exists()
