"""Command-line workflow, config parsing, and exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stridect as st
import stridect.cli as cli
from stridect.cli import (
    _UsageError,
    build_pipeline_config,
    main,
    parse_config_file,
)


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


def test_simulate_negative_noise_sigma_exit_three(workdir, capsys):
    out = workdir / "neg.bin"
    assert _run("simulate", "--image", str(workdir / "ph.bin"), "--views", "12",
                "--dets", "16", "--noise", "-0.1", "--out", str(out)) == 3
    assert "noise sigma" in capsys.readouterr().err
    assert not out.exists()


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


# -------------------------------------------------------------- reconstruct


def test_reconstruct_fbp_method(workdir):
    out = workdir / "fbp.bin"
    assert _run("reconstruct", "--sino", str(workdir / "sino.bin"), "--r", "3",
                "--size", "16", "--method", "fbp", "--out", str(out)) == 0
    sino = st.read_sinogram(workdir / "sino.bin")
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    direct = st.sparse_fbp_baseline(sino, st.make_sparse_mask(12, 3), grid)
    expect = direct.values.astype(np.float32).astype(np.float64)
    assert np.array_equal(st.read_image(out).values, expect)


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
    assert "shape mismatch" in capsys.readouterr().err


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
    bad.write_text("warp_speed = 9\n")
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


def test_unknown_flag_exit_two(capsys):
    assert _run("phantom", "--size", "16", "--out", "x.bin",
                "--warp", "9") == 2
    capsys.readouterr()
    assert _run("reconstruct", "--sino", "x.bin", "--r", "3", "--size", "16",
                "--out", "o.bin", "--final-dc", "trust") == 2
    err = capsys.readouterr().err
    assert "--final-dc" in err and "trust" in err


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

    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("mystery = 1\n")
    with pytest.raises(_UsageError):
        parse_config_file(bad_key)

    bad_bool = tmp_path / "bad2.cfg"
    bad_bool.write_text("alignment = maybe\n")
    with pytest.raises(_UsageError):
        parse_config_file(bad_bool)

    bad_line = tmp_path / "bad3.cfg"
    bad_line.write_text("just a line\n")
    with pytest.raises(_UsageError):
        parse_config_file(bad_line)


def test_build_pipeline_config_defaults_and_overrides():
    cfg, prior_var = build_pipeline_config({})
    ref = st.PipelineConfig()
    assert (cfg.ddim_steps, cfg.final_dc, cfg.weighting) == \
        (ref.ddim_steps, ref.final_dc, ref.weighting)
    assert cfg.guidance.mode == ref.guidance.mode
    assert cfg.corrector == ref.corrector
    assert cfg.filter == ref.filter
    assert prior_var == 0.05

    cfg2, pv2 = build_pipeline_config({
        "ddim_steps": 8,
        "guidance_mode": "fixed",
        "fixed_lambda": 0.4,
        "n_steps": 12,
        "corrector_seed": 9,
        "filter_kind": "hann",
        "cutoff": 0.5,
        "weighting": "exact",
        "alignment": False,
        "prior_var": 0.2,
    })
    assert cfg2.ddim_steps == 8
    assert cfg2.guidance.mode == "fixed"
    assert cfg2.guidance.fixed_lambda == 0.4
    assert cfg2.corrector.n_steps == 12
    assert cfg2.corrector.seed == 9
    assert cfg2.filter.kind == "hann"
    assert cfg2.filter.cutoff == 0.5
    assert cfg2.weighting == "exact"
    assert not cfg2.alignment
    assert pv2 == 0.2
    # the corrector follows the run's seed unless given its own
    assert build_pipeline_config({"seed": 5})[0].corrector.seed == 5
    assert build_pipeline_config({"seed": 5, "corrector_seed": 9})[0].corrector.seed == 9
