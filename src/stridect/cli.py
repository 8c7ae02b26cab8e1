"""Command-line entry points.

Subcommands cover the full workflow: make a phantom, simulate a masked
acquisition, train the tiny denoising network, reconstruct, score results,
and run ablations. Exit codes: 0 success, 2 usage error, 3 data or shape
error or a rejected setting, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .corrector import CorrectorConfig
from .denoiser import TinyEpsNet, load_params, save_params, train_epsilon
from .diffusion import GuidanceConfig, linear_schedule
from .errors import InvalidArgumentError, NumericalAbortError
from .evalkit import kl_divergence, mse, psnr, shepp_logan, ssim
from .fbp import FilterSpec
from .fileio import read_image, read_sinogram, write_image, write_pgm, write_sinogram
from .geometry import ImageGrid, desk_geometry, make_sparse_mask
from .pipeline import (PipelineConfig, ablation_to_csv, lambda_sweep_to_csv,
                       report_to_csv, run_component_ablation, run_lambda_sweep,
                       sparse_fbp_baseline, stride_reconstruct)
from .projector import NoiseSpec, simulate_measurement

_USAGE_EXIT = 2
_DATA_EXIT = 3
_NUMERIC_EXIT = 4


class _UsageError(Exception):
    """Problems with how the tool was invoked (flags, config keys, paths)."""

_BOOL_KEYS = ("alignment", "align_per_step", "normalize", "pre_weight")
_INT_KEYS = ("ddim_steps", "n_steps", "seed", "corrector_seed")
_FLOAT_KEYS = ("sigma_ddim", "omega", "nu", "eps_start",
               "eps_end", "lambda_low", "lambda_high", "t_start", "t_end",
               "cutoff", "prior_var")
_STR_KEYS = ("guidance_mode", "wavelet", "final_dc", "filter_kind", "weighting")
_CONFIG_KEYS = _BOOL_KEYS + _INT_KEYS + _FLOAT_KEYS + _STR_KEYS
# config key -> field of the nested config it sets; the rest are
# PipelineConfig fields of the same name
_GUIDANCE_FIELDS = {"guidance_mode": "mode", "nu": "nu"}
_CORRECTOR_FIELDS = {**{k: k for k in ("n_steps", "eps_start", "eps_end", "lambda_low",
                                        "lambda_high", "t_start", "t_end")},
                     "corrector_seed": "seed"}
_FILTER_FIELDS = {"filter_kind": "kind", "cutoff": "cutoff", "pre_weight": "pre_weight",
                  "weighting": "weighting"}


def _parse_bool(text, key):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"bad boolean for {key}: {text}")


def parse_config_file(path) -> dict:
    """key=value lines; # starts a comment; unknown keys are rejected."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{ln}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise _UsageError(f"{path}:{ln}: unknown key {key!r}")
            try:
                if key in _BOOL_KEYS:
                    out[key] = _parse_bool(val, key)
                elif key in _INT_KEYS:
                    out[key] = int(val)
                elif key in _FLOAT_KEYS:
                    out[key] = float(val)
                else:
                    out[key] = val
            except ValueError as e:
                raise _UsageError(f"{path}:{ln}: {e}") from e
    return out


def build_pipeline_config(kv: dict) -> PipelineConfig:
    """Assemble a PipelineConfig from a flat key=value mapping. Keys the
    mapping leaves out keep the defaults of the config classes. The
    corrector's seed is the run's ``seed`` unless ``corrector_seed`` is
    given."""
    kv = dict(kv)

    def take(fields):
        return {f: kv.pop(key) for key, f in fields.items() if key in kv}

    corrector = take(_CORRECTOR_FIELDS)
    if "seed" in kv:
        corrector.setdefault("seed", kv["seed"])
    return PipelineConfig(guidance=GuidanceConfig(**take(_GUIDANCE_FIELDS)),
                          corrector=CorrectorConfig(**corrector),
                          filter=FilterSpec(**take(_FILTER_FIELDS)), **kv)


def _cmd_phantom(args) -> int:
    if args.size < 16:
        print("error: --size must be at least 16", file=sys.stderr)
        return _USAGE_EXIT
    img = shepp_logan(args.size, args.size, pixel_size=args.pixel_size)
    write_image(args.out, img)
    if args.pgm:
        write_pgm(args.pgm, img)
    print(f"wrote {args.out} ({args.size}x{args.size})")
    return 0


def _cmd_simulate(args) -> int:
    img = read_image(args.image, pixel_size=args.pixel_size)
    geom = desk_geometry(args.views, args.detectors, img.nx,
                         pixel_size=img.pixel_size)
    noise = NoiseSpec(sigma=args.noise_sigma, seed=args.noise_seed)
    mask = make_sparse_mask(args.views, args.r) if args.r > 1 else None
    sino = simulate_measurement(img, geom, m=mask, noise=noise)
    write_sinogram(args.out, sino)
    kept = mask.n_active if mask else args.views
    print(f"wrote {args.out} ({args.views} views, {kept} kept)")
    return 0


def _cmd_train(args) -> int:
    sino = read_sinogram(args.sino)
    vals = np.asarray(sino.values, dtype=np.float64)
    peak = float(np.max(np.abs(vals)))
    data = [vals / peak if peak > 0 else vals]
    sched = linear_schedule()
    net, trace = train_epsilon(data, sched, epochs=args.epochs,
                               steps_per_epoch=args.steps, lr=args.lr,
                               hidden=args.hidden, seed=args.seed)
    save_params(net.params, args.out)
    print(f"wrote {args.out} (loss {trace[0]:.4f} -> {trace[-1]:.4f})")
    return 0


def _load_model(path, sched):
    params = load_params(path)
    return TinyEpsNet(params, sched)


def _output_grid(size: int, pixel_size: float) -> ImageGrid:
    return ImageGrid(size, size, pixel_size, np.zeros((size, size)))


def _cmd_reconstruct(args) -> int:
    sino = read_sinogram(args.sino)
    mask = make_sparse_mask(sino.geometry.n_views, args.r)
    kv = parse_config_file(args.config) if args.config else {}
    for key, val in (("seed", args.seed), ("final_dc", args.final_dc)):
        if val is not None:
            kv[key] = val
    cfg = build_pipeline_config(kv)
    grid = _output_grid(args.size, args.pixel_size)
    if args.method == "fbp":
        image = sparse_fbp_baseline(sino, mask, grid, cfg.filter)
        write_image(args.out, image)
        if args.pgm:
            write_pgm(args.pgm, image)
        print(f"wrote {args.out}")
        return 0
    sched = linear_schedule()
    model = _load_model(args.net, sched) if args.net else None
    reference = read_sinogram(args.reference) if args.reference else None
    res = stride_reconstruct(sino, mask, grid, cfg, model=model, sched=sched,
                             reference=reference)
    write_image(args.out, res.image)
    if args.sino_out:
        write_sinogram(args.sino_out, res.sinogram)
    if args.pgm:
        write_pgm(args.pgm, res.image)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report_to_csv(res.stages))
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    a = read_image(args.image)
    b = read_image(args.reference)
    va, vb = a.values, b.values
    print("mse,psnr,ssim,kl")
    print(f"{mse(vb, va):.10g},{psnr(vb, va):.10g},"
          f"{ssim(vb, va):.10g},{kl_divergence(vb, va):.10g}")
    return 0


def _cmd_ablate(args) -> int:
    sino = read_sinogram(args.sino)
    mask = make_sparse_mask(sino.geometry.n_views, args.r)
    reference = read_sinogram(args.reference)
    kv = parse_config_file(args.config) if args.config else {}
    cfg = build_pipeline_config(kv)
    grid = _output_grid(args.size, args.pixel_size)
    if args.lambda_sweep:
        rows = run_lambda_sweep(sino, mask, grid, cfg, reference)
        text = lambda_sweep_to_csv(rows)
    else:
        rows = run_component_ablation(sino, mask, grid, cfg, reference)
        text = ablation_to_csv(rows)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stridect",
                                description="Sparse-view CT reconstruction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("phantom", help="write a head phantom image")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--pixel-size", type=float, default=1.0)
    q.add_argument("--out", required=True)
    q.add_argument("--pgm", default=None)
    q.set_defaults(func=_cmd_phantom)

    q = sub.add_parser("simulate", help="project an image into a sinogram")
    q.add_argument("--image", required=True)
    q.add_argument("--views", type=int, required=True)
    q.add_argument("--detectors", "--dets", type=int, required=True)
    q.add_argument("--pixel-size", type=float, default=1.0)
    q.add_argument("--r", type=int, default=1, help="keep every r-th view")
    q.add_argument("--noise-sigma", "--noise", type=float, default=0.0)
    q.add_argument("--noise-seed", "--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("train", help="train the small denoising network")
    q.add_argument("--sino", required=True)
    q.add_argument("--epochs", type=int, default=50)
    q.add_argument("--steps", type=int, default=10)
    q.add_argument("--lr", type=float, default=1e-4)
    q.add_argument("--hidden", type=int, default=16)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_train)

    q = sub.add_parser("reconstruct", help="run the full pipeline")
    q.add_argument("--sino", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--pixel-size", type=float, default=1.0)
    q.add_argument("--method", choices=("stride", "fbp"), default="stride")
    q.add_argument("--config", default=None, help="key=value settings file")
    q.add_argument("--net", default=None, help="trained parameter file")
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--final-dc", choices=("active", "off"), default=None)
    q.add_argument("--reference", default=None, help="full sinogram for metrics")
    q.add_argument("--out", required=True)
    q.add_argument("--sino-out", default=None)
    q.add_argument("--report", default=None, help="per-stage CSV path")
    q.add_argument("--pgm", default=None)
    q.set_defaults(func=_cmd_reconstruct)

    q = sub.add_parser("eval", help="compare an image against a reference")
    q.add_argument("--image", "--test", required=True)
    q.add_argument("--reference", "--ref", required=True)
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("ablate", help="component ablation or guidance sweep")
    q.add_argument("--sino", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--pixel-size", type=float, default=1.0)
    q.add_argument("--reference", required=True)
    q.add_argument("--config", default=None)
    q.add_argument("--lambda-sweep", action="store_true")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return _USAGE_EXIT if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except NumericalAbortError as e:
        print(f"error: {e}", file=sys.stderr)
        return _NUMERIC_EXIT
    except FileNotFoundError as e:
        print(f"error: missing input {e.filename}", file=sys.stderr)
        return _USAGE_EXIT
    except (InvalidArgumentError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _DATA_EXIT
    except (_UsageError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
