"""Command-line entry points.

Subcommands cover the full workflow: make a phantom, simulate a masked
acquisition, train the tiny denoising network, reconstruct, score results,
and run ablations. Exit codes: 0 success, 2 usage error, 3 data or shape
error or a rejected setting, 4 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

import numpy as np

from .denoiser import TinyEpsNet, load_params, save_params, train_epsilon
from .diffusion import linear_schedule
from .errors import InvalidArgumentError, NumericalAbortError
from .evalkit import kl_divergence, mse, psnr, shepp_logan, ssim
from .fileio import (read_image, read_sinogram, to_csv, write_image, write_pgm,
                     write_sinogram)
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


# config keys that are not their field's name: ``mode`` and ``kind`` would be
# ambiguous at the top level, and PipelineConfig has a ``seed`` of its own
_RENAMED = {("guidance", "mode"): "guidance_mode", ("filter", "kind"): "filter_kind",
            ("corrector", "seed"): "corrector_seed"}


def _config_schema(cls=PipelineConfig, sec=None) -> dict:
    """Every scalar setting of a config class and of the configs nested in
    it, as config key -> (nested field or None, field name, type)."""
    schema = {}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            schema.update(_config_schema(tp, f.name))
        else:
            schema[_RENAMED.get((sec, f.name), f.name)] = (sec, f.name, tp)
    return schema


CONFIG_SCHEMA = _config_schema()


def _parse_bool(text):
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean: {text}")


def parse_config_file(path) -> dict:
    """key=value lines; # starts a comment; unknown keys are rejected. Each
    value is parsed by the type of the config field its key sets."""
    out = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{ln}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key not in CONFIG_SCHEMA:
                raise _UsageError(f"{path}:{ln}: unknown key {key!r}")
            tp = CONFIG_SCHEMA[key][2]
            try:
                out[key] = _parse_bool(val) if tp is bool else tp(val)
            except ValueError as e:
                raise _UsageError(f"{path}:{ln}: {key}: {e}") from e
    return out


def build_pipeline_config(kv: dict) -> PipelineConfig:
    """Assemble a PipelineConfig from a flat key=value mapping. Keys the
    mapping leaves out keep the defaults of the config classes. The
    corrector's seed is the run's ``seed`` unless ``corrector_seed`` is
    given."""
    parts = {None: {}}
    for key, val in kv.items():
        sec, name, _ = CONFIG_SCHEMA[key]
        parts.setdefault(sec, {})[name] = val
    if "seed" in kv:
        parts.setdefault("corrector", {}).setdefault("seed", kv["seed"])
    base = PipelineConfig()
    return dataclasses.replace(base, **parts.pop(None), **{
        sec: dataclasses.replace(getattr(base, sec), **v) for sec, v in parts.items()})


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
    mask = make_sparse_mask(args.views, args.r)
    sino = simulate_measurement(img, geom, m=mask, noise=noise)
    write_sinogram(args.out, sino)
    print(f"wrote {args.out} ({args.views} views, {mask.n_active} kept)")
    return 0


def _cmd_train(args) -> int:
    vals = read_sinogram(args.sino).values
    peak = float(np.max(np.abs(vals)))
    data = [vals / peak if peak > 0 else vals]
    sched = linear_schedule()
    net, trace = train_epsilon(data, sched, epochs=args.epochs,
                               steps_per_epoch=args.steps, lr=args.lr,
                               hidden=args.hidden, seed=args.seed)
    save_params(net.params, args.out)
    print(f"wrote {args.out} (loss {trace[0]:.4f} -> {trace[-1]:.4f})")
    return 0


def _chain_inputs(args, **flags):
    """The measured sinogram, its view mask, the chain config (the config
    file's keys, then each flag given) and the output grid."""
    sino = read_sinogram(args.sino)
    mask = make_sparse_mask(sino.geometry.n_views, args.r)
    kv = parse_config_file(args.config) if args.config else {}
    kv.update((key, val) for key, val in flags.items() if val is not None)
    grid = ImageGrid(args.size, args.size, args.pixel_size, np.zeros((args.size,) * 2))
    return sino, mask, build_pipeline_config(kv), grid


def _cmd_reconstruct(args) -> int:
    sino, mask, cfg, grid = _chain_inputs(args, seed=args.seed, final_dc=args.final_dc)
    if args.method == "fbp":
        image = sparse_fbp_baseline(sino, mask, grid, cfg.filter)
    else:
        sched = linear_schedule()
        model = TinyEpsNet(load_params(args.net), sched) if args.net else None
        reference = read_sinogram(args.reference) if args.reference else None
        res = stride_reconstruct(sino, mask, grid, cfg, model=model, sched=sched,
                                 reference=reference)
        image = res.image
        if args.sino_out:
            write_sinogram(args.sino_out, res.sinogram)
        if args.report:
            with open(args.report, "w") as f:
                f.write(report_to_csv(res.stages))
    write_image(args.out, image)
    if args.pgm:
        write_pgm(args.pgm, image)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    va, vb = read_image(args.image).values, read_image(args.reference).values
    row = (mse(vb, va), psnr(vb, va), ssim(vb, va), kl_divergence(vb, va))
    print(to_csv(("mse", "psnr", "ssim", "kl"), [row]), end="")
    return 0


def _cmd_ablate(args) -> int:
    sino, mask, cfg, grid = _chain_inputs(args)
    reference = read_sinogram(args.reference)
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
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
