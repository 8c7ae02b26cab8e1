"""Which stridect calls a traced run wraps, and the per-layer metrics made
from them.

Each patch names the attribute a caller looks up at call time: the chain in
``stridect.pipeline`` reaches every stage through its own module globals,
``refine_bands`` reaches ``langevin_step`` and ``data_consistency`` through
``stridect.corrector``, ``fbp_reconstruct`` reaches its two halves through
``stridect.fbp``, and models are reached through their class.
"""

from __future__ import annotations

import math

import numpy as np


def _dc_rows(x, observed, rows):
    return {"rows": int(np.count_nonzero(rows))}


def _pixel_views(q, grid, *args, **kwargs):
    return {"pixel_views": grid.nx * grid.ny * q.geometry.n_views}


def _ray_samples(x, g, *args, **kwargs):
    """Nominal ray samples: half-pixel steps across the image's bounding
    circle plus one pixel, for every (view, detector) ray."""
    radius = 0.5 * x.pixel_size * math.hypot(x.nx, x.ny) + x.pixel_size
    per_ray = math.ceil(2.0 * radius / (x.pixel_size / 2.0))
    return {"samples": g.n_views * g.n_detectors * per_ray}


def install(tracer):
    """Patch every traced call site; ``tracer.restore()`` undoes it."""
    import stridect.corrector as corrector
    import stridect.denoiser as denoiser
    import stridect.fbp as fbp
    import stridect.pipeline as pipeline
    import stridect.projector as projector

    p = tracer.patch
    p(pipeline, "stride_reconstruct", "pipeline.chain")
    p(pipeline, "run_lambda_sweep", "pipeline.sweep")
    p(pipeline, "interpolate_views", "pipeline.interp")
    p(pipeline, "coarse_generate", "diffusion.coarse")
    p(pipeline, "ddim_step", "diffusion.ddim_step")
    p(pipeline, "guidance_weight", "diffusion.guidance")
    p(pipeline, "apply_sparse_guidance", "diffusion.guidance")
    p(pipeline, "predict_x0", "diffusion.predict_x0")
    for cls in vars(denoiser).values():
        if isinstance(cls, type) and cls.__module__ == denoiser.__name__:
            if "predict_eps" in cls.__dict__:
                p(cls, "predict_eps", "denoiser.predict_eps")
            if "score" in cls.__dict__:
                p(cls, "score", "denoiser.score")
    p(pipeline, "refine_bands", "corrector.refine")
    p(corrector, "langevin_step", "corrector.langevin_step")
    p(corrector, "data_consistency", "corrector.dc", _dc_rows)
    p(pipeline, "data_consistency", "corrector.dc", _dc_rows)
    p(pipeline, "fit_linear_alignment", "corrector.align")
    p(pipeline, "apply_linear_alignment", "corrector.align")
    p(pipeline, "swt_decompose", "wavelet.swt")
    p(pipeline, "iswt_reconstruct", "wavelet.iswt")
    p(pipeline, "fbp_reconstruct", "fbp.fbp")
    p(fbp, "filter_projections", "fbp.filter")
    p(fbp, "fan_backproject", "fbp.backproject", _pixel_views)
    p(projector, "forward_project", "projector.forward", _ray_samples)
    p(projector, "adjoint_project", "projector.adjoint")
    for name in ("mse", "psnr", "ssim", "kl_divergence"):
        p(pipeline, name, "evalkit")


# (metric, unit, span names, field of the per-operation sums)
SUMS = (
    ("pipeline.chains", "count", ("pipeline.chain",), "calls"),
    ("pipeline.self_s", "s", ("pipeline.chain", "pipeline.sweep"), "self_s"),
    ("pipeline.interp_s", "s", ("pipeline.interp",), "s"),
    ("diffusion.ddim_steps", "count", ("diffusion.ddim_step",), "calls"),
    ("diffusion.coarse_s", "s", ("diffusion.coarse",), "s"),
    ("diffusion.coarse_self_s", "s", ("diffusion.coarse",), "self_s"),
    ("diffusion.ddim_step_s", "s", ("diffusion.ddim_step",), "s"),
    ("diffusion.guidance_s", "s", ("diffusion.guidance",), "s"),
    ("diffusion.predict_x0_s", "s", ("diffusion.predict_x0",), "s"),
    ("denoiser.predict_eps_calls", "count", ("denoiser.predict_eps",), "calls"),
    ("denoiser.predict_eps_s", "s", ("denoiser.predict_eps",), "s"),
    ("denoiser.score_calls", "count", ("denoiser.score",), "calls"),
    ("denoiser.score_s", "s", ("denoiser.score",), "s"),
    ("corrector.refine_s", "s", ("corrector.refine",), "s"),
    ("corrector.refine_self_s", "s", ("corrector.refine",), "self_s"),
    ("corrector.langevin_steps", "count", ("corrector.langevin_step",), "calls"),
    ("corrector.langevin_step_s", "s", ("corrector.langevin_step",), "s"),
    ("corrector.dc_calls", "count", ("corrector.dc",), "calls"),
    ("corrector.dc_rows", "count", ("corrector.dc",), "rows"),
    ("corrector.dc_s", "s", ("corrector.dc",), "s"),
    ("corrector.align_s", "s", ("corrector.align",), "s"),
    ("wavelet.calls", "count", ("wavelet.swt", "wavelet.iswt"), "calls"),
    ("wavelet.swt_s", "s", ("wavelet.swt",), "s"),
    ("wavelet.iswt_s", "s", ("wavelet.iswt",), "s"),
    ("fbp.calls", "count", ("fbp.fbp",), "calls"),
    ("fbp.filter_s", "s", ("fbp.filter",), "s"),
    ("fbp.backproject_s", "s", ("fbp.backproject",), "s"),
    ("projector.forward_calls", "count", ("projector.forward",), "calls"),
    ("projector.adjoint_calls", "count", ("projector.adjoint",), "calls"),
    ("projector.forward_s", "s", ("projector.forward",), "s"),
    ("projector.adjoint_s", "s", ("projector.adjoint",), "s"),
    ("evalkit.calls", "count", ("evalkit",), "calls"),
    ("evalkit.s", "s", ("evalkit",), "s"),
)

# (metric, unit, span name, count field, scale): count / span seconds
RATES = (
    ("fbp.pixel_views_per_s", "1/s", "fbp.backproject", "pixel_views", 1.0),
    ("projector.forward_msamples_per_s", "Msample/s", "projector.forward", "samples", 1e-6),
)


def op_metrics(totals):
    """Per-layer values of one operation from its per-name sums; a rate
    whose layer did not run reads 0."""
    out = {}
    for metric, _, names, key in SUMS:
        out[metric] = sum(totals.get(n, {}).get(key, 0) for n in names)
    for metric, _, name, key, scale in RATES:
        t = totals.get(name, {})
        out[metric] = t[key] * scale / t["s"] if t.get("s") else 0.0
    return out


def units():
    return {**{m[0]: m[1] for m in SUMS}, **{m[0]: m[1] for m in RATES}}
