"""The benchmark's three workloads on the desk scan.

Every workload has the same shape: ``prepare(k)`` builds the inputs of
operation k outside the timed region, ``run`` is the timed operation (calls
go through module attributes so a traced run sees them), ``check`` returns
the problems found in its output, and ``quality`` is the operation's PSNR
against ground truth made apart from the chain. A run reports the mean
quality of its first ``quality_ops`` operations, so the figure does not
depend on how many operations the run holds.

The desk scan is the 64 x 64 head phantom seen by a fan beam of 180 views
x 256 detectors, of which every 3rd view is kept.
"""

from __future__ import annotations

import numpy as np

import stridect as st
import stridect.pipeline as pipeline
import stridect.projector as projector
from analytic import (ellipse_line_integrals, fan_rays, psnr_db,
                      random_ellipses, rel_l2, world_ellipses)

NX, VIEWS, DETECTORS, STRIDE = 64, 180, 256, 3

# Relative L2 error allowed between the projection of a rasterized random
# phantom and the exact line integrals of its ellipses. The gap is pixel
# discretization, 1.2-1.6% on these phantoms (2.1% for a single ellipse,
# 6.6% for the head phantom's thin shell).
PROJECTION_TOL = 0.04
ADJOINT_TOL = 1e-10
SWEEP_LABELS = tuple(f"fixed-{k / 10.0:.1f}" for k in range(11)) + ("temporal",)


class DeskScan:
    """Phantom, a freshly built geometry and its forward projection (the one
    projection in set-up), the stride mask and the measured sinogram."""

    def __init__(self):
        self.phantom = st.shepp_logan(NX, NX)
        geom = st.desk_geometry(VIEWS, DETECTORS, NX)
        self.full = projector.forward_project(self.phantom, geom)
        self.mask = st.make_sparse_mask(VIEWS, STRIDE)
        self.measured = st.apply_mask(self.full, self.mask)
        self.grid = st.ImageGrid(NX, NX, 1.0, np.zeros((NX, NX)))


class ReconDesk:
    """One default ``stride_reconstruct``: analytic surrogate, 100 DDIM
    steps, 600 Langevin steps, haar bands."""

    quality_ops = 1  # every operation returns the same image

    def __init__(self, seed):
        self.scan = DeskScan()
        self.cfg = st.PipelineConfig(seed=seed, corrector=st.CorrectorConfig(seed=seed))
        self.first = None

    def prepare(self, k):
        return None

    def run(self, inp):
        s = self.scan
        return pipeline.stride_reconstruct(s.measured, s.mask, s.grid, self.cfg)

    def check(self, inp, res):
        s = self.scan
        active = s.mask.active
        image = res.image.values
        problems = []
        if not np.array_equal(res.sinogram.values[active], s.measured.values[active]):
            problems.append("observed rows differ from the measured rows")
        if not np.all(np.isfinite(image)):
            problems.append("image is not finite")
        if self.first is None:
            self.first = image.copy()
        elif not np.array_equal(image, self.first):
            problems.append("image differs from the first operation's")
        return problems

    def quality(self, inp, res):
        return psnr_db(self.scan.phantom.values, res.image.values)


class LambdaSweep:
    """One ``run_lambda_sweep`` with the corrector off: 11 fixed weights
    plus the temporal schedule, so 12 chains."""

    quality_ops = 1  # every operation returns the same table

    def __init__(self, seed):
        self.scan = DeskScan()
        self.cfg = st.PipelineConfig(
            seed=seed, corrector=st.CorrectorConfig(n_steps=0, seed=seed))
        self.first = None

    def prepare(self, k):
        return None

    def run(self, inp):
        s = self.scan
        return pipeline.run_lambda_sweep(s.measured, s.mask, s.grid, self.cfg,
                                         s.full, reference_image=s.phantom)

    def check(self, inp, rows):
        problems = []
        if tuple(r[0] for r in rows) != SWEEP_LABELS:
            problems.append(f"labels {[r[0] for r in rows]}")
        values = np.array([r[1:] for r in rows], dtype=np.float64)
        if values.shape != (len(SWEEP_LABELS), 3) or not np.all(np.isfinite(values)):
            return problems + ["rows are not 12 finite (mse, psnr, kl) triples"]
        if not np.all(values[:, 0] > 0):
            problems.append("a sinogram MSE is not positive")
        if not np.all(values[:, 2] >= 0):
            problems.append("a KL divergence is negative")
        if self.first is None:
            self.first = values
        elif not np.array_equal(values, self.first):
            problems.append("table differs from the first operation's")
        return problems

    def quality(self, inp, rows):
        return float(np.mean([r[2] for r in rows]))


class Project:
    """``forward_project`` of a new seeded random-ellipse phantom, then
    ``adjoint_project`` of the residual against the exact line integrals:
    one gradient step of least squares on a fixed geometry."""

    quality_ops = 12  # phantoms differ; averaging 12 steadies the figure

    def __init__(self, seed):
        self.seed = seed
        self.geom = st.desk_geometry(VIEWS, DETECTORS, NX)
        self.grid = st.ImageGrid(NX, NX, 1.0, np.zeros((NX, NX)))
        self.rays = fan_rays(self.geom)

    def prepare(self, k):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, k]))
        ellipses = random_ellipses(rng)
        image = self.grid.with_values(st.rasterize_ellipses(ellipses, NX, NX))
        exact = ellipse_line_integrals(world_ellipses(ellipses, NX), *self.rays)
        return image, exact

    def run(self, inp):
        image, exact = inp
        ax = projector.forward_project(image, self.geom).values
        residual = ax - exact
        grad = projector.adjoint_project(st.Sinogram(residual, self.geom),
                                         self.geom, self.grid).values
        return ax, residual, grad

    def check(self, inp, out):
        image, exact = inp
        ax, residual, grad = out
        problems = []
        err = rel_l2(ax, exact)
        if not err <= PROJECTION_TOL:
            problems.append(f"projection relative L2 error {err:.3g} > {PROJECTION_TOL}")
        lhs = float(np.sum(ax * residual))
        rhs = float(np.sum(image.values * grad))
        defect = abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(residual))
        if not defect <= ADJOINT_TOL:
            problems.append(f"adjoint defect {defect:.3g} > {ADJOINT_TOL}")
        return problems

    def quality(self, inp, out):
        return psnr_db(inp[1], out[0])


WORKLOADS = {"recon-desk": ReconDesk, "lambda-sweep": LambdaSweep, "project": Project}
