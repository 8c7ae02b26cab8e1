"""Sparse-view fan-beam CT reconstruction with diffusion priors.

The package covers the whole desk-scanner workflow: phantom generation,
fan-beam projection and filtered backprojection, mask-conditioned sinogram
generation with sparse guidance, linear distribution alignment, dual-band
Langevin refinement in the stationary wavelet domain, and evaluation
metrics, plus a small hand-rolled network with training code and a CLI.
"""

from .corrector import (AlignmentParams, CorrectorConfig, apply_linear_alignment,
                        data_consistency, eps_schedule, fit_linear_alignment,
                        langevin_step, refine_bands)
from .denoiser import (AnalyticGaussianDenoiser, AnalyticGaussianScore,
                       CoupledGaussianDenoiser, ExactNoiseDenoiser,
                       TinyEpsNet, TinyNetParams, TinyScoreNet, forward_tiny,
                       grad_check, init_tiny_net, load_params, save_params,
                       train_epsilon, train_score)
from .diffusion import (GuidanceConfig, LambdaInputs, NoiseSchedule,
                        apply_sparse_guidance, cfg_combine, ddim_step,
                        forward_noising, guidance_weight, lambda_worst_case_bound,
                        linear_schedule, optimal_lambda, optimal_lambda_oracle,
                        predict_x0)
from .errors import (GuidanceClampWarning, InvalidArgumentError,
                     NumericalAbortError, ShapeMismatchError)
from .evalkit import (SHEPP_LOGAN_ELLIPSES, Ellipse, kl_divergence, mse, psnr,
                      rasterize_ellipses, shepp_logan, ssim)
from .fbp import (FilterSpec, extract_active_views, fan_backproject,
                  fan_pre_weight, fbp_reconstruct, filter_projections,
                  ramp_kernel)
from .fileio import (read_image, read_sinogram, write_image, write_pgm,
                     write_sinogram)
from .geometry import (FanBeamGeometry, ImageGrid, SparseMask, Sinogram,
                       apply_mask, desk_geometry, make_sparse_mask, mask_rows)
from .pipeline import (PipelineConfig, ReconstructionResult, StageMetrics,
                       ablation_to_csv, coarse_generate, ddim_times,
                       interpolate_views, lambda_sweep_to_csv, report_to_csv,
                       run_component_ablation, run_lambda_sweep,
                       sparse_fbp_baseline, stride_reconstruct)
from .projector import (NoiseSpec, adjoint_project, forward_project,
                        simulate_measurement)
from .wavelet import WaveletBands, filter_pair, iswt_reconstruct, swt_decompose

__version__ = "0.1.0"
