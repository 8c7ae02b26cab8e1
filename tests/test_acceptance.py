"""End-to-end acceptance checks, one numbered criterion per test.

Each test exercises its property at the stated tolerance, then prints and
logs a single PASS/FAIL line through the shared acceptance_log fixture;
the conftest summary hook echoes the collected lines after the run.
"""

import time

import numpy as np
import pytest

import stridect as st


def _check(log, num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}{tail}"
    log.append(line)
    print(line)
    assert ok, line


def test_01_projector_adjoint_identity(acceptance_log):
    g = st.desk_geometry(90, 64, 64)
    grid = st.ImageGrid(64, 64, 1.0, np.zeros((64, 64)))
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=(64, 64))
        s = rng.normal(size=(90, 64))
        ax = st.forward_project(st.ImageGrid(64, 64, 1.0, x), g).values
        aty = st.adjoint_project(st.Sinogram(s, g), g, grid).values
        defect = abs(np.sum(ax * s) - np.sum(x * aty))
        defect /= np.linalg.norm(ax) * np.linalg.norm(s)
        worst = max(worst, defect)
    dt = time.perf_counter() - t0
    _check(acceptance_log, 1, "projector adjoint defect <= 1e-4, 20 pairs under 10 s",
           worst <= 1e-4 and dt < 10.0, f"worst {worst:.2e}, {dt:.1f}s")


def test_02_wavelet_round_trip(acceptance_log):
    rng = np.random.default_rng(12)
    worst = 0.0
    for wavelet in ("haar", "db2"):
        for _ in range(100):
            x = rng.normal(size=(128, 128))
            back = st.iswt_reconstruct(st.swt_decompose(x, wavelet))
            worst = max(worst, float(np.max(np.abs(back - x))))
    _check(acceptance_log, 2, "stationary wavelet round trip <= 1e-8 on 100 arrays",
           worst <= 1e-8, f"worst {worst:.2e}")


def test_03_guidance_weight_formulas(acceptance_log):
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(1000):
        zeta = rng.normal(size=24)
        if k % 10 == 0:
            kappa = rng.uniform(1.5, 4.0) if k % 20 == 0 else rng.uniform(0.1, 0.9)
            xi = kappa * zeta
        else:
            xi = rng.normal(size=24)
        li = st.LambdaInputs.from_vectors(zeta, xi)
        diff = abs(st.optimal_lambda(li) - st.optimal_lambda_oracle(li))
        worst = max(worst, diff)
    ok_closed = worst <= 1e-4 + 1e-12

    lams = np.linspace(0.0, 1.0, 100001)
    worst_bound = 0.0
    for k in range(100):
        a, b = rng.uniform(0.0, 3.0, size=2)
        if k % 10 == 0:
            b = a
        scan = float(lams[np.argmin((a + lams * (b - a)) ** 2)])
        worst_bound = max(worst_bound, abs(st.lambda_worst_case_bound(a, b) - scan))
    _check(acceptance_log, 3, "closed-form guidance weights match grid oracles",
           ok_closed and worst_bound <= 1e-4,
           f"closed {worst:.2e}, bound {worst_bound:.2e}")


def test_04_guidance_weight_monotone_decay(acceptance_log):
    rng = np.random.default_rng(20)
    violations = 0
    for _ in range(100):
        b = rng.uniform(0.5, 2.0)
        a0 = rng.uniform(0.1, 3.0)
        c0 = rng.uniform(0.0, min(0.9 * b * b, 0.99 * a0 * b))
        rho = rng.uniform(0.05, 0.95)
        prev = None
        for t in range(20):
            li = st.LambdaInputs(a=(rho ** t) * a0, b=b, c=(rho ** t) * c0)
            lam = st.optimal_lambda(li)
            if prev is not None and lam > prev + 1e-12:
                violations += 1
            prev = lam
    _check(acceptance_log, 4, "optimal weight non-increasing on contracting errors",
           violations == 0, f"{violations} violations over 100 sequences")


def test_05_guidance_limit_cases(acceptance_log, phantom64):
    img = st.shepp_logan(16, 16)
    g = st.desk_geometry(12, 16, 16)
    ys_full = st.forward_project(img, g)
    mask = st.make_sparse_mask(12, 3)
    ys = st.apply_mask(ys_full, mask)
    grid = st.ImageGrid(16, 16, 1.0, np.zeros((16, 16)))
    sched = st.linear_schedule()

    pinned = st.stride_reconstruct(
        ys, mask, grid,
        st.PipelineConfig(ddim_steps=20,
                          guidance=st.GuidanceConfig(mode="fixed", fixed_lambda=1.0),
                          corrector=st.CorrectorConfig(n_steps=5, eps_start=1e-4,
                                                       eps_end=1e-6),
                          final_dc="active"),
        sched=sched)
    rows_exact = np.array_equal(pinned.sinogram.values[mask.active],
                                ys.values[mask.active])

    cfg0 = st.PipelineConfig(ddim_steps=20,
                             guidance=st.GuidanceConfig(mode="fixed", fixed_lambda=0.0),
                             corrector=st.CorrectorConfig(n_steps=0),
                             alignment=False, final_dc="off")
    guided0 = st.stride_reconstruct(ys, mask, grid, cfg0, sched=sched)

    raw = np.asarray(ys.values, dtype=np.float64)
    scale = float(np.max(np.abs(raw[mask.active])))
    ys_n = raw / scale
    interp = st.interpolate_views(ys_n, mask.active)
    model = st.AnalyticGaussianDenoiser(interp, 0.05, sched)
    rng = np.random.default_rng(np.random.SeedSequence([cfg0.seed, 0]))
    ts = st.ddim_times(sched.T, cfg0.ddim_steps)
    y = rng.standard_normal(ys_n.shape)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        eps_hat = model.predict_eps(y, int(t), None)
        y0_hat = st.predict_x0(y, eps_hat, int(t), sched)
        y = st.ddim_step(y, y0_hat, eps_hat, int(t), int(t_prev), sched)
    unconditional_match = np.array_equal(guided0.sinogram.values, y * scale)

    _check(acceptance_log, 5, "full-weight rows pinned exactly; zero weight is unconditional",
           rows_exact and unconditional_match,
           f"rows exact {rows_exact}, bitwise match {unconditional_match}")


def test_06_exact_denoiser_trajectory(acceptance_log):
    sched = st.linear_schedule()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        y0 = rng.normal(size=(6, 8))
        model = st.ExactNoiseDenoiser(y0, sched)
        y = st.forward_noising(y0, sched.T, sched, rng)
        ts = st.ddim_times(sched.T, 100)
        for t, t_prev in zip(ts[:-1], ts[1:]):
            eps_hat = model.predict_eps(y, int(t))
            y0_hat = st.predict_x0(y, eps_hat, int(t), sched)
            y = st.ddim_step(y, y0_hat, eps_hat, int(t), int(t_prev), sched)
        worst = max(worst, float(np.max(np.abs(y - y0))))
    _check(acceptance_log, 6, "exact-residual sampler recovers the target <= 1e-4",
           worst <= 1e-4, f"worst {worst:.2e}")


def test_07_alignment_recovery(acceptance_log):
    rng = np.random.default_rng(7)
    gen = rng.normal(size=(9, 11))
    active = (np.arange(9) % 3) == 0
    fit = st.fit_linear_alignment(gen, 2.0 * gen + 3.0, active)
    planted = abs(fit.a - 2.0) <= 1e-9 and abs(fit.b - 3.0) <= 1e-9

    flat = st.fit_linear_alignment(np.full((9, 11), 2.5), 2.0 * gen + 3.0, active)
    fallback = flat.degenerate and flat.a == 1.0
    _check(acceptance_log, 7, "affine alignment recovers (2, 3); constant input falls back",
           planted and fallback,
           f"a err {abs(fit.a - 2.0):.1e}, b err {abs(fit.b - 3.0):.1e}")


def test_08_gradient_check(acceptance_log):
    rng = np.random.default_rng(8)
    p = st.init_tiny_net(2, 1, hidden=6, seed=1)
    x = rng.normal(size=(2, 2, 6, 7))
    s = rng.uniform(0.1, 1.0, size=2)
    target = rng.normal(size=(2, 1, 6, 7))
    err = st.grad_check(p, x, s, target)
    _check(acceptance_log, 8, "analytic gradients match finite differences <= 1e-3",
           err <= 1e-3, f"max rel err {err:.2e}")


def test_09_training_descent(acceptance_log):
    img = st.shepp_logan(32, 32)
    g = st.desk_geometry(24, 32, 32)
    s = st.forward_project(img, g).values
    peak = np.max(np.abs(s))
    data = [a * s / peak for a in (1.0, 0.9, 0.8, 0.7)]
    sched = st.linear_schedule()
    _, trace = st.train_epsilon(data, sched, epochs=50, steps_per_epoch=10,
                                lr=1e-4, p_cond=0.2, seed=0)
    _, trace2 = st.train_epsilon(data, sched, epochs=50, steps_per_epoch=10,
                                 lr=1e-4, p_cond=0.2, seed=0)
    halved = trace[-1] < 0.5 * trace[0]
    reproducible = np.array_equal(trace, trace2)
    _check(acceptance_log, 9, "500-step noise-prediction loss under half of initial",
           halved and reproducible,
           f"{trace[0]:.3f} -> {trace[-1]:.3f}, reproducible {reproducible}")


def test_10_end_to_end_ordering(acceptance_log, phantom64, sino180, grid64):
    t0 = time.perf_counter()
    mask = st.make_sparse_mask(180, 3)
    ys = st.apply_mask(sino180, mask)

    raw = np.asarray(ys.values, dtype=np.float64)
    scale = float(np.max(np.abs(raw[mask.active])))
    ref_n = np.asarray(sino180.values, dtype=np.float64) / scale
    interp = st.interpolate_views(raw / scale, mask.active)
    sched = st.linear_schedule()
    model = st.CoupledGaussianDenoiser(1.15 * interp + 0.08, 0.01, sched, mix=0.5)
    score_low = st.AnalyticGaussianScore(st.swt_decompose(ref_n).low, 2e-5)
    score_high = st.AnalyticGaussianScore(st.swt_decompose(ref_n).high, 2e-5)
    cfg = st.PipelineConfig(corrector=st.CorrectorConfig(n_steps=600, eps_start=2e-5,
                                                         eps_end=2e-7, seed=0))

    rows = st.run_component_ablation(ys, mask, grid64, cfg, sino180,
                                     reference_image=phantom64, model=model,
                                     sched=sched, score_low=score_low,
                                     score_high=score_high)
    full_mse = rows[0][1]
    ordered = all(full_mse <= err + 1e-15 for _, err, _ in rows)

    stride_psnr = st.psnr(phantom64.values, rows[0][2].image.values)
    base = st.sparse_fbp_baseline(ys, mask, grid64)
    base_psnr = st.psnr(phantom64.values, base.values)
    margin = stride_psnr - base_psnr
    dt = time.perf_counter() - t0
    _check(acceptance_log, 10,
           "guided chain beats sparse FBP by 2 dB and every ablation by MSE",
           margin >= 2.0 and ordered and dt < 300.0,
           f"margin {margin:.2f} dB, full MSE {full_mse:.3e}, {dt:.0f}s")


def test_11_guidance_schedule_sweep(acceptance_log, phantom64, geom180, sino180, grid64):
    mask = st.make_sparse_mask(180, 3)
    ys = st.simulate_measurement(phantom64, geom180, mask,
                                 noise=st.NoiseSpec(sigma=0.8, seed=7))

    raw = np.asarray(ys.values, dtype=np.float64)
    scale = float(np.max(np.abs(raw[mask.active])))
    interp = st.interpolate_views(raw / scale, mask.active)
    sched = st.linear_schedule()
    model = st.CoupledGaussianDenoiser(1.03 * interp + 0.01, 1e-3, sched, mix=0.5)
    cfg = st.PipelineConfig(corrector=st.CorrectorConfig(n_steps=0), final_dc="off")

    rows = st.run_lambda_sweep(ys, mask, grid64, cfg, sino180,
                               reference_image=phantom64, model=model, sched=sched)
    fixed = rows[:11]
    best_fixed = max(r[2] for r in fixed)
    median_kl = float(np.median([r[3] for r in fixed]))
    temporal = rows[-1]
    diff = best_fixed - temporal[2]
    _check(acceptance_log, 11,
           "temporal weights within 0.5 dB of best fixed, KL at or below median",
           diff <= 0.5 and temporal[3] <= median_kl,
           f"diff {diff:.3f} dB, KL {temporal[3]:.4f} vs median {median_kl:.4f}")


def test_12_view_count_monotonicity(acceptance_log, phantom64, sino360, grid64):
    sched = st.linear_schedule()
    stride_psnrs, fbp_psnrs, kept = [], [], []
    for r in (6, 5, 4):
        mask = st.make_sparse_mask(360, r)
        ys = st.apply_mask(sino360, mask)
        raw = np.asarray(ys.values, dtype=np.float64)
        scale = float(np.max(np.abs(raw[mask.active])))
        interp = st.interpolate_views(raw / scale, mask.active)
        model = st.CoupledGaussianDenoiser(1.03 * interp + 0.01, 1e-3, sched, mix=0.5)
        cfg = st.PipelineConfig(corrector=st.CorrectorConfig(n_steps=0))
        res = st.stride_reconstruct(ys, mask, grid64, cfg, model=model, sched=sched)
        base = st.sparse_fbp_baseline(ys, mask, grid64)
        stride_psnrs.append(st.psnr(phantom64.values, res.image.values))
        fbp_psnrs.append(st.psnr(phantom64.values, base.values))
        kept.append(mask.n_active)
    mono = all(np.diff(stride_psnrs) >= -1e-9) and all(np.diff(fbp_psnrs) >= -1e-9)
    _check(acceptance_log, 12,
           "both reconstructions improve with view count 60 -> 72 -> 90",
           mono,
           "guided " + "/".join(f"{p:.2f}" for p in stride_psnrs)
           + " dB, plain " + "/".join(f"{p:.2f}" for p in fbp_psnrs) + " dB")
