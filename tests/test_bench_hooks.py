"""The benchmark's traced run wraps stridect calls by attribute name, from
its own files under ``bench/``. A name it patches that the package no
longer has breaks every traced run, so the hooks are checked against the
real package here."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans
    return layers, spans


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_run_patches_existing_attributes_and_restores_them(bench_modules):
    layers, spans = bench_modules
    tracer = spans.Tracer()
    try:
        layers.install(tracer)  # a missing attribute raises here
        patched = list(tracer._undo)
        wrapped = [_current(owner, attr) for owner, attr, _ in patched]
    finally:
        tracer.restore()
    assert patched
    for (owner, attr, original), w in zip(patched, wrapped):
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert original.__module__.startswith("stridect."), where
        assert w.__wrapped__ is original, where
        assert _current(owner, attr) is original, where


@pytest.mark.parametrize("name", ["recon-desk", "lambda-sweep", "project"])
def test_each_workload_runs_and_passes_its_check(monkeypatch, name):
    # the benchmark's untraced calls into the package, with its own checks:
    # a signature they use that changes fails here, not only in a bench run
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    w = workloads.WORKLOADS[name](1)
    inp = w.prepare(0)
    assert w.check(inp, w.run(inp)) == []


def _traced_operation(monkeypatch, name):
    """The workload and the span names of one traced operation."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans
    import workloads
    w = workloads.WORKLOADS[name](1)
    inp = w.prepare(0)
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        tracer.op = 0
        w.run(inp)
    finally:
        tracer.restore()
    return w, [s.name for s in tracer.spans if s.op == 0]


def _tile_count(shape):
    """Row tiles of the surrogate's coarse DDIM over a (rows, detectors)
    block: it predicts once per step in each."""
    from stridect.pipeline import _row_tiles
    return len(_row_tiles(*shape))


def test_traced_recon_desk_records_one_prediction_per_ddim_step(monkeypatch):
    # a model method that reached another traced method would count twice
    w, names = _traced_operation(monkeypatch, "recon-desk")
    tiles = _tile_count(w.scan.measured.values.shape)
    assert names.count("denoiser.predict_eps") == w.cfg.ddim_steps * tiles


def test_traced_lambda_sweep_records_every_fbp_half_and_prediction(monkeypatch):
    # 12 chains: each FBP reaches its filter and backprojection through the
    # traced attributes; the first chain's DDIM predicts per step in each
    # tile of every row, the other 11 in each tile of the observed rows
    w, names = _traced_operation(monkeypatch, "lambda-sweep")
    for name in ("fbp.fbp", "fbp.filter", "fbp.backproject"):
        assert names.count(name) == 12, name
    views, detectors = w.scan.measured.values.shape
    tiles = (_tile_count((views, detectors))
             + 11 * _tile_count((w.scan.mask.n_active, detectors)))
    assert names.count("denoiser.predict_eps") == w.cfg.ddim_steps * tiles
