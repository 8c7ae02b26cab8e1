"""stridect benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload recon-desk --seed 1 --seconds 30 --trace 0

Set-up (import of the package plus the workload's inputs) is timed in this
process and in two fresh child processes, and ``setup_s`` is their median.
One untimed warm-up operation follows, then operations run back to back
until ``--seconds`` have passed, at least MIN_TIMED have been timed and
the workload's first ``quality_ops`` operations, whose mean quality is
``psnr_db``, have run.
Every operation's output is checked. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` calls into the package are wrapped from outside it and the
object holds the per-layer metrics instead. Each run also writes its
figures, and in a traced run its spans, under bench/results/.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is loaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
SETUP_CHILDREN = 2
MIN_TIMED = 3


def setup(workload, seed):
    """Import stridect from this checkout's sources and build the workload."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import stridect

    if os.path.dirname(os.path.abspath(stridect.__file__)) != os.path.join(SRC, "stridect"):
        raise ImportError(f"stridect imported from {stridect.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


def child_setup_s(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def run_ops(wl, seconds, tracer):
    """Warm-up operation 0, then timed operations; returns per-operation
    records (index, seconds, quality or None, problems, failed)."""
    records = []
    k = 0
    t_start = None
    while True:
        inp = wl.prepare(k)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
            failed = False
        except Exception:
            traceback.print_exc()
            failed = True
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        problems, quality = [], None
        if not failed:
            problems = wl.check(inp, out)
            quality = wl.quality(inp, out)
        records.append((k, dt, quality, problems, failed))
        if t_start is None:
            t_start = time.perf_counter()
        elif (time.perf_counter() - t_start >= seconds and len(records) > MIN_TIMED
              and len(records) >= wl.quality_ops):
            return records
        k += 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("recon-desk", "lambda-sweep", "project"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for child processes)")
    args = ap.parse_args(argv)

    wl, setup_main = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    setups = [setup_main] + [child_setup_s(args.workload, args.seed)
                             for _ in range(SETUP_CHILDREN)]

    # Imported only now: layers loads numpy, whose import belongs to set-up.
    import layers
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.install(tracer)
    try:
        records = run_ops(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    timed = records[1:]
    failed = sum(r[4] for r in records)
    problems = [f"op {r[0]}: {p}" for r in records for p in r[3]]
    for p in problems:
        print(p, file=sys.stderr)
    qualities = [r[2] for r in records[:wl.quality_ops] if not r[4]]
    op_s = statistics.median(r[1] for r in timed)
    end_to_end = {
        "op_s": {"value": op_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "psnr_db": {"value": statistics.fmean(qualities) if qualities else float("nan"),
                    "unit": "dB"},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_samples_s": setups, "op_samples_s": [r[1] for r in timed],
              "end_to_end": end_to_end, "problems": problems}
    metrics = end_to_end
    if tracer is not None:
        by_op = tracer.op_totals()
        per_op = [layers.op_metrics(by_op.get(r[0], {})) for r in timed]
        units = layers.units()
        metrics = {m: {"value": statistics.median(p[m] for p in per_op), "unit": u}
                   for m, u in units.items()}
        report["per_layer"] = metrics

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    if tracer is not None:
        with open(stem + ".spans.jsonl", "w") as f:
            for i, s in enumerate(tracer.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op, **s.counts}) + "\n")

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
