"""Run one workload on several seeds and print each metric's median and
run-to-run spread (distance between first and third quartile over the
median), as used to set the bounds in BENCHMARK.json.

    python3 bench/spread.py --workload project --seeds 1-10 --seconds 30
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        out = subprocess.run([sys.executable, RUN, "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", args.trace],
                             capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(seed, out.returncode, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
    print("failed/attempted:", [f"{r['failed']}/{r['attempted']}" for r in runs])
    for name in runs[0]["metrics"]:
        med, rel = spread([r["metrics"][name]["value"] for r in runs])
        print(f"{name:40s} median {med:12.6g}  IQR/median {rel:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
