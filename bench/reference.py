"""Reference quality figures on the desk scan: the default chain against
sparse-view, view-interpolated and full-view FBP, as PSNR and SSIM against
the phantom.

    python3 bench/reference.py [--seed 0]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import stridect as st  # noqa: E402
from workloads import DeskScan  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    scan = DeskScan()
    active = scan.mask.active
    cfg = st.PipelineConfig(seed=args.seed, corrector=st.CorrectorConfig(seed=args.seed))
    interp = st.interpolate_views(scan.measured.values, active)
    images = {
        "default chain": st.stride_reconstruct(scan.measured, scan.mask, scan.grid, cfg).image,
        "sparse-view FBP": st.sparse_fbp_baseline(scan.measured, scan.mask, scan.grid),
        "view-interpolated FBP": st.fbp_reconstruct(
            scan.measured.with_values(interp), scan.grid),
        "full-view FBP": st.fbp_reconstruct(scan.full, scan.grid),
    }
    print("| method | PSNR (dB) | SSIM |")
    print("| --- | --- | --- |")
    for name, image in images.items():
        print(f"| {name} | {st.psnr(scan.phantom, image):.2f} | {st.ssim(scan.phantom, image):.4f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
