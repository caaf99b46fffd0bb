"""Cost per point of the imaginary-axis kernels at small and large array calls.

    python3 perfbench/kernel_headroom.py

Run from the root of a source checkout.  The adaptive engine calls the
kernels with about 25 points at a time; this measures what a point costs
there and at 4096 points per call, which bounds what batching could gain
in the kernel layer.  A reference figure for the README, not a gated metric.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

from casimir import kernels  # noqa: E402

SIZES = (25, 4096)
TARGET_POINTS = 4_000_000
REPEATS = 7


def per_point_ns(fn, make_args, n):
    args = make_args(n)
    calls = max(TARGET_POINTS // n, 1)
    fn(*args)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best / (calls * n) * 1e9


def main():
    rng = np.random.default_rng(1234)
    cases = {
        "force_integrand_iw": (kernels.force_integrand_iw,
                               lambda n: (1.3, rng.uniform(0.01, 10.0, n),
                                          rng.uniform(0.0, 0.99, n),
                                          rng.uniform(0.0, 0.99, n))),
        "fresnel_rs_rp_iw": (kernels.fresnel_rs_rp_iw,
                             lambda n: (4.2, 1e6, rng.uniform(1e4, 1e8, n))),
    }
    print(f"{'kernel':<20}" + "".join(f"{f'{n} pts/call':>16}" for n in SIZES) + f"{'ratio':>8}")
    for name, (fn, make_args) in cases.items():
        costs = [per_point_ns(fn, make_args, n) for n in SIZES]
        print(f"{name:<20}" + "".join(f"{c:>13.1f} ns" for c in costs)
              + f"{costs[0] / costs[-1]:>7.1f}x")


if __name__ == "__main__":
    main()
