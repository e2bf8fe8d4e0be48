"""Timing comparison for the hot kernels: jitted build versus numpy fallback.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

The script times the four kernels in the current process (jitted when
numba is importable), then re-runs itself in a subprocess with
RSMIRNOV_NO_NUMBA=1 to time the pure-numpy path, and prints the two
columns side by side.  horner_many and classify_grid have a single numpy
implementation, so both columns time the same code and no speedup is
shown for them.  Compilation happens during warmup, so the numbers are
steady-state.  Workload sizes match what one disk extraction at
resolution 512 actually pushes through the kernels; classify_grid is also
timed at 1024, with the peak of its temporary allocations (tracemalloc).
"""

import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from rsmirnov import _kernels
from rsmirnov.fixtures import double_slit, fourth_power_map

# kernels with one implementation, the same on both builds
SINGLE_SOURCE = ("horner_many", "classify_grid")


def _time(fn, repeats=5):
    fn()  # warmup; compiles on the jitted path
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_alloc(fn):
    """Peak bytes allocated while fn runs, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_benchmarks():
    """(seconds by kernel, peak temporary bytes by kernel)."""
    f4 = fourth_power_map()
    ds = double_slit()
    res = 512

    grid = np.linspace(-0.95, 0.95, res)
    pts = (grid[None, :] + 1j * grid[:, None]).ravel()

    rng = np.random.default_rng(0)
    poly8 = rng.normal(size=9) + 1j * rng.normal(size=9)
    guesses = 0.7 * np.exp(2j * np.pi * (np.arange(8) + 0.25) / 8)

    f4_args = (f4.num.coeffs, f4.den.coeffs, f4.w_poly().coeffs)
    ds_args = (ds.num.coeffs, ds.den.coeffs, ds.w_poly().coeffs)

    def bench_horner():
        _kernels.horner_many(f4.num.coeffs, pts)

    def bench_aberth():
        for _ in range(512):
            _kernels.aberth_iterate(poly8, guesses)

    def bench_classify(r):
        # the margin and band partition() uses at resolution r
        return lambda: _kernels.classify_grid(*f4_args, r, 1.0 / r, 2.5 / r)

    def bench_trace():
        for _ in range(30):
            _kernels.trace_arc(*ds_args, 0.05 + 0.0j, 1.0)
            _kernels.trace_arc(*ds_args, 0.05 + 0.0j, -1.0)

    timings = {
        "horner_many (262k pts, deg 4)": _time(bench_horner),
        "aberth_iterate (512 solves, deg 8)": _time(bench_aberth),
        "classify_grid (res 512)": _time(bench_classify(512)),
        "classify_grid (res 1024)": _time(bench_classify(1024)),
        "trace_arc (60 arcs)": _time(bench_trace),
    }
    peaks = {
        "classify_grid (res 512)": _peak_alloc(bench_classify(512)),
        "classify_grid (res 1024)": _peak_alloc(bench_classify(1024)),
    }
    return timings, peaks


def _peak_column(peaks, name):
    if name not in peaks:
        return ""
    return "%8.1f MB" % (peaks[name] / 2**20)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", action="store_true",
        help="print raw timings as JSON (used by the subprocess re-run)",
    )
    args = parser.parse_args(argv)

    timings, peaks = run_benchmarks()
    if args.json:
        json.dump(timings, sys.stdout)
        return 0

    if not _kernels.USE_NUMBA:
        print("numba not active in this process; single column:")
        print("  %-36s %11s %11s" % ("kernel", "numpy", "peak alloc"))
        for name, t in timings.items():
            print(("  %-36s %8.1f ms %s"
                   % (name, 1e3 * t, _peak_column(peaks, name))).rstrip())
        return 0

    env = dict(os.environ, RSMIRNOV_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--json"],
        env=env, capture_output=True, text=True, check=True,
    )
    fallback = json.loads(out.stdout)

    print("%-36s %10s %10s %13s %11s"
          % ("kernel", "numba", "numpy", "speedup", "peak alloc"))
    for name, t in timings.items():
        tf = fallback[name]
        if name.split()[0] in SINGLE_SOURCE:
            ratio = "single source"
        else:
            ratio = "%12.1fx" % (tf / t)
        print(("%-36s %8.1f ms %8.1f ms %13s %s"
               % (name, 1e3 * t, 1e3 * tf, ratio,
                  _peak_column(peaks, name))).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
