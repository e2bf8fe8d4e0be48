"""Pipeline benchmark for rsmirnov: end-to-end metrics, or per-layer traces.

Run from the root of a checkout:

    python3 pipebench/run.py --workload analyze_fixtures --seed 1 \\
        --seconds 50 --trace 0

Workloads: analyze_fixtures, synthesis_budget, helson_census and
synthesis_search (see pipebench/README.md for why each exists and what it
should move).

One process, one thread.  The BLAS/OpenMP pools are pinned to one thread
before numpy is imported.  The package is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.

With ``--trace 0`` the benchmark times a fixed number of whole passes of
the workload, as many as fit in ``--seconds`` at its nominal pass time, checks
every item's output outside the timed region, and reports the end-to-end
metrics.  With ``--trace 1`` it wraps each module's entry points (see
tracer.py) and reports per-layer metrics instead.  The last line of stdout is one JSON
object; the full result, with the environment stamp, every item and every
failed extraction attempt, goes to ``.pipebench/results/``.
"""

import os
import sys
import time

T_START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".pipebench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# no pass starts once this many times --seconds of item time are spent
CAP_FACTOR = 2


def _declared_metrics():
    """Metric name -> unit, for the end-to-end and the per-layer metrics.

    BENCHMARK.json at the checkout's root declares which metrics the result
    line carries, and their units; the result file holds every metric.
    """
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _import_package():
    """Import rsmirnov from this checkout's src/, or return None."""
    if not (SRC / "rsmirnov" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rsmirnov
    if Path(rsmirnov.__file__).resolve().parent != SRC / "rsmirnov":
        return None
    return rsmirnov


def environment():
    """The stamp every result carries; results with different USE_NUMBA
    are never compared (see compare.py)."""
    import scipy
    from rsmirnov import _kernels
    return {
        "USE_NUMBA": bool(_kernels.USE_NUMBA),
        "RSMIRNOV_NO_NUMBA": os.environ.get("RSMIRNOV_NO_NUMBA"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    With too few samples for any such percentile, the maximum is reported
    as percentile 100 with no samples beyond.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100, 0
    pct = math.floor(100.0 * (1.0 - TAIL_BEYOND / n))
    value = float(np.percentile(times, pct))
    return value, pct, sum(1 for t in times if t > value)


def _run_item(item):
    """Time item.run(); return (wall s, cpu s, outcome, error text or None)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        outcome = item.run()
        error = None
    except Exception as exc:  # a failing item is data, not a crash
        outcome = None
        first = str(exc).splitlines()
        error = "%s: %s" % (type(exc).__name__, first[0] if first else "")
    return (time.perf_counter() - t0, time.process_time() - c0, outcome,
            error)


def _check_item(item, outcome, error):
    """The ways a returned output is wrong; nothing to check after an error."""
    if error is not None:
        return []
    try:
        return list(item.check(outcome))
    except Exception as exc:  # a broken output can break its oracle
        return ["oracle raised %s: %s" % (type(exc).__name__, exc)]


def set_up(make, seed, work):
    """Set the workload up once, with its warm-up item.

    Returns the workload object, the set-up time and the warm-up item's
    problems.  Set-up does not depend on the seed: inputs that cost a
    seed-dependent time to draw are drawn with their pass.
    """
    gc.collect()  # garbage the timed passes left is not set-up's cost
    t0 = time.perf_counter()
    wl = make(seed, work)
    wl.setup()
    warm = wl.warmup()
    _, _, outcome, error = _run_item(warm)
    elapsed = time.perf_counter() - t0
    problems = ([error] if error else []) + _check_item(warm, outcome, error)
    return wl, elapsed, problems


def planned_passes(wl, seconds):
    """Whole passes in a run: fixed by ``seconds``, not by the host's speed.

    As many passes as fit in ``seconds`` at the nominal pass time, and at
    least one.
    """
    return max(1, math.floor(seconds / wl.pass_seconds))


def measure(wl, seconds, tracer):
    """Closed loop over ``planned_passes`` whole passes.

    A pass starts only while less than CAP_FACTOR x ``seconds`` of item
    time has been spent, so a much slower program still ends in time.
    Returns one record per item and the total timed seconds.
    """
    records = []
    busy = 0.0
    passes = 0
    while passes < planned_passes(wl, seconds) and busy < CAP_FACTOR * seconds:
        for item in wl.pass_items(passes):
            idx = len(records)
            gc.collect()  # the previous item's garbage is not this item's cost
            with (tracer.recording(idx, computed=passes == 0) if tracer
                  else contextlib.nullcontext()):
                dt, cpu, outcome, error = _run_item(item)
            busy += dt
            records.append({"item": idx, "pass": passes, "label": item.label,
                            "seconds": dt, "cpu_s": cpu, "error": error,
                            "wrong": _check_item(item, outcome, error),
                            **item.info})
        passes += 1
    return records, busy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_package() is None:
        print("pipebench: no rsmirnov package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracer as tracer_mod
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("pipebench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    e2e_units, layer_units = _declared_metrics()

    work = OUT / "work" / ("%s-%d" % (args.workload, args.seed))
    results = OUT / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    make, seed = WORKLOADS[args.workload], args.seed % (1 << 64)
    wl, first_setup, warmup_problems = set_up(make, seed, work)
    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer(args.workload)
        tracer.install()
    try:
        records, busy = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            bindings = tracer.bindings()
            tracer.uninstall()
    # the other set-ups run after the timed passes, so that the median
    # samples the host's speed at both ends of the run, not one moment
    setups = [first_setup] + [set_up(make, seed, work)[1]
                              for _ in range(SETUP_REPEATS - 1)]

    times = [r["seconds"] for r in records]
    passes = records[-1]["pass"] + 1
    failed = [r for r in records if r["error"] or r["wrong"]]
    attempted = len(records)
    tail_s, tail_pct, tail_beyond = tail(times)
    e2e = {
        "setup_s": import_s + statistics.median(setups),
        "items_per_s": (attempted - len(failed)) / busy,
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    fail_ratio = len(failed) / attempted
    env = environment()

    print("pipebench %s seed %d: %d passes of %d planned, %d items, "
          "%.3f s timed" % (args.workload, args.seed, passes,
                            planned_passes(wl, args.seconds), attempted,
                            busy))
    print("env: %s" % json.dumps(env, sort_keys=True))
    for name, value in e2e.items():
        print("  %-14s %12.6g %s" % (name, value, e2e_units[name]))
    print("  %-14s %12.6g %s  (%d failed of %d attempted)"
          % ("fail_ratio", fail_ratio, "ratio", len(failed), attempted))
    print("  item_s_tail is p%d of %d samples, %d beyond it"
          % (tail_pct, attempted, tail_beyond))
    for r in failed:
        why = [r["error"]] if r["error"] else []
        why += ["wrong output: " + w for w in r["wrong"]]
        print("  FAILED item %d %s: %s" % (r["item"], r["label"],
                                          "; ".join(why)))
    for p in warmup_problems:
        print("  FAILED warm-up item: %s" % p)

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "timed_s": busy, "passes": passes,
        "attempted": attempted, "failed": len(failed),
        "fail_ratio": fail_ratio, "import_s": import_s,
        "setup_runs_s": setups, "warmup_problems": warmup_problems,
        "tail": {"percentile": tail_pct, "samples": attempted,
                 "beyond": tail_beyond},
        "end_to_end": e2e, "items": records,
        "census": dict(sorted(getattr(wl, "census", {}).items())),
    }
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()}
    else:
        layers = tracer.layer_metrics()
        layers["trace.items_per_s"] = e2e["items_per_s"]
        layers["trace.item_s_p50"] = e2e["item_s_p50"]
        full.update(layers=layers, failed_attempts=tracer.failed_attempts,
                    bindings=bindings)
        tracer.write_spans(results / (stem + ".spans.jsonl"))
        for fa in tracer.failed_attempts:
            print("  failed attempt: item %(item)d at %(resolution)d: "
                  "%(exception)s: %(message)s" % fa)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
    (results / (stem + ".json")).write_text(
        json.dumps(full, indent=1) + "\n", encoding="utf-8")

    # correct: no returned output failed its oracle, and, where every item
    # is expected to succeed, no item raised
    correct = not warmup_problems and not any(
        r["wrong"] or (r["error"] and wl.errors_are_wrong) for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
