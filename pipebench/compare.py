"""Compare two result files written by run.py.

    python3 pipebench/compare.py BEFORE.json AFTER.json

Prints each end-to-end metric of both results and the relative change.
Given the untraced and the traced result of one workload, the change is
the tracing overhead.  Refuses (exit code 3) to compare results of
different workloads, or results whose ``USE_NUMBA`` stamps differ: the
numba and numpy builds run different kernels.
"""

import argparse
import json
import sys

LOWER_IS_BETTER = {"setup_s", "item_s_p50", "item_s_tail", "peak_rss_mb"}


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    a, b = load(args.before), load(args.after)

    if a["env"]["USE_NUMBA"] != b["env"]["USE_NUMBA"]:
        print("refusing to compare: USE_NUMBA is %s in %s and %s in %s"
              % (a["env"]["USE_NUMBA"], args.before,
                 b["env"]["USE_NUMBA"], args.after), file=sys.stderr)
        return 3
    if a["workload"] != b["workload"]:
        print("refusing to compare workloads %s and %s"
              % (a["workload"], b["workload"]), file=sys.stderr)
        return 3
    for key in sorted(set(a["env"]) | set(b["env"])):
        if a["env"].get(key) != b["env"].get(key):
            print("note: %s differs: %s vs %s"
                  % (key, a["env"].get(key), b["env"].get(key)))

    kind = "tracing overhead" if a["trace"] != b["trace"] else "change"
    print("%s, %s: trace %d -> trace %d"
          % (a["workload"], kind, a["trace"], b["trace"]))
    for name, va in a["end_to_end"].items():
        vb = b["end_to_end"][name]
        rel = (vb - va) / va if va else float("nan")
        worse = rel > 0 if name in LOWER_IS_BETTER else rel < 0
        print("  %-12s %12.6g -> %12.6g  %+7.2f%%%s"
              % (name, va, vb, 100.0 * rel, "  (worse)" if worse else ""))
    print("  %-12s %12d -> %12d" % ("failed", a["failed"], b["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
