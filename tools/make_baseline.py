#!/usr/bin/env python3
"""Merge bench_kernels --json runs into a conservative baseline.

Microbenchmark timings on shared/virtualized runners are bimodal: the
host migrates the guest between cores or frequency states, and vector
kernels in particular swing ~1.5x between windows with no code change.
A baseline captured in a fast window then flags every slow-window run
as a regression.

This tool merges several runs of the *same* configuration into one
baseline JSON by taking, per benchmark, the MAX of each run's
min-over-repetitions. That keeps the baseline honest about the slowest
steady state the runner exhibits, so check_perf.py only fires on real
regressions (a kernel getting slower than the machine has ever been),
not on host-state roulette.

Usage:
    tools/make_baseline.py run1.json run2.json ... -o baseline.json

All inputs must record the same context.tbstc_isa. The output keeps
the first run's context and one entry per benchmark name.

Exit codes: 0 ok, 2 bad input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"make_baseline: cannot read '{path}': {e}", file=sys.stderr)
        sys.exit(2)


def min_over_reps(doc, path):
    """name -> benchmark entry with cpu_time = min over repetitions."""
    best = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if name not in best or \
                float(b["cpu_time"]) < float(best[name]["cpu_time"]):
            best[name] = b
    if not best:
        print(f"make_baseline: no benchmarks in '{path}'", file=sys.stderr)
        sys.exit(2)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("runs", nargs="+",
                    help="bench_kernels JSON runs of the same config")
    ap.add_argument("-o", "--output", required=True,
                    help="baseline JSON to write")
    args = ap.parse_args()

    docs = [load(p) for p in args.runs]
    isas = {d.get("context", {}).get("tbstc_isa") for d in docs}
    if len(isas) > 1:
        print(f"make_baseline: runs mix ISAs {sorted(map(str, isas))}; "
              f"merge only runs of one ISA", file=sys.stderr)
        return 2

    merged = {}
    for doc, path in zip(docs, args.runs):
        for name, entry in min_over_reps(doc, path).items():
            if name not in merged or \
                    float(entry["cpu_time"]) > \
                    float(merged[name]["cpu_time"]):
                merged[name] = entry

    out = dict(docs[0])
    out["benchmarks"] = [merged[n] for n in sorted(merged)]
    with open(args.output, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"make_baseline: wrote {args.output} "
          f"({len(merged)} benchmarks from {len(args.runs)} run(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
