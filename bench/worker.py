"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  setup    build the inputs, note the time, exit (a set-up sample)
  measure  build the inputs, then repeat untraced passes for --seconds
           (MIN_PASSES at the least)
  trace    hooks on during set-up and on alternate passes, off otherwise

The result goes to --out as JSON; per-solve lines go to stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _summary(records):
    return {
        "times": [r["seconds"] for r in records],
        "solve_s": sum(r["seconds"] for r in records),
        "iters": sum(r["iters"] for r in records),
        "failed": sum(not r["ok"] for r in records),
        "solves": len(records),
    }


def best_solve_s(passes):
    """Sum over a pass's solver calls of each call's fastest time in ``passes``.

    On a shared host other tenants slow stretches of a run, seconds to
    minutes long, by up to 2x. A median moves with them; the fastest repeat
    of a call is its cost with the least interference the run saw.
    """
    return sum(min(times) for times in zip(*(p["times"] for p in passes)))


def _print_records(tag, records):
    for r in records:
        print(f"  {tag} {r['solver']:<13} inst {r['instance']}  {r['status']:<9} "
              f"iters {r['iters']:>6}  err {r['err']:.3e}  {r['seconds']:.3f} s  "
              f"{'ok' if r['ok'] else 'FAIL ' + r['note']}", flush=True)


# Measured passes per run at the least, so that every solver call has a
# fastest repeat to report even where one pass takes most of --seconds.
MIN_PASSES = 3


def _passes(run_one, seconds, start, least=1):
    """Call run_one at least ``least`` times, and on until another pass
    would end after ``seconds``."""
    times = []
    while True:
        times.append(run_one(len(times)))
        if len(times) >= least and time.monotonic() - start + statistics.median(times) > seconds:
            return


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ratings-file")
    ap.add_argument("--ratings-lines", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    cfg = workloads.SIZES[args.size][args.workload]
    inputs = workloads.setup(args.workload, cfg, args.seed, args.ratings_file)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    passes, first = [], []

    def one_pass(i, traced=False):
        if traced:
            tracer.install()
        try:
            records = workloads.run_pass(args.workload, cfg, inputs)
        finally:
            if traced:
                tracer.uninstall()
        s = _summary(records)
        passes.append(dict(s, traced=traced))
        if first:  # later passes repeat the first; print only their failures
            _print_records("solve", [r for r in records if not r["ok"]])
        else:
            first.extend(records)
            _print_records("solve", records)
        print(f"{'traced pass' if traced else 'pass'} {i}: solve_s {s['solve_s']:.4f} "
              f"iters {s['iters']} failed {s['failed']}", flush=True)
        return s["solve_s"]

    if args.mode == "measure":
        _passes(one_pass, args.seconds, ready, MIN_PASSES)
    else:
        tracer.uninstall()
        traced_from = len(tracer.spans)
        _passes(lambda i: one_pass(i) + one_pass(i, traced=True), args.seconds, ready, 2)
        traced = [p for p in passes if p["traced"]]
        layers, table = tracing.layer_metrics(tracer, traced_from, len(traced))
        load_s = layers["ratings.load_ratings.s"]
        layers["ratings.load_ratings.lines_per_s"] = args.ratings_lines / load_s if load_s else 0.0
        untraced = best_solve_s([p for p in passes if not p["traced"]])
        layers["trace.overhead_frac"] = best_solve_s(traced) / untraced - 1
        result.update(layers=layers, table=table, missing_hooks=tracer.missing)
        if args.spans:
            tracer.write(args.spans)

    result.update(passes=passes, records=first,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.mode == "measure":
        probe = workloads.known_failure(args.workload, cfg, inputs)
        if probe:
            print("known failure, run once and not measured:")
            _print_records("probe", probe)
        result["known_failures"] = probe
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
