"""Benchmark of the triosplit solvers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads are listed in BENCHMARK.json and
described in bench/workloads.py. Each run starts fresh worker processes with
a one-thread BLAS pool; the untraced run (--trace 0) reports the end-to-end
metrics, the traced run (--trace 1) the per-layer ones. Per-solve lines, the
environment block and every metric by name and unit are printed; the last
line of stdout is the JSON result. Full results and the traced spans are
written under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 7  # fresh processes per run whose set-up time is measured
# One BLAS thread, below the core count: on a 2-core Xeon host a second
# thread made no solver faster at these sizes (svt_complete took 8.4-9.9 s
# with one, 9.1-9.8 s with two), and it exposes every product to noise on
# both cores.
BLAS_THREADS = 1


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _spawn(env, deadline, mode, args, out, extra=()):
    """Run one worker to completion; return (spawn time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another worker")
    sys.stdout.flush()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise TimeoutError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return spawned, json.loads(Path(out).read_text())


def _end_to_end(result, setups):
    passes = result["passes"]
    solve_s = worker.best_solve_s(passes)
    iters = passes[0]["iters"]
    sums = [p["solve_s"] for p in passes]
    print(f"solve_s is the sum of each solver call's fastest of {len(passes)} passes; "
          f"pass times: fastest {min(sums):.4f} s, median {statistics.median(sums):.4f} s, "
          f"slowest {max(sums):.4f} s")
    print("setup samples: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
    errs = [r["err"] for r in result["records"]]
    return {
        "solve_s": solve_s,
        "iters": iters,
        "iter_us": solve_s / iters * 1e6 if iters else math.nan,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "err": statistics.median(errs),
    }


def _print_layers(result):
    table = result["table"]
    solvers = {f"{mod}.{fn}" for mod, fns in tracing.SOLVERS.items() for fn in fns}
    solver_s = sum(table[n][1] for n in solvers & table.keys())
    self_s = sum(row[2] for row in table.values())
    traced = [p for p in result["passes"] if p["traced"]]
    timed = sum(p["solve_s"] for p in traced)
    print(f"traced passes: {len(traced)}; solver calls timed {timed:.4f} s, solver spans "
          f"{solver_s:.4f} s, sum of self times {self_s:.4f} s ({self_s / timed:.2%} of the "
          f"timed calls); tracing overhead {result['layers']['trace.overhead_frac']:+.2%}")
    print(f"{'span':<36}{'calls':>9}{'total s':>11}{'self s':>11}{'self share':>12}")
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        share = own / solver_s if solver_s else 0.0
        print(f"{name:<36}{calls:>9}{total:>11.4f}{own:>11.4f}{share:>12.1%}")
    layers = [(own, n) for n, (_, _, own) in table.items() if n not in solvers]
    if layers:
        print(f"dominant layer by self time: {max(layers)[1]}")
    for hook in result["missing_hooks"]:
        print(f"missing hook: {hook} no longer exists; its metrics read 0")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny instances, for the smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "triosplit" / "__init__.py").is_file():
        return _fail(f"library source not found under {src}")
    if not spec_path.is_file():
        return _fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    os.environ.update({v: str(BLAS_THREADS) for v in envinfo.THREAD_VARS})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    sys.path.insert(0, str(src))
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    environment = envinfo.collect()
    print("env " + json.dumps(environment), flush=True)

    extra = []
    ratings_info = None
    if args.workload == "ratings":
        import ratings_file
        import workloads
        cfg = workloads.SIZES[args.size]["ratings"]
        path = work / f"ratings-seed{args.seed}.dat"
        ratings_info = ratings_file.generate(
            path, args.seed, users=cfg["users"], items=cfg["items"], ratings=cfg["ratings"],
            duplicates=cfg["duplicates"])
        print(f"ratings file: {ratings_info['lines']} lines, {ratings_info['bytes']} bytes, "
              f"{ratings_info['duplicates']} repeated pairs", flush=True)
        extra = ["--ratings-file", str(path), "--ratings-lines", str(ratings_info["lines"])]

    out = work / f"worker-{tag}.json"
    try:
        if args.trace:
            _, main_result = _spawn(env, deadline, "trace", args, out,
                                     extra + ["--spans", str(work / f"spans-{tag}.csv")])
            metrics = main_result["layers"]
            _print_layers(main_result)
            wanted = spec["per_layer"]
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                spawned, probe = _spawn(env, deadline, "setup", args, out, extra)
                setups.append(probe["ready"] - spawned)
            spawned, main_result = _spawn(env, deadline, "measure", args, out, extra)
            setups.append(main_result["ready"] - spawned)
            metrics = _end_to_end(main_result, setups)
            wanted = spec["end_to_end"]
    except (TimeoutError, RuntimeError) as exc:
        return _fail(str(exc))

    passes = main_result["passes"]
    attempted = sum(p["solves"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len({p["iters"] for p in passes}) > 1:
        print("note: iteration counts differ between passes: "
              + ", ".join(str(p["iters"]) for p in passes))
    print(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} solver calls)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    details = dict(result, environment=environment, ratings_file=ratings_info,
                   worker=main_result, seconds=args.seconds)
    (work / f"BENCH_{tag}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
