"""Smoke test of the benchmark at tiny instance sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced through the same command the full
benchmark uses, so a broken harness shows in well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py", seed=1):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "env {" in proc.stdout and "blas_threads" in proc.stdout
    if trace:
        assert "dominant layer by self time:" in proc.stdout
        assert "missing hook" not in proc.stdout
    else:
        for name in ("solve_s", "iters", "iter_us", "setup_s", "peak_rss_mb", "err"):
            assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_across_seeds(workload):
    counts = []
    for seed in (1, 2):
        proc = _run(workload, 1, seed=seed)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if name.endswith((".calls", ".iters"))})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("sensing", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_missing_hook_is_named_and_originals_come_back():
    import tracing
    import triosplit.cs as cs

    original = cs.soft_threshold
    hooks = [("triosplit.cs", "soft_threshold", "prox.soft_threshold", "span", None),
             ("triosplit.cs", "no_such_function", "cs.gone", "span", None)]
    tracer = tracing.Tracer(hooks)
    tracer.install()
    assert cs.soft_threshold is not original
    cs.soft_threshold([1.0, -2.0], 0.5)
    tracer.uninstall()
    assert cs.soft_threshold is original
    assert tracer.missing == ["triosplit.cs.no_such_function"]
    assert [s[0] for s in tracer.spans] == ["prox.soft_threshold"]


def test_ratings_file_exercises_remapping_and_keep_last(tmp_path):
    import ratings_file
    from triosplit.ratings import load_ratings

    info = ratings_file.generate(tmp_path / "r.dat", 3, users=30, items=50, ratings=600,
                                 duplicates=4)
    assert info["lines"] == 604 and info["bytes"] == (tmp_path / "r.dat").stat().st_size
    ids = {int(line.split("::")[0]) for line in (tmp_path / "r.dat").read_text().splitlines()}
    assert max(ids) > len(ids)
    ds = load_ratings(tmp_path / "r.dat")
    assert (ds.n_users, ds.n_items, ds.duplicates, len(ds.ratings)) == (30, 50, 4, 600)
