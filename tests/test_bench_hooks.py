"""The benchmark's per-layer hooks resolve against the library.

The benchmark in bench/ wraps library functions by name in the namespaces
that call them; a renamed or moved function shows up here as a missing hook
without running the benchmark itself.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_benchmark_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
