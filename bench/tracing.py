"""Spans and counters recorded from outside the library.

Each hook replaces one function in the namespace that calls it (for example
``triosplit.cs.soft_threshold``, which ``triosplit.cs`` looks up at call
time) by a wrapper, and puts the original back on ``uninstall``. Nothing in
the library is edited. Spans live in memory as ``[name, start, end, parent,
attrs]`` lists and are written out once, when the run ends.

A span hook records how long a call took and which span was open when it
started. A count hook only counts calls, charged to the span open at the
time, which is how QR factorizations are counted per truncated SVD without
paying for a span each.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

SOLVERS = {
    "cs": ("dys_l12", "dca_l12", "admm_lasso"),
    "matcomp": ("dys_complete", "drs_complete", "svp_complete", "svt_complete"),
}


def _iterations(args, kwargs, out):
    return {"iters": int(out.iterations)}


def _svd_shape(args, kwargs, out):
    A = args[0] if args else kwargs["A"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"shape": np.shape(A), "k": int(k)}


def _run_trace(args, kwargs, out):
    # keep a reference; the gamma column is read after the pass, off the clock
    return {"trace": out.trace}


# (module, attribute, span name, kind, attrs-from-call). The attribute is
# looked up where the caller looks it up, so a function imported by name into
# several modules is hooked once per importing module.
HOOKS = [
    ("triosplit.cs", "run", "splitting.run", "span", _run_trace),
    ("triosplit.matcomp", "run", "splitting.run", "span", _run_trace),
    ("triosplit.splitting", "dys_step", "splitting.dys_step", "span", None),
    ("triosplit.splitting", "check_stop", "splitting.check_stop", "span", None),
    ("triosplit.cs", "check_stop", "splitting.check_stop", "span", None),
    ("triosplit.matcomp", "check_stop", "splitting.check_stop", "span", None),
    ("triosplit.prox", "GramSolver.solve", "prox.gram_solve", "span", None),
    ("triosplit.prox", "cho_factor", "prox.gram_factor", "count", None),
    ("triosplit.cs", "soft_threshold", "prox.soft_threshold", "span", None),
    ("triosplit.cs", "grad_neg_l2", "prox.grad_neg_l2", "span", None),
    ("triosplit.matcomp", "rank_projection", "prox.rank_projection", "span", None),
    ("triosplit.matcomp", "prox_masked_quadratic", "prox.prox_masked_quadratic", "span", None),
    ("triosplit.prox", "truncated_svd", "linalg.truncated_svd", "span", _svd_shape),
    ("triosplit.matcomp", "truncated_svd", "linalg.truncated_svd", "span", _svd_shape),
    ("numpy.linalg", "qr", "numpy.linalg.qr", "count", None),
    ("triosplit.matcomp", "masked_relative_residual", "linalg.masked_relative_residual", "span", None),
    ("triosplit.cs", "gram_spectral_norm", "linalg.gram_spectral_norm", "span", None),
    ("triosplit.matcomp", "shrink_singular_values", "matcomp.shrink_singular_values", "span", None),
    *[("triosplit." + mod, fn, f"{mod}.{fn}", "span", _iterations)
      for mod, fns in SOLVERS.items() for fn in fns],
    *[("triosplit.datagen", fn, "datagen." + fn, "span", None)
      for fn in ("gen_dct_matrix", "gen_sparse_signal", "gen_low_rank", "sample_omega", "observe")],
    ("triosplit.ratings", "load_ratings", "ratings.load_ratings", "span", None),
    ("triosplit.ratings", "split_observations", "ratings.split_observations", "span", None),
]


def _resolve(module, attribute):
    """(owner, name) for a dotted attribute of a module, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # read the owner's own dict, so a method is replaced as a plain function
    table = vars(owner)
    if name not in table or not callable(table[name]):
        return None
    return owner, name


class Tracer:
    """Installs the hooks, records spans and counts, and restores the originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans = []
        self.stack = []
        self.span_counts = defaultdict(Counter)
        self.missing = []
        self._saved = []

    def _span(self, name, fn, attrs):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, fn):
        span_counts, stack = self.span_counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                span_counts[stack[-1]][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("hooks already installed")
        self.missing = []
        for module, attribute, name, kind, attrs in self.hooks:
            target = _resolve(module, attribute)
            if target is None:
                self.missing.append(f"{module}.{attribute}")
                continue
            owner, attr = target
            original = vars(owner)[attr]
            wrapper = self._span(name, original, attrs) if kind == "span" else self._count(name, original)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        """Put every original back and check that none is still wrapped."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        left = [f"{o.__name__}.{a}" for o, a, orig in self._saved if vars(o)[a] is not orig]
        self._saved = []
        if left:
            raise RuntimeError(f"hooks still installed after uninstall: {left}")

    def write(self, path):
        """Write the spans as CSV: index, name, start, end, parent."""
        with open(path, "w") as f:
            f.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _gemm_flops(shape, k, sweeps):
    """Dense multiply flops of one subspace-iteration SVD: the start block
    product plus three m x n x p products per sweep, p = k + 8 columns."""
    m, n = shape
    p = min(k + 8, m, n)
    return 2.0 * m * n * p * (1 + 3 * sweeps)


def layer_metrics(tracer, first, passes):
    """Per-layer numbers from the spans recorded since index ``first`` (the
    traced passes), per pass, plus the set-up spans before it for the
    data-generation and ingestion layers.

    Returns (metrics, table) where table maps span name to
    [calls, total seconds, self seconds] over the traced passes.
    """
    spans, span_counts = tracer.spans, tracer.span_counts
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    setup = defaultdict(float)
    for name, start, end, _, _ in spans[:first]:
        setup[name] += end - start

    table = defaultdict(lambda: [0, 0.0, 0.0])
    extra = Counter()  # counts and sums read from span attributes
    for i in range(first, len(spans)):
        name, start, end, parent, attrs = spans[i]
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
        if name == "linalg.truncated_svd":
            # the subspace path makes 1 + 2*sweeps QR calls, the dense path none
            qr = span_counts[i]["numpy.linalg.qr"] if i in span_counts else 0
            if qr:
                sweeps = (qr - 1) / 2
                extra["sweeps"] += sweeps
                extra["gflop"] += _gemm_flops(attrs["shape"], attrs["k"], sweeps) / 1e9
            if parent >= 0 and spans[parent][0] == "matcomp.shrink_singular_values":
                extra["svd_in_shrink"] += 1
        elif name == "prox.gram_solve" and i in span_counts:
            extra["factor_calls"] += span_counts[i]["prox.gram_factor"]
        elif name == "splitting.run":
            extra["decays"] += int(np.count_nonzero(np.diff(attrs["trace"].column("gamma"))))
        elif attrs is not None and "iters" in attrs:
            extra[name + ".iters"] += attrs["iters"]

    def per_pass(name, col=1):
        return table[name][col] / passes if name in table else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    svd_calls = per_pass("linalg.truncated_svd", 0)
    solves = per_pass("prox.gram_solve", 0)
    m = {
        "splitting.run.self_s": per_pass("splitting.run", 2),
        "splitting.dys_step.calls": per_pass("splitting.dys_step", 0),
        "splitting.dys_step.s": per_pass("splitting.dys_step"),
        "splitting.check_stop.calls": per_pass("splitting.check_stop", 0),
        "splitting.check_stop.s": per_pass("splitting.check_stop"),
        "splitting.gamma_decays": extra["decays"] / passes,
        "prox.gram_solve.calls": solves,
        "prox.gram_solve.s": per_pass("prox.gram_solve"),
        "prox.gram_factor.calls": extra["factor_calls"] / passes,
        "prox.gram_factor.hit_ratio": 1.0 - ratio(extra["factor_calls"] / passes, solves) if solves else 0.0,
        "prox.soft_threshold.s": per_pass("prox.soft_threshold"),
        "prox.grad_neg_l2.s": per_pass("prox.grad_neg_l2"),
        "prox.rank_projection.calls": per_pass("prox.rank_projection", 0),
        "prox.rank_projection.s": per_pass("prox.rank_projection"),
        "prox.prox_masked_quadratic.s": per_pass("prox.prox_masked_quadratic"),
        "linalg.truncated_svd.calls": svd_calls,
        "linalg.truncated_svd.s": per_pass("linalg.truncated_svd"),
        "linalg.truncated_svd.sweeps_per_call": ratio(extra["sweeps"] / passes, svd_calls),
        "linalg.truncated_svd.gflop": extra["gflop"] / passes,
        "linalg.masked_relative_residual.s": per_pass("linalg.masked_relative_residual"),
        "linalg.gram_spectral_norm.s": per_pass("linalg.gram_spectral_norm"),
        "matcomp.shrink_singular_values.s": per_pass("matcomp.shrink_singular_values"),
        "matcomp.shrink_singular_values.svd_per_call": ratio(
            extra["svd_in_shrink"] / passes, per_pass("matcomp.shrink_singular_values", 0)),
        "cs.multiplier.self_s": per_pass("cs.admm_lasso", 2) + per_pass("cs.dca_l12", 2),
    }
    for mod, fns in SOLVERS.items():
        for fn in fns:
            m[f"{mod}.{fn}.s"] = per_pass(f"{mod}.{fn}")
            m[f"{mod}.{fn}.iters"] = extra[f"{mod}.{fn}.iters"] / passes
    for name in ("datagen.gen_dct_matrix", "datagen.gen_sparse_signal", "datagen.gen_low_rank",
                 "datagen.sample_omega", "datagen.observe", "ratings.load_ratings",
                 "ratings.split_observations"):
        m[name + ".s"] = setup[name]
    return m, dict(table)
