"""Experiment drivers: configuration, presets, trial loops, result tables.

A run is deterministic in the base seed: trial t derives its stream from
(seed + t) plus the grid cell indices, instances are generated once per
trial and shared by every method, and rows are emitted in a fixed order
(trials first, then per-method aggregates computed from the trial rows
alone, so no solver result but the latest is kept), so rewriting the same
experiment yields byte-identical output.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import cs as cs_mod
from . import matcomp as mc_mod
from .datagen import DctSpec, add_noise, gen_dct_matrix, gen_low_rank, gen_sparse_signal, observe, sample_omega
from .linalg import masked_relative_residual
from .matcomp import CompletionInstance, default_masked_rule, rmse
from .ratings import load_ratings, split_observations
from .splitting import (CONVERGED, DEFAULT_STEP_FRACTION, DIVERGED, StoppingRule,
                        lambda_threshold, max_step_size)

TASKS = ("matcomp_synth", "matcomp_ratings", "cs_recovery", "cs_noise", "diagnose")
MATCOMP_METHODS = ("dys", "drs", "svp", "svt")
CS_METHODS = ("dys", "dca", "admm")
RATINGS_K = 100.0  # start step multiplier of dys and drs on ratings runs


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "matcomp_synth"
    methods: tuple = ()
    trials: int = 5
    seed: int = 0
    # completion grids
    n: int = 300
    r: int = 10
    p: float = 0.3
    lam: Optional[float] = None
    ratings_path: Optional[str] = None
    ranks: tuple[int, ...] = (5, 10)
    test_fraction: float = 0.2
    # sensing grids
    m: int = 100
    sparsity_levels: tuple[int, ...] = (5,)
    refinement: int = 10
    min_sep: Optional[int] = None
    sigmas: tuple[float, ...] = (0.0,)
    # solver overrides
    k_init: Optional[float] = None
    max_iter: Optional[int] = None
    # diagnose inputs; each solver derives its own constants
    L: float = 1.0
    l: float = 0.0
    beta: float = 1.0
    # output
    out: Optional[str] = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not all(sigma >= 0 for sigma in self.sigmas):  # and not NaN, which select never matches
            raise ConfigError(f"noise levels {self.sigmas} must be nonnegative")
        for name, hint in _FIELD_TYPES.items():
            if _item_type(hint) is float:
                value = getattr(self, name)
                for item in value if isinstance(value, tuple) else (value,):
                    if item is not None and not math.isfinite(item):
                        raise ConfigError(f"{name} must be finite, got {item!r}")
        if self.lam is not None and self.lam < 0:
            raise ConfigError(f"lam must be nonnegative, got {self.lam!r}")
        # a ratings file or a noise level promotes the task, and nothing demotes it
        if self.task == "matcomp_synth" and self.ratings_path:
            object.__setattr__(self, "task", "matcomp_ratings")
        if self.task == "cs_recovery" and any(sigma > 0 for sigma in self.sigmas):
            object.__setattr__(self, "task", "cs_noise")
        object.__setattr__(self, "methods", _normalize_methods(self.task, self.methods))
        if self.task == "matcomp_ratings" and not self.ratings_path:
            raise ConfigError("matcomp_ratings needs a ratings file path")


def _normalize_methods(task, methods):
    if task == "diagnose":
        return ()
    if isinstance(methods, str):
        methods = tuple(s.strip() for s in methods.split(",") if s.strip())
    methods = tuple(str(m).lower() for m in methods)
    known = MATCOMP_METHODS if task.startswith("matcomp") else CS_METHODS
    if not methods:
        if task == "matcomp_ratings":
            return ("svp", "drs", "dys")
        return known
    for m in methods:
        if m not in known:
            raise ConfigError(f"unknown method {m!r} for task {task}; expected from {known}")
    return methods


PRESETS = {
    # five-seed synthetic completion table at desk scale
    "table1-desk": dict(task="matcomp_synth", methods=("dys", "drs", "svp", "svt"),
                        trials=5, n=300, r=10, p=0.3, lam=1.5e-6),
    # noiseless sparse recovery across sparsity levels
    "cs-noiseless-desk": dict(task="cs_recovery", methods=("admm", "dca", "dys"),
                              trials=10, m=100, n=1500, refinement=10,
                              sparsity_levels=(5, 9, 15, 17, 20), sigmas=(0.0,)),
    # noisy sparse recovery at one sparsity level
    "cs-noise-desk": dict(task="cs_noise", methods=("admm", "dca", "dys"),
                          trials=10, m=100, n=1500, refinement=10,
                          sparsity_levels=(5,), sigmas=(0.01, 0.005, 0.001, 0.0005)),
    # held-out ratings evaluation over a small rank sweep
    "ratings-desk": dict(task="matcomp_ratings", methods=("svp", "drs", "dys"),
                         trials=1, ranks=(5, 10), test_fraction=0.2, lam=1e-3),
    # long-running, full-size counterparts; hours of compute, not part of
    # the acceptance gate
    "table1-full": dict(task="matcomp_synth", methods=("dys", "drs", "svp", "svt"),
                        trials=5, n=3000, r=10, p=0.08, lam=1.5e-6,
                        max_iter=5000),
    "cs-noiseless-full": dict(task="cs_recovery", methods=("admm", "dca", "dys"),
                              trials=100, m=100, n=2000, refinement=10,
                              sparsity_levels=(5, 9, 15, 17, 20), sigmas=(0.0,)),
    "cs-noise-full": dict(task="cs_noise", methods=("admm", "dca", "dys"),
                          trials=100, m=100, n=2000, refinement=10,
                          sparsity_levels=(5, 9, 15, 17, 20),
                          sigmas=(0.01, 0.005, 0.001, 0.0005)),
}

_FIELD_TYPES = get_type_hints(ExperimentConfig)
_CONFIG_KEY_ALIASES = {"s": "sparsity_levels", "F": "refinement", "sigma": "sigmas",
                       "k": "k_init", "rank": "r", "lambda": "lam", "format": "fmt"}


def build_config(preset=None, config_path=None, overrides=None, base=None):
    """Merge base defaults, preset, config file, and explicit overrides
    (later sources win)."""
    merged = dict(base or {})
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    if config_path is not None:
        merged.update(_read_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    merged = {k: _coerce(k, v) for k, v in ((_CONFIG_KEY_ALIASES.get(k, k), v) for k, v in merged.items())}
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
    task = merged.get("task", ExperimentConfig.task)
    for key in ("L", "l", "beta"):
        if key in merged and task != "diagnose":
            raise ConfigError(f"configuration key {key!r} is read only by the diagnose task, not {task}")
    try:
        return ExperimentConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _item_type(hint):
    """X for a field annotated Optional[X] or tuple[X, ...], else the annotation."""
    args = [a for a in get_args(hint) if a not in (type(None), Ellipsis)]
    return args[0] if args else hint


def _coerce(key, value):
    """value cast to field key's int or float type; a tuple field also takes
    a comma or space separated string."""
    caster = _item_type(_FIELD_TYPES.get(key))
    if caster not in (int, float):
        return value
    if get_origin(_FIELD_TYPES[key]) is not tuple:
        return _cast(key, caster, value)
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return tuple(_cast(key, caster, v) for v in np.atleast_1d(value).tolist())


def _cast(key, caster, value):
    """value as a float, or as an exact int: '1e3' reads 1000 for an int
    setting, while '2.5' or 'inf' is an error."""
    try:
        if caster is float:
            return float(value)
        number = Fraction(value)
        if number.denominator == 1:
            return int(number)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key} must be {'a number' if caster is float else 'an integer'}, got {value!r}")


def _read_config_file(path):
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys keep their case: L and l are different fields
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    merged = {}
    for section in parser.sections():
        if section not in ("experiment", "instance", "solver", "output"):
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# result tables

@dataclass
class ResultTable:
    schema: str
    columns: tuple
    rows: list = field(default_factory=list)

    def add(self, **kv):
        unknown = set(kv) - set(self.columns)
        if unknown:
            raise KeyError(f"columns {sorted(unknown)} not in schema {self.schema}")
        self.rows.append({c: kv.get(c, "") for c in self.columns})

    @property
    def any_diverged(self):
        return any(row.get("status") == DIVERGED for row in self.rows)

    def select(self, **match):
        return [r for r in self.rows if all(r.get(k) == v for k, v in match.items())]

    def to_csv(self, f):
        if not hasattr(f, "write"):
            with open(f, "w") as handle:
                return self.to_csv(handle)
        f.write(f"#schema={self.schema}\n")
        f.write(",".join(self.columns) + "\n")
        for row in self.rows:
            f.write(",".join(_cell(row[c]) for c in self.columns) + "\n")

    def to_json(self, f):
        if not hasattr(f, "write"):
            with open(f, "w") as handle:
                return self.to_json(handle)
        payload = {"schema": self.schema, "columns": list(self.columns), "rows": self.rows}
        f.write(json.dumps(payload, indent=2, allow_nan=True) + "\n")

    def write(self, f, fmt="csv"):
        if fmt == "csv":
            self.to_csv(f)
        else:
            self.to_json(f)


def _cell(value):
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64 reprs as np.float64(...)
    return str(value)


def _mean_std(values):
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(np.mean(arr)), float(np.std(arr))


# ---------------------------------------------------------------------------
# task drivers

MATCOMP_COLUMNS = ("record", "method", "seed", "n", "r", "p", "lambda",
                   "iterations", "rel_error", "err_std", "success_rate", "status")
RATINGS_COLUMNS = ("record", "method", "seed", "rank", "users", "items",
                   "train_count", "test_count", "lambda", "iterations", "rmse",
                   "test_residual", "rmse_std", "success_rate", "status")
CS_COLUMNS = ("record", "method", "seed", "m", "n", "s", "F", "sigma", "success",
              "rel_error", "sparsity", "iterations", "err_std", "sparsity_std",
              "success_rate", "status")
DIAGNOSE_COLUMNS = ("record", "gamma", "lambda_value")


def run_experiment(config):
    """Execute a configured experiment and return its result table."""
    driver = {
        "matcomp_synth": _run_matcomp_synth,
        "matcomp_ratings": _run_matcomp_ratings,
        "cs_recovery": _run_cs,
        "cs_noise": _run_cs,
        "diagnose": _run_diagnose,
    }[config.task]
    return driver(config)


def _converged(row):
    return row["status"] == CONVERGED


def _add_aggregate(table, shared, cell, succeeded=_converged, error="rel_error",
                   error_std="err_std", pool_successes=False, spread=()):
    """Append one grid cell's aggregate row, computed from its trial rows.

    The trial rows are those matching cell; the aggregate copies the
    columns of shared and cell and adds the mean and std of the error
    column (over the trials that succeeded when pool_successes, else over
    all), the mean and std of each column in spread, the mean iteration
    count and the share of trials that succeeded.
    """
    rows = table.select(record="trial", **cell)
    wins = [bool(succeeded(row)) for row in rows]
    pool = [row for row, win in zip(rows, wins) if win] if pool_successes else rows
    stats = {}
    stats[error], stats[error_std] = _mean_std([row[error] for row in pool])
    for column in spread:
        stats[column], stats[column + "_std"] = _mean_std([row[column] for row in rows])
    stats["iterations"], _ = _mean_std([row["iterations"] for row in rows])
    table.add(record="aggregate", success_rate=float(np.mean(wins)), **shared, **cell, **stats)


def _run_matcomp_completion(method, inst, M_true, config, k_default=None):
    rule = None if config.max_iter is None else default_masked_rule(max_iter=config.max_iter)
    k = config.k_init if config.k_init is not None else k_default
    start = {} if k is None else {"k": k}  # else the solver's default start multiplier
    if method == "dys":
        return mc_mod.dys_complete(inst, rule=rule, M_true=M_true, **start)
    if method == "drs":
        return mc_mod.drs_complete(inst, rule=rule, M_true=M_true, **start)
    if method == "svp":
        return mc_mod.svp_complete(inst, rule=rule, M_true=M_true)
    if method == "svt":
        return mc_mod.svt_complete(inst, rule=rule, M_true=M_true)
    raise ConfigError(f"unknown completion method {method!r}")


def _run_matcomp_synth(config):
    table = ResultTable("matcomp_synth.v1", MATCOMP_COLUMNS)
    lam = config.lam if config.lam is not None else mc_mod.DEFAULT_LAMBDA
    n, r, p = config.n, config.r, config.p
    m_count = int(round(p * n * n))
    shared = {"n": n, "r": r, "p": p, "lambda": lam}
    for trial in range(config.trials):
        seed = config.seed + trial
        rng = np.random.default_rng(seed)
        M, _ = gen_low_rank(n, r, rng)
        ridx, cidx = sample_omega(n, n, m_count, rng)
        inst = CompletionInstance(observe(M, ridx, cidx), (n, n), r, lam)
        for method in config.methods:
            res = _run_matcomp_completion(method, inst, M, config)
            table.add(record="trial", method=method, seed=seed, iterations=res.iterations,
                      rel_error=res.relative_error, status=res.status, **shared)
    for method in config.methods:
        _add_aggregate(table, shared, dict(method=method))
    return table


def _run_matcomp_ratings(config):
    table = ResultTable("matcomp_ratings.v1", RATINGS_COLUMNS)
    lam = config.lam if config.lam is not None else 1e-3
    dataset = load_ratings(config.ratings_path)
    shape = (dataset.n_users, dataset.n_items)
    shared = {"users": shape[0], "items": shape[1], "lambda": lam}
    for trial in range(config.trials):
        seed = config.seed + trial
        train, test = split_observations(dataset, seed, config.test_fraction)
        for rank in config.ranks:
            inst = CompletionInstance(train, shape, rank, lam)
            for method in config.methods:
                res = _run_matcomp_completion(method, inst, None, config, RATINGS_K)
                score = rmse(res.x_opt, test) if len(test) else float("nan")
                resid = (masked_relative_residual(res.x_opt, test)
                         if len(test) and np.linalg.norm(test.values) > 0 else float("nan"))
                table.add(record="trial", method=method, seed=seed, rank=rank,
                          train_count=len(train), test_count=len(test),
                          iterations=res.iterations, rmse=score, test_residual=resid,
                          status=res.status, **shared)
    for rank in config.ranks:
        for method in config.methods:
            _add_aggregate(table, shared, dict(method=method, rank=rank),
                           error="rmse", error_std="rmse_std")
    return table


def _run_cs_method(method, inst, config):
    rule = None if config.max_iter is None else StoppingRule(max_iter=config.max_iter)
    if method == "admm":
        return cs_mod.admm_lasso(inst, rule=rule, lam=config.lam)
    if method == "dca":
        return cs_mod.dca_l12(inst, inner_rule=rule, lam=config.lam)
    if method == "dys":
        start = {} if config.k_init is None else {"k": config.k_init}
        return cs_mod.dys_l12(inst, rule=rule, lam=config.lam, **start)
    raise ConfigError(f"unknown sensing method {method!r}")


def _run_cs(config):
    table = ResultTable(f"{config.task}.v1", CS_COLUMNS)
    m, n, F = config.m, config.n, config.refinement
    sep = config.min_sep if config.min_sep is not None else 2 * F
    shared = {"m": m, "n": n, "F": F}
    for s_idx, s in enumerate(config.sparsity_levels):
        for g_idx, sigma in enumerate(config.sigmas):
            for trial in range(config.trials):
                seed = config.seed + trial
                rng = np.random.default_rng((seed, s_idx, g_idx))
                A = gen_dct_matrix(DctSpec(m, n, F), rng)
                x_true = gen_sparse_signal(n, s, sep, rng)
                b = A @ x_true
                if sigma > 0:
                    b = add_noise(b, sigma, rng)
                inst = cs_mod.SensingInstance(A, b, x_true=x_true)
                for method in config.methods:
                    rep = _run_cs_method(method, inst, config)
                    metrics = cs_mod.evaluate(rep.x_opt, x_true)
                    table.add(record="trial", method=method, seed=seed, s=s, sigma=sigma,
                              success=metrics.success, rel_error=metrics.relative_error,
                              sparsity=metrics.sparsity, iterations=rep.iterations,
                              status=rep.status, **shared)
    for s in config.sparsity_levels:
        for sigma in config.sigmas:
            for method in config.methods:
                _add_aggregate(table, shared, dict(method=method, s=s, sigma=sigma),
                               succeeded=lambda row: row["success"],
                               pool_successes=config.task == "cs_recovery",
                               spread=("sparsity",))
    return table


def diagnose_gamma(L, l, beta):
    """Step-size report as a diagnose.v1 table: the threshold root, the
    recommended fixed step (run's default, DEFAULT_STEP_FRACTION * gamma0),
    and the descent coefficient over a 25-point log grid around the root."""
    gamma0 = max_step_size(L, l, beta)
    recommended = DEFAULT_STEP_FRACTION * gamma0
    table = ResultTable("diagnose.v1", DIAGNOSE_COLUMNS)
    table.add(record="root", gamma=gamma0, lambda_value=lambda_threshold(gamma0, L, l, beta))
    table.add(record="recommended", gamma=recommended,
              lambda_value=lambda_threshold(recommended, L, l, beta))
    for g in np.geomspace(gamma0 * 1e-3, gamma0 * 10.0, 25):
        table.add(record="grid", gamma=float(g), lambda_value=lambda_threshold(g, L, l, beta))
    return table


def _run_diagnose(config):
    return diagnose_gamma(config.L, config.l, config.beta)
