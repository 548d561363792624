import io
import weakref
from dataclasses import replace

import numpy as np
import pytest

from triosplit import cs as cs_mod
from triosplit import matcomp as mc_mod
from triosplit.experiments import (ConfigError, ExperimentConfig, PRESETS,
                                   build_config, diagnose_gamma, run_experiment)
from triosplit.splitting import DEFAULT_STEP_FRACTION, lambda_threshold, max_step_size


def small_matcomp_config(**extra):
    base = dict(task="matcomp_synth", methods=("dys", "drs"), trials=2,
                seed=0, n=40, r=3, p=0.5, lam=1.5e-6)
    base.update(extra)
    return ExperimentConfig(**base)


def small_cs_config(**extra):
    base = dict(task="cs_recovery", methods=("admm",), trials=2, seed=0,
                m=30, n=90, sparsity_levels=(2,), refinement=3, max_iter=4000)
    base.update(extra)
    return ExperimentConfig(**base)


def csv_text(table):
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


class TestConfig:
    def test_presets_exist(self):
        assert "table1-desk" in PRESETS
        assert "cs-noiseless-desk" in PRESETS

    def test_preset_then_overrides(self):
        cfg = build_config(preset="table1-desk", overrides={"n": 60, "trials": 1})
        assert cfg.task == "matcomp_synth"
        assert cfg.n == 60
        assert cfg.trials == 1
        assert cfg.r == 10

    def test_config_file_between_preset_and_flags(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\ntrials = 4\nseed = 9\n\n[instance]\nn = 50\n")
        cfg = build_config(preset="table1-desk", config_path=path,
                           overrides={"seed": 11})
        assert cfg.trials == 4      # file beats preset
        assert cfg.n == 50
        assert cfg.seed == 11       # flag beats file

    def test_unknown_task_method_preset(self):
        with pytest.raises(ConfigError, match="unknown task"):
            ExperimentConfig(task="nope")
        with pytest.raises(ConfigError, match="unknown method"):
            ExperimentConfig(task="matcomp_synth", methods=("magic",))
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config(preset="missing")
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            build_config(overrides={"task": "diagnose", "bogus": 1})

    @pytest.mark.parametrize("task", ["matcomp_synth", "cs_recovery"])
    def test_diagnose_constants_rejected_on_solver_tasks(self, tmp_path, task):
        # each solver derives its own (L, l, beta); only diagnose reads these keys
        path = tmp_path / "cfg.ini"
        path.write_text("[solver]\nbeta = 5\n")
        with pytest.raises(ConfigError, match="'beta' is read only by the diagnose task"):
            build_config(config_path=path, base={"task": task})
        with pytest.raises(ConfigError, match="'L' is read only by the diagnose task"):
            build_config(overrides={"task": task, "L": 2.0})
        assert build_config(config_path=path, base={"task": "diagnose"}).beta == 5.0

    def test_method_aliases_and_string_lists(self):
        cfg = ExperimentConfig(task="cs_recovery", methods="admm, dys")
        assert cfg.methods == ("admm", "dys")
        with pytest.raises(ConfigError, match="unknown method 'dys_l12'"):
            ExperimentConfig(task="cs_recovery", methods="dys_l12")

    def test_config_file_keys_keep_their_case(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[instance]\nF = 5\n")
        assert build_config(config_path=path, base={"task": "cs_recovery"}).refinement == 5
        path.write_text("[instance]\nf = 5\n")
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            build_config(config_path=path, base={"task": "cs_recovery"})

    def test_list_coercion_from_strings(self):
        cfg = build_config(overrides={"task": "cs_recovery", "s": "2, 3",
                                      "sigma": "0.0", "m": "20", "n": "50"})
        assert cfg.sparsity_levels == (2, 3)
        assert cfg.sigmas == (0.0,)
        assert cfg.m == 20
        assert build_config(overrides={"task": "cs_recovery", "n": "1e3"}).n == 1000

    @pytest.mark.parametrize("setting", [
        dict(trials="2.5"), dict(trials="inf"), dict(trials=2.5), dict(s="5.5,9"),
        dict(s="inf"), dict(ranks="2,nan"), dict(seed="abc"),
    ])
    def test_int_setting_takes_only_an_integral_value(self, setting):
        # it was truncated (2.5 ran 2 trials) or overflowed (inf)
        with pytest.raises(ConfigError, match="must be an integer|must be a number"):
            build_config(overrides=setting, base={"task": "cs_recovery"})

    @pytest.mark.parametrize("settings, task", [
        (dict(sigmas=(0.0, 0.01)), "cs_noise"),
        (dict(sigmas=(0.0,)), "cs_recovery"),
        (dict(task="cs_noise", sigmas=(0.0,)), "cs_noise"),
        (dict(task="matcomp_synth", ratings_path="r.dat"), "matcomp_ratings"),
        (dict(task="matcomp_ratings", ratings_path="r.dat"), "matcomp_ratings"),
    ])
    def test_settings_promote_the_task_never_demote_it(self, settings, task):
        cfg = ExperimentConfig(**{"task": "cs_recovery", **settings})
        assert cfg.task == task
        assert cfg.methods == ExperimentConfig(task=task, ratings_path="r.dat").methods

    @pytest.mark.parametrize("sigmas", [(0.01, -0.01), (float("nan"),)])
    def test_negative_or_nan_noise_rejected(self, sigmas):
        # either would otherwise run as a noiseless cell labelled with the bad value
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig(task="cs_noise", sigmas=sigmas)

    @pytest.mark.parametrize("setting", [
        dict(lam=float("nan")), dict(lam=-1.0), dict(lam=float("inf")),
        dict(k_init=float("nan")), dict(beta=float("nan")), dict(L=float("nan")),
        dict(l=float("nan")), dict(beta=float("inf")),
        dict(p=float("inf")), dict(test_fraction=float("nan")), dict(sigmas=(0.01, float("inf"))),
    ])
    def test_non_finite_or_negative_solver_setting_rejected(self, setting):
        with pytest.raises(ConfigError, match=next(iter(setting))):
            ExperimentConfig(**setting)

    def test_ratings_task_requires_path(self):
        with pytest.raises(ConfigError, match="ratings"):
            ExperimentConfig(task="matcomp_ratings")


@pytest.fixture(scope="module")
def matcomp_table():
    return run_experiment(small_matcomp_config())


@pytest.fixture(scope="module")
def cs_table():
    return run_experiment(small_cs_config())


class TestMatcompDriver:
    @pytest.fixture
    def table(self, matcomp_table):
        return matcomp_table

    def test_row_accounting(self, table):
        trials = table.select(record="trial")
        aggregates = table.select(record="aggregate")
        assert len(trials) == 4      # 2 trials x 2 methods
        assert len(aggregates) == 2  # one per method

    def test_trials_converge_at_desk_scale(self, table):
        for row in table.select(record="trial"):
            assert row["status"] == "converged"
            assert row["rel_error"] < 1e-3

    def test_rerun_is_byte_identical(self, table):
        again = run_experiment(small_matcomp_config())
        assert csv_text(table) == csv_text(again)

    def test_seed_changes_output(self, table):
        other = run_experiment(small_matcomp_config(seed=5))
        assert csv_text(table) != csv_text(other)

    def test_csv_schema_header(self, table):
        text = csv_text(table)
        lines = text.splitlines()
        assert lines[0] == "#schema=matcomp_synth.v1"
        assert lines[1].startswith("record,method,seed,n,r,p,lambda,")

    def test_json_output_round_trips(self, table):
        import json
        buf = io.StringIO()
        table.to_json(buf)
        payload = json.loads(buf.getvalue())
        assert payload["schema"] == "matcomp_synth.v1"
        assert len(payload["rows"]) == len(table.rows)


class TestCsDriver:
    @pytest.fixture
    def table(self, cs_table):
        return cs_table

    def test_row_accounting(self, table):
        assert len(table.select(record="trial")) == 2
        assert len(table.select(record="aggregate")) == 1

    def test_trial_fields_present(self, table):
        row = table.select(record="trial")[0]
        assert row["m"] == 30 and row["n"] == 90 and row["s"] == 2
        assert row["sparsity"] >= 0
        assert isinstance(row["success"], bool)

    def test_success_rate_aggregate(self, table):
        agg = table.select(record="aggregate")[0]
        trials = table.select(record="trial")
        assert agg["success_rate"] == pytest.approx(
            np.mean([t["success"] for t in trials]))

    def test_rerun_is_byte_identical(self, table):
        again = run_experiment(small_cs_config())
        assert csv_text(table) == csv_text(again)

    def test_sparsity_sweep_gets_one_aggregate_per_cell(self):
        table = run_experiment(small_cs_config(sparsity_levels=(1, 2), trials=1))
        assert len(table.select(record="trial")) == 2
        aggs = table.select(record="aggregate")
        assert sorted(a["s"] for a in aggs) == [1, 2]
        for agg in aggs:
            assert 0.0 <= agg["success_rate"] <= 1.0


def ratings_config(tmp_path, max_iter=300):
    rng = np.random.default_rng(0)
    lines = []
    for k in range(400):
        u = int(rng.integers(1, 21))
        i = int(rng.integers(1, 31))
        r = int(rng.integers(1, 6))
        lines.append(f"{u}::{i}::{r}::{k}")
    path = tmp_path / "ratings.dat"
    path.write_text("".join(line + "\n" for line in lines))
    return ExperimentConfig(task="matcomp_ratings", methods=("svp", "dys"),
                            trials=1, seed=0, ratings_path=str(path),
                            ranks=(2,), test_fraction=0.2, max_iter=max_iter)


class TestRatingsDriver:
    def test_ratings_pipeline(self, tmp_path):
        table = run_experiment(ratings_config(tmp_path))
        trials = table.select(record="trial")
        assert len(trials) == 2
        for row in trials:
            assert row["rmse"] > 0
            assert row["train_count"] > 0 and row["test_count"] > 0
        assert len(table.select(record="aggregate")) == 2


def aggregate_case(task, tmp_path):
    """A small config of the task, with the grid keys of its aggregate rows."""
    if task == "matcomp_synth":
        return small_matcomp_config(trials=3), ("method",)
    if task == "matcomp_ratings":
        config = replace(ratings_config(tmp_path, max_iter=20), trials=2, ranks=(2, 3))
        return config, ("method", "rank")
    if task == "cs_recovery":
        # s = 5 is listed twice: both aggregates come from the merged cell,
        # where dys succeeds on some trials only
        config = small_cs_config(methods=("admm", "dys"), trials=3, sparsity_levels=(2, 5, 5))
    else:
        config = small_cs_config(task="cs_noise", methods=("admm", "dys"), sigmas=(0.01, 0.0))
    return config, ("method", "s", "sigma")


@pytest.mark.parametrize("task", ["matcomp_synth", "cs_recovery", "cs_noise", "matcomp_ratings"])
def test_aggregates_recomputable(task, tmp_path):
    config, keys = aggregate_case(task, tmp_path)
    table = run_experiment(config)
    sensing = task.startswith("cs")
    error, error_std = ("rmse", "rmse_std") if task == "matcomp_ratings" else ("rel_error", "err_std")
    aggregates = table.select(record="aggregate")
    assert aggregates
    for agg in aggregates:
        rows = table.select(record="trial", **{k: agg[k] for k in keys})
        assert rows
        wins = [r["success"] if sensing else r["status"] == "converged" for r in rows]
        # the noiseless protocol pools the error over successful trials only
        pool = [r for r, win in zip(rows, wins) if win] if task == "cs_recovery" else rows
        errs = [r[error] for r in pool]
        assert agg[error] == pytest.approx(np.mean(errs), abs=1e-12, nan_ok=True)
        assert agg[error_std] == pytest.approx(np.std(errs), abs=1e-12, nan_ok=True)
        assert agg["iterations"] == pytest.approx(
            np.mean([r["iterations"] for r in rows]), abs=1e-12)
        assert agg["success_rate"] == pytest.approx(np.mean(wins), abs=1e-12)
        if sensing:
            spars = [r["sparsity"] for r in rows]
            assert agg["sparsity"] == pytest.approx(np.mean(spars), abs=1e-12)
            assert agg["sparsity_std"] == pytest.approx(np.std(spars), abs=1e-12)
    if task == "cs_recovery":
        assert len(aggregates) == 6  # one per listed (s, method), s = 5 twice
        assert any(0.0 < agg["success_rate"] < 1.0 for agg in aggregates)


@pytest.mark.parametrize("task, solver", [("matcomp_synth", "dys_complete"),
                                          ("matcomp_ratings", "dys_complete"),
                                          ("cs_recovery", "admm_lasso")])
def test_driver_keeps_no_result_past_its_row(task, solver, tmp_path, monkeypatch):
    # at each solver call, every earlier result but the latest is collected
    module = cs_mod if task.startswith("cs") else mc_mod
    refs, held = [], []
    call = getattr(module, solver)

    def watched(*args, **kwargs):
        held.append(sum(ref() is not None for ref in refs[:-1]))
        res = call(*args, **kwargs)
        refs.append(weakref.ref(res))
        return res

    monkeypatch.setattr(module, solver, watched)
    run_experiment(aggregate_case(task, tmp_path)[0])
    assert len(refs) >= 3
    assert held == [0] * len(refs)


def test_numeric_cells_parse_as_floats(matcomp_table, tmp_path):
    # numpy float64 values used to be written as "np.float64(...)"
    ratings_table = run_experiment(ratings_config(tmp_path, max_iter=20))
    for table in (matcomp_table, ratings_table):
        lines = csv_text(table).splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            for name, cell in zip(header, line.split(",")):
                if cell and name not in ("record", "method", "status"):
                    float(cell)


def diagnose_gamma0(table):
    (root,) = table.select(record="root")
    return root["gamma"]


class TestDiagnose:
    def test_reference_constants_report(self):
        table = diagnose_gamma(1.0, 0.0, 1.0)
        gamma0 = diagnose_gamma0(table)
        assert gamma0 == pytest.approx(0.15, abs=0.01)
        (recommended,) = table.select(record="recommended")
        assert recommended["gamma"] == DEFAULT_STEP_FRACTION * gamma0 == pytest.approx(0.99 * gamma0)

    def test_delegates_to_root_finder(self):
        assert diagnose_gamma0(diagnose_gamma(1.0, 1.0, 1.0)) == max_step_size(1.0, 1.0, 1.0)

    def test_grid_rows_positive_below_root(self):
        table = diagnose_gamma(2.0, 0.0, 0.5)
        gamma0 = diagnose_gamma0(table)
        grid = [(row["gamma"], row["lambda_value"]) for row in table.select(record="grid")]
        for gamma, value in grid:
            if gamma < gamma0:
                # a grid point can land on the root itself, where the value
                # sits within the root-finder tolerance of zero
                assert value > -1e-9
        assert any(gamma > gamma0 and value < 0 for gamma, value in grid)

    def test_table_form(self):
        table = diagnose_gamma(1.0, 0.0, 1.0)
        kinds = [row["record"] for row in table.rows]
        assert kinds[0] == "root" and kinds[1] == "recommended"
        assert kinds.count("grid") == len(table.rows) - 2
        root = table.rows[0]
        assert abs(root["lambda_value"]) <= 1e-10
        assert root["lambda_value"] == lambda_threshold(root["gamma"], 1.0, 0.0, 1.0)
