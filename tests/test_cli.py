import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triosplit
from triosplit.cli import main
from triosplit.experiments import ResultTable


def subprocess_env():
    # the subprocess imports the triosplit under test, installed or not
    src = str(Path(triosplit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestDiagnoseCommand:
    def test_writes_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["diagnose", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#schema=diagnose.v1"
        root = lines[2].split(",")
        assert root[0] == "root"
        assert 0.14 <= float(root[1]) <= 0.16

    def test_console_script_entry(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "triosplit.cli", "diagnose", "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0
        assert out.exists()

    def test_root_above_the_old_scan_range(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["diagnose", "--L", "1e-4", "--l", "0", "--beta", "0", "--out", str(out)]) == 0
        root = out.read_text().splitlines()[2].split(",")
        assert root[0] == "root"
        assert float(root[1]) == pytest.approx((6 ** 0.5 - 2) / 2e-4, rel=1e-14)

    def test_config_keys_keep_their_case(self, tmp_path, capsys):
        # L and l are different constants; a config file must not fold one into the other
        path = tmp_path / "cfg.ini"
        path.write_text("[solver]\nL = 2\nl = 0\nbeta = 1\n")
        assert main(["diagnose", "--config", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["diagnose", "--L", "2", "--l", "0", "--beta", "1"]) == 0
        assert from_file == capsys.readouterr().out
        assert "root,0.0899" in from_file
        path.write_text("[instance]\nN = 300\n")
        assert main(["diagnose", "--config", str(path)]) == 1
        assert "unknown configuration keys ['N']" in capsys.readouterr().err

    def test_constants_without_a_threshold_are_an_error(self, capsys):
        assert main(["diagnose", "--L", "0", "--l", "0", "--beta", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: L must be positive")


def write_ratings(path):
    rng = np.random.default_rng(0)
    lines = [f"{int(rng.integers(1, 15))}::{int(rng.integers(1, 20))}::"
             f"{int(rng.integers(1, 6))}::{k}" for k in range(300)]
    path.write_text("".join(line + "\n" for line in lines))
    return path


class TestMatcompCommand:
    def test_small_synthetic_run(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["matcomp", "--n", "40", "--r", "3", "--p", "0.5",
                     "--trials", "1", "--methods", "dys", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "#schema=matcomp_synth.v1"
        assert len(lines) == 2 + 1 + 1  # schema + header + 1 trial + 1 aggregate

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["matcomp", "--preset", "table1-desk", "--n", "40",
                     "--trials", "1", "--methods", "dys", "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[3] == "40"  # n column

    def test_reruns_byte_identical(self, tmp_path):
        args = ["matcomp", "--n", "40", "--r", "3", "--p", "0.5", "--trials", "2",
                "--methods", "dys,svp", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        import json
        out = tmp_path / "mc.json"
        code = main(["matcomp", "--n", "30", "--r", "2", "--p", "0.6",
                     "--trials", "1", "--methods", "drs", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "matcomp_synth.v1"

    def test_ratings_switches_task(self, tmp_path):
        ratings = write_ratings(tmp_path / "r.dat")
        out = tmp_path / "ratings.csv"
        code = main(["matcomp", "--ratings", str(ratings), "--ranks", "2",
                     "--methods", "svp", "--trials", "1", "--max-iter", "200",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "#schema=matcomp_ratings.v1"

    def test_flag_reads_a_value_as_a_config_file_does(self, tmp_path, monkeypatch):
        # the flag was typed by argparse's int(), which rejects 1e3
        seen = []

        def capture(config):
            seen.append(config)
            return ResultTable("matcomp_synth.v1", ("record",))

        monkeypatch.setattr("triosplit.cli.run_experiment", capture)
        path = tmp_path / "cfg.ini"
        path.write_text("[instance]\nn = 1e3\n")
        out = str(tmp_path / "x.csv")
        assert main(["matcomp", "--n", "1e3", "--out", out]) == 0
        assert main(["matcomp", "--config", str(path), "--out", out]) == 0
        assert seen[0] == seen[1]
        assert seen[0].n == 1000

    def test_ratings_path_switches_task_from_any_source(self, tmp_path, capsys):
        # a config file's ratings_path, or --ratings beside a synthetic preset,
        # was ignored and a synthetic table written
        path = tmp_path / "cfg.ini"
        path.write_text(f"[experiment]\nratings_path = {write_ratings(tmp_path / 'r.dat')}\n"
                        "ranks = 2\nmethods = svp\ntrials = 1\nmax_iter = 200\n")
        assert main(["matcomp", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "#schema=matcomp_ratings.v1"
        missing = tmp_path / "absent.dat"
        assert main(["matcomp", "--preset", "table1-desk", "--ratings", str(missing),
                     "--n", "20", "--trials", "1", "--methods", "svp"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCsCommand:
    def test_small_recovery_run(self, tmp_path):
        out = tmp_path / "cs.csv"
        code = main(["cs", "--m", "30", "--n", "90", "--s", "2", "--F", "3",
                     "--trials", "1", "--methods", "admm", "--max-iter", "4000",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "#schema=cs_recovery.v1"

    def test_noise_flag_switches_schema(self, tmp_path):
        out = tmp_path / "cs.csv"
        code = main(["cs", "--m", "30", "--n", "90", "--s", "2", "--F", "3",
                     "--sigma", "0.01", "--trials", "1", "--methods", "admm",
                     "--max-iter", "2000", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "#schema=cs_noise.v1"

    SMALL = ["--m", "30", "--n", "90", "--s", "2", "--F", "3", "--trials", "1",
             "--methods", "admm", "--max-iter", "2000"]

    def test_config_file_noise_runs_as_the_noise_flag_does(self, tmp_path, capsys):
        # the file's sigma used to run the noiseless protocol under the noisy level
        path = tmp_path / "cfg.ini"
        path.write_text("[instance]\nsigma = 0.01\n")
        assert main(["cs", "--config", str(path)] + self.SMALL) == 0
        from_file = capsys.readouterr().out
        assert main(["cs", "--sigma", "0.01"] + self.SMALL) == 0
        assert from_file == capsys.readouterr().out
        assert from_file.startswith("#schema=cs_noise.v1\n")

    def test_noise_beside_a_noiseless_preset_runs_the_noise_protocol(self, capsys):
        assert main(["cs", "--preset", "cs-noiseless-desk", "--sigma", "0.01"] + self.SMALL) == 0
        assert capsys.readouterr().out.startswith("#schema=cs_noise.v1\n")


class TestIngestCommand:
    def test_writes_split_files(self, tmp_path, capsys):
        ratings = tmp_path / "r.dat"
        ratings.write_text("1::10::5::1\n1::20::3::2\n2::10::4::3\n2::20::2::4\n3::10::1::5\n")
        prefix = tmp_path / "split"
        code = main(["ingest", str(ratings), "--test-fraction", "0.2",
                     "--split-seed", "1", "--out", str(prefix)])
        assert code == 0
        captured = capsys.readouterr()
        assert "train: 4 entries" in captured.out
        assert "test: 1 entries" in captured.out
        assert (tmp_path / "split.train.txt").exists()
        assert (tmp_path / "split.test.txt").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "absent.dat"), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_timestamp_beyond_int64_exits_one_naming_the_line(self, tmp_path, capsys):
        ratings = tmp_path / "r.dat"
        ratings.write_text("1::10::5::1\n2::20::4::99999999999999999999\n")
        code = main(["ingest", str(ratings), "--out", str(tmp_path / "split")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ratings}:2: ")
        assert not (tmp_path / "split.train.txt").exists()


class TestExitCodes:
    def test_config_error_exits_one(self, tmp_path, capsys):
        code = main(["matcomp", "--methods", "unknown-solver", "--out",
                     str(tmp_path / "x.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["matcomp", "--lam", "nan"], ["matcomp", "--lam", "-1"],
        ["matcomp", "--k", "nan"], ["matcomp", "--beta", "nan"],
        ["cs", "--k", "nan"], ["cs", "--lam", "nan"], ["cs", "--lam", "-1"],
        ["diagnose", "--beta", "nan"], ["diagnose", "--L", "nan"], ["diagnose", "--l", "nan"],
    ])
    def test_nan_or_negative_setting_is_a_config_error(self, argv, tmp_path, capsys):
        small = {"matcomp": ["--n", "20", "--r", "2", "--trials", "1"],
                 "cs": ["--m", "10", "--n", "40", "--s", "1", "--F", "1", "--trials", "1"],
                 "diagnose": []}[argv[0]]
        code = main(argv + small + ["--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [["matcomp", "--bogus", "1"], ["matcomp", "--n", "abc"]],
                             ids=["unknown-flag", "malformed-value"])
    def test_usage_error_exits_one_not_two(self, argv, capsys):
        assert main(argv) == 1  # argparse would exit 2, the diverged-trial code
        assert capsys.readouterr().err.startswith("configuration error: triosplit")

    @pytest.mark.parametrize("argv, expected", [
        (["cs", "--preset", "table1-desk", "--trials", "1"], "task matcomp_synth is not a cs task"),
        (["matcomp", "--preset", "cs-noise-desk", "--trials", "1"], "task cs_noise is not a matcomp task"),
        (["cs", "--config", "{task_file}"], "task diagnose is not a cs task"),
    ])
    def test_task_of_another_command_exits_one(self, argv, expected, tmp_path, capsys):
        task_file = tmp_path / "cfg.ini"
        task_file.write_text("[experiment]\ntask = diagnose\n")
        argv = [a.format(task_file=task_file) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags", [["--s", "inf"], ["--s", "5.5,9"]])
    def test_non_integral_int_setting_exits_one_without_traceback(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "triosplit.cli", "cs", "--m", "10", "--n", "40", "--F", "1",
             "--trials", "1"] + flags, capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 1
        assert proc.stderr.startswith("configuration error: sparsity_levels must be an integer")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["cs", "--p", "0.5"], ["cs", "--meth", "admm"], ["matcomp", "--rat", "r.dat"],
        ["diagnose", "--seed", "1"], ["diagnose", "--trials", "2"],
        ["diagnose", "--preset", "table1-desk"],
    ])
    def test_flag_prefix_or_unread_flag_is_a_usage_error(self, argv, capsys):
        # a prefix was read as the flag it begins (--p as --preset); diagnose
        # accepted trial flags its task never reads
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: triosplit")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matcomp", "--help"])
        assert exc.value.code == 0
        assert "--methods" in capsys.readouterr().out

    def test_bad_config_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[wrong-section]\nkey = 1\n")
        code = main(["matcomp", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_divergence_exits_two(self, monkeypatch, tmp_path):
        table = ResultTable("matcomp_synth.v1", ("record", "status"))
        table.add(record="trial", status="diverged")
        monkeypatch.setattr("triosplit.cli.run_experiment", lambda cfg: table)
        code = main(["matcomp", "--n", "30", "--r", "2", "--trials", "1",
                     "--methods", "dys", "--out", str(tmp_path / "d.csv")])
        assert code == 2

    def test_closed_reader_exits_141_quietly(self):
        # the read end is closed before the CLI starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "triosplit.cli", "matcomp", "--n", "20", "--r", "2",
                 "--p", "0.5", "--trials", "1", "--methods", "dys"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=subprocess_env())
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""

    def test_stdout_when_no_out_path(self, capsys):
        code = main(["diagnose"])
        assert code == 0
        assert "#schema=diagnose.v1" in capsys.readouterr().out
