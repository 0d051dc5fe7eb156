import json
import subprocess
import sys

import pytest

from aeqslearn import RunConfig, execute

SMALL = ["--m", "1", "--grid", "1", "--ltuples", "1", "--ldesigns", "1",
         "--k", "256", "--reps", "3"]
SMALL_KW = dict(m=1, grid=1, ltuples=1, ldesigns=1, k=256, reps=3)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "aeqslearn", *args],
                          capture_output=True, text=True)


def record_of(proc):
    return json.loads(proc.stdout)


class TestRunCommand:
    def test_brute_always_succeeds_with_exact_query_count(self):
        proc = run_cli("run", "--relation", "eq", "--n", "2",
                       "--algorithm", "brute", *SMALL)
        assert proc.returncode == 0
        rec = record_of(proc)
        assert rec["success"] is True
        assert rec["oracle_queries"] == rec["pool_size"] * 4
        assert rec["true_agreement"] == rec["brute_force_count"]

    def test_exit_two_when_optimum_unreached(self):
        # no machine in the two-element pool matches eq everywhere
        proc = run_cli("run", "--relation", "eq", "--n", "2",
                       "--algorithm", "first", "--seed", "5", *SMALL)
        assert proc.returncode == 2
        assert record_of(proc)["success"] is False

    def test_invalid_eta_is_a_usage_error(self):
        proc = run_cli("run", "--relation", "eq", "--n", "2", "--eta", "0.5")
        assert proc.returncode == 1
        assert "(1/2, 1]" in proc.stderr

    def test_invalid_n(self):
        proc = run_cli("run", "--relation", "all", "--n", "0")
        assert proc.returncode == 1

    def test_unknown_relation(self):
        proc = run_cli("run", "--relation", "bogus", "--n", "2")
        assert proc.returncode == 1
        assert "builtin" in proc.stderr

    def test_pool_cap_error(self):
        proc = run_cli("run", "--relation", "all", "--n", "2",
                       "--m", "1", "--grid", "2", "--ltuples", "1")
        assert proc.returncode == 1
        assert "cap" in proc.stderr

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "record.json"
        proc = run_cli("run", "--relation", "balanced", "--n", "2",
                       "--seed", "3", "--out", str(out), *SMALL)
        assert proc.returncode in (0, 2)
        assert json.loads(out.read_text()) == record_of(proc)

    def test_seeded_records_are_identical_except_wall_time(self):
        args = ("run", "--relation", "balanced", "--n", "3", "--seed", "11", *SMALL)
        a = record_of(run_cli(*args))
        b = record_of(run_cli(*args))
        a.pop("wall_time_ms"), b.pop("wall_time_ms")
        assert a == b

    def test_config_round_trip_reproduces_choice(self):
        proc = run_cli("run", "--relation", "parity-even", "--n", "2",
                       "--seed", "9", *SMALL)
        rec = record_of(proc)
        cfg = rec["config"]
        args = ["run", "--relation", cfg["relation"], "--n", str(cfg["n"]),
                "--eta", str(cfg["eta"]), "--algorithm", cfg["algorithm"],
                "--m", str(cfg["m"]), "--grid", str(cfg["grid"]),
                "--ltuples", str(cfg["ltuples"]), "--ldesigns", str(cfg["ldesigns"]),
                "--cap", str(cfg["cap"]), "--k", str(cfg["k"]),
                "--seed", str(cfg["seed"]), "--reps", str(cfg["reps"])]
        for choice in cfg["sacc"]:
            args += ["--sacc", ",".join(str(i) for i in choice)]
        rec2 = record_of(run_cli(*args))
        assert rec2["chosen_encoding"] == rec["chosen_encoding"]

    def test_trace_writes_to_stderr(self):
        proc = run_cli("run", "--relation", "all", "--n", "2",
                       "--trace", "--seed", "0", *SMALL)
        assert "trace:" in proc.stderr

    def test_zero_reps_is_a_usage_error(self):
        proc = run_cli("run", "--relation", "eq", "--n", "2", *SMALL, "--reps", "0")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "reps" in proc.stderr

    def test_relation_directory_is_an_input_error(self, tmp_path):
        proc = run_cli("run", "--relation", str(tmp_path), "--n", "2", *SMALL)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_out_into_missing_directory_prints_no_record(self, tmp_path):
        proc = run_cli("run", "--relation", "eq", "--n", "2", "--algorithm", "brute",
                       "--out", str(tmp_path / "missing" / "record.json"), *SMALL)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_sacc_flag(self):
        proc = run_cli("run", "--relation", "all", "--n", "2",
                       "--sacc", "0", "--sacc", "0,1", *SMALL)
        rec = record_of(proc)
        assert rec["config"]["sacc"] == [[0], [0, 1]]
        assert rec["pool_size"] == 2


class TestExecute:
    def test_validation_happens_at_construction(self):
        with pytest.raises(ValueError, match=r"\(1/2, 1\]"):
            RunConfig(relation="all", n=2, eta=0.5)
        with pytest.raises(ValueError, match="at least 1"):
            RunConfig(relation="all", n=0)
        with pytest.raises(ValueError, match="algorithm"):
            RunConfig(relation="all", n=2, algorithm="third")

    def test_execute_matches_cli_record(self):
        cfg = RunConfig(relation="balanced", n=3, seed=11, **SMALL_KW)
        record = execute(cfg)
        proc = run_cli("run", "--relation", "balanced", "--n", "3",
                       "--seed", "11", *SMALL)
        cli_record = record_of(proc)
        cli_record.pop("wall_time_ms")
        payload = json.loads(record.to_json())
        payload.pop("wall_time_ms")
        assert payload == cli_record

    def test_record_invariant(self):
        cfg = RunConfig(relation="eq", n=2, algorithm="brute", **SMALL_KW)
        record = execute(cfg)
        assert record.true_agreement <= record.brute_force_count


class TestVerifyCommand:
    def test_unknown_suite_lists_names(self):
        proc = run_cli("verify", "bogus")
        assert proc.returncode == 1
        for name in ("lemma1", "lemma2", "estimation", "counting", "maxfind", "all"):
            assert name in proc.stderr

    def test_single_suite_passes(self):
        proc = run_cli("verify", "lemma2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS lemma2")
