import json

import pytest
from conftest import run_cli
from golden import POOL_4096

from aeqslearn import RunConfig, execute, gates, qqaf
from aeqslearn import cli as cli_module
from aeqslearn import learner

SMALL = ["--m", "1", "--grid", "1", "--ltuples", "1", "--ldesigns", "1",
         "--k", "256", "--reps", "3"]
SMALL_KW = dict(m=1, grid=1, ltuples=1, ldesigns=1, k=256, reps=3)


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

    def test_qubit_count_error_allocates_nothing(self, capsys):
        # in-process: m = 30 would need 4^30 entries per symbol unitary
        assert cli_module.main(["run", "--relation", "balanced", "--n", "2", "--m", "30",
                                "--ldesigns", "0", "--sacc", "0", "--algorithm", "brute"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: m=30 qubits")

    def test_pool_size_is_bounded_before_allocation_whatever_the_cap(self, monkeypatch,
                                                                     capsys):
        # in-process: grid 2 with one gate per design is a pool of 2 * 128^4 encodings,
        # over MAX_LIVE_AMPLITUDES though under a 2^40 cap; a design list built at all
        # fails the test at once
        def refuse(cfg):
            raise AssertionError("a design list was built")

        monkeypatch.setattr(learner, "_all_design_tuples", refuse)
        assert cli_module.main(["run", "--relation", "balanced", "--n", "2", "--grid", "2",
                                "--ltuples", "1", "--cap", str(2**40),
                                "--algorithm", "brute"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: pool would hold 536870912 encodings")

    @pytest.mark.parametrize("argv, message", [
        (["--relation", "balanced", "--n", "40"], "error: n=40 gives 2^n inputs"),
        (["--relation", "FILE", "--n", "2"], "error: n=40 gives 2^n inputs"),
        (["--relation", "balanced", "--n", "2", "--k", str(2**40)],
         "error: Fourier resolution k=1099511627776"),
    ], ids=["builtin-n40", "file-n40", "k-2^40"])
    def test_length_and_resolution_errors_allocate_nothing(self, argv, message,
                                                           tmp_path, monkeypatch, capsys):
        # in-process: n = 40 would need a 2^40-entry relation, k = 2^40 a 2^40-entry
        # distribution; a relation table built at all fails the test at once
        def refuse(cls, *args):
            raise AssertionError("a relation table was built")

        for name in ("from_predicate", "from_strings"):
            monkeypatch.setattr(qqaf.RelationTable, name, classmethod(refuse))
        path = tmp_path / "rel.txt"
        path.write_text("n=40\n")
        argv = [str(path) if a == "FILE" else a for a in argv]
        assert cli_module.main(["run", *argv, "--m", "1", "--ldesigns", "0",
                                "--sacc", "0", "--algorithm", "second"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message)

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

    def test_negative_seed_is_a_usage_error(self):
        proc = run_cli("run", "--relation", "eq", "--n", "2", "--algorithm", "brute",
                       *SMALL, "--seed", "-1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "seed" in proc.stderr
        assert proc.stdout == ""

    def test_resolution_not_a_power_of_two_is_a_usage_error(self):
        proc = run_cli("run", "--relation", "eq", "--n", "2", "--algorithm", "brute",
                       *SMALL, "--k", "3")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "resolution k " in proc.stderr
        assert proc.stdout == ""

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

    @pytest.mark.parametrize("sacc", [["--sacc", "9"], ["--sacc=-1"], ["--sacc", "0,x"]])
    def test_bad_accepting_set_is_an_input_error(self, sacc):
        proc = run_cli("run", "--relation", "eq", "--n", "2", "--m", "2", *sacc)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

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
        # the second run leaves every option but the required two at its default
        for cfg, argv in ((RunConfig(relation="balanced", n=3, seed=11, **SMALL_KW),
                           ("--relation", "balanced", "--n", "3", "--seed", "11", *SMALL)),
                          (RunConfig(relation="all", n=2), ("--relation", "all", "--n", "2"))):
            payload = json.loads(execute(cfg).to_json())
            cli_record = record_of(run_cli("run", *argv))
            payload.pop("wall_time_ms"), cli_record.pop("wall_time_ms")
            assert payload == cli_record

    def test_record_layout(self):
        text = execute(RunConfig(relation="eq", n=2, algorithm="brute", **SMALL_KW)).to_json()
        payload = json.loads(text)
        assert list(payload) == [
            "artifact_version", "config", "pool_size", "chosen_encoding",
            "estimated_agreement", "true_agreement", "brute_force_count",
            "oracle_queries", "repetitions", "success", "wall_time_ms"]
        assert list(payload["config"]) == [
            "relation", "n", "eta", "algorithm", "m", "grid", "ltuples",
            "ldesigns", "sacc", "cap", "k", "seed", "reps"]
        assert text == json.dumps(payload, indent=2)

    def test_pool4096_run_builds_no_machine_and_one_text(self, monkeypatch):
        built, texts = [], []
        init, text = qqaf.Machine.__init__, gates.canonical_text

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_text(enc):
            texts.append(enc)
            return text(enc)

        monkeypatch.setattr(qqaf.Machine, "__init__", counting_init)
        monkeypatch.setattr(gates, "canonical_text", counting_text)
        monkeypatch.setattr(cli_module, "canonical_text", counting_text)
        for algorithm in cli_module.ALGORITHMS:
            texts.clear()
            record = execute(RunConfig(relation="parity-even", n=3, algorithm=algorithm,
                                       **POOL_4096))
            assert record.pool_size == 4096
            assert len(texts) <= 1
        assert not built

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
