"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not configurable.
"""
import json
import math
import time

import numpy as np
import pytest
from conftest import QUARTER_TURN, gate_design, make_encoding, run_cli
from dense_reference import build_joint_state, finalize_preparation

from aeqslearn import (AgreementParams, MachinePool, PoolConfig, RelationTable,
                       agreement_count, brute_force_optimum, enumerate_pool,
                       first_algorithm, parse_relation, prepared_weights,
                       sample_encoding, second_algorithm, serialize,
                       verify_condition_star)
from aeqslearn.suites import (counting_suite, estimation_suite, lemma1_suite,
                              lemma2_suite, maxfind_suite)

ETA = AgreementParams(0.9)


def announce(num, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def learning_pool():
    cfg = PoolConfig(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=((0,), (1,)))
    return enumerate_pool(cfg)


def test_criterion_1_ground_state_form():
    start = time.perf_counter()
    result = lemma1_suite(trials=200)
    elapsed = time.perf_counter() - start
    announce(1, "ground-state form", result.passed and elapsed <= 10.0,
             f"{'; '.join(result.lines)}; {elapsed:.1f}s (limit 10s)")


def test_criterion_2_closeness_criterion():
    result = lemma2_suite(trials=500, eta_draws=10)
    announce(2, "closeness criterion", result.passed, "; ".join(result.lines))


def test_criterion_3_good_amplitude_law():
    rng = np.random.default_rng(303)
    worst = 0.0
    reduced = 0.0
    perfect_defect = 0.0
    perfect_seen = 0
    pools = []
    for _ in range(6):
        encs = {}
        for _ in range(int(rng.integers(4, 17))):
            enc = sample_encoding(rng, m=int(rng.integers(1, 3)), d=4,
                                  l_tuples=1, l_designs=1)
            encs[serialize(enc)] = enc
        pools.append(MachinePool(tuple(encs.values())))
    pools.append(learning_pool())  # holds machines with agreement fraction 1
    for pool in pools:
        assert pool.s <= 512
        for n in (1, 2, 3):
            rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
            _, amps = finalize_preparation(build_joint_state(pool, rel, ETA))
            good, _ = prepared_weights(pool.agreement_table(rel, ETA).sum(axis=1), n)
            reduced = max(reduced, float(np.max(np.abs(good - np.abs(amps) ** 2))))
            for m_idx, mach in enumerate(pool.machines):
                f = agreement_count(mach, rel, ETA) / (1 << n)
                worst = max(worst, abs(amps[m_idx] - (-f / math.sqrt(pool.s))))
                if f == 1.0:
                    perfect_seen += 1
                    perfect_defect = max(perfect_defect,
                                         abs(abs(amps[m_idx]) ** 2 - 1 / pool.s))
    passed = (worst <= 1e-9 and reduced <= 1e-9 and perfect_defect <= 1e-9
              and perfect_seen > 0)
    announce(3, "good-amplitude law", passed,
             f"max |amp + f/sqrt(s)| = {worst:.2e}; max |f^2/s - |amp|^2| over "
             f"the first algorithm's good weights = {reduced:.2e}; {perfect_seen} "
             f"perfect machines contribute 1/s within {perfect_defect:.2e}")


def test_criterion_4_amplitude_estimation():
    result = estimation_suite(off_grid_trials=50, k=1024)
    announce(4, "amplitude estimation", result.passed, "; ".join(result.lines))


def test_criterion_5_quantum_counting():
    start = time.perf_counter()
    result = counting_suite(runs=200, n=6, k=4096)
    elapsed = time.perf_counter() - start
    announce(5, "quantum counting", result.passed and elapsed <= 60.0,
             f"{'; '.join(result.lines)}; {elapsed:.1f}s (limit 60s)")


def test_criterion_6_maximum_finding():
    result = maxfind_suite(runs=200, small=64, large=256)
    announce(6, "maximum finding", result.passed, "; ".join(result.lines))


def test_criterion_7_end_to_end_learning():
    start = time.perf_counter()
    pool = learning_pool()
    configs = [("balanced", 3), ("eq", 2), ("parity-even", 3), ("balanced", 2)]
    seeds = range(50)
    details = []
    passed = True
    for name, n in configs:
        rel = parse_relation(name, n)
        star = verify_condition_star(pool, rel, ETA)
        _, brute = brute_force_optimum(pool, rel, ETA)
        second_wins = sum(
            second_algorithm(pool, rel, ETA, k=1024, seed=s, reps=5).true_agreement
            == brute
            for s in seeds)
        passed &= second_wins >= 45
        line = f"{name}@{n}: second {second_wins}/50"
        if star:
            first_wins = sum(
                first_algorithm(pool, rel, ETA, k=1024, seed=s, reps=5).success
                for s in seeds)
            passed &= first_wins >= 45
            line += f", first {first_wins}/50 (condition met)"
        details.append(line)
    elapsed = time.perf_counter() - start
    passed &= elapsed <= 300.0
    announce(7, "end-to-end learning", passed,
             f"pool s={pool.s}; " + "; ".join(details) + f"; {elapsed:.0f}s (limit 300s)")


def handcrafted_pool():
    encs = [make_encoding(s_acc=(0,), O=gate_design(QUARTER_TURN))]
    for d in range(1, 9):
        from aeqslearn import GateParams
        ident = gate_design(GateParams(0, 0, 0, 0, d))
        encs.append(make_encoding(s_acc=(0,), L=ident))
        encs.append(make_encoding(s_acc=(1,), L=ident))
    return MachinePool(tuple(encs))


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(808)
    pools = [learning_pool(), handcrafted_pool()]
    failures = 0
    trials = 0
    for pool in pools:
        for n in (2, 3):
            relations = [parse_relation("balanced", n),
                         parse_relation("parity-even", n),
                         RelationTable(n, rng.integers(2, size=1 << n).astype(bool))]
            for rel in relations:
                expected_enc, expected_count = brute_force_optimum(pool, rel, ETA)
                for seed in (0, 1, 2):
                    trials += 1
                    report = second_algorithm(pool, rel, ETA, k=256, seed=seed,
                                              reps=3, exact=True)
                    if (report.chosen != expected_enc
                            or report.true_agreement != expected_count
                            or not report.success):
                        failures += 1
    announce(8, "oracle equivalence", failures == 0,
             f"exact-counting switch matched the brute-force oracle in "
             f"{trials - failures}/{trials} runs")


def test_criterion_9_run_record_determinism():
    base = ["--m", "1", "--grid", "1", "--ltuples", "1", "--ldesigns", "1",
            "--k", "256", "--reps", "3", "--seed", "21"]
    variants = [
        ["run", "--relation", "balanced", "--n", "3", "--algorithm", "second", *base],
        ["run", "--relation", "eq", "--n", "2", "--algorithm", "first", *base],
        ["run", "--relation", "parity-even", "--n", "2", "--algorithm", "brute", *base],
    ]
    mismatches = 0
    for args in variants:
        records = []
        for _ in range(2):
            proc = run_cli(*args)
            assert proc.returncode in (0, 2), proc.stderr
            rec = json.loads(proc.stdout)
            rec.pop("wall_time_ms")
            records.append(rec)
        mismatches += records[0] != records[1]
    announce(9, "run-record determinism", mismatches == 0,
             f"{len(variants)} seeded configurations re-run byte-identically "
             f"(wall time excluded)")
