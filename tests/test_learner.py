import math

import numpy as np
import pytest
from conftest import QUARTER_TURN, gate_design, make_encoding

from dense_reference import (JointLearningState, agreement_count,
                             agreement_table, amplified_machine_marginal,
                             build_joint_state, finalize_preparation)
from golden import SACC_ALL16

from aeqslearn import (SYMBOLS, AgreementParams, DesignTuple, GateParams, LearnReport,
                       MachineEncoding, MachinePool, PoolConfig, QueryCounter,
                       RelationTable, StateVector, SymbolDesign, UnitaryOperator,
                       amplified_marginal, brute_force_optimum, counting_cdf,
                       enumerate_pool, estimation_outcomes, find_maximum,
                       first_algorithm, good_angle, parse_relation, pool_size,
                       prepared_weights, sample_encoding, second_algorithm,
                       serialize, verify_condition_star)
from aeqslearn import gates, learner, qqaf, qsub
from aeqslearn.errors import PoolTooLarge
from aeqslearn.gates import design_lines
from aeqslearn.learner import COUNTS_MEMO_SIZE, group_by_count, seeded_streams
from aeqslearn.qqaf import MAX_LIVE_AMPLITUDES

ETA = AgreementParams(0.9)


def identity_pool(s_acc_choices=((0,), (1,))):
    """CNOT-only machines over two qubits; all act trivially on the start state."""
    cfg = PoolConfig(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=s_acc_choices)
    return enumerate_pool(cfg)


def parity_pool(fillers=10):
    """One machine computing even 1-parity exactly, plus trivial fillers.

    The parity machine turns the start state by a quarter per 1 read, so it
    agrees with parity-even everywhere; the fillers agree on half the inputs.
    """
    encs = [make_encoding(s_acc=(0,), O=gate_design(QUARTER_TURN))]
    for d in range(1, fillers + 1):
        ident = gate_design(GateParams(0, 0, 0, 0, d))
        encs.append(make_encoding(s_acc=(0,), L=ident))
        encs.append(make_encoding(s_acc=(1,), L=ident))
    return MachinePool(tuple(encs))


class TestEnumeratePool:
    def test_minimal_pool_is_single_identity_machine(self):
        cfg = PoolConfig(m=1, d=1, l_tuples=0, l_designs=1, s_acc_choices=((0,),))
        pool = enumerate_pool(cfg)
        assert pool_size(cfg) == 1 and pool.s == 1
        mach = pool.machines[0]
        assert all(np.allclose(mach.unitary(s), np.eye(2)) for s in "L01R")

    def test_doubling_grid_scales_design_count(self):
        base = PoolConfig(m=1, d=2, l_tuples=1, l_designs=1, hard_cap=10**9)
        doubled = PoolConfig(m=1, d=4, l_tuples=1, l_designs=1, hard_cap=10**9)
        per = lambda cfg: round(pool_size(cfg) ** 0.25)
        assert per(doubled) == per(base) * 2**4

    def test_formula_matches_enumeration_length(self):
        for cfg in (PoolConfig(m=1, d=1, l_tuples=1, l_designs=1,
                               s_acc_choices=((0,), (1,))),
                    PoolConfig(m=2, d=1, l_tuples=0, l_designs=1),
                    PoolConfig(m=1, d=2, l_tuples=1, l_designs=0,
                               s_acc_choices=((), (0,), (0, 1)))):
            assert enumerate_pool(cfg).s == pool_size(cfg)

    def test_same_config_gives_byte_identical_pools(self):
        cfg = PoolConfig(m=2, d=1, l_tuples=0, l_designs=1)
        a = [serialize(e) for e in enumerate_pool(cfg).encodings]
        b = [serialize(e) for e in enumerate_pool(cfg).encodings]
        assert a == b
        assert a == sorted(a)

    def test_repeated_accepting_sets_enumerate_the_deduplicated_pool(self):
        def pool_bytes(choices):
            cfg = PoolConfig(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=choices)
            return [serialize(e) for e in enumerate_pool(cfg).encodings]

        assert (pool_bytes(((0, 1), (1, 0), (3,), (0, 0, 1), (3, 3)))
                == pool_bytes(((0, 1), (3,))))

    def test_too_large_pool_is_rejected(self):
        cfg = PoolConfig(m=1, d=2, l_tuples=1, l_designs=1)
        with pytest.raises(PoolTooLarge, match="65536"):
            enumerate_pool(cfg)

    def test_huge_pool_is_refused_without_building_its_size(self):
        # the closed form here has about 4 * 10^9 bits
        cfg = PoolConfig(m=2, d=1, l_tuples=10**9)
        with pytest.raises(PoolTooLarge, match=f"^pool would hold more than "
                                              f"{MAX_LIVE_AMPLITUDES} encodings, cap is 4096$"):
            enumerate_pool(cfg)

    def test_qubit_count_is_bounded_before_allocation(self):
        # a symbol unitary holds 4^m entries; at m = 9 that is the walk's bound
        PoolConfig(m=9, d=1, l_tuples=0, l_designs=0)
        for m in (10, 30):
            with pytest.raises(ValueError, match=f"m={m} qubits"):
                PoolConfig(m=m, d=1, l_tuples=0, l_designs=0)

    def test_pool_bounds_qubit_count_before_building_unitaries(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("symbol_unitary called")

        monkeypatch.setattr(qqaf, "symbol_unitary", refuse)
        monkeypatch.setattr(gates, "symbol_unitary", refuse)
        for m in (10, 30):
            with pytest.raises(ValueError) as from_config:
                PoolConfig(m=m, d=1, l_tuples=0, l_designs=0)
            with pytest.raises(ValueError) as from_pool:
                MachinePool((make_encoding(m=1), make_encoding(m=m)))
            assert str(from_pool.value) == str(from_config.value)

    def test_counts_check_each_symbol_unitary_once(self, monkeypatch):
        checked = []
        check = UnitaryOperator.__init__

        def counted(self, entries):
            checked.append(None)
            check(self, entries)

        monkeypatch.setattr(UnitaryOperator, "__init__", counted)
        rng = np.random.default_rng(11)
        pool = MachinePool(dict.fromkeys(sample_encoding(rng, int(rng.integers(1, 3)), 8, 2, 2)
                                         for _ in range(30)))
        pool.agreement_counts(RelationTable.from_indices(3, [1, 2, 6]), ETA)
        distinct = {(sd, m) for m, sds in pool.design_sets for sd in sds}
        assert len(distinct) > 30 and len(checked) == len(distinct)

    def test_pool_rejects_duplicates(self):
        enc = make_encoding()
        with pytest.raises(ValueError):
            MachinePool((enc, enc))

    @pytest.mark.parametrize("cfg", [
        PoolConfig(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=SACC_ALL16),
        PoolConfig(m=2, d=1, l_tuples=1, l_designs=1),
        PoolConfig(m=4, d=1, l_tuples=0, l_designs=0,
                   s_acc_choices=((2,), (10,), (1, 10), (1, 2), ())),
    ])
    def test_enumeration_order_is_serialized_order(self, cfg):
        # at m=4 accepting indices have two digits: (1, 10) sorts before (1, 2)
        pool = enumerate_pool(cfg)
        texts = [serialize(e) for e in pool.encodings]
        assert texts == sorted(texts) and len(set(texts)) == pool_size(cfg)
        assert [pool.encoding(i) for i in range(pool.s)] == list(pool.encodings)

    def test_design_key_is_text_order_at_two_digit_grid(self):
        # at D=11 grid indices have one or two digits, so text order is not
        # numeric order; the product of designs sorted by their own lines must
        # still be the order of the serialized encodings
        rng = np.random.default_rng(11)

        def design():
            return SymbolDesign(tuple(
                DesignTuple(tuple((int(rng.integers(1, 3)),
                                   GateParams(*rng.integers(11, size=4).tolist(), 11))
                                  for _ in range(int(rng.integers(3)))),
                            tuple(rng.integers(1, 3, size=2).tolist()))
                for _ in range(2)))

        designs = sorted({design() for _ in range(14)}, key=lambda sd: design_lines("", sd))
        assert len(designs) == 14
        middle = design()
        encodings = [MachineEncoding(2, (1,), (left, middle, middle, right))
                     for left in designs for right in designs]
        assert [serialize(e) for e in encodings] == sorted(serialize(e) for e in encodings)

    def test_pool_from_encodings_equals_enumerated_pool(self):
        pool = enumerate_pool(PoolConfig(m=2, d=1, l_tuples=0, l_designs=1,
                                         s_acc_choices=SACC_ALL16[::4]))
        rebuilt = MachinePool(reversed(pool.encodings))
        assert rebuilt.encodings == pool.encodings
        rel = parse_relation("parity-even", 3)
        assert np.array_equal(rebuilt.agreement_counts(rel, ETA),
                              pool.agreement_counts(rel, ETA))

    @pytest.mark.parametrize("s_acc", [(9,), (-1,), (0, 4)])
    def test_accepting_sets_are_checked_before_enumeration(self, s_acc):
        cfg = PoolConfig(m=2, d=1, l_tuples=0, l_designs=1, s_acc_choices=((0,), s_acc))
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            enumerate_pool(cfg)

    def test_counts_are_memoized_row_sums(self):
        pool = parity_pool()
        rel = parse_relation("parity-even", 3)
        counts = pool.agreement_counts(rel, ETA)
        assert counts is pool.agreement_counts(rel, ETA)
        assert not counts.flags.writeable
        assert np.array_equal(counts, agreement_table(pool, rel, ETA).sum(axis=1))

    def test_counts_memo_drops_the_least_recently_used(self):
        pool = parity_pool(fillers=1)
        rels = [RelationTable(4, [(i >> b) & 1 for i in range(16)]) for b in range(4)]
        rels += [parse_relation(name, 4) for name in ("all", "none", "eq", "balanced")]
        keys = [(rel, AgreementParams(eta)) for eta in (0.9, 1.0) for rel in rels]
        assert len(keys) == COUNTS_MEMO_SIZE
        first = [pool.agreement_counts(rel, params) for rel, params in keys]
        assert first[0] is not first[len(rels)]  # keys differ by eta
        assert pool.agreement_counts(*keys[0]) is first[0]  # a hit keeps its entry
        extra = RelationTable.from_strings(4, ["0110"])
        pool.agreement_counts(extra, ETA)  # the 17th key evicts keys[1], now the oldest
        assert pool.agreement_counts(*keys[0]) is first[0]
        for i in range(2, COUNTS_MEMO_SIZE):
            assert pool.agreement_counts(*keys[i]) is first[i]
        again = pool.agreement_counts(*keys[1])
        assert again is not first[1] and np.array_equal(again, first[1])


def counted_unitaries(monkeypatch) -> list:
    """Record the (design, qubit count) of every symbol unitary the pool builds."""
    calls = []
    build = qqaf.symbol_unitary

    def counted(sd, m):
        calls.append((sd, m))
        return build(sd, m)

    monkeypatch.setattr(qqaf, "symbol_unitary", counted)
    return calls


def mixed_pool() -> MachinePool:
    """Random machines at m = 1, 2, 3 on the two-step grid, where many design
    sets of one qubit count run alike, and the empty design set at each m."""
    rng = np.random.default_rng(3)
    encs = [sample_encoding(rng, int(rng.integers(1, 4)), 2, 1, 1) for _ in range(300)]
    return MachinePool(dict.fromkeys(encs + [make_encoding(m=m) for m in (1, 2, 3)]))


class TestRuns:
    def test_learning_pool_builds_four_unitaries_for_its_81_runs(self, monkeypatch):
        calls = counted_unitaries(monkeypatch)
        pool = identity_pool()
        assert len(pool.design_sets) == 256 and pool.machines
        for name, n in (("balanced", 3), ("eq", 2), ("parity-even", 3)):
            pool.agreement_counts(parse_relation(name, n), ETA)
        runs, cells = pool.runs
        assert len(runs) == 81 and len(calls) == 4 == len(set(calls))
        assert cells.shape == (pool.s, 2) and not cells.flags.writeable
        assert np.array_equal(cells[:, 0], pool.rows[:, 0])

    def test_a_new_relations_counts_build_no_unitary(self, monkeypatch):
        pool = identity_pool()
        pool.agreement_counts(parse_relation("balanced", 3), ETA)
        calls = counted_unitaries(monkeypatch)
        pool.agreement_counts(parse_relation("majority", 4), ETA)
        assert calls == []

    @pytest.mark.parametrize("make_pool", [identity_pool, mixed_pool])
    def test_machines_share_the_arrays_of_their_run(self, make_pool):
        pool = make_pool()
        runs, cells = pool.runs
        for i, (mach, r) in enumerate(zip(pool.machines, cells[:, 1].tolist())):
            own = qqaf.Machine(pool.encoding(i))
            for symbol, u in zip(SYMBOLS, runs[r]):
                assert mach.unitary(symbol) is u
                assert mach.unitary(symbol).tobytes() == own.unitary(symbol).tobytes()
        shared = {id(mach.unitary(symbol)) for mach in pool.machines for symbol in SYMBOLS}
        assert len(shared) < 4 * pool.s

    def test_runs_never_merge_across_qubit_counts(self):
        pool = mixed_pool()
        runs, run_of = qqaf.distinct_runs(pool.design_sets)
        # design sets run alike exactly when their qubit count and their four
        # unitaries' bytes are equal, and runs are numbered by first appearance
        keys = [(m, tuple(gates.symbol_unitary(sd, m).entries.tobytes() for sd in sds))
                for m, sds in pool.design_sets]
        numbered = {}
        assert run_of.tolist() == [numbered.setdefault(key, len(numbered)) for key in keys]
        assert len(runs) == len(numbered) < len(pool.design_sets)
        assert ([runs[r][0].shape for r in run_of.tolist()]
                == [(1 << m, 1 << m) for m, _ in pool.design_sets])
        assert {run[0].shape[0] for run in runs} == {2, 4, 8}


def counted_groupings(monkeypatch) -> list:
    """Record each grouping of counts that MachinePool builds."""
    built = []

    def grouping(counts):
        built.append(counts)
        return group_by_count(counts)

    monkeypatch.setattr(learner, "group_by_count", grouping)
    return built


def group_members(groups) -> list:
    """(count, machines) per group of a CountGroups, ascending by count."""
    return [(count, groups.order[a:b])
            for count, a, b in zip(groups.values, groups.bounds, groups.bounds[1:])]


class TestCountGroups:
    def test_groups_partition_the_pool_by_count(self):
        pool = random_pool(np.random.default_rng(8), size=40)
        rel = RelationTable(4, np.random.default_rng(9).integers(2, size=16).astype(bool))
        counts = pool.agreement_counts(rel, ETA)
        groups = pool.count_groups(rel, ETA)
        assert list(groups.values) == sorted(set(counts.tolist()))
        assert len(groups.values) > 3
        assert sorted(groups.order.tolist()) == list(range(pool.s))
        assert np.array_equal(groups.order[groups.inverse], np.arange(pool.s))
        assert not groups.inverse.flags.writeable
        for count, m in group_members(groups):
            assert np.all(counts[m] == count)
            assert np.all(np.diff(m) > 0)  # pool order within a group
            assert not m.flags.writeable

    def test_repeated_second_calls_group_once(self, monkeypatch):
        built = counted_groupings(monkeypatch)
        pool, rel = identity_pool(), parse_relation("balanced", 3)
        for seed in range(5):
            second_algorithm(pool, rel, ETA, k=64, seed=seed, reps=2)
        assert len(built) == 1

    def test_groups_leave_the_memo_with_their_counts(self, monkeypatch):
        built = counted_groupings(monkeypatch)
        pool = parity_pool(fillers=1)
        rel = parse_relation("parity-even", 4)
        groups = pool.count_groups(rel, ETA)
        assert pool.count_groups(rel, ETA) is groups and len(built) == 1
        for b in range(COUNTS_MEMO_SIZE):  # as many other keys as the memo holds
            pool.agreement_counts(RelationTable.from_indices(4, [b]), ETA)
        again = pool.count_groups(rel, ETA)
        assert len(built) == 2 and again is not groups
        assert ([(c, m.tolist()) for c, m in group_members(again)]
                == [(c, m.tolist()) for c, m in group_members(groups)])


class TestJointState:
    def test_single_all_agreeing_machine(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_predicate(2, lambda x: True)
        joint = build_joint_state(pool, rel, ETA)
        amps = joint.state.amplitudes.reshape(1, 4, 2)
        assert np.allclose(amps[0, :, 1], -0.5)
        assert np.allclose(amps[0, :, 0], 0.0)

    def test_single_never_agreeing_machine(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_predicate(2, lambda x: False)
        joint = build_joint_state(pool, rel, ETA)
        amps = joint.state.amplitudes.reshape(1, 4, 2)
        assert np.allclose(amps[0, :, 0], 0.5)
        assert np.allclose(amps[0, :, 1], 0.0)

    def test_unit_norm_and_query_charge(self):
        pool = identity_pool()
        rel = RelationTable.from_predicate(2, lambda x: x == "01")
        counter = QueryCounter()
        joint = build_joint_state(pool, rel, ETA, counter)
        assert abs(np.linalg.norm(joint.state.amplitudes) - 1.0) <= 1e-9
        assert counter.oracle_calls == pool.s * 4

    def test_rejects_superposed_agreement_bit(self):
        bad = StateVector(np.full(4, 0.5))
        with pytest.raises(ValueError):
            JointLearningState(bad, 0)


def random_pool(rng, size=12):
    encs = {serialize(e): e for e in
            (sample_encoding(rng, m=int(rng.integers(1, 3)), d=4,
                             l_tuples=1, l_designs=1) for _ in range(size))}
    return MachinePool(tuple(encs.values()))


class TestFinalize:
    def test_good_amplitude_law(self):
        rng = np.random.default_rng(60)
        for n in (1, 2, 3):
            pool = random_pool(rng)
            rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
            prepared, amps = finalize_preparation(build_joint_state(pool, rel, ETA))
            fractions = np.array([
                agreement_count(mach, rel, ETA) / (1 << n) for mach in pool.machines])
            assert np.max(np.abs(amps + fractions / math.sqrt(pool.s))) <= 1e-9
            good, bad = prepared_weights(pool.agreement_counts(rel, ETA), n)
            per_machine = prepared.probabilities().reshape(pool.s, -1).sum(axis=1)
            assert np.max(np.abs(good - np.abs(amps) ** 2)) <= 1e-12
            assert np.max(np.abs(good + bad - per_machine)) <= 1e-12

    def test_perfect_machine_contributes_one_over_s(self):
        pool = identity_pool()
        rel = RelationTable.from_predicate(2, lambda x: True)
        _, amps = finalize_preparation(build_joint_state(pool, rel, ETA))
        perfect = np.isclose(np.abs(amps) ** 2, 1 / pool.s)
        silent = np.isclose(np.abs(amps) ** 2, 0.0)
        assert np.all(perfect | silent)
        assert perfect.sum() == pool.s // 2  # the accept-all half of the pool

    def test_half_agreement_single_machine(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_strings(1, ["0"])  # agrees on 0, disagrees on 1
        _, amps = finalize_preparation(build_joint_state(pool, rel, ETA))
        assert abs(amps[0]) ** 2 == pytest.approx(0.25, abs=1e-12)


class TestFirstAlgorithm:
    def test_closed_form_marginal_matches_dense_state(self):
        rng = np.random.default_rng(62)
        checked = 0
        for _ in range(8):
            pool = random_pool(rng, size=int(rng.integers(1, 13)))
            for n in (1, 2, 3):
                rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
                good, bad = prepared_weights(pool.agreement_counts(rel, ETA), n)
                theta = good_angle(float(good.sum()))
                if theta < 1e-12:
                    continue  # nothing to amplify; first_algorithm samples uniformly
                for theta_tilde in (0.03, 0.2, 0.5, 1.1, math.pi / 2):
                    iterations = math.floor(math.pi / (4.0 * theta_tilde))
                    dense = amplified_machine_marginal(pool, rel, ETA, theta_tilde)
                    closed = amplified_marginal(good, bad, theta, iterations)
                    assert np.max(np.abs(closed - dense)) <= 1e-12
                    checked += 1
        assert checked > 50

    def test_query_ledger(self):
        # s 2^n agreement bits once, then per round k - 1 for estimation,
        # floor(pi / (4 theta~)) for amplification and 2^n to verify
        for pool, name, n, k, reps in ((identity_pool(), "eq", 2, 64, 3),
                                       (parity_pool(), "parity-even", 3, 256, 5),
                                       (identity_pool(), "none", 2, 128, 4),
                                       (identity_pool(), "all", 1, 1024, 2)):
            rel = parse_relation(name, n)
            for seed in range(5):
                zs = []
                report = first_algorithm(
                    pool, rel, ETA, k=k, seed=seed, reps=reps,
                    trace=lambda msg: zs.extend(
                        int(w[2:]) for w in msg.split() if w.startswith("z=")))
                assert len(zs) == report.repetitions
                expected = pool.s << n
                for z in zs:
                    folded = min(math.pi * z / k, math.pi - math.pi * z / k)
                    amplify = math.floor(math.pi / (4.0 * folded)) if folded > 1e-12 else 0
                    expected += (k - 1) + amplify + (1 << n)
                assert report.oracle_queries == expected

    def test_finds_perfect_machine_for_full_relation(self):
        pool = identity_pool()
        rel = RelationTable.from_predicate(2, lambda x: True)
        assert verify_condition_star(pool, rel, ETA)
        wins = 0
        for seed in range(40):
            report = first_algorithm(pool, rel, ETA, k=256, seed=seed, reps=5)
            wins += report.success
            if report.success:
                assert agreement_count(pool.machines[pool.encodings.index(report.chosen)],
                                       rel, ETA) == 4
        assert wins >= 30

    def test_single_machine_pool(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_predicate(1, lambda x: False)
        report = first_algorithm(pool, rel, ETA, k=64, seed=1, reps=3)
        assert report.chosen == pool.encodings[0]
        assert not report.success  # accepts everything, relation empty

    def test_success_requires_full_agreement(self):
        pool = identity_pool()
        rel = RelationTable.from_strings(2, ["01", "10"])
        assert not verify_condition_star(pool, rel, ETA)
        for seed in range(10):
            report = first_algorithm(pool, rel, ETA, k=256, seed=seed, reps=4)
            assert not report.success
            assert report.true_agreement < 4

    def test_deterministic_given_seed(self):
        pool = identity_pool()
        rel = RelationTable.from_predicate(2, lambda x: True)
        a = first_algorithm(pool, rel, ETA, k=128, seed=7, reps=3)
        b = first_algorithm(pool, rel, ETA, k=128, seed=7, reps=3)
        assert a == b

    def test_repeated_calls_compute_the_estimation_law_once(self, monkeypatch):
        calls = []
        law = qsub.phase_distribution

        def counting_law(theta, k):
            calls.append((theta, k))
            return law(theta, k)

        monkeypatch.setattr(qsub, "ESTIMATION_LAWS", qsub._ArrayMemo(MAX_LIVE_AMPLITUDES))
        monkeypatch.setattr(qsub, "phase_distribution", counting_law)
        pool, rel = identity_pool(), parse_relation("balanced", 3)
        for seed in range(10):
            first_algorithm(pool, rel, ETA, k=1024, seed=seed, reps=5)
        assert len(calls) == 1


def second_algorithm_reference(pool, rel, params, *, k, seed, reps, exact, trace=None):
    """``second_algorithm`` one round at a time: each round draws its s counting
    uniforms and maps the machines of each distinct count, found by a scan,
    through that count's law, estimating every machine."""
    rng, counting = seeded_streams(seed)
    counter = QueryCounter()
    s, n = pool.s, rel.n
    counts = pool.agreement_counts(rel, params)
    counter.charge(s << n)
    values, inverse = np.unique(counts, return_inverse=True)
    best = None
    for rep in range(reps):
        if exact:
            estimates = counts.astype(float)
            winner = int(np.argmax(estimates))
        else:
            uniforms = counting.random(s)
            estimates = np.empty(s)
            for i, count in enumerate(values.tolist()):
                members = np.flatnonzero(inverse == i)
                _, _, zeta_tilde = estimation_outcomes(counting_cdf(count, n, k),
                                                       uniforms[members])
                estimates[members] = zeta_tilde * (1 << n)
            counter.charge(s * (k - 1))
            winner = find_maximum(np.rint(estimates).astype(int), rng, counter)
        count = int(counts[winner])
        counter.charge(1 << n)
        if trace:
            trace(f"rep {rep}: winner={winner} estimate={estimates[winner]:.3f} "
                  f"count={count} queries={counter.oracle_calls}")
        if best is None or count > best[0]:
            best = (count, winner, float(estimates[winner]))
    count, winner, estimate = best
    return LearnReport(chosen=pool.encoding(winner), estimated_agreement=estimate,
                       true_agreement=count, oracle_queries=counter.oracle_calls,
                       repetitions=reps, success=count == int(counts.max()))


@pytest.fixture(scope="module")
def reference_cases():
    """(pool, relation, params): the s=512 and s=4096 enumerated pools, the
    s=512 pool at n=12 (2^n above every k tried), and a random pool whose
    counts take more than 100 values."""
    wide, wide_rel, wide_params = random_wide_pool(), random_relation(9, 9), AgreementParams(0.75)
    assert len(wide.count_groups(wide_rel, wide_params).values) > 100
    small, large = identity_pool(), identity_pool(SACC_ALL16)
    return [(small, parse_relation("balanced", 3), ETA), (small, parse_relation("eq", 2), ETA),
            (large, parse_relation("balanced", 2), ETA),
            (large, RelationTable.from_indices(3, [0, 3, 5, 6]), ETA),
            (small, random_relation(12, 12), ETA),
            (wide, wide_rel, wide_params)]


def random_wide_pool() -> MachinePool:
    rng = np.random.default_rng(5)
    return MachinePool(dict.fromkeys(sample_encoding(rng, 2, 8, 2, 2) for _ in range(400)))


def random_relation(n: int, seed: int) -> RelationTable:
    return RelationTable(n, np.random.default_rng(seed).integers(2, size=1 << n).astype(bool))


class TestSecondAlgorithm:
    def test_matches_per_round_reference(self, reference_cases, monkeypatch):
        for pool, rel, params in reference_cases:
            for k in (16, 64, 1024):
                for reps in (1, 2, 5):
                    for exact in (False, True):
                        for seed in range(2):
                            kwargs = dict(k=k, seed=seed, reps=reps, exact=exact)
                            assert (second_algorithm(pool, rel, params, **kwargs)
                                    == second_algorithm_reference(pool, rel, params, **kwargs))
        # 1536 uniforms draw the rounds three at a time at s = 512, one at a time
        # at s = 4096, and the rounds of the random pool three at a time
        monkeypatch.setattr(learner, "MAX_LIVE_AMPLITUDES", 1536)
        for pool, rel, params in reference_cases:
            for seed in range(2):
                kwargs = dict(k=1024, seed=seed, reps=5, exact=False)
                assert (second_algorithm(pool, rel, params, **kwargs)
                        == second_algorithm_reference(pool, rel, params, **kwargs))

    def test_trace_matches_per_round_reference(self, reference_cases):
        # every round's winner estimate, also in rounds that do not improve on the best
        for pool, rel, params in reference_cases:
            for exact in (False, True):
                lines, ref_lines = [], []
                kwargs = dict(k=64, seed=1, reps=5, exact=exact)
                assert (second_algorithm(pool, rel, params, trace=lines.append, **kwargs)
                        == second_algorithm_reference(pool, rel, params,
                                                      trace=ref_lines.append, **kwargs))
                assert lines == ref_lines and len(lines) == 5

    def test_matches_per_round_reference_at_the_largest_resolution(self, monkeypatch):
        # k = 2^18 on the random pool: each counting law fills ESTIMATION_LAWS
        # alone, and both memos stay within MAX_LIVE_AMPLITUDES entries
        for memo in ("ESTIMATION_LAWS", "ROUNDING_RUNS"):
            monkeypatch.setattr(qsub, memo, qsub._ArrayMemo(MAX_LIVE_AMPLITUDES))
        pool, rel, params = random_wide_pool(), random_relation(4, 4), AgreementParams(0.75)
        assert len(pool.count_groups(rel, params).values) > 5
        kwargs = dict(k=MAX_LIVE_AMPLITUDES, seed=3, reps=2, exact=False)
        assert (second_algorithm(pool, rel, params, **kwargs)
                == second_algorithm_reference(pool, rel, params, **kwargs))
        assert list(qsub.ROUNDING_RUNS.entries) == [(4, MAX_LIVE_AMPLITUDES)]
        for memo in (qsub.ESTIMATION_LAWS, qsub.ROUNDING_RUNS):
            assert 0 < memo.floats <= MAX_LIVE_AMPLITUDES
            assert memo.floats == sum(arr.size for arr in memo.entries.values())

    def test_single_dominant_machine(self):
        pool = parity_pool()
        rel = RelationTable.from_predicate(3, lambda x: x.count("1") % 2 == 0)
        counts = [agreement_count(m, rel, ETA) for m in pool.machines]
        assert sorted(counts)[-1] == 8 and sorted(counts)[-2] <= 4
        _, best = brute_force_optimum(pool, rel, ETA)
        assert best == 8
        wins = 0
        for seed in range(50):
            report = second_algorithm(pool, rel, ETA, k=1024, seed=seed, reps=5)
            wins += report.true_agreement == best
        assert wins >= 45

    def test_single_machine_pool(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_strings(2, ["00"])
        report = second_algorithm(pool, rel, ETA, k=256, seed=0, reps=2)
        assert report.chosen == pool.encodings[0]
        assert report.true_agreement == agreement_count(pool.machines[0], rel, ETA)
        assert report.success

    def test_single_machine_query_ledger(self):
        # at N = 1 maximum finding charges nothing, leaving the table build,
        # then per round one counting run and one verification
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        for n, k, reps in ((1, 64, 1), (2, 256, 3), (3, 1024, 5)):
            rel = RelationTable.from_predicate(n, lambda x: x.count("1") % 2 == 0)
            report = second_algorithm(pool, rel, ETA, k=k, seed=0, reps=reps)
            assert report.oracle_queries == (1 << n) + reps * ((k - 1) + (1 << n))

    def test_counting_stream_is_not_the_main_stream(self):
        for seed in range(10):
            main, counting = seeded_streams(seed)
            reference = np.random.default_rng(seed).random(4)
            assert np.array_equal(main.random(4), reference)
            assert not np.any(counting.random(4) == reference)

    def test_tied_pool_always_succeeds(self):
        pool = identity_pool()
        rel = RelationTable.from_strings(2, ["00", "11"])
        for seed in range(10):
            report = second_algorithm(pool, rel, ETA, k=256, seed=seed, reps=3)
            assert report.success

    def test_exact_switch_matches_brute_force(self):
        rng = np.random.default_rng(61)
        pool = parity_pool(fillers=5)
        for n in (2, 3):
            rel = RelationTable(n, rng.integers(2, size=1 << n).astype(bool))
            expected_enc, expected_count = brute_force_optimum(pool, rel, ETA)
            for seed in (0, 1, 2):
                report = second_algorithm(pool, rel, ETA, k=64, seed=seed,
                                          reps=3, exact=True)
                assert report.chosen == expected_enc
                assert report.true_agreement == expected_count
                assert report.success

    def test_deterministic_given_seed(self):
        pool = parity_pool(fillers=3)
        rel = RelationTable.from_predicate(2, lambda x: x.count("1") % 2 == 0)
        a = second_algorithm(pool, rel, ETA, k=256, seed=5, reps=3)
        b = second_algorithm(pool, rel, ETA, k=256, seed=5, reps=3)
        assert a == b


class TestBruteForce:
    def test_single_machine(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_strings(1, ["1"])
        enc, count = brute_force_optimum(pool, rel, ETA)
        assert enc == pool.encodings[0] and count == 1

    def test_perfect_machine_found(self):
        pool = parity_pool()
        rel = RelationTable.from_predicate(3, lambda x: x.count("1") % 2 == 0)
        _, count = brute_force_optimum(pool, rel, ETA)
        assert count == 8

    def test_ties_break_by_pool_order(self):
        pool = identity_pool()
        rel = RelationTable.from_strings(2, ["00", "11"])
        counts = [agreement_count(m, rel, ETA) for m in pool.machines]
        first_best = counts.index(max(counts))
        enc, _ = brute_force_optimum(pool, rel, ETA)
        assert enc == pool.encodings[first_best]


class TestConditionStar:
    def test_true_with_perfect_machine(self):
        pool = parity_pool()
        rel = RelationTable.from_predicate(2, lambda x: x.count("1") % 2 == 0)
        assert verify_condition_star(pool, rel, ETA)

    def test_accept_all_machines_fail_empty_relation(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),
                            make_encoding(s_acc=(0, 1))))
        rel = RelationTable.from_predicate(2, lambda x: False)
        assert not verify_condition_star(pool, rel, ETA)

    def test_single_machine_short_domain(self):
        pool = MachinePool((make_encoding(s_acc=(0,)),))
        rel = RelationTable.from_predicate(1, lambda x: True)
        assert verify_condition_star(pool, rel, ETA)
