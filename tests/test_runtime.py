"""The online substrate: DSL programs, schedulers, monitor, fuzzer."""

import pytest

from repro.runtime.fuzzer import DeadlockFuzzer
from repro.runtime.monitor import monitored_campaign, run_with_monitor
from repro.runtime.program import Program, VarWrite
from repro.runtime.programs import (
    dining_program,
    inverse_order_program,
    parallel_compute_program,
    rare_pair_program,
    transfer_program,
)
from repro.runtime.scheduler import BiasedScheduler, RandomScheduler, run_program
from repro.trace.wellformed import is_well_formed


class TestExecution:
    def test_deterministic_under_same_seed(self):
        prog = inverse_order_program("P", 1)
        a = run_program(prog, RandomScheduler(5))
        b = run_program(prog, RandomScheduler(5))
        assert [str(e) for e in a.trace] == [str(e) for e in b.trace]
        assert a.deadlocked == b.deadlocked

    def test_traces_are_well_formed(self):
        for seed in range(20):
            res = run_program(inverse_order_program("P", 2), RandomScheduler(seed))
            assert is_well_formed(res.trace, strict_fork_join=False)

    def test_sequential_program_completes(self):
        res = run_program(parallel_compute_program("Q", 2, 3))
        assert not res.deadlocked
        assert res.steps == len(res.trace)

    def test_branch_follows_memory(self):
        p = Program("B", initial_memory={"flag": 0})
        p.thread("t1").branch(
            "flag", 1, then=(VarWrite("taken", 1),), orelse=(VarWrite("skipped", 1),)
        )
        res = run_program(p)
        targets = [e.target for e in res.trace if e.is_write]
        assert targets == ["skipped"]

    def test_branch_sees_written_value(self):
        p = Program("B2", initial_memory={"flag": 0})
        p.thread("t0").write("flag", 1)
        # force t1 after t0 via scheduler determinism: single runnable order
        p.threads[0].branch(
            "flag", 1, then=(VarWrite("taken", 1),), orelse=(VarWrite("skipped", 1),)
        )
        res = run_program(p)
        targets = [e.target for e in res.trace if e.is_write]
        assert targets == ["flag", "taken"]

    def test_actual_deadlock_detected_and_halts(self):
        """Force the classic hold-and-wait interleaving."""
        deadlocked = 0
        for seed in range(40):
            res = run_program(dining_program("D", 2), RandomScheduler(seed))
            if res.deadlocked:
                deadlocked += 1
                assert len(res.deadlock_cycle) == 2
                assert res.deadlock_locations
        assert deadlocked > 0

    def test_reacquire_raises(self):
        p = Program("R")
        p.thread("t1").acq("l").acq("l")
        with pytest.raises(RuntimeError):
            run_program(p)

    def test_release_unheld_raises(self):
        p = Program("R2")
        p.thread("t1").rel("l")
        with pytest.raises(RuntimeError):
            run_program(p)

    def test_step_budget(self):
        res = run_program(parallel_compute_program("Q", 4, 50), max_steps=10)
        assert res.steps == 10


class TestBiasedScheduler:
    def test_still_deterministic(self):
        prog = inverse_order_program("P", 1)
        a = run_program(prog, BiasedScheduler(seed=3))
        b = run_program(prog, BiasedScheduler(seed=3))
        assert [str(e) for e in a.trace] == [str(e) for e in b.trace]

    def test_bias_changes_interleavings(self):
        prog = inverse_order_program("P", 1, spacing=6)
        plain = {str([str(e) for e in run_program(prog, RandomScheduler(s)).trace])
                 for s in range(10)}
        biased = {str([str(e) for e in run_program(prog, BiasedScheduler(seed=s)).trace])
                  for s in range(10)}
        assert plain != biased


class TestMonitor:
    def test_online_prediction_during_execution(self):
        hits = 0
        for seed in range(20):
            m = run_with_monitor(
                inverse_order_program("P", 1), RandomScheduler(seed)
            )
            hits += m.num_hits
        assert hits > 0

    def test_campaign_counts_unique_bugs(self):
        runs = monitored_campaign(inverse_order_program("P", 2), runs=15, seed=0)
        bugs = set().union(*(m.bug_ids for m in runs))
        assert len(bugs) == 2

    def test_no_bugs_in_clean_program(self):
        runs = monitored_campaign(parallel_compute_program("Q"), runs=5, seed=0)
        assert all(m.num_hits == 0 for m in runs)

    def test_transfer_found_via_schedule_navigation(self):
        """Section 6.2: random scheduling exposes the Transfer deadlock
        to online prediction even though the offline trace of one
        specific run may not reveal it."""
        runs = monitored_campaign(transfer_program("T"), runs=30, seed=0)
        assert sum(m.num_hits for m in runs) > 0

    def test_memory_bound_refused_for_larger_cycles(self):
        """SPDOnline-K has no bounded-memory mode: a memory bound with
        ``max_deadlock_size > 2`` is refused, not dropped while the
        session alone stays bounded."""
        with pytest.raises(ValueError, match="bounded-memory"):
            run_with_monitor(dining_program("D", 3), RandomScheduler(0),
                             max_deadlock_size=3, max_memory_events=64)


class TestDeadlockFuzzer:
    def test_confirms_simple_deadlock(self):
        df = DeadlockFuzzer(confirm_runs=3)
        campaign = df.campaign(inverse_order_program("P", 1), trials=10, seed=0)
        assert campaign.num_hits > 0
        assert len(campaign.bug_ids) == 1

    def test_counts_executions(self):
        df = DeadlockFuzzer(confirm_runs=2)
        campaign = df.run_once(inverse_order_program("P", 1), seed=1)
        assert campaign.executions >= 1

    def test_clean_program_no_hits(self):
        df = DeadlockFuzzer()
        campaign = df.campaign(parallel_compute_program("Q"), trials=5, seed=0)
        assert campaign.num_hits == 0

    def test_misses_rare_bug_more_than_monitor(self):
        """The Table 2 story: prediction needs no lucky schedule."""
        prog = rare_pair_program("R", num_common=0, num_rare=1)
        df_bugs = DeadlockFuzzer().campaign(prog, trials=12, seed=0).bug_ids
        spd_runs = monitored_campaign(prog, runs=12, seed=0)
        spd_bugs = set().union(*(m.bug_ids for m in spd_runs))
        assert len(spd_bugs) >= len(df_bugs)
        assert len(spd_bugs) == 1
