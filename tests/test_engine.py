import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched.domain import (
    Instance,
    Job,
    Parameters,
    PredictionModel,
    dump_instance,
    make_job,
    sample_instance,
    sort_for_policy,
)
from betasched.engine import (
    LabelClass,
    enumerate_offline_optimum,
    expectimax_optimal,
    format_trace,
    label_flags,
    label_release_ticks,
    label_schedule_ticks,
    offline_wspt,
    offline_wsrpt,
    rule_expected_cost,
    run,
    wsrpt_release_ticks,
    wspt_ticks,
)
from betasched.errors import (
    ContractViolationError,
    ResourceLimitError,
    UnsupportedInputError,
)
from betasched.experiments import wsrpt_kernel_cost
from betasched.policies import (
    EXACT_REVELATION,
    OPEN_NEXT,
    POLICIES,
    Action,
    Policy,
    PosteriorRevelation,
    complete_low,
    get_policy,
    hybrid_decide,
)
from conftest import SCAN_MODIFIED_BETA, scan_argmax_theta, worked_example_instance

F = Fraction


class TestWorkedExample:
    """The nine-job instance traced by hand: costs 327.4 / 349 / 287."""

    def test_threshold_rule_completions_and_cost(self, base_params, base_model):
        inst = worked_example_instance(base_params, base_model)
        out = run(inst, get_policy("beta"))
        want = ["1", "22/5", "12/5", "17/5", "5", "6", "7", "8", "9"]
        assert [out.completion_times[i] for i in range(1, 10)] == [F(w) for w in want]
        assert out.total_cost == F("327.4")
        assert out.preemption_count == 2  # jobs 2 and 5 set aside at their reveals

    def test_nonpreemptive_cost(self, base_params, base_model):
        inst = worked_example_instance(base_params, base_model)
        out = run(inst, get_policy("nonpreemptive"))
        assert out.total_cost == 349
        assert out.preemption_count == 0

    def test_preemptive_cost(self, base_params, base_model):
        inst = worked_example_instance(base_params, base_model)
        out = run(inst, get_policy("preemptive"))
        assert out.total_cost == 287
        assert out.preemption_count == 5  # every non-urgent job probes once

    def test_clairvoyant_optimum(self, base_params, base_model):
        inst = worked_example_instance(base_params, base_model)
        assert offline_wspt(inst).total_cost == 235


class TestRunBasics:
    def test_single_nonurgent_job(self, base_params, base_model):
        inst = Instance([Job(1, 1, 1)], base_params, base_model)
        for name in ("beta", "nonpreemptive", "preemptive", "hybrid"):
            out = run(inst, get_policy(name))
            assert out.completion_times[1] == 1
            assert out.total_cost == base_params.w1

    def test_cost_recomputable_from_completions(self, base_params, base_model):
        inst = sample_instance(25, base_model, base_params, seed=9)
        out = run(inst, get_policy("beta"))
        recomputed = sum(
            job.weight(base_params) * out.completion_times[job.id] for job in inst.jobs
        )
        assert recomputed == out.total_cost

    def test_completion_after_release_plus_unit(self, base_params, base_model):
        rng = random.Random(3)
        jobs = [
            Job(i, rng.randint(0, 1), rng.randint(0, 1), release_time=F(rng.randrange(16), 4))
            for i in range(1, 11)
        ]
        inst = Instance(jobs, base_params, base_model)
        out = run(inst, get_policy("beta"))
        for job in jobs:
            assert out.completion_times[job.id] >= job.release_time + 1

    def test_busy_intervals_disjoint_and_work_conserving(self, base_params, base_model):
        inst = sample_instance(15, base_model, base_params, seed=21)
        out = run(inst, get_policy("beta"))
        # reconstruct processing segments from the trace
        segments = []
        opened_at = {}
        preempted_at = {}
        for ev in out.trace:
            if ev.kind == "open":
                opened_at[ev.job_id] = ev.time
            elif ev.kind == "preempt":
                alpha = base_params.alpha
                segments.append((opened_at[ev.job_id], opened_at[ev.job_id] + alpha))
                preempted_at[ev.job_id] = ev.time
            elif ev.kind == "complete":
                if ev.job_id in preempted_at:
                    segments.append((ev.time - (1 - base_params.alpha), ev.time))
                else:
                    segments.append((opened_at[ev.job_id], ev.time))
        segments.sort()
        total = sum(b - a for a, b in segments)
        assert total == inst.n  # unit work per job, nothing more
        for (_, b), (a2, _) in zip(segments, segments[1:]):
            assert b <= a2  # one job at a time

    def test_illegal_action_reported_with_context(self, base_params, base_model):
        bad = Policy("bad", lambda s, p: Action("complete", 99))
        inst = Instance([Job(1, 0, 0)], base_params, base_model)
        with pytest.raises(ContractViolationError) as err:
            run(inst, bad)
        assert "job 99" in str(err.value)

    def test_trace_dump_format(self, base_params, base_model):
        inst = Instance([Job(1, 1, 0), Job(2, 0, 1)], base_params, base_model)
        text = format_trace(run(inst, get_policy("beta")))
        lines = text.strip().splitlines()
        assert lines[0] == "0,open,1,1"
        assert lines[1] == "2/5,alpha_reveal,1,1"
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_trace_retention_flag(self, base_params, base_model):
        inst = Instance([Job(1, 1, 0)], base_params, base_model)
        out = run(inst, get_policy("beta"), keep_trace=False)
        assert out.trace is None
        with pytest.raises(ValueError):
            format_trace(out)


class TestReleaseDates:
    def test_arrival_invisible_until_reveal_point(self, base_model):
        # urgent job lands at 0.5; with alpha = 0.4 the reveal at 0.4 misses it
        params = Parameters(F(2, 5), 20, 1)
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(1, 2))]
        out = run(Instance(jobs, params, base_model), get_policy("beta"))
        assert out.completion_times[1] == 1
        assert out.completion_times[2] == 2
        assert out.preemption_count == 0

    def test_arrival_visible_at_reveal_point_preempts(self, base_model):
        # with alpha = 0.6 the reveal at 0.6 sees the 0.5 arrival and switches
        params = Parameters(F(3, 5), 20, 1)
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(1, 2))]

        out = run(Instance(jobs, params, base_model), get_policy("beta"))
        assert out.completion_times[2] == F(8, 5)   # 0.6 + 1
        assert out.completion_times[1] == 2         # resumes its final 0.4
        assert out.preemption_count == 1

    def test_idle_machine_wakes_at_release(self, base_params, base_model):
        jobs = [Job(1, 1, 1, release_time=F(3))]
        out = run(Instance(jobs, base_params, base_model), get_policy("beta"))
        assert out.completion_times[1] == 4


class TestOfflineWspt:
    def test_all_low_priority(self, base_params, base_model):
        inst = Instance([Job(i, 1, 1) for i in range(1, 10)], base_params, base_model)
        assert offline_wspt(inst).total_cost == 45

    def test_single_urgent_job(self, base_params, base_model):
        inst = Instance([Job(1, 0, 0)], base_params, base_model)
        assert offline_wspt(inst).total_cost == 20

    def test_rejects_release_dates(self, base_params, base_model):
        inst = Instance([Job(1, 0, 0, release_time=F(1, 2))], base_params, base_model)
        with pytest.raises(UnsupportedInputError):
            offline_wspt(inst)


class TestOfflineWsrpt:
    def test_batch_reduces_to_wspt(self, base_params, base_model):
        for seed in range(25):
            inst = sample_instance(random.Random(seed).randint(1, 12), base_model,
                                   base_params, seed=seed)
            assert offline_wsrpt(inst).total_cost == offline_wspt(inst).total_cost

    def test_midstream_arrival_preempts(self, base_params, base_model):
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(1, 2))]
        inst = Instance(jobs, base_params, base_model)
        out = offline_wsrpt(inst)
        assert out.completion_times[2] == F(3, 2)
        assert out.completion_times[1] == 2
        assert out.total_cost == 32
        assert out.preemption_count == 1
        assert enumerate_offline_optimum(inst) == 32

    def test_late_arrival_inside_no_preempt_window(self, base_params, base_model):
        # remaining work 1/20 at the arrival 0.96 beats switching: 1/0.04 > 20
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(96, 100))]
        out = offline_wsrpt(Instance(jobs, base_params, base_model))
        assert out.completion_times[1] == 1
        assert out.completion_times[2] == 2
        assert out.total_cost == 41
        assert out.preemption_count == 0

    def test_matches_enumeration_on_random_instances(self, base_params):
        from betasched.experiments import random_release_instance

        rng = random.Random(17)
        for _ in range(150):
            w0, w1 = random.Random(rng.random()).choice([(2, 1), (20, 1), (7, 3)])
            params = Parameters(F(2, 5), w0, w1)
            inst = random_release_instance(rng, params, n_max=4)
            assert offline_wsrpt(inst).total_cost == enumerate_offline_optimum(inst)

    def test_enumeration_size_guard(self, base_params, base_model):
        inst = sample_instance(6, base_model, base_params, seed=1)
        with pytest.raises(ResourceLimitError):
            enumerate_offline_optimum(inst, limit=4)


def positional_optimum(n, n0, w0, w1):
    """Clairvoyant cost computed straight from completion positions."""
    return sum(w0 * j for j in range(1, n0 + 1)) + sum(
        w1 * j for j in range(n0 + 1, n + 1)
    )


class TestExpectimax:
    def test_single_job_closed_form(self, base_params):
        for rho_k in (1, 3, 7):
            m = PredictionModel(F(rho_k, 10), F(1, 10), F(1, 5))
            got = expectimax_optimal(1, m, base_params)
            assert got == F(rho_k, 10) * 20 + (1 - F(rho_k, 10)) * 1

    def test_perfect_information_reaches_positional_optimum(self, base_params):
        m = PredictionModel(F(3, 10), 0, 0)
        n = 5
        want = sum(
            comb(n, n0) * F(3, 10) ** n0 * F(7, 10) ** (n - n0)
            * positional_optimum(n, n0, 20, 1)
            for n0 in range(n + 1)
        )
        assert expectimax_optimal(n, m, base_params) == want

    def test_size_guard(self, base_params, base_model):
        with pytest.raises(ResourceLimitError):
            expectimax_optimal(7, base_model, base_params)

    def test_threshold_rule_attains_optimum_spot_checks(self):
        rng = random.Random(2)
        for _ in range(30):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 60), 1)
            model = PredictionModel(
                F(rng.randint(1, 19), 20),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            n = rng.randint(1, 5)
            assert expectimax_optimal(n, model, params) == rule_expected_cost(
                n, model, params, "beta"
            )

    def test_optimal_matches_policy_table_enumeration(self, base_params, base_model):
        """Independent route: brute-force every decision table through the engine.

        States where both actions are legal are (unopened-by-label, backlog)
        counts; enumerate every mapping from those states to an action,
        evaluate each policy by exact expectation over all label and type
        draws using the simulator, and take the minimum. Must equal the
        backward-induction value exactly.
        """
        from itertools import product

        from betasched.policies import OPEN_NEXT, Policy, complete_low
        from conftest import label_prob

        n = 3
        states = [
            (u0, u1, ell)
            for u0 in range(n + 1)
            for u1 in range(n + 1)
            for ell in range(1, n + 1)
            if u0 + u1 >= 1 and u0 + u1 + ell <= n
        ]

        def table_policy(assignment):
            choice = dict(zip(states, assignment))

            def decide(state, params):
                u0 = sum(1 for _, _, lab in state.unopened.items() if lab == 0)
                u1 = len(state.unopened) - u0
                ell = len(state.interrupted)
                if u0 + u1 == 0:
                    return complete_low(state.interrupted.first_id())
                if ell == 0:
                    return OPEN_NEXT
                if choice[(u0, u1, ell)] == "open":
                    return OPEN_NEXT
                return complete_low(state.interrupted.first_id())

            return Policy("table", decide)

        def engine_expectation(policy):
            total = Fraction(0)
            for types in product((0, 1), repeat=n):
                for labels in product((0, 1), repeat=n):
                    prob = Fraction(1)
                    for tt, lab in zip(types, labels):
                        prob *= (base_model.rho if tt == 0 else 1 - base_model.rho)
                        prob *= label_prob(base_model, tt, lab)
                    if prob == 0:
                        continue
                    inst = Instance(
                        [Job(i + 1, types[i], labels[i]) for i in range(n)],
                        base_params, base_model,
                    )
                    total += prob * run(inst, policy, keep_trace=False).total_cost
            return total

        best = min(
            engine_expectation(table_policy(assignment))
            for assignment in product(("open", "complete"), repeat=len(states))
        )
        assert best == expectimax_optimal(n, base_model, base_params)

    def test_perturbed_threshold_is_suboptimal_somewhere(self, base_params, base_model):
        # sanity check that the equality above has teeth
        diffs = []
        for n in range(1, 6):
            best = expectimax_optimal(n, base_model, base_params)
            shifted = rule_expected_cost(
                n, base_model, base_params, "beta",
                threshold=base_params.beta() + F(1, 2),
            )
            diffs.append(shifted - best)
            assert shifted >= best
        assert any(d > 0 for d in diffs)


class TestTreeMatchesEngine:
    """The tree evaluator and the engine agree realization by realization."""

    def test_rule_costs_match_bruteforce_engine_means(self, base_params, base_model):
        from conftest import bruteforce_unconditional_mean

        for rule in ("nonpreemptive", "preemptive", "hybrid", "beta", "modified-beta"):
            tree = rule_expected_cost(4, base_model, base_params, rule)
            brute = bruteforce_unconditional_mean(4, base_model, base_params, rule)
            assert tree == brute, rule

    def test_unknown_rule_rejected(self, base_params, base_model):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            rule_expected_cost(3, base_model, base_params, "nope")

    def test_threshold_at_a_posterior_does_not_probe_it(self, base_params, base_model):
        # label l is probed iff posterior(l) > threshold; posteriors 1/2 and 1/82
        for n in (2, 3, 4):
            at_p0 = rule_expected_cost(n, base_model, base_params, "beta",
                                       threshold=base_model.posterior(0))
            at_p1 = rule_expected_cost(n, base_model, base_params, "beta",
                                       threshold=base_model.posterior(1))
            assert at_p0 == rule_expected_cost(n, base_model, base_params, "nonpreemptive")
            assert at_p1 == rule_expected_cost(n, base_model, base_params, "hybrid")
            assert at_p0 != at_p1


class TestProbabilisticClassifierMode:
    def test_beta_rule_on_direct_estimates(self, base_params):
        from betasched.domain import make_job

        jobs = [
            make_job(1, 1, p_hat="1/2"),
            make_job(2, 1, p_hat="1/82"),
            make_job(3, 0, p_hat="1/3"),
        ]
        inst = Instance(jobs, base_params)  # no channel model needed
        out = run(inst, get_policy("beta"))
        # open 1 (probe), open 3 above threshold (urgent, runs through),
        # then 1/82 <= beta: finish the backlog, then job 2
        assert out.completion_times == {3: F("1.4"), 1: F(2), 2: F(3)}
        assert out.total_cost == 20 * F("1.4") + (2 + 3)
        assert out.preemption_count == 1

    def test_hybrid_rejected_without_labels(self, base_params):
        from betasched.domain import make_job

        inst = Instance([make_job(1, 0, p_hat="0.9")], base_params)
        with pytest.raises(UnsupportedInputError):
            run(inst, get_policy("hybrid"))

    def test_hybrid_decide_rejected_without_labels_under_any_name(self, base_params):
        inst = Instance([make_job(1, 0, p_hat="1/2")], base_params)
        with pytest.raises(UnsupportedInputError):
            run(inst, Policy("h2", hybrid_decide))


class TestEveryDecisionConsulted:
    """run() asks the policy at every decision point, whatever its decide reads.

    Five non-urgent jobs at alpha = 2/5: each open sets its job aside at its
    reveal point, so the same head label meets interrupted work again and
    again, and only the policy's own state tells the decisions apart.
    """

    @staticmethod
    def five_nonurgent(base_params, base_model):
        return Instance([Job(i, 1, 1) for i in range(1, 6)], base_params, base_model)

    def test_clock_dependent_policy(self, base_params, base_model):
        # open while the clock is below 1, then finish the FIFO head first
        def decide(state, params):
            if len(state.unopened) and (state.clock < 1 or len(state.interrupted) == 0):
                return OPEN_NEXT
            return complete_low(state.interrupted.first_id())

        out = run(self.five_nonurgent(base_params, base_model), Policy("clocked", decide))
        assert format_trace(out).splitlines() == [
            "0,open,1,1", "2/5,alpha_reveal,1,1",
            "2/5,preempt,1,1", "2/5,open,2,1", "4/5,alpha_reveal,2,1",
            "4/5,preempt,2,1", "4/5,open,3,1", "6/5,alpha_reveal,3,1",
            "6/5,preempt,3,1", "9/5,complete,1,1",
            "12/5,complete,2,1",
            "3,complete,3,1",
            "3,open,4,1", "17/5,alpha_reveal,4,1", "4,complete,4,1",
            "4,open,5,1", "22/5,alpha_reveal,5,1", "5,complete,5,1",
        ]
        # 9/5 + 12/5 + 3 + 4 + 5; opening all five first would cost 19
        assert out.total_cost == F(81, 5)
        assert out.preemption_count == 3

    def test_backlog_dependent_policy(self, base_params, base_model):
        # open while at most one job is set aside, else finish the FIFO head
        def decide(state, params):
            if len(state.unopened) and len(state.interrupted) <= 1:
                return OPEN_NEXT
            return complete_low(state.interrupted.first_id())

        out = run(self.five_nonurgent(base_params, base_model), Policy("backlog", decide))
        assert out.completion_times == {1: F(7, 5), 2: F(12, 5), 3: F(17, 5),
                                        4: F(22, 5), 5: F(5)}
        assert [ev.job_id for ev in out.trace if ev.kind == "open"] == [1, 2, 3, 4, 5]
        assert out.total_cost == F(83, 5)
        assert out.preemption_count == 5


class TestQueueOrder:
    """run() opens a batch queue in `sort_for_policy` order."""

    @staticmethod
    def open_order(inst):
        out = run(inst, get_policy("preemptive"))
        return [ev.job_id for ev in out.trace if ev.kind == "open"]

    def assert_sorted_order(self, inst):
        assert self.open_order(inst) == [j.id for j in sort_for_policy(inst)], dump_instance(inst)

    def test_binary_labels(self, base_params):
        rng = random.Random(31)
        # the last channel collapses both posteriors to rho
        for eps in ((0, 0), (F(1, 10), F(3, 10)), (F(1, 2), 0), (F(1, 2), F(1, 2))):
            model = PredictionModel(F(1, 3), *eps)
            for n in (1, 2, 5, 17, 40):
                self.assert_sorted_order(random_batch_instance(rng, base_params, model, n))

    def test_p_hat_values(self, base_params):
        rng = random.Random(32)
        # make_job builds a new Fraction per job, so equal values are distinct
        # objects, and equal values come from different spellings; 0 and 1
        # are the ends of the range
        values = ("0", "1", "1/2", "0.5", "2/4", "1/3", "2/6", "1/82", "2/57", "0.999")
        for n in (1, 2, 5, 17, 40):
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            jobs = [make_job(i, rng.randint(0, 1), p_hat=rng.choice(values)) for i in ids]
            self.assert_sorted_order(Instance(jobs, base_params))


class TestPosteriorRevelation:
    def test_exact_mode_equivalence_of_modified_rule(self, base_params, base_model):
        for seed in range(200):
            inst = sample_instance(random.Random(seed).randint(1, 14), base_model,
                                   base_params, seed=seed)
            a = run(inst, get_policy("beta"))
            b = run(inst, get_policy("modified-beta"))
            assert a.trace == b.trace
            assert a.total_cost == b.total_cost

    def test_posterior_mode_runs_and_is_deterministic(self, base_params, base_model):
        inst = sample_instance(12, base_model, base_params, seed=40)
        rev = PosteriorRevelation()
        out1 = run(inst, get_policy("modified-beta"), rev, rng=random.Random(7))
        out2 = run(inst, get_policy("modified-beta"), rev, rng=random.Random(7))
        assert out1.trace == out2.trace
        out3 = run(inst, get_policy("modified-beta"), rev, rng=random.Random(8))
        assert out1.total_cost > 0 and out3.total_cost > 0

    def test_posterior_mode_requires_rng(self, base_params, base_model):
        inst = sample_instance(3, base_model, base_params, seed=1)
        with pytest.raises(ValueError):
            run(inst, get_policy("modified-beta"), PosteriorRevelation())

    def test_preempted_job_resumes_with_exact_remainder(self, base_params, base_model):
        inst = worked_example_instance(base_params, base_model)
        out = run(inst, get_policy("preemptive"))
        opened = {ev.job_id: ev.time for ev in out.trace if ev.kind == "open"}
        for ev in out.trace:
            if ev.kind == "preempt":
                c = out.completion_times[ev.job_id]
                # alpha done up front, the last 1-alpha contiguous at the end
                assert ev.time == opened[ev.job_id] + base_params.alpha
                assert (c - (1 - base_params.alpha)) >= ev.time


class TieRevelation:
    """Reveals a theta from a set with exact ties, a float tie, 0 and 1.

    1/3 and 1/3 + 10^-30 are the same float but distinct Fractions.
    """

    THETAS = (F(0), F(1, 3), F(1, 3) + F(1, 10 ** 30), F(1, 2), F(1))

    def sample(self, true_type, rng):
        return rng.choice(self.THETAS)


def tau(params, theta):
    """The modified-beta threshold, from Fractions."""
    a, w0, w1 = params.alpha, params.w0, params.w1
    return (a / (1 - a)) * (w1 / (w0 - w1)) + (a / (1 - a)) * (w0 / (w0 - w1)) * theta / (1 - theta)


def p_hat_grid_instance(rng, n, params, releases=False):
    """The posterior-reveal shape: p_hat = k/40, k in [8, 40] if urgent, else [0, 16]."""
    jobs = []
    for j in range(1, n + 1):
        urgent = rng.random() < 0.1
        k = rng.randrange(8, 41) if urgent else rng.randrange(0, 17)
        release = F(rng.randrange(12), 4) if releases and rng.random() < 0.5 else 0
        jobs.append(make_job(j, 0 if urgent else 1, p_hat=F(k, 40), release_time=release))
    return Instance(jobs, params)


class TestThetaHeapDifferential:
    """modified-beta on the engine's theta heap against the scan / Fraction-tau oracle."""

    REVELATIONS = (EXACT_REVELATION, PosteriorRevelation(), TieRevelation())

    def same_run(self, inst, revelation, seed, policy=None, oracle=SCAN_MODIFIED_BETA):
        a = run(inst, policy or get_policy("modified-beta"), revelation, rng=random.Random(seed))
        b = run(inst, oracle, revelation, rng=random.Random(seed))
        assert a.trace == b.trace
        assert a.total_cost == b.total_cost
        assert a.preemption_count == b.preemption_count
        return a

    def test_p_hat_grid(self, base_params):
        rng = random.Random(5)
        for n in (1, 2, 7, 30, 200):
            for _ in range(3 if n < 200 else 1):
                inst = p_hat_grid_instance(rng, n, base_params)
                for revelation in self.REVELATIONS:
                    self.same_run(inst, revelation, rng.randrange(10 ** 6))

    def test_binary_labels(self, base_params, base_model):
        for seed in range(40):
            n = random.Random(seed).randint(1, 40)
            inst = sample_instance(n, base_model, base_params, seed=seed)
            for revelation in self.REVELATIONS:
                self.same_run(inst, revelation, seed)

    def test_release_dates(self, base_model):
        rng = random.Random(11)
        for _ in range(40):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), F(rng.randint(1, 3), 2))
            n = rng.randint(1, 30)
            binary = Instance(
                [Job(i, rng.randint(0, 1), rng.randint(0, 1),
                     release_time=F(rng.randrange(12), 4) if rng.random() < 0.5 else F(0))
                 for i in range(1, n + 1)],
                params, base_model,
            )
            for inst in (binary, p_hat_grid_instance(rng, n, params, releases=True)):
                for revelation in self.REVELATIONS:
                    self.same_run(inst, revelation, rng.randrange(10 ** 6))

    def test_threshold_boundaries(self, base_params):
        # p_hat exactly at tau for every theta the stub reveals (tau(0) = beta),
        # and p_hat at or below beta; a decision sees each case
        thetas = TieRevelation.THETAS[:-1]
        boundary = sorted({tau(base_params, th) for th in thetas} | {F(0), F(1, 57), F(1)})
        seen = {"p_hat == tau": 0, "p_hat <= beta": 0}

        def recording(state, params):
            if len(state.unopened) and len(state.interrupted):
                _, theta = scan_argmax_theta(state.interrupted)
                p = state.unopened.head_priority()
                if theta < 1 and p == tau(params, theta):
                    seen["p_hat == tau"] += 1
                if p <= params.beta():
                    seen["p_hat <= beta"] += 1
            return SCAN_MODIFIED_BETA.decide(state, params)

        oracle = Policy("modified-beta-scan", recording)
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 40)
            inst = Instance(
                [make_job(j, rng.randint(0, 1), p_hat=rng.choice(boundary)) for j in range(1, n + 1)],
                base_params,
            )
            self.same_run(inst, TieRevelation(), rng.randrange(10 ** 6), oracle=oracle)
        assert seen["p_hat == tau"] > 0 and seen["p_hat <= beta"] > 0

    def test_stale_heap_entries(self, base_params, base_model):
        # completing the FIFO head leaves its heap entry behind until it surfaces

        def fifo_then_argmax(argmax):
            def decide(state, params):
                k = len(state.interrupted)
                if k == 0 or (len(state.unopened) and k < 3):
                    return OPEN_NEXT
                if k % 2:
                    return complete_low(state.interrupted.first_id())
                return complete_low(argmax(state.interrupted)[0])
            return Policy("mixed", decide)

        heap = fifo_then_argmax(lambda q: q.argmax_theta())
        scan = fifo_then_argmax(scan_argmax_theta)
        rng = random.Random(8)
        for _ in range(30):
            inst = p_hat_grid_instance(rng, rng.randint(1, 60), base_params, releases=True)
            for revelation in self.REVELATIONS:
                self.same_run(inst, revelation, rng.randrange(10 ** 6), heap, scan)


class TestLayoutReuse:
    """Interleaved runs over two instances must match fresh runs of each."""

    POLICIES = ("nonpreemptive", "preemptive", "hybrid", "beta", "modified-beta")

    def check_alternation(self, a, b):
        want = {id(inst): {name: run(inst, get_policy(name)) for name in self.POLICIES}
                for inst in (a, b)}
        assert want[id(a)]["beta"].trace != want[id(b)]["beta"].trace
        for inst in (a, b, a):
            for name in self.POLICIES:
                got = run(inst, get_policy(name))
                ref = want[id(inst)][name]
                assert got.trace == ref.trace
                assert got.total_cost == ref.total_cost
                assert got.completion_times == ref.completion_times

    def test_batch_instances(self, base_params, base_model):
        self.check_alternation(
            sample_instance(12, base_model, base_params, seed=3),
            sample_instance(12, base_model, base_params, seed=4),
        )

    def test_release_date_instances(self, base_params, base_model):
        def released(seed):
            rng = random.Random(seed)
            jobs = [Job(i, rng.randint(0, 1), rng.randint(0, 1),
                        release_time=F(rng.randrange(12), rng.choice((3, 4, 5))))
                    for i in range(1, 10)]
            return Instance(jobs, base_params, base_model)

        self.check_alternation(released(1), released(2))


def probe_classes(flag0, flag1):
    """A policy that opens over interrupted work exactly for these head labels."""
    flags = (flag0, flag1)

    def decide(state, params):
        if len(state.unopened) and (
            len(state.interrupted) == 0 or flags[state.unopened.head_label()]
        ):
            return OPEN_NEXT
        return complete_low(state.interrupted.first_id())

    return Policy(f"probe-{int(flag0)}{int(flag1)}", decide)


def kernel_cost(inst, policy):
    """The batch label kernel's exact cost for `inst`, built from its jobs."""
    by_id = sorted(inst.jobs, key=lambda j: j.id)
    classes = [LabelClass.of([j.true_type for j in by_id if j.label == label])
               for label in (0, 1)]
    flags = label_flags(policy, inst.model, inst.params)
    alpha = inst.params.alpha
    s0, s1 = label_schedule_ticks(classes, flags, alpha.numerator, alpha.denominator)
    return (inst.params.w0 * s0 + inst.params.w1 * s1) / alpha.denominator


def kernel_cases():
    """(params, model) pairs covering the kernel's edge cases."""
    cases = []
    for alpha in (F(1, 4), F(2, 5), F(1, 2), F(7, 10)):
        for w0 in (F(3), F(20)):
            # w1 = w0 (1 - alpha) puts beta at exactly 1
            for w1 in (F(1), w0 * (1 - alpha)):
                for eps in ((0, 0), (F(1, 10), F(3, 10)), (F(1, 4), 0), (F(1, 2), F(1, 2))):
                    cases.append((Parameters(alpha, w0, w1), PredictionModel(F(1, 3), *eps)))
    # beta = posterior(0) = 1/2: the head probability ties the threshold
    cases.append((Parameters(F(1, 2), 3, 1), PredictionModel(F(1, 3), 0, F(1, 2))))
    return cases


def random_batch_instance(rng, params, model, n):
    """Binary batch instance with ids in a shuffled input order."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    jobs = [Job(i, rng.randint(0, 1), rng.randint(0, 1)) for i in ids]
    return Instance(jobs, params, model)


class TestLabelKernel:
    """The batch label kernel must price exactly what run() schedules."""

    def test_flags_of_the_shipped_policies(self, base_params, base_model):
        # posteriors 1/2 and 1/82 straddle beta = 2/57: the rule is hybrid here
        flags = {name: label_flags(get_policy(name), base_model, base_params)
                 for name in POLICIES}
        assert flags == {
            "nonpreemptive": (False, False),
            "preemptive": (True, True),
            "hybrid": (True, False),
            "beta": (True, False),
            "modified-beta": (True, False),
        }
        tie = PredictionModel(F(1, 3), 0, F(1, 2))
        params = Parameters(F(1, 2), 3, 1)
        assert tie.posterior(0) == params.beta()
        assert label_flags(get_policy("beta"), tie, params) == (False, False)

    def test_flags_reject_an_illegal_answer(self, base_params, base_model):
        rogue = Policy("rogue", lambda state, params: complete_low(99))
        with pytest.raises(ContractViolationError):
            label_flags(rogue, base_model, base_params)

    def test_every_policy_matches_run(self):
        rng = random.Random(2024)
        for params, model in kernel_cases():
            for n in (1, 2, 3, rng.randint(4, 9), rng.randint(10, 30)):
                inst = random_batch_instance(rng, params, model, n)
                for policy in POLICIES.values():
                    want = run(inst, policy, keep_trace=False).total_cost
                    assert kernel_cost(inst, policy) == want, (policy.name, dump_instance(inst))

    def test_every_flag_pair_matches_run(self, base_params, base_model):
        """Including (False, True), which no shipped policy produces."""
        rng = random.Random(77)
        for flags in ((False, False), (False, True), (True, False), (True, True)):
            policy = probe_classes(*flags)
            assert label_flags(policy, base_model, base_params) == flags
            for _ in range(150):
                inst = random_batch_instance(rng, base_params, base_model, rng.randint(1, 12))
                want = run(inst, policy, keep_trace=False).total_cost
                assert kernel_cost(inst, policy) == want, (flags, dump_instance(inst))

    def test_wspt_closed_form_matches_offline_wspt(self):
        rng = random.Random(5)
        for params, model in kernel_cases()[::4]:
            for n in (1, 2, rng.randint(3, 40)):
                inst = random_batch_instance(rng, params, model, n)
                s0, s1 = wspt_ticks(inst.n, inst.n0)
                want = offline_wspt(inst, keep_trace=False).total_cost
                assert params.w0 * s0 + params.w1 * s1 == want


def random_arrival_instance(rng, params, model, n):
    """Binary instance whose ids rise with release time, on the 1/8 grid with ties."""
    releases = sorted(F(rng.randrange(4 * n), 8) for _ in range(n))
    jobs = [Job(i, rng.randint(0, 1), rng.randint(0, 1), release_time=r)
            for i, r in enumerate(releases, start=1)]
    return Instance(jobs, params, model)


def release_kernel_ticks(inst, flags):
    """`label_release_ticks` on `inst` over the tick grid `run()` uses."""
    alpha = inst.params.alpha
    den = lcm(alpha.denominator, *(job.release_time.denominator for job in inst.jobs))
    classes = [([j.release_time.numerator * (den // j.release_time.denominator)
                 for j in inst.jobs if j.label == label],
                [j.true_type for j in inst.jobs if j.label == label]) for label in (0, 1)]
    return label_release_ticks(classes, flags, alpha.numerator * (den // alpha.denominator), den)


def ticks_by_type(outcome, inst):
    """An outcome's completion ticks summed by true type."""
    sums = [0, 0]
    for job in inst.jobs:
        sums[job.true_type] += outcome.completion_ticks[job.id]
    return tuple(sums)


class TestReleaseKernels:
    """The release-date kernels must price exactly what run() and offline_wsrpt schedule."""

    def test_label_kernel_matches_run_for_every_policy(self):
        rng = random.Random(606)
        for params, model in kernel_cases():
            for n in (1, 2, 3, rng.randint(4, 9), rng.randint(10, 30)):
                inst = random_arrival_instance(rng, params, model, n)
                for policy in POLICIES.values():
                    flags = label_flags(policy, model, params)
                    out = run(inst, policy, keep_trace=False)
                    assert release_kernel_ticks(inst, flags) == ticks_by_type(out, inst), (
                        policy.name, dump_instance(inst))

    def test_label_kernel_matches_run_for_every_flag_pair(self, base_params, base_model):
        rng = random.Random(78)
        for flags in ((False, False), (False, True), (True, False), (True, True)):
            policy = probe_classes(*flags)
            for _ in range(150):
                inst = random_arrival_instance(rng, base_params, base_model, rng.randint(1, 12))
                out = run(inst, policy, keep_trace=False)
                assert release_kernel_ticks(inst, flags) == ticks_by_type(out, inst), (
                    flags, dump_instance(inst))

    def test_wsrpt_kernel_matches_offline_wsrpt(self, base_model):
        rng = random.Random(9)
        for w0, w1 in ((2, 1), (20, 1), (F(7, 2), F(3, 4)), (8, 7)):
            params = Parameters(F(2, 5), w0, w1)
            for _ in range(60):
                inst = random_arrival_instance(rng, params, base_model, rng.randint(1, 30))
                assert wsrpt_kernel_cost(inst) == offline_wsrpt(inst, keep_trace=False).total_cost

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.sampled_from([(2, 1), (4, 1), (8, 7), (3, 2), (20, 1), (F(7, 2), F(3, 4))]),
        jobs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15)), min_size=1, max_size=5),
    )
    # equal release times
    @example(weights=(2, 1), jobs=[(1, 0), (0, 0), (1, 0), (0, 3), (0, 3)])
    # w0 * x == w1 * den at the urgent release: x = 1/2, 1/4, 7/8 left; no preemption
    @example(weights=(2, 1), jobs=[(1, 0), (0, 4)])
    @example(weights=(4, 1), jobs=[(1, 0), (0, 6), (0, 6)])
    @example(weights=(8, 7), jobs=[(1, 1), (0, 2), (1, 2)])
    def test_wsrpt_kernel_equals_both_oracles(self, weights, jobs):
        """On the 1/8 grid at n <= 5: offline_wsrpt and the enumerated optimum."""
        params = Parameters(F(2, 5), *weights)
        inst = Instance([Job(i, tt, tt, release_time=F(k, 8))
                         for i, (tt, k) in enumerate(jobs, start=1)],
                        params, PredictionModel(F(1, 2), 0, 0))
        cost = wsrpt_kernel_cost(inst)
        assert cost == offline_wsrpt(inst, keep_trace=False).total_cost
        assert cost == enumerate_offline_optimum(inst, limit=5)

    def test_urgent_release_at_the_tie_does_not_preempt(self):
        # w0 = 2, w1 = 1, unit = 2 ticks: at tick 1 the non-urgent job has
        # x = 1 tick left and w0 * x == w1 * den, so it keeps the machine; the
        # tie falls before the last release, and at it
        params = Parameters(F(2, 5), 2, 1)
        for later in ([Job(3, 1, 1, release_time=F(5))], []):
            jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(1, 2))] + later
            tie = Instance(jobs, params, PredictionModel(F(1, 2), 0, 0))
            out = offline_wsrpt(tie)
            assert out.preemption_count == 0
            ticks = [int(job.release_time * 2) for job in jobs]
            types = [job.true_type for job in jobs]
            assert wsrpt_release_ticks(ticks, types, 2, 1, 2) == ticks_by_type(out, tie)
        # one tick earlier (unit = 8 ticks) x = 5 and w0 * x > w1 * den: it yields
        assert wsrpt_release_ticks([0, 3], [1, 0], 2, 1, 8) == (11, 16)
        assert wsrpt_release_ticks([0, 3, 40], [1, 0, 1], 2, 1, 8) == (11, 16 + 48)
