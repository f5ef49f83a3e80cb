import ast
import inspect
import math
import os
import random
import sys
import textwrap
from fractions import Fraction
from itertools import accumulate, compress
from math import comb, lcm
from operator import not_
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched.analytics import expected_unconditional
from betasched.domain import (
    Instance,
    Job,
    Parameters,
    PredictionModel,
    dump_instance,
    make_job,
    sample_instance,
)
from betasched.engine import (
    TREE_N_LIMIT,
    enumerate_offline_optimum,
    expectimax_optimal,
    format_trace,
    label_flags,
    label_release_ticks,
    label_schedule_ticks,
    offline_wspt,
    offline_wsrpt_cost,
    release_lists,
    rule_expected_cost,
    run,
    tree_layers,
    type_release_lists,
    wsrpt_release_ticks,
    wspt_ticks,
)
from betasched.errors import (
    ContractViolationError,
    ResourceLimitError,
    UnsupportedInputError,
)
from betasched.policies import (
    EXACT_REVELATION,
    MAX_BETA_SHAPE,
    OPEN_NEXT,
    POLICIES,
    Policy,
    PosteriorRevelation,
    get_policy,
    hybrid_decide,
)
from conftest import (
    CHANNEL,
    INTEGER_MODIFIED_BETA,
    LabelClass,
    SCAN_MODIFIED_BETA,
    drawn_channel,
    fraction_tree_expected_cost,
    offline_wsrpt,
    probe_label_1_decide,
    run_record,
    scan_argmax_theta,
    sort_for_policy,
    tree_expected_costs,
    urgent_count,
    worked_example_instance,
)

F = Fraction


def threshold_flags(model, threshold):
    """Label flags of a beta rule at `threshold`: label l is probed iff posterior(l) > threshold."""
    return model.posterior(0) > threshold, model.posterior(1) > threshold


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
        bad = Policy("bad", lambda s, p: 99)
        inst = Instance([Job(1, 0, 0)], base_params, base_model)
        with pytest.raises(ContractViolationError) as err:
            run(inst, bad)
        assert "job 99" in str(err.value)

    def test_opening_with_only_interrupted_work_left(self, base_params, base_model):
        # job 2 is non-urgent, so at its alpha point only interrupted work is left
        always_open = Policy("always-open", lambda s, p: OPEN_NEXT)
        inst = Instance([Job(1, 1, 1), Job(2, 1, 0)], base_params, base_model)
        with pytest.raises(ContractViolationError) as err:
            run(inst, always_open)
        assert str(err.value) == "policy always-open opened with an empty queue at t=4/5"

    def test_unhashable_answer_is_a_contract_error(self, base_params, base_model):
        inst = Instance([Job(1, 1, 1), Job(2, 1, 1)], base_params, base_model)
        bad = Policy("listy", lambda s, p: [1] if s.n_interrupted else OPEN_NEXT)
        with pytest.raises(ContractViolationError, match=r"completed job \[1\], which is not"):
            run(inst, bad)

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

    @staticmethod
    def sorted_order_outcome(inst):
        """(completion ticks, cost, trace) of urgent first, ids ascending, back to back."""
        order = sorted(inst.jobs, key=lambda j: (j.true_type, j.id))
        comp = {job.id: pos for pos, job in enumerate(order, start=1)}
        cost = sum(job.weight(inst.params) * comp[job.id] for job in order)
        trace = tuple(ev for pos, job in enumerate(order, start=1) for ev in (
            (F(pos - 1), "open", job.id, job.true_type), (F(pos), "complete", job.id, job.true_type)))
        return comp, cost, trace

    def test_same_outcome_before_and_after_a_run(self, base_params, base_model):
        rng = random.Random(4)
        for n in (1, 2, 9, 40):
            binary = random_batch_instance(rng, base_params, base_model, n)
            for inst in (binary, p_hat_grid_instance(rng, n, base_params)):
                before = offline_wspt(inst)
                assert (before.completion_ticks, before.total_cost, before.trace) == \
                    self.sorted_order_outcome(inst)
                run(inst, get_policy("preemptive"), PosteriorRevelation(), rng=random.Random(n))
                after = offline_wspt(inst)
                assert after.completion_ticks == before.completion_ticks
                assert list(after.completion_ticks) == list(before.completion_ticks)
                assert (after.den, after.total_cost, after.trace, after.preemption_count) == \
                    (before.den, before.total_cost, before.trace, before.preemption_count)
                assert offline_wspt(inst, keep_trace=False).trace is None

    def test_fresh_instance_builds_no_run_layout(self, base_params, base_model):
        rng = random.Random(9)
        for n in (1, 2, 9, 40):
            binary = random_batch_instance(rng, base_params, base_model, n)
            for inst in (binary, p_hat_grid_instance(rng, n, base_params)):
                fresh = offline_wspt(inst)
                assert "run_layout" not in vars(inst)
                assert (fresh.completion_ticks, fresh.total_cost, fresh.trace) == \
                    self.sorted_order_outcome(inst)
                again = offline_wspt(inst)
                assert list(again.completion_ticks) == list(fresh.completion_ticks)
                assert (again.total_cost, again.trace) == (fresh.total_cost, fresh.trace)

    def test_refuses_release_dates_before_and_after_a_run(self, base_params, base_model):
        message = "offline_wspt needs all release times 0; use offline_wsrpt_cost"
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(3, 7))]
        for inst in (Instance(jobs, base_params, base_model),
                     Instance([make_job(j.id, j.true_type, p_hat=F(1, 3), release_time=j.release_time)
                               for j in jobs], base_params)):
            with pytest.raises(UnsupportedInputError) as err:
                offline_wspt(inst)
            assert str(err.value) == message
            run(inst, get_policy("beta"))
            with pytest.raises(UnsupportedInputError) as err:
                offline_wspt(inst)
            assert str(err.value) == message


class TestOfflineWsrpt:
    """The event-loop reference in conftest; pinned costs hold the kernel too."""

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
        assert offline_wsrpt_cost(inst) == 32
        assert out.preemption_count == 1
        assert enumerate_offline_optimum(inst) == 32

    def test_late_arrival_inside_no_preempt_window(self, base_params, base_model):
        # remaining work 1/20 at the arrival 0.96 beats switching: 1/0.04 > 20
        jobs = [Job(1, 1, 1), Job(2, 0, 0, release_time=F(96, 100))]
        inst = Instance(jobs, base_params, base_model)
        out = offline_wsrpt(inst)
        assert out.completion_times[1] == 1
        assert out.completion_times[2] == 2
        assert out.total_cost == 41
        assert offline_wsrpt_cost(inst) == 41
        assert out.preemption_count == 0

    def test_matches_enumeration_on_random_instances(self, base_params):
        from betasched.experiments import random_release_instance

        rng = random.Random(17)
        for _ in range(150):
            w0, w1 = random.Random(rng.random()).choice([(2, 1), (20, 1), (7, 3)])
            params = Parameters(F(2, 5), w0, w1)
            inst = random_release_instance(rng, params)
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
        # one limit for both tree evaluators, refused before any work
        for evaluate in (expectimax_optimal, rule_expected_cost):
            with pytest.raises(ResourceLimitError, match=f"exceeds the limit {TREE_N_LIMIT}"):
                evaluate(TREE_N_LIMIT + 1, base_model, base_params)
            with pytest.raises(ValueError, match="n must be at least 1"):
                evaluate(0, base_model, base_params)

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

        from betasched.policies import OPEN_NEXT, Policy
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
                    return state.interrupted.first_id()
                if ell == 0:
                    return OPEN_NEXT
                if choice[(u0, u1, ell)] == "open":
                    return OPEN_NEXT
                return state.interrupted.first_id()

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
        flags = threshold_flags(base_model, base_params.beta() + F(1, 2))
        best = tree_expected_costs(5, base_model, base_params, None)
        shifted = tree_expected_costs(5, base_model, base_params, flags)
        assert all(s >= b for s, b in zip(shifted, best))
        assert shifted != best


class TestTreeMatchesEngine:
    """The tree evaluator and the engine agree realization by realization."""

    def test_rule_costs_match_bruteforce_engine_means(self, base_params, base_model):
        from conftest import bruteforce_unconditional_mean

        for rule in ("nonpreemptive", "preemptive", "hybrid", "beta", "modified-beta"):
            tree = rule_expected_cost(4, base_model, base_params, rule)
            brute = bruteforce_unconditional_mean(4, base_model, base_params, rule)
            assert tree == brute, rule

    def test_probing_only_label_1_matches_bruteforce_engine_means(self, base_params, base_model,
                                                                  monkeypatch):
        from conftest import bruteforce_unconditional_mean, probe_label_1_decide

        monkeypatch.setitem(POLICIES, "probe-01", Policy("probe-01", probe_label_1_decide))
        assert label_flags(POLICIES["probe-01"], base_model, base_params) == (False, True)
        tree = tree_expected_costs(4, base_model, base_params, (False, True))
        assert rule_expected_cost(4, base_model, base_params, "probe-01") == tree[-1]
        assert tree[-1] == bruteforce_unconditional_mean(4, base_model, base_params, "probe-01")

    def test_unknown_rule_rejected(self, base_params, base_model):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            rule_expected_cost(3, base_model, base_params, "nope")

    def test_threshold_at_a_posterior_does_not_probe_it(self, base_params, base_model):
        # label l is probed iff posterior(l) > threshold; posteriors 1/2 and 1/82
        at_p0 = threshold_flags(base_model, base_model.posterior(0))
        at_p1 = threshold_flags(base_model, base_model.posterior(1))
        assert (at_p0, at_p1) == ((False, False), (True, False))
        for n in (2, 3, 4):
            at_p0_cost = tree_expected_costs(n, base_model, base_params, at_p0)[-1]
            at_p1_cost = tree_expected_costs(n, base_model, base_params, at_p1)[-1]
            assert at_p0_cost == rule_expected_cost(n, base_model, base_params, "nonpreemptive")
            assert at_p1_cost == rule_expected_cost(n, base_model, base_params, "hybrid")
            assert at_p0_cost != at_p1_cost


FLAG_SETS = [None, (True, True), (False, False), (True, False), (False, True)]


def tree_channels(alphas, weights, rhos, eps_pairs):
    for alpha in alphas:
        for w0, w1 in weights:
            params = Parameters(alpha, w0, w1)
            for rho in rhos:
                for e0, e1 in eps_pairs:
                    yield params, PredictionModel(rho, e0, e1)


# a rule for each fixed flag set; probe-01 probes label 1 only
RULE_OF_FLAGS = {(True, True): "preemptive", (False, False): "nonpreemptive",
                 (True, False): "hybrid", (False, True): "probe-01"}


class TestIntegerTree:
    """The bottom-up integer pass against the recursive Fraction oracle."""

    # eps 0 puts the posteriors at 1 and 0, eps 1/2 collapses them to rho;
    # alpha 3/7 has an odd denominator, and w0 = 7/3 puts the weights on a
    # grid with a denominator above 1
    CHANNELS = list(tree_channels(
        (F(1, 4), F(7, 10), F(3, 7)),
        ((20, 1), (F(7, 3), 1)),
        (F(1, 10), F(1, 2)),
        ((0, 0), (F(1, 2), F(1, 2)), (F(1, 10), F(3, 10)), (0, F(1, 2))),
    ))

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=str)
    def test_one_pass_equals_the_oracle_at_every_n(self, flags):
        n_max = 8
        for params, model in self.CHANNELS:
            costs = tree_expected_costs(n_max, model, params, flags)
            assert len(costs) == n_max
            for n in range(1, n_max + 1):
                want = fraction_tree_expected_cost(n, model, params, flags)
                assert costs[n - 1] == want, (n, params, model)

    @settings(max_examples=25, deadline=None)
    @given(n_max=st.integers(1, 10), **CHANNEL)
    # alpha with an odd denominator on the weight-gap boundary (beta = 1), both
    # labels probed and collapsed posteriors
    @example(n_max=10, alpha=F(3, 7), w1=F(7, 3), gap="boundary", rho=F(1, 10),
             e0=F(1, 10), e1=F(3, 10))
    @example(n_max=10, alpha=F(2, 9), w1=F(3, 2), gap=F(5, 4), rho=F(3, 10), e0=F(1, 2), e1=F(1, 2))
    @example(n_max=9, alpha=F(1, 3), w1=F(1, 2), gap=F(19, 2), rho=F(2, 5), e0=0, e1=0)
    def test_random_channels_equal_the_oracle(self, n_max, alpha, w1, gap, rho, e0, e1):
        """Every flag set, every n <= n_max: equal to the recursive Fraction oracle."""
        params, model = drawn_channel(alpha, w1, gap, rho, e0, e1)
        for flags in FLAG_SETS:
            costs = tree_expected_costs(n_max, model, params, flags)
            assert costs == [fraction_tree_expected_cost(n, model, params, flags)
                             for n in range(1, n_max + 1)], (flags, params, model)

    @settings(max_examples=25, deadline=None)
    @given(n_max=st.integers(1, 10), **CHANNEL)
    @example(n_max=10, alpha=F(3, 7), w1=F(7, 3), gap="boundary", rho=F(1, 10),
             e0=F(1, 10), e1=F(3, 10))
    @example(n_max=8, alpha=F(2, 9), w1=F(3, 2), gap=F(5, 4), rho=F(3, 10), e0=F(1, 2), e1=F(1, 2))
    def test_roots_decide_the_mixture(self, n_max, alpha, w1, gap, rho, e0, e1):
        """No rule's root is below the optimum's, and at each n the two mixtures
        are equal iff every root of layer n is: what `verify_optimality` relies on.
        """
        params, model = drawn_channel(alpha, w1, gap, rho, e0, e1)
        best_costs = tree_expected_costs(n_max, model, params, None)
        best_layers = list(tree_layers(n_max, model, params, None))
        for flags in FLAG_SETS:
            costs = tree_expected_costs(n_max, model, params, flags)
            layers = zip(best_layers, tree_layers(n_max, model, params, flags), strict=True)
            for n, ((best, den), (rule, rule_den)) in enumerate(layers, 1):
                assert den == rule_den
                roots = [(b[0], r[0]) for b, r in zip(best, rule, strict=True)]
                assert len(roots) == n + 1 and all(r >= b for b, r in roots)
                assert (costs[n - 1] == best_costs[n - 1]) == all(r == b for b, r in roots), \
                    (n, flags, params, model)

    def test_every_row_branch_runs(self, base_params, base_model):
        """Each flag set runs the row branches it names, and only those.

        Flags None fill a list row in the min loop. Under fixed flags a row is
        three coefficients with no loop over ell: a probed label's rows take
        the probed branch and a held label's the held branch, so (True, False)
        and (False, True) run both. The rows live in `tree_layers`, the one
        pass that the evaluators and `verify_optimality` read.
        """
        lines, first = inspect.getsourcelines(tree_layers)
        tree = ast.parse(textwrap.dedent("".join(lines)))
        row_loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For)
                        and getattr(node.target, "id", None) == "child")
        branches = {}  # the first statement of each row branch, by kind
        for node in ast.walk(row_loop):
            if isinstance(node, ast.If) and ast.unparse(node.test) == "flags is None":
                (min_loop,) = [stmt for stmt in node.body if isinstance(stmt, ast.For)]
                branches["min"] = min_loop.body[0]
                assert not any(isinstance(inner, ast.For)
                               for stmt in node.orelse for inner in ast.walk(stmt))
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "flags[lab]":
                branches["probe"], branches["hold"] = node.body[0], node.orelse[0]
        assert len(branches) == 3
        bodies = {kind: first - 1 + stmt.lineno for kind, stmt in branches.items()}
        code = tree_layers.__code__

        def runs(flags):
            hit = set()

            def trace_lines(frame, event, arg):
                if event == "line":
                    hit.add(frame.f_lineno)
                return trace_lines

            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg:
                         trace_lines if frame.f_code is code else None)
            try:
                tree_expected_costs(3, base_model, base_params, flags)
            finally:
                sys.settrace(previous)
            return {kind for kind, line in bodies.items() if line in hit}

        assert runs(None) == {"min"}
        assert runs((True, True)) == {"probe"}
        assert runs((False, False)) == {"hold"}
        assert runs((True, False)) == {"probe", "hold"}
        assert runs((False, True)) == {"probe", "hold"}

    @settings(max_examples=25, deadline=None)
    @given(**CHANNEL)
    def test_evaluators_equal_the_last_entry(self, alpha, w1, gap, rho, e0, e1):
        """Mixed at n alone, each evaluator equals the every-n mixture's last entry."""
        params, model = drawn_channel(alpha, w1, gap, rho, e0, e1)
        with patch.dict(POLICIES, {"probe-01": Policy("probe-01", probe_label_1_decide)}):
            for n in range(1, 13):
                assert expectimax_optimal(n, model, params) == \
                    tree_expected_costs(n, model, params, None)[-1]
                for flags, name in RULE_OF_FLAGS.items():
                    assert label_flags(get_policy(name), model, params) == flags
                    assert rule_expected_cost(n, model, params, name) == \
                        tree_expected_costs(n, model, params, flags)[-1], (n, flags)

    def test_public_evaluators_take_the_last_entry(self, base_params, base_model):
        for n in (1, 2, 7):
            assert expectimax_optimal(n, base_model, base_params) == \
                fraction_tree_expected_cost(n, base_model, base_params, None)
            flags = label_flags(get_policy("beta"), base_model, base_params)
            assert rule_expected_cost(n, base_model, base_params, "beta") == \
                fraction_tree_expected_cost(n, base_model, base_params, flags)


class TestTreeMatchesClosedForms:
    """Each fixed policy's tree cost is its closed form, far past brute force."""

    N_MAX = 30
    # w1 = 12 puts alpha = 2/5, w0 = 20 on the weight-gap boundary (beta = 1)
    CHANNELS = list(tree_channels(
        (F(2, 5), F(7, 10)),
        ((20, 1), (20, 12), (3, 1)),
        (F(1, 10), F(1, 2)),
        ((F(1, 10), F(1, 10)), (0, 0), (F(1, 2), F(1, 2)), (F(1, 10), F(3, 10))),
    ))

    @pytest.mark.parametrize("name", ["nonpreemptive", "preemptive", "hybrid", "beta"])
    def test_rule_cost_equals_expected_unconditional(self, name):
        for params, model in self.CHANNELS:
            flags = label_flags(get_policy(name), model, params)
            costs = tree_expected_costs(self.N_MAX, model, params, flags)
            for n in range(1, self.N_MAX + 1):
                want = expected_unconditional(n, model, params).for_policy(name)
                assert costs[n - 1] == want, (n, params, model)
            assert rule_expected_cost(self.N_MAX, model, params, name) == costs[-1]

    @pytest.mark.parametrize("name, flags, params, model", [
        ("preemptive", (True, True),
         Parameters(F(2, 5), 20, 1), PredictionModel(F(1, 10), F(1, 10), F(3, 10))),
        ("nonpreemptive", (False, False),
         Parameters(F(3, 7), F(7, 3), 1), PredictionModel(F(1, 2), F(1, 10), F(1, 10))),
        ("hybrid", (True, False),
         Parameters(F(7, 10), 20, 12), PredictionModel(F(1, 10), 0, F(1, 2))),
    ], ids=["preemptive", "nonpreemptive", "hybrid"])
    def test_rule_cost_at_the_size_limit(self, name, flags, params, model):
        # one pass per flag set that has a closed form, each n up to the limit
        assert label_flags(get_policy(name), model, params) == flags
        costs = tree_expected_costs(TREE_N_LIMIT, model, params, flags)
        assert costs == [expected_unconditional(n, model, params).for_policy(name)
                         for n in range(1, TREE_N_LIMIT + 1)]
        assert rule_expected_cost(TREE_N_LIMIT, model, params, name) == costs[-1]


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
            return state.interrupted.first_id()

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
            return state.interrupted.first_id()

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
        # are the ends of the range, and 1/3 +- 1/(3*10^30) are distinct
        # values with the float of 1/3
        e30 = 10 ** 30
        values = ("0", "1", "1/2", "0.5", "2/4", "1/3", "2/6", "1/82", "2/57", "0.999",
                  f"{e30 + 1}/{3 * e30}", f"{e30 - 1}/{3 * e30}")
        for n in (1, 2, 5, 17, 40):
            ids = list(range(1, n + 1))
            rng.shuffle(ids)
            jobs = [make_job(i, rng.randint(0, 1), p_hat=rng.choice(values)) for i in ids]
            self.assert_sorted_order(Instance(jobs, base_params))


# draws per shape branch in the sampler's differential tests (10**6 in CI)
POSTERIOR_DRAWS = int(os.environ.get("BETASCHED_POSTERIOR_DRAWS", "100000"))
JUST_ABOVE_ONE = math.nextafter(1.0, 2.0)
# each branch of `random.betavariate` and `random.gammavariate`, as (a0, b0,
# a1, b1); `test_sample_is_the_float_draw` draws the defaults
SHAPE_BRANCHES = {
    "half": (0.5, 0.5, 0.5, 0.5),
    "one": (1.0, 1.0, 1.0, 1.0),
    "just-above-one": (1.0000001, JUST_ABOVE_ONE, JUST_ABOVE_ONE, 1.0000001),
    "1.5-against-300": (1.5, 300.0, 300.0, 1.5),
    "largest": (MAX_BETA_SHAPE, MAX_BETA_SHAPE, 1.5, MAX_BETA_SHAPE),
    "mixed": (0.5, 3.0, 1.0, 1.5),
    "mixed-reversed": (3.0, 0.5, 1.5, 1.0),
}
# what `random()` may return at the edges of Cheng's algorithm: 0.0, its
# reject bounds 1e-7 and 0.9999999 with their neighbours, a point inside 1e-6,
# and the largest float below 1
EDGE_UNIFORMS = (0.0, 1e-7, math.nextafter(1e-7, 1.0), 5e-7, 1e-6,
                 math.nextafter(0.9999999, 0.0), 0.9999999, math.nextafter(0.9999999, 1.0),
                 math.nextafter(1.0, 0.0))


class EdgeRandom(random.Random):
    """A seeded stream whose every third `random()` call returns the next
    value of EDGE_UNIFORMS, in turn. A Cheng attempt takes two calls, so the
    edge values fall on its u1 and on its u2 alike."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        if self.calls % 3:
            return super().random()
        return EDGE_UNIFORMS[self.calls // 3 % len(EDGE_UNIFORMS)]


def assert_draws_equal(rev, a, b, draws):
    """`rev.sample` on stream `a` against the stdlib's `betavariate` on stream
    `b`, the two types in turn: the same floats, the same number of `log`
    calls (so the same squeeze), and the same stream state after them."""
    shapes = ((rev.a0, rev.b0), (rev.a1, rev.b1))
    logs = [0]

    def counted(x):
        logs[0] += 1
        return math.log(x)

    with patch("betasched.policies.log", counted), patch("random._log", counted):
        got = [rev.sample(k & 1, a) for k in range(draws)]
        got_logs, logs[0] = logs[0], 0
        want = [b.betavariate(*shapes[k & 1]) for k in range(draws)]
    assert {type(theta) for theta in got} == {float}
    assert got == want
    assert got_logs == logs[0]
    assert (a.getstate(), vars(a)) == (b.getstate(), vars(b))


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

    @pytest.mark.parametrize("shape", [float("nan"), float("inf"), -float("inf"), 0, -1, 1e308],
                             ids=["nan", "inf", "-inf", "0", "-1", "1e308"])
    def test_bad_beta_shapes_are_refused(self, shape):
        # each of these once reached random.gammavariate: 0, -1 and -inf
        # raised at the first reveal, and nan, inf and 1e308 never returned
        for field in ("a0", "b0", "a1", "b1"):
            with pytest.raises(ValueError, match=f"Beta shape {field}"):
                PosteriorRevelation(**{field: shape})

    def test_largest_accepted_shape_draws(self):
        rng = random.Random(2)
        for shapes in ({"a0": MAX_BETA_SHAPE}, {"b0": MAX_BETA_SHAPE},
                       {"a1": MAX_BETA_SHAPE, "b1": MAX_BETA_SHAPE}):
            rev = PosteriorRevelation(**shapes)
            for true_type in (0, 1):
                theta = rev.sample(true_type, rng)
                assert type(theta) is float and 0 <= theta <= 1

    def test_sample_is_the_float_draw(self):
        rev = PosteriorRevelation()
        assert_draws_equal(rev, random.Random(9), random.Random(9), POSTERIOR_DRAWS)
        assert_draws_equal(rev, EdgeRandom(9), EdgeRandom(9), POSTERIOR_DRAWS // 10)

    @pytest.mark.parametrize("shapes", SHAPE_BRANCHES.values(), ids=SHAPE_BRANCHES)
    def test_every_shape_branch_draws_the_stdlib_floats(self, shapes):
        rev = PosteriorRevelation(*shapes)
        assert_draws_equal(rev, random.Random(5), random.Random(5), POSTERIOR_DRAWS)
        if min(shapes) > 1.0:  # the stdlib's own edge cases are all in Cheng's branch
            assert_draws_equal(rev, EdgeRandom(5), EdgeRandom(5), POSTERIOR_DRAWS // 10)

    @settings(max_examples=60, deadline=None)
    @given(shapes=st.tuples(*[st.floats(0, 50, exclude_min=True)] * 4),
           seed=st.integers(0, 2 ** 32))
    @example(shapes=(1.0, 1.0, 1.0, 1.0), seed=0)
    @example(shapes=(JUST_ABOVE_ONE,) * 4, seed=0)
    @example(shapes=(1.0, JUST_ABOVE_ONE, JUST_ABOVE_ONE, 1.0), seed=1)
    @example(shapes=(JUST_ABOVE_ONE, 1.5, 50.0, JUST_ABOVE_ONE), seed=2)
    def test_random_shapes_draw_the_stdlib_floats(self, shapes, seed):
        rev = PosteriorRevelation(*shapes)
        assert_draws_equal(rev, random.Random(seed), random.Random(seed), 300)
        assert_draws_equal(rev, EdgeRandom(seed), EdgeRandom(seed), 300)

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
    """The modified-beta threshold, from Fractions (a float theta is converted exactly)."""
    theta = Fraction(theta)
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

    def test_equals_the_integer_decide(self, base_params):
        # the float comparison against the one integer test it replaced: the
        # same run, the same draws, under both reveals and the tie stub
        rng = random.Random(35)
        channels = [base_params] + [
            Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), F(rng.randint(1, 3), 2))
            for _ in range(6)]
        modified_beta = get_policy("modified-beta")
        for params in channels:
            # p_hat anywhere in [0, 1], at its ends, and at beta where beta <= 1
            pool = (min(params.beta(), F(1)), F(0), F(1))
            for n in (1, 2, 9, 40, 200):
                grid = p_hat_grid_instance(rng, n, params, releases=rng.random() < 0.3)
                free = Instance(
                    [make_job(j, rng.randint(0, 1), p_hat=rng.choice(
                        (F(rng.randrange(10**6), 10**6),) + pool)) for j in range(1, n + 1)],
                    params)
                for inst in (grid, free):
                    for revelation in self.REVELATIONS:
                        seed = rng.randrange(10 ** 6)
                        assert (run_record(inst, modified_beta, revelation, seed)
                                == run_record(inst, INTEGER_MODIFIED_BETA, revelation, seed))

    def test_stale_heap_entries(self, base_params, base_model):
        # completing the FIFO head leaves its heap entry behind until it surfaces

        def fifo_then_argmax(argmax):
            def decide(state, params):
                k = len(state.interrupted)
                if k == 0 or (len(state.unopened) and k < 3):
                    return OPEN_NEXT
                if k % 2:
                    return state.interrupted.first_id()
                return argmax(state.interrupted)[0]
            return Policy("mixed", decide)

        heap = fifo_then_argmax(lambda q: q.argmax_theta())
        scan = fifo_then_argmax(scan_argmax_theta)
        rng = random.Random(8)
        for _ in range(30):
            inst = p_hat_grid_instance(rng, rng.randint(1, 60), base_params, releases=True)
            for revelation in self.REVELATIONS:
                self.same_run(inst, revelation, rng.randrange(10 ** 6), heap, scan)


class FractionRevelation:
    """`PosteriorRevelation()` with each draw returned as the equal Fraction."""

    inner = PosteriorRevelation()

    def sample(self, true_type, rng):
        return F(self.inner.sample(true_type, rng))


class TestFloatTheta:
    """Every rule runs on the float thetas as on the equal Fractions: same bytes, same draws."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_same_runs_as_fraction_thetas(self, name, base_model):
        policy = POLICIES[name]
        rng = random.Random(21)
        for releases in (False, True):
            for _ in range(12):
                params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), F(rng.randint(1, 3), 2))
                n = rng.choice((1, 2, 9, 40, 120))
                binary = Instance(
                    [Job(i, rng.randint(0, 1), rng.randint(0, 1),
                         release_time=F(rng.randrange(12), 4) if releases and rng.random() < 0.5 else F(0))
                     for i in range(1, n + 1)],
                    params, base_model,
                )
                for inst in (binary, p_hat_grid_instance(rng, n, params, releases)):
                    seed = rng.randrange(10 ** 6)
                    a = run_record(inst, policy, PosteriorRevelation(), seed)
                    assert a == run_record(inst, policy, FractionRevelation(), seed)


class RecordingRevelation:
    """Passes every theta of `inner` through and keeps them in draw order."""

    def __init__(self, inner):
        self.inner = inner
        self.drawn = []

    def sample(self, true_type, rng):
        theta = self.inner.sample(true_type, rng)
        self.drawn.append(theta)
        return theta


class TestTombstonedQueue:
    """The interrupted queue a policy sees, against a plain list the policy keeps.

    (The name is from the queue's earlier tombstoned list.) The policy
    completes interrupted jobs in an order drawn from its own state, so many
    completions take a job from the middle of the FIFO, and reads `argmax_theta` only now and then: first once several jobs are
    set aside, then at random, and again whenever the queue has drained and
    refilled (a read sometimes starts a drain), so the theta heap is built,
    kept, run empty and rebuilt.
    """

    def checked_policy(self, inst, revelation, seen):
        true_of = {job.id: job.true_type for job in inst.jobs}
        model = []  # (job_id, theta) of the set-aside jobs, FIFO
        memo = {"opened": None, "reads": 0, "drain": False, "refill": False}

        def decide(state, params):
            opened = memo["opened"]
            if opened is not None:
                if revelation is not EXACT_REVELATION:
                    model.append((opened, revelation.drawn[-1]))
                elif true_of[opened] == 1:
                    model.append((opened, F(0)))
                memo["opened"] = None
            q = state.interrupted
            assert len(q) == len(model)
            assert list(q.items()) == model
            if model:
                assert q.first_id() == model[0][0]
            else:
                memo["refill"] = memo["reads"] > 0
                memo["drain"] = False
            c = state.clock
            h = (c.numerator * 7919 + c.denominator * 104729 + 31 * len(state.unopened)
                 + len(model)) % 1000003
            if not model or (len(state.unopened) and not memo["drain"] and h % 3):
                memo["opened"] = next(state.unopened.items())[0]
                return OPEN_NEXT
            if ((memo["reads"] == 0 and len(model) >= 4) or (memo["reads"] and h % 5 == 0)
                    or (memo["refill"] and len(model) >= 2)):
                got = q.argmax_theta()
                # max() returns the first of equal maxima: FIFO among ties
                assert got == max(model, key=lambda e: e[1]) == scan_argmax_theta(q)
                seen["first read" if memo["reads"] == 0 else
                     "read after a refill" if memo["refill"] else "read"] += 1
                memo["reads"] += 1
                memo["refill"] = False
                memo["drain"] = h % 4 == 0  # then complete until the queue is empty
                target = got[0]
            else:
                target = model[h % len(model)][0]
                seen["head" if target == model[0][0] else "non-head"] += 1
            model.remove(next(e for e in model if e[0] == target))
            return target

        return Policy("checked", decide)

    @pytest.mark.parametrize("releases", [False, True])
    def test_queue_matches_a_plain_list(self, base_params, base_model, releases):
        seen = dict.fromkeys(("first read", "read", "read after a refill", "head", "non-head"), 0)
        rng = random.Random(21 + releases)
        for _ in range(40):
            n = rng.randint(1, 60)
            binary = Instance(
                [Job(i, rng.randint(0, 1), rng.randint(0, 1),
                     release_time=F(rng.randrange(12), 4) if releases and rng.random() < 0.5
                     else F(0))
                 for i in range(1, n + 1)],
                base_params, base_model,
            )
            for inst in (binary, p_hat_grid_instance(rng, n, base_params, releases)):
                seed = rng.randrange(10 ** 6)
                for revelation in TestThetaHeapDifferential.REVELATIONS:
                    if revelation is not EXACT_REVELATION:
                        revelation = RecordingRevelation(revelation)
                    out = run(inst, self.checked_policy(inst, revelation, seen), revelation,
                              rng=random.Random(seed))
                    assert len(out.completion_ticks) == n
        assert min(seen.values()) > 20, seen

    @staticmethod
    def completes(*targets):
        """Opens until two jobs are set aside, then completes `targets` in turn."""
        todo = list(targets)

        def decide(state, params):
            if len(state.unopened) and len(state.interrupted) < 2 and len(todo) == len(targets):
                return OPEN_NEXT
            return todo.pop(0)

        return Policy("scripted", decide)

    @pytest.mark.parametrize("targets, message", [
        # 2 is a non-head job: completing it takes it from the middle of the FIFO
        ((2, 2), "policy scripted completed job 2, which is not interrupted, "
                 "at t=7/5 (1/4 done, 2 unopened, 1 interrupted)"),
        ((1, 1), "policy scripted completed job 1, which is not interrupted, "
                 "at t=7/5 (1/4 done, 2 unopened, 1 interrupted)"),
        ((3,), "policy scripted completed job 3, which is not interrupted, "
               "at t=4/5 (0/4 done, 2 unopened, 2 interrupted)"),
    ])
    def test_completing_a_job_not_set_aside(self, base_params, base_model, targets, message):
        inst = Instance([Job(i, 1, 1) for i in range(1, 5)], base_params, base_model)
        with pytest.raises(ContractViolationError) as err:
            run(inst, self.completes(*targets))
        assert str(err.value) == message

    def test_completing_a_job_that_ran_through(self, base_params, base_model):
        # job 1 is urgent, so under exact reveal it runs straight to completion
        # and is never set aside
        def decide(state, params):
            if len(state.unopened) == 3:
                return OPEN_NEXT
            return 1

        inst = Instance([Job(1, 0, 0), Job(2, 1, 1), Job(3, 1, 1)], base_params, base_model)
        with pytest.raises(ContractViolationError) as err:
            run(inst, Policy("again", decide))
        assert str(err.value) == ("policy again completed job 1, which is not interrupted, "
                                  "at t=1 (1/3 done, 2 unopened, 0 interrupted)")


def release_time(draw, n):
    """0, or a release on one of several grids, far enough out for idle gaps."""
    if draw(st.booleans()):
        return F(0)
    grid = draw(st.sampled_from((1, 2, 3, 4, 5, 7, 10)))
    return F(draw(st.integers(0, 3 * n * grid)), grid)


@st.composite
def instance_specs(draw):
    """The data of an instance: binary or p_hat, n >= 1, mixed release grids."""
    n = draw(st.integers(1, 12))
    binary = draw(st.booleans())
    releases = draw(st.booleans())
    # few distinct releases make equal times likely
    times = [release_time(draw, n) for _ in range(draw(st.integers(1, 4)))]
    params = Parameters(F(draw(st.integers(1, 9)), 10), draw(st.integers(2, 40)),
                        F(draw(st.integers(1, 3)), 2))
    ids = draw(st.permutations(range(1, n + 1)))
    rows = []
    for jid in ids:
        rows.append((jid, draw(st.integers(0, 1)),
                     draw(st.integers(0, 1)) if binary else F(draw(st.integers(0, 40)), 40),
                     draw(st.sampled_from(times)) if releases else F(0)))
    return binary, params, rows


def build_instance(spec, model):
    binary, params, rows = spec
    if binary:
        return Instance([Job(i, tt, p, release_time=r) for i, tt, p, r in rows], params, model)
    return Instance([make_job(i, tt, p_hat=p, release_time=r) for i, tt, p, r in rows], params)


def breaks_after(k):
    """Opens until k jobs are set aside, then completes a job that never was."""
    def decide(state, params):
        if state.n_unopened and state.n_interrupted < k:
            return OPEN_NEXT
        return -1
    return Policy(f"breaks-after-{k}", decide)


class TestLayoutReuse:
    """Runs on used instances, interleaved, must match runs on fresh ones."""

    REVELATIONS = (EXACT_REVELATION, PosteriorRevelation())

    def check_alternation(self, a, b):
        want = {id(inst): {name: run(inst, get_policy(name)) for name in POLICIES}
                for inst in (a, b)}
        assert want[id(a)]["beta"].trace != want[id(b)]["beta"].trace
        for inst in (a, b, a):
            for name in POLICIES:
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

    @settings(max_examples=60, deadline=None)
    @given(spec=instance_specs(),
           order=st.permutations([(name, r) for name in sorted(POLICIES) for r in (0, 1)]),
           breaks=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 13), st.integers(0, 1)),
                           max_size=2),
           seed=st.integers(0, 10 ** 6))
    @example(spec=(False, Parameters(F(2, 5), 20, 1), [(1, 0, F(1, 2), F(0))]),
             order=[(name, r) for name in sorted(POLICIES) for r in (0, 1)],
             breaks=[(0, 1, 1)], seed=0)
    def test_runs_equal_runs_on_a_fresh_instance(self, spec, order, breaks, seed):
        model = PredictionModel(F(1, 10), F(1, 5), F(1, 10))
        used = build_instance(spec, model)
        assert "run_layout" not in vars(used)  # construction builds no layout
        runs = [(POLICIES[name], self.REVELATIONS[r], (UnsupportedInputError,)) for name, r in order]
        # runs that raise ContractViolationError partway, at drawn places
        for at, k, r in breaks:
            runs.insert(min(at, len(runs)),
                        (breaks_after(k), self.REVELATIONS[r], (ContractViolationError,)))
        for i, (policy, revelation, allowed) in enumerate(runs):
            got = run_record(used, policy, revelation, seed + i, allowed)
            assert got == run_record(build_instance(spec, model), policy, revelation, seed + i, allowed)
        assert "run_layout" in vars(used)
        fresh = build_instance(spec, model)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def probe_classes(flag0, flag1):
    """A policy that opens over interrupted work exactly for these head labels."""
    flags = (flag0, flag1)

    def decide(state, params):
        if len(state.unopened) and (
            len(state.interrupted) == 0 or flags[state.unopened.head_label()]
        ):
            return OPEN_NEXT
        return state.interrupted.first_id()

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
        rogue = Policy("rogue", lambda state, params: 99)
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
                s0, s1 = wspt_ticks(inst.n, urgent_count(inst))
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
    classes, _, _ = release_lists(
        [j.release_time.numerator * (den // j.release_time.denominator) for j in inst.jobs],
        [j.true_type for j in inst.jobs], [j.label for j in inst.jobs], den)
    return label_release_ticks(classes, flags, alpha.numerator * (den // alpha.denominator), den)


def wsrpt_kernel_ticks(ticks, types, w0, w1, den):
    """`wsrpt_release_ticks` on releases in id order, split by `type_release_lists`."""
    return wsrpt_release_ticks(*type_release_lists(ticks, types, den), w0, w1, den)


def ticks_by_type(outcome, inst):
    """An outcome's completion ticks summed by true type."""
    sums = [0, 0]
    for job in inst.jobs:
        sums[job.true_type] += outcome.completion_ticks[job.id]
    return tuple(sums)


def loop_steps(kernel, call, budget):
    """(call(), the number of steps `kernel`'s `while True` loop took in it).

    A step is one run of the loop body's first line, counted by a line
    tracer. Past `budget` steps the tracer raises, so a kernel that stops
    making progress fails instead of hanging.
    """
    lines, first = inspect.getsourcelines(kernel)
    loop = next(node for node in ast.walk(ast.parse(textwrap.dedent("".join(lines))))
                if isinstance(node, ast.While))
    body_line = first - 1 + loop.body[0].lineno
    code = kernel.__code__
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "line" and frame.f_lineno == body_line:
            steps += 1
            if steps > budget:
                raise AssertionError(f"{kernel.__name__} took more than {budget} steps")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, steps


class TestReleaseLists:
    @settings(max_examples=200, deadline=None)
    @given(
        jobs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1), st.booleans()),
                      min_size=1, max_size=12),
        den=st.integers(1, 10),
    )
    @example(jobs=[(5, 0, True)], den=1)  # n = 1: label 0 and the non-urgent type empty
    @example(jobs=[(0, 1, True), (2, 0, True), (2, 1, True)], den=3)  # no label-0 job, a tie
    @example(jobs=[(0, 1, False), (0, 1, True), (0, 1, False)], den=2)  # no urgent job, all tied
    @example(jobs=[(1, 0, False), (0, 0, True), (3, 0, False)], den=5)  # no non-urgent job
    def test_equals_the_compress_split_plus_the_sentinel(self, jobs, den):
        """(gap, true type, label) per job in id order, the first gap from 0."""
        ticks = list(accumulate(gap for gap, _, _ in jobs))
        types = [y for _, y, _ in jobs]
        labels = [label for _, _, label in jobs]
        end = ticks[-1] + (len(jobs) + 1) * den
        label0 = list(map(not_, labels))
        want = (((list(compress(ticks, label0)) + [end], list(compress(types, label0))),
                 (list(compress(ticks, labels)) + [end], list(compress(types, labels)))),
                list(compress(ticks, map(not_, types))) + [end],
                list(compress(ticks, types)) + [end])
        assert release_lists(ticks, types, labels, den) == want
        assert type_release_lists(ticks, types, den) == want[1:]


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
                assert offline_wsrpt_cost(inst) == offline_wsrpt(inst, keep_trace=False).total_cost

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
        cost = offline_wsrpt_cost(inst)
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
            assert wsrpt_kernel_ticks(ticks, types, 2, 1, 2) == ticks_by_type(out, tie)
        # one tick earlier (unit = 8 ticks) x = 5 and w0 * x > w1 * den: it yields
        assert wsrpt_kernel_ticks([0, 3], [1, 0], 2, 1, 8) == (11, 16)
        assert wsrpt_kernel_ticks([0, 3, 40], [1, 0, 1], 2, 1, 8) == (11, 16 + 48)

    @pytest.mark.parametrize("jobs, preemptions", [
        # an urgent job released exactly when a non-urgent one completes, with
        # a fresh non-urgent job waiting: the urgent one runs first
        ([(1, F(0)), (1, F(0)), (0, F(1))], 0),
        # the non-urgent job yields at 1/8 with 7/8 left; two urgent jobs and a
        # fresh non-urgent one are released while it waits, and it resumes
        # after the urgent ones, before the fresh one
        ([(1, F(0)), (0, F(1, 8)), (0, F(3, 8)), (1, F(1, 2)), (0, F(5, 8))], 1),
        # a yield at 1/8, then the tie on the last release: at 3/2 the resumed
        # job has 1/2 left and w0 * x == w1 * unit, so it keeps the machine
        ([(1, F(0)), (0, F(1, 8)), (0, F(3, 2))], 1),
    ], ids=["urgent-at-a-completion", "two-urgent-while-yielded", "tie-on-the-last-release"])
    def test_wsrpt_kernel_at_release_instants(self, jobs, preemptions):
        """Exact tick sums of offline_wsrpt, in one step per job and per yield.

        The releases leave the machine no idle gap, so the only idle step is
        the last one, to the sentinels.
        """
        inst = Instance([Job(i, tt, tt, release_time=r) for i, (tt, r) in enumerate(jobs, start=1)],
                        Parameters(F(2, 5), 2, 1), PredictionModel(F(1, 2), 0, 0))
        out = offline_wsrpt(inst, keep_trace=False)
        assert out.preemption_count == preemptions
        ticks = [int(r * out.den) for _, r in jobs]
        types = [tt for tt, _ in jobs]
        got, steps = loop_steps(wsrpt_release_ticks,
                                lambda: wsrpt_kernel_ticks(ticks, types, 2, 1, out.den),
                                4 * len(jobs))
        assert got == ticks_by_type(out, inst)
        assert steps == len(jobs) + preemptions + 1

    # (true type, label, release) in id order; alpha = 2/5
    @pytest.mark.parametrize("flags, jobs, steps", [
        # never preempting: each job is finished in the step that opens it, the
        # label-1 one although a label-0 job is released by its alpha point
        ((False, False), [(1, 1, F(0)), (1, 0, F(1, 5)), (1, 0, F(1, 5))], 4),
        # label 1 probed: the first label-0 job is finished in its step, as the
        # next label-0 head is released by its alpha point; the second is set
        # aside, as the label-1 head opens next, and finished after it
        ((False, True), [(1, 0, F(0)), (1, 0, F(0)), (1, 1, F(0))], 6),
        # an urgent label-1 head is released at the label-0 job's alpha point:
        # the set-aside job waits while the probed head runs
        ((False, True), [(1, 0, F(0)), (0, 1, F(2, 5)), (1, 0, F(1))], 5),
        # a label-0 head is released at the label-1 job's alpha point, and
        # label 0 is probed: the label-1 job waits while the head is opened
        ((True, False), [(1, 1, F(0)), (1, 0, F(2, 5)), (1, 1, F(1))], 6),
        # label 0 probed, its job set aside when the unprobed label-1 head is
        # released: the set-aside job is finished first
        ((True, False), [(1, 0, F(0)), (1, 1, F(2, 5)), (0, 1, F(2, 5))], 5),
    ], ids=["never-preempting", "label-1-probed", "label-1-head-at-alpha",
            "label-0-head-at-alpha", "unprobed-head-at-alpha"])
    def test_label_kernel_at_release_instants(self, base_model, flags, jobs, steps):
        """Exact tick sums of run(), in one step per job, one per set-aside job
        finished in a later step, and one to idle to the sentinels."""
        inst = Instance([Job(i, tt, label, release_time=r)
                         for i, (tt, label, r) in enumerate(jobs, start=1)],
                        Parameters(F(2, 5), 2, 1), base_model)
        out = run(inst, probe_classes(*flags), keep_trace=False)
        got, took = loop_steps(label_release_ticks, lambda: release_kernel_ticks(inst, flags),
                               4 * len(jobs))
        assert got == ticks_by_type(out, inst)
        assert took == steps
