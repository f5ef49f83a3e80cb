import math
import os
import random
from fractions import Fraction
from heapq import heapify
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched.domain import Instance, Parameters, PredictionModel, make_job, sample_instance
from betasched.engine import run
from betasched.errors import ContractViolationError, TerminalStateError, UnsupportedInputError
from betasched.policies import (
    EXACT_REVELATION,
    OPEN_NEXT,
    POLICIES,
    InterruptedQueue,
    Policy,
    PolicyState,
    PosteriorRevelation,
    Regime,
    UnopenedQueue,
    beta_threshold_decide,
    classify_regime,
    get_policy,
    hybrid_decide,
    label_flags,
    modified_beta_decide,
    nonpreemptive_decide,
    preemptive_decide,
)
from conftest import (
    CHANNEL,
    SCAN_MODIFIED_BETA,
    algebra_classify_regime,
    drawn_channel,
    expected_weight,
    fraction_beta_threshold_decide,
    probe_label_1_decide,
    reference_label_flags,
    run_record,
)

F = Fraction


def state(unopened=(), interrupted=()):
    """unopened: (priority, job_id, label) triples, best first; interrupted: (job_id, theta).

    The unopened entries are ranked by their place. The interrupted queue
    starts with an empty theta heap, so `argmax_theta` reads every theta.
    """
    ranked = [(rank, jid, label, p) for rank, (p, jid, label) in enumerate(unopened)]
    return PolicyState(UnopenedQueue(ranked), InterruptedQueue(list(interrupted)))


class TestBetaThreshold:
    def test_empty_queue_completes(self, base_params):
        s = state(interrupted=[(4, F(0)), (9, F(0))])
        assert beta_threshold_decide(s, base_params) == 4  # FIFO head

    def test_no_backlog_opens(self, base_params):
        s = state(unopened=[(F(1, 82), 3, 1)])
        assert beta_threshold_decide(s, base_params) is OPEN_NEXT

    def test_above_threshold_opens(self, base_params):
        s = state(unopened=[(F(1, 2), 1, 0)], interrupted=[(2, F(0))])
        assert beta_threshold_decide(s, base_params) is OPEN_NEXT

    def test_below_threshold_completes(self, base_params):
        s = state(unopened=[(F(1, 82), 1, 1)], interrupted=[(2, F(0))])
        assert beta_threshold_decide(s, base_params) == 2

    def test_exactly_at_threshold_completes(self, base_params):
        s = state(unopened=[(F(2, 57), 1, 0)], interrupted=[(2, F(0))])
        assert beta_threshold_decide(s, base_params) == 2

    def test_integer_test_equals_the_fraction_test(self):
        # p_hat at beta and one step of a grid through beta above and below
        rng = random.Random(17)
        seen = {"above": 0, "at": 0, "below": 0}
        for _ in range(400):
            w0 = F(rng.randint(2, 300), rng.randint(1, 7))
            params = Parameters(F(rng.randint(1, 19), 20), w0, w0 * F(rng.randint(1, 99), 100))
            beta = params.beta()
            step = F(1, beta.denominator * rng.randint(1, 6))
            for where, p in (("above", beta + step), ("at", beta), ("below", beta - step),
                             (None, F(rng.randint(0, 1000), 1000))):
                if not 0 <= p <= 1:
                    continue
                s = state(unopened=[(p, 1, None)], interrupted=[(2, F(0))])
                got = beta_threshold_decide(s, params)
                assert got == fraction_beta_threshold_decide(s, params), (params, p)
                if where is not None:
                    assert got == (OPEN_NEXT if where == "above" else 2)
                    seen[where] += 1
        assert min(seen.values()) > 100

    def test_integer_test_runs_like_the_fraction_test(self):
        # whole runs on p_hat instances whose grid passes through beta
        rng = random.Random(18)
        seen = {-1: 0, 0: 0, 1: 0}  # sign of p_hat - beta at a decision with work set aside

        def recording(s, params):
            if len(s.unopened) and len(s.interrupted):
                diff = s.unopened.head_priority() - params.beta()
                seen[(diff > 0) - (diff < 0)] += 1
            return fraction_beta_threshold_decide(s, params)

        oracle = Policy("beta-fraction", recording)
        for _ in range(60):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), F(rng.randint(1, 3), 2))
            m = params.beta().denominator * rng.randint(1, 3)
            k = params.beta().numerator * (m // params.beta().denominator)
            grid = [F(j, m) for j in range(max(0, k - 2), min(m, k + 2) + 1)] + [F(0), F(1)]
            jobs = [make_job(j, rng.randint(0, 1), p_hat=rng.choice(grid),
                             release_time=F(rng.randrange(8), 4) if rng.random() < 0.3 else 0)
                    for j in range(1, rng.randint(1, 30) + 1)]
            inst = Instance(jobs, params)
            seed = rng.randrange(10 ** 6)
            for revelation in (EXACT_REVELATION, PosteriorRevelation()):
                a = run(inst, POLICIES["beta"], revelation, rng=random.Random(seed))
                b = run(inst, oracle, revelation, rng=random.Random(seed))
                assert a.trace == b.trace
                assert a.total_cost == b.total_cost
        assert min(seen.values()) > 0, seen


class TestEveryRule:
    """What each rule does where one queue or both are empty."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_terminal_state_raises(self, name, base_params):
        with pytest.raises(TerminalStateError, match="no legal action at t=0"):
            POLICIES[name].decide(state(), base_params)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_one_empty_queue_leaves_one_move(self, name, base_params):
        decide = POLICIES[name].decide
        for label in (0, 1):
            assert decide(state(unopened=[(F(1, 2), 1, label), (F(1, 82), 3, 1)]),
                          base_params) == OPEN_NEXT
        assert decide(state(interrupted=[(4, F(0)), (2, F(0))]), base_params) == 4


def mixed_instances(rng, params, model):
    """Binary and p_hat instances with ids shuffled, some with release dates."""
    for releases in (False, True):
        for n in (1, 2, 7, 25):
            ids = rng.sample(range(1, n + 1), n)
            times = [F(rng.randrange(3 * n), rng.choice((1, 3, 4))) if releases else F(0)
                     for _ in ids]
            types = [rng.randint(0, 1) for _ in ids]
            yield Instance([make_job(i, tt, label=rng.randint(0, 1), release_time=r)
                            for i, tt, r in zip(ids, types, times)], params, model)
            yield Instance([make_job(i, tt, p_hat=F(rng.randrange(41), 40), release_time=r)
                            for i, tt, r in zip(ids, types, times)], params)


class TestQueueCounts:
    """The counts on `PolicyState` are the lengths of its two queue views."""

    def test_counts_equal_the_view_lengths_at_every_decision(self, base_params, base_model):
        checked = {name: 0 for name in POLICIES}

        def counted(name):
            def decide(s, params):
                assert s.n_unopened == len(s.unopened)
                assert s.n_interrupted == len(s.interrupted)
                checked[name] += 1
                return POLICIES[name].decide(s, params)
            return Policy(name, decide)

        rng = random.Random(31)
        for inst in mixed_instances(rng, base_params, base_model):
            for name in POLICIES:
                for revelation in (EXACT_REVELATION, PosteriorRevelation()):
                    seed = rng.randrange(10 ** 6)
                    assert run_record(inst, counted(name), revelation, seed) == \
                        run_record(inst, POLICIES[name], revelation, seed)
        assert min(checked.values()) > 100, checked

    def test_a_state_built_directly_counts_its_views(self):
        s = state(unopened=[(F(1, 2), 1, 0), (F(1, 3), 5, 0), (F(0), 2, 1)],
                  interrupted=[(4, F(0)), (9, F(1, 2))])
        assert (s.n_unopened, s.n_interrupted) == (3, 2)
        assert (state().n_unopened, state().n_interrupted) == (0, 0)

    @staticmethod
    def nonpreemptive_on_truth(s, params):
        if s.interrupted:
            return s.interrupted.first_id()
        if not s.unopened:
            raise TerminalStateError("no legal action")
        return OPEN_NEXT

    @staticmethod
    def preemptive_on_truth(s, params):
        if s.unopened:
            return OPEN_NEXT
        if not s.interrupted:
            raise TerminalStateError("no legal action")
        return s.interrupted.first_id()

    @staticmethod
    def beta_on_truth(s, params):
        if not s.interrupted:
            if not s.unopened:
                raise TerminalStateError("no legal action")
            return OPEN_NEXT
        if s.unopened and s.unopened.head_priority() > params.beta():
            return OPEN_NEXT
        return s.interrupted.first_id()

    @pytest.mark.parametrize("name", ["nonpreemptive", "preemptive", "beta"])
    def test_rules_on_the_views_truth_run_the_same(self, name, base_params, base_model):
        custom = Policy(name, getattr(self, f"{name}_on_truth"))
        rng = random.Random(37)
        for inst in mixed_instances(rng, base_params, base_model):
            for revelation in (EXACT_REVELATION, PosteriorRevelation()):
                seed = rng.randrange(10 ** 6)
                assert run_record(inst, custom, revelation, seed) == \
                    run_record(inst, POLICIES[name], revelation, seed)


class TestFixedPolicies:
    def test_nonpreemptive_completes_interrupted_work_first(self, base_params):
        s = state(unopened=[(F(1, 2), 1, 0)], interrupted=[(4, F(0)), (2, F(0))])
        assert nonpreemptive_decide(s, base_params) == 4  # FIFO head
        assert nonpreemptive_decide(state(unopened=[(F(1, 82), 1, 1)]), base_params) is OPEN_NEXT
        with pytest.raises(TerminalStateError):
            nonpreemptive_decide(state(), base_params)

    @pytest.mark.parametrize("model, params", [
        (PredictionModel(F(1, 10), F(1, 10), F(1, 10)), Parameters(F(2, 5), 20, 1)),
        (PredictionModel(F(1, 10), 0, 0), Parameters(F(2, 5), 20, 1)),         # perfect labels
        (PredictionModel(F(1, 2), F(1, 2), F(1, 2)), Parameters(F(1, 10), 100, 1)),
        (PredictionModel(F(1, 3), F(1, 4), 0), Parameters(F(9, 10), 3, 1)),    # no weight gap
    ])
    def test_nonpreemptive_probes_no_label_class(self, model, params):
        assert label_flags(POLICIES["nonpreemptive"], model, params) == (False, False)

    def test_preemptive_opens_until_queue_empty(self, base_params):
        s = state(unopened=[(F(1, 82), 1, 1)], interrupted=[(k, F(0)) for k in range(2, 7)])
        assert preemptive_decide(s, base_params) is OPEN_NEXT
        s2 = state(interrupted=[(3, F(0))])
        assert preemptive_decide(s2, base_params) == 3

    def test_hybrid_follows_head_label(self, base_params):
        s0 = state(unopened=[(F(1, 2), 1, 0)], interrupted=[(2, F(0))])
        assert hybrid_decide(s0, base_params) is OPEN_NEXT
        s1 = state(unopened=[(F(1, 2), 1, 1)], interrupted=[(2, F(0))])
        assert hybrid_decide(s1, base_params) == 2

    def test_hybrid_needs_labels(self, base_params):
        s = state(unopened=[(F(1, 2), 1, None)], interrupted=[(2, F(0))])
        with pytest.raises(UnsupportedInputError):
            hybrid_decide(s, base_params)


class TestModifiedBeta:
    # base_params give beta = 2/57; at theta = 1/2 the bar rises to
    # 2/57 + (2/3)*(20/19)*1 = 42/57

    def test_zero_theta_reduces_to_plain_threshold(self, base_params):
        s = state(unopened=[(F(1, 2), 1, 0)], interrupted=[(2, F(0))])
        assert modified_beta_decide(s, base_params) is OPEN_NEXT
        s2 = state(unopened=[(F(1, 82), 1, 1)], interrupted=[(2, F(0))])
        assert modified_beta_decide(s2, base_params) == 2

    def test_raised_threshold_between(self, base_params):
        s = state(unopened=[(F(40, 57), 1, 0)], interrupted=[(2, F(1, 2))])
        assert modified_beta_decide(s, base_params) == 2

    def test_raised_threshold_exceeded(self, base_params):
        s = state(unopened=[(F(43, 57), 1, 0)], interrupted=[(2, F(1, 2))])
        assert modified_beta_decide(s, base_params) is OPEN_NEXT

    def test_certain_urgency_forces_completion(self, base_params):
        s = state(unopened=[(F(999, 1000), 1, 0)], interrupted=[(2, F(1)), (3, F(0))])
        assert modified_beta_decide(s, base_params) == 2

    def test_head_exactly_at_raised_threshold_completes(self, base_params):
        # tau(1/3) = 2/57 + (40/57) * (1/2) = 22/57; the rule is strict
        s = state(unopened=[(F(22, 57), 1, 0)], interrupted=[(2, F(1, 3))])
        assert modified_beta_decide(s, base_params) == 2
        s = state(unopened=[(F(22, 57) + F(1, 10 ** 30), 1, 0)], interrupted=[(2, F(1, 3))])
        assert modified_beta_decide(s, base_params) is OPEN_NEXT

    def test_float_theta_is_read_exactly(self, base_params):
        # the float 0.1 is 3602879701896397/2**55; a tau rounded to a float
        # could not tell the three heads apart
        bar = F(2, 57) + F(40, 57) * F(0.1) / (1 - F(0.1))
        for head, target in ((bar, 2), (bar - F(1, 10 ** 30), 2),
                             (bar + F(1, 10 ** 30), OPEN_NEXT)):
            s = state(unopened=[(head, 1, 0)], interrupted=[(2, 0.1)])
            assert modified_beta_decide(s, base_params) == target
        s = state(unopened=[(F(999, 1000), 1, 0)], interrupted=[(3, 0.5), (2, 1.0)])
        assert modified_beta_decide(s, base_params) == 2

    def test_completes_largest_theta_fifo_ties(self, base_params):
        s = state(interrupted=[(5, F(1, 4)), (2, F(3, 4)), (9, F(3, 4))])
        # the first of the maximal thetas in arrival order
        assert modified_beta_decide(s, base_params) == 2


# examples per run of the modified-beta property; CI sets many more
DECIDE_EXAMPLES = int(os.environ.get("BETASCHED_DECIDE_EXAMPLES", "400"))
BASE = Parameters(F(2, 5), 20, 1)  # beta = 2/57, K = 40/57; p = 22/57 puts the bar at 1/3
THIRD_FLOAT = 1 / 3  # just below 1/3


def exact_rule_opens(p, theta, params):
    """p > beta + K*theta/(1 - theta) in Fractions; a theta >= 1 never opens."""
    theta = F(theta)
    return theta < 1 and p > params.beta() + params.theta_slope() * theta / (1 - theta)


@st.composite
def decide_cases(draw):
    """(params, p, theta): a channel, a head p in [0, 1] and a theta near the head's bar.

    The bar is x/y = (p - beta)/(p - beta + K), the theta below which the
    rule opens. theta is a float, a Fraction sharing a float with the bar or
    with a float theta, the bar's float and its two neighbours, or 0 and 1.
    """
    alpha = draw(st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1))
    w1 = draw(st.fractions(F(1, 10**6), 10**6, max_denominator=10**6).filter(lambda w: w > 0))
    # (w0 - w1)/w1 up to 20, and down to 1e-30, where beta and K grow past 1e29
    spread = draw(st.one_of(
        st.fractions(0, 20, max_denominator=10**3).filter(lambda g: g > 0),
        st.builds(lambda m, k: m / 10**k, st.fractions(1, 10, max_denominator=10**3),
                  st.integers(0, 30))))
    params = Parameters(alpha, w1 * (1 + spread), w1)
    beta, slope = params.beta(), params.theta_slope()
    top = min(beta, F(1))
    unit = st.fractions(0, 1, max_denominator=10**6)
    p = draw(st.one_of(
        st.fractions(0, 1, max_denominator=10**9),
        st.sampled_from([F(0), F(1), top]),  # p = beta, where beta <= 1
        unit.map(lambda u: top * u),  # p <= beta
        unit.map(lambda u: top + (1 - top) * u),  # p >= beta
    ))
    bar = (p - beta) / (p - beta + slope)
    f = float(bar)
    tiny = F(1, 10**40)
    theta = draw(st.one_of(
        st.floats(0, 1),
        st.floats(0, 1).flatmap(lambda t: st.sampled_from([F(t), F(t) + tiny, F(t) - tiny])),
        st.sampled_from([f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf),
                         bar, bar + tiny, bar - tiny, F(f)]),
        st.sampled_from([0, 1, 0.0, 1.0, F(0), F(1)]),
    ))
    return params, p, theta


class TestModifiedBetaExactRule:
    """The float comparison with the bar decides as the exact Fraction rule."""

    @settings(max_examples=DECIDE_EXAMPLES, deadline=None)
    @given(case=decide_cases())
    # the bar at 1/3: its float is just below it, so only the exact test tells
    # 1/3 (a tie, which completes) from the float 1/3 (which opens)
    @example(case=(BASE, F(22, 57), F(1, 3)))
    @example(case=(BASE, F(22, 57), THIRD_FLOAT))
    @example(case=(BASE, F(22, 57), F(THIRD_FLOAT) - F(1, 10**40)))
    @example(case=(BASE, F(22, 57), F(1, 3) + F(1, 10**40)))
    @example(case=(BASE, F(22, 57), math.nextafter(THIRD_FLOAT, 1)))
    @example(case=(BASE, F(22, 57), math.nextafter(THIRD_FLOAT, 0)))
    # p = 1/10 puts the bar at 37/437, whose float is just above it and
    # completes; the bar taken from the floats of p, beta and K is one float higher
    @example(case=(BASE, F(1, 10), 37 / 437))
    # p = beta puts the bar at 0: theta 0 ties and completes
    @example(case=(BASE, F(2, 57), 0))
    @example(case=(BASE, F(2, 57), 0.0))
    @example(case=(BASE, F(2, 57), 5e-324))
    # p below beta: a negative bar, and theta 0 or a theta under the bar
    @example(case=(BASE, F(1, 57), F(0)))
    @example(case=(BASE, F(1, 57), -0.5))
    # theta = 1 never opens, whatever the head, nor does the float below 1 at p = 1
    @example(case=(BASE, F(0), F(1)))
    @example(case=(BASE, F(1), 1.0))
    @example(case=(BASE, F(1), math.nextafter(1.0, 0)))
    def test_equals_the_fraction_rule(self, case):
        params, p, theta = case
        s = state(unopened=[(p, 1, 0)], interrupted=[(2, theta)])
        want = OPEN_NEXT if exact_rule_opens(p, theta, params) else 2
        assert modified_beta_decide(s, params) == want

    def test_infinite_theta_completes(self):
        # like any theta >= 1; as_integer_ratio() would raise OverflowError
        s = state(unopened=[(F(1), 1, 0)], interrupted=[(2, math.inf)])
        assert modified_beta_decide(s, BASE) == 2

    def test_nan_theta_raises(self):
        s = state(unopened=[(F(1), 1, 0)], interrupted=[(2, math.nan)])
        with pytest.raises(ValueError):
            modified_beta_decide(s, BASE)

    def test_bar_below_the_float_range(self):
        # weights 1e-400 apart: at p = 0 the bar -beta/(K - beta) = -w1/(w0 - w1)
        # is past the float range, and every theta in [0, 1] completes
        params = Parameters(F(2, 5), 1, 1 - F(1, 10**400))
        for p, theta in product((F(0), F(1, 2), F(1)), (0, 0.0, F(1, 3), 1.0)):
            s = state(unopened=[(p, 1, 0)], interrupted=[(2, theta)])
            assert modified_beta_decide(s, params) == 2
            assert not exact_rule_opens(p, theta, params)


class TestInterruptedQueueArgmax:
    """A first read heapifies the entries; ties must resolve as a scan would."""

    THIRD = F(1, 3)
    ABOVE_THIRD = F(1, 3) + F(1, 10 ** 30)  # the same float as 1/3

    def argmax(self, entries):
        return InterruptedQueue(list(entries)).argmax_theta()

    def test_float_tie_is_a_real_tie_here(self):
        assert float(self.THIRD) == float(self.ABOVE_THIRD) and self.THIRD < self.ABOVE_THIRD

    def test_exact_ties_go_to_the_first_arrival(self):
        assert self.argmax([(4, self.THIRD), (7, self.THIRD), (2, F(1, 4))]) == (4, self.THIRD)
        assert self.argmax([(9, F(1, 2)), (3, F(1, 2)), (5, F(1, 2))]) == (9, F(1, 2))

    def test_equal_floats_order_by_the_exact_theta(self):
        for entries in ([(4, self.THIRD), (7, self.ABOVE_THIRD)],
                        [(7, self.ABOVE_THIRD), (4, self.THIRD)],
                        [(1, F(0)), (4, self.THIRD), (7, self.ABOVE_THIRD), (8, self.THIRD)]):
            assert self.argmax(entries) == (7, self.ABOVE_THIRD)

    def test_float_and_fraction_thetas_compare_exactly(self):
        # float 0.1 lies just above 1/10; F(0.1) is the same number as 0.1
        assert self.argmax([(4, F(1, 10)), (7, 0.1)]) == (7, 0.1)
        assert self.argmax([(4, 0.1), (7, F(1, 10))]) == (4, 0.1)
        assert self.argmax([(4, F(0.1)), (7, 0.1), (2, 0)]) == (4, F(0.1))
        assert self.argmax([(4, 0.0), (7, 0), (2, F(0))]) == (4, 0.0)

    def test_theta_one_and_zero(self):
        assert self.argmax([(3, F(0)), (6, F(1)), (8, F(1)), (2, F(1, 2))]) == (6, F(1))
        assert self.argmax([(5, F(0)), (2, F(0)), (9, F(0))]) == (5, F(0))
        assert self.argmax([(5, F(0))]) == (5, F(0))

    def test_matches_a_fifo_scan(self):
        rng = random.Random(4)
        pool = (F(0), self.THIRD, self.ABOVE_THIRD, F(1, 2), F(1), F(7, 10))
        for _ in range(300):
            entries = [(jid, rng.choice(pool)) for jid in rng.sample(range(1, 50), rng.randint(1, 8))]
            best = entries[0]
            for entry in entries[1:]:
                if entry[1] > best[1]:
                    best = entry
            assert self.argmax(entries) == best

    def test_modified_beta_completes_the_exact_largest(self, base_params):
        s = state(unopened=[(F(1, 82), 1, 1)],
                  interrupted=[(4, self.THIRD), (7, self.ABOVE_THIRD), (8, self.THIRD)])
        assert modified_beta_decide(s, base_params) == 7


class TestInterruptedQueueOps:
    """`add` and `remove` against a plain FIFO list, read back after every operation."""

    POOL = (F(0), F(1, 3), F(1, 3) + F(1, 10 ** 30), F(1, 2), F(7, 10), F(1))

    @staticmethod
    def check(queue, fifo, exact):
        assert len(queue) == len(fifo)
        assert list(queue.items()) == fifo
        if fifo:
            assert queue.first_id() == fifo[0][0]
            # Python's max keeps the first of equal maxima: FIFO among ties
            assert queue.argmax_theta() == (fifo[0] if exact else max(fifo, key=lambda e: e[1]))

    # exact reveals give every job theta 0, so the argmax is the FIFO head
    @pytest.mark.parametrize("exact", [True, False], ids=["exact-reveal", "posterior-reveal"])
    def test_matches_a_plain_list(self, exact):
        rng = random.Random(11)
        for _ in range(60):
            queue, fifo = InterruptedQueue([]), []
            heap = queue._heap
            next_id, gone = 1, [0]  # 0 is never added
            for _ in range(rng.randint(1, 40)):
                r = rng.random()
                if r < 0.45:
                    theta = F(0) if exact else rng.choice(self.POOL)
                    queue.add(next_id, theta)
                    fifo.append((next_id, theta))
                    next_id += 1
                elif r < 0.85 and fifo:
                    # the head half the time, so the first live slot moves too
                    entry = fifo[0] if rng.random() < 0.5 else rng.choice(fifo)
                    assert queue.remove(entry[0]) is True
                    fifo.remove(entry)
                    gone.append(entry[0])
                else:  # a job never added, or completed already
                    assert queue.remove(rng.choice(gone + [next_id + 5])) is False
                self.check(queue, fifo, exact)
            # drain, then refill: a keyed heap stays keyed, so each add pushes
            # its entry at once, into the same list, and no read rebuilds it
            while fifo:
                assert queue.remove(fifo.pop(0)[0]) is True
                self.check(queue, fifo, exact)
            assert heap == [] and queue._heap is heap
            keyed = queue._keyed  # False only if no read ever found a job
            for theta in (F(0),) * 4 if exact else (F(1, 2), F(1), F(0), F(1)):
                queue.add(next_id, theta)
                fifo.append((next_id, theta))
                next_id += 1
                assert len(heap) == (len(fifo) if keyed else 0)
                self.check(queue, fifo, exact)
                keyed = True
            assert len(heap) == len(fifo) and queue._heap is heap

    def test_built_from_entries(self):
        queue = InterruptedQueue([(5, F(1, 4)), (2, F(3, 4))])
        assert len(queue) == 2 and queue.argmax_theta() == (2, F(3, 4))
        assert queue.remove(2) and not queue.remove(2)
        assert list(queue.items()) == [(5, F(1, 4))] and queue.argmax_theta() == (5, F(1, 4))

    def test_keyed_once_per_run(self, base_params, base_model):
        # modified-beta reads theta at its first decision with a job set aside;
        # the queue drains and refills often, and is heapified that once
        inst = sample_instance(200, base_model, base_params, seed=3)
        seen = []

        def watch(rule):
            def decide(s, params):
                target = rule(s, params)
                seen.append((s.interrupted._keyed, len(s.interrupted._heap)))
                return target
            return Policy(rule.__name__, decide)

        with patch("betasched.policies.heapify", wraps=heapify) as spy:
            run(inst, watch(modified_beta_decide), PosteriorRevelation(), rng=random.Random(1))
        assert spy.call_count == 1
        assert (False, 0) in seen and (True, 0) in seen  # drained while keyed
        # a rule that never reads theta builds no heap
        for rule in (nonpreemptive_decide, preemptive_decide, beta_threshold_decide, hybrid_decide):
            seen.clear()
            run(inst, watch(rule), PosteriorRevelation(), rng=random.Random(1))
            assert set(seen) == {(False, 0)}


class TestClassifyRegime:
    def test_worked_example_is_hybrid(self, base_model, base_params):
        # rho(1-b)e0 + b(1-rho)e1 = 0.73/57 < min(5.5/57, 1.8/57)
        assert classify_regime(base_model, base_params) is Regime.HYBRID

    def test_uninformative_never_hybrid(self, base_params):
        for rho_k in range(1, 10):
            m = PredictionModel(F(rho_k, 10), F(1, 2), F(1, 2))
            assert classify_regime(m, base_params) is not Regime.HYBRID

    def test_perfect_predictor_hybrid_iff_gap(self):
        m = PredictionModel(F(1, 10), 0, 0)
        gap_ok = Parameters(F(2, 5), 20, 1)      # beta = 2/57 < 1
        assert classify_regime(m, gap_ok) is Regime.HYBRID
        gap_fails = Parameters(F(7, 10), 3, 2)   # beta = 14/3 >= 1
        assert classify_regime(m, gap_fails) is Regime.NONPREEMPTIVE

    def test_agrees_with_inequality_form(self):
        # hybrid iff rho(1-b)e0 + b(1-rho)e1 separates the posteriors the
        # same way the rule's strict comparison does
        rng = random.Random(11)
        for _ in range(400):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 50), 1)
            m = PredictionModel(
                F(rng.randint(1, 19), 20),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            b = params.beta()
            lhs = m.rho * (1 - b) * m.eps0 + b * (1 - m.rho) * m.eps1
            lo, hi = b * (1 - m.rho), m.rho * (1 - b)
            sandwich = lhs <= lo and lhs < hi
            assert (classify_regime(m, params) is Regime.HYBRID) == sandwich
            if lhs < min(lo, hi):  # strictly inside: textbook hybrid condition
                assert classify_regime(m, params) is Regime.HYBRID

    def test_non_hybrid_splits_on_rho(self):
        m = PredictionModel(F(1, 2), F(1, 2), F(1, 2))  # posteriors collapse to rho
        low_beta = Parameters(F(1, 10), 20, 1)   # beta = 1/171 < rho
        assert classify_regime(m, low_beta) is Regime.PREEMPTIVE
        high_beta = Parameters(F(19, 20), 20, 1)  # beta = 1 >= rho
        assert classify_regime(m, high_beta) is Regime.NONPREEMPTIVE


class TestRegimeFromFlags:
    """classify_regime reads the beta rule's label flags; the algebra must agree."""

    def test_flags_agree_with_the_posterior_algebra(self):
        grid = product(
            (F(1, 10), F(1, 4), F(2, 5), F(1, 2), F(7, 10), F(9, 10)),  # alpha
            (F(3, 2), F(2), F(3), F(20), F(100)),                       # w0
            (F(1), F(1, 2)),                                            # w1
            (F(1, 10), F(1, 3), F(1, 2), F(9, 10)),                     # rho
            (F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2)),                # eps0
            (F(0), F(1, 10), F(1, 4), F(1, 3), F(1, 2)),                # eps1
        )
        points = 0
        ties = [0, 0]  # points with beta exactly equal to posterior(0), posterior(1)
        regimes = set()
        for alpha, w0, w1, rho, e0, e1 in grid:
            params = Parameters(alpha, w0, w1)
            model = PredictionModel(rho, e0, e1)
            regime = classify_regime(model, params)
            assert regime is algebra_classify_regime(model, params), (params, model)
            flags = label_flags(POLICIES["beta"], model, params)
            assert label_flags(POLICIES["modified-beta"], model, params) == flags
            points += 1
            for label in (0, 1):
                ties[label] += params.beta() == model.posterior(label)
            regimes.add(regime)
        assert points == 6000
        assert ties == [47, 35]
        assert regimes == set(Regime)

    @given(**CHANNEL)
    def test_random_channels_agree_with_the_algebra(self, alpha, w1, gap, rho, e0, e1):
        params, model = drawn_channel(alpha, w1, gap, rho, e0, e1)
        assert classify_regime(model, params) is algebra_classify_regime(model, params)


class TestLabelFlagsProbe:
    """`label_flags` asks the policy twice through one probe state."""

    def test_views_show_label_0_then_label_1(self, base_params, base_model):
        seen = []

        def reader(s, params):
            unopened, interrupted = s.unopened, s.interrupted
            seen.append((s.n_unopened, s.n_interrupted, len(unopened), len(interrupted),
                         unopened.head_label(), unopened.head_priority(),
                         list(unopened.items()), interrupted.first_id(),
                         list(interrupted.items())))
            return OPEN_NEXT if unopened.head_label() == 0 else 1

        assert label_flags(Policy("reader", reader), base_model, base_params) == (True, False)
        assert seen == [
            (1, 1, 1, 1, label, base_model.posterior(label),
             [(2, base_model.posterior(label), label)], 1, [(1, 0)])
            for label in (0, 1)
        ]

    @pytest.mark.parametrize("answer", [2, "wait"], ids=["other", "not-an-id"])
    def test_wrong_answer_names_the_policy(self, base_params, base_model, answer):
        # right for label 0, wrong for label 1, so the second question is checked too
        def wrong(s, params):
            return OPEN_NEXT if s.unopened.head_label() == 0 else answer

        with pytest.raises(ContractViolationError, match="policy wrong-on-1 answered"):
            label_flags(Policy("wrong-on-1", wrong), base_model, base_params)


def _answer_the_head_priority(s, params):
    """Opens a head above 1/2 and answers any other head with its priority."""
    p = s.unopened.head_priority()
    return OPEN_NEXT if p > F(1, 2) else p


# every named rule, the test rules of conftest, and one that breaks the
# probe's contract on some channels
PROBED_RULES = tuple(POLICIES.values()) + (
    SCAN_MODIFIED_BETA,
    Policy("probe-01", probe_label_1_decide),
    Policy("fraction-beta", fraction_beta_threshold_decide),
    Policy("answers-a-priority", _answer_the_head_priority),
)


def flags_or_message(flags_of, policy, model, params):
    """`flags_of`'s flags, or the message of the `ContractViolationError` it raised."""
    try:
        return flags_of(policy, model, params)
    except ContractViolationError as err:
        return str(err)


@st.composite
def probed_channels(draw):
    """(params, model): a `CHANNEL` draw, or one whose beta is moved onto a posterior.

    At w1 = 1 and w0 = 1 + alpha/(p*(1 - alpha)), beta = p exactly: the tie
    that the beta rule completes.
    """
    params, model = drawn_channel(**draw(st.fixed_dictionaries(CHANNEL)))
    label = draw(st.sampled_from([None, 0, 1]))
    p = F(0) if label is None else model.posterior(label)
    if p:
        alpha = params.alpha
        params = Parameters(alpha, 1 + alpha / (p * (1 - alpha)), 1)
        assert params.beta() == p
    return params, model


BASE_CHANNEL = (Parameters(F(2, 5), 20, 1), PredictionModel(F(1, 10), F(1, 10), F(1, 10)))


class TestLabelFlagsReference:
    """`label_flags` with its shared probe queue against a fresh probe per call."""

    @given(channel=probed_channels())
    @example(channel=BASE_CHANNEL)
    # beta = 1/2 = posterior(0): the tie completes, and the priority rule answers 1/2
    @example(channel=(Parameters(F(2, 5), F(7, 3), 1), BASE_CHANNEL[1]))
    def test_equals_the_fresh_probe(self, channel):
        params, model = channel
        for rule in PROBED_RULES:
            want = flags_or_message(reference_label_flags, rule, model, params)
            assert flags_or_message(label_flags, rule, model, params) == want, rule.name

    def test_base_channel_flags(self):
        params, model = BASE_CHANNEL
        got = {rule.name: flags_or_message(label_flags, rule, model, params)
               for rule in PROBED_RULES}
        assert got == {
            "nonpreemptive": (False, False), "preemptive": (True, True), "beta": (True, False),
            "hybrid": (True, False), "modified-beta": (True, False),
            "modified-beta-scan": (True, False), "probe-01": (False, True),
            "fraction-beta": (True, False),
            "answers-a-priority": "policy answers-a-priority answered Fraction(1, 2) "
                                  "with job 1 interrupted",
        }


def _probe_users(model):
    """Rules that try to change the probe's interrupted queue, read its theta
    heap, or ask `label_flags` again inside `decide`."""

    def remover(s, params):
        s.interrupted.remove(1)
        return 1

    def adder(s, params):
        s.interrupted.add(7, F(9, 10))
        return OPEN_NEXT

    def theta_reader(s, params):
        job_id, theta = s.interrupted.argmax_theta()  # builds the queue's theta heap
        return OPEN_NEXT if s.unopened.head_priority() > theta else job_id

    def re_asker(s, params):
        inner = label_flags(POLICIES["beta"], model, params)
        return OPEN_NEXT if inner[s.unopened.head_label()] else 1

    return {f.__name__: Policy(f.__name__, f) for f in (remover, adder, theta_reader, re_asker)}


class TestLabelFlagsRobustness:
    """The probe's interrupted queue is shared by every call and read-only, so
    no rule changes the flags of a later call."""

    REFUSED = "a policy may not change a label_flags probe's queue"

    @pytest.mark.parametrize("name", ["remover", "adder", "theta_reader", "re_asker"])
    def test_later_calls_unchanged(self, name, base_params):
        for model in (BASE_CHANNEL[1], PredictionModel(F(1, 10), F(1, 2), F(1, 2))):
            user = _probe_users(model)[name]
            for _ in range(2):
                got = flags_or_message(label_flags, user, model, base_params)
                if name in ("remover", "adder"):
                    assert got == self.REFUSED
                else:
                    assert got == reference_label_flags(user, model, base_params)
                for rule in PROBED_RULES:
                    assert flags_or_message(label_flags, rule, model, base_params) == \
                        flags_or_message(reference_label_flags, rule, model, base_params), \
                        rule.name

    def test_every_call_shows_job_1_at_zero(self, base_params, base_model):
        seen = []

        def reader(s, params):
            seen.append((s.n_interrupted, list(s.interrupted.items()),
                         s.interrupted.first_id(), s.interrupted.argmax_theta()))
            return 1

        for _ in range(2):
            label_flags(Policy("reader", reader), base_model, base_params)
        assert seen == [(1, [(1, 0)], 1, (1, 0))] * 4
        assert all(type(theta) is F for _, entries, _, _ in seen for _, theta in entries)
        assert all(type(entry[3][1]) is F for entry in seen)


class TestCmuEquivalence:
    @given(
        p=st.fractions(min_value=0, max_value=1),
        alpha_k=st.integers(1, 59),
        w0=st.integers(2, 300),
        w1=st.integers(1, 299),
    )
    def test_threshold_matches_rate_comparison(self, p, alpha_k, w0, w1):
        if w1 >= w0:
            return
        params = Parameters(F(alpha_k, 60), w0, w1)
        open_by_threshold = p > params.beta()
        # opening wins exactly when the expected weight rate of a fresh job
        # beats finishing a known low-priority remainder
        open_by_rate = expected_weight(p, params) > params.w1 / (1 - params.alpha)
        assert open_by_threshold == open_by_rate


def _decision_pattern(trace):
    """Opens of already-backlogged states vs completions while work remains.

    Returns the sequence of 'P' (open while something is interrupted) and
    'N' (complete while something is still unopened) choices along a run.
    """
    pattern = []
    backlog = set()
    unopened = {ev.job_id for ev in trace if ev.kind == "open"}
    for ev in trace:
        if ev.kind == "open":
            unopened.discard(ev.job_id)
            if backlog:
                pattern.append("P")
        elif ev.kind == "preempt":
            backlog.add(ev.job_id)
        elif ev.kind == "complete" and ev.job_id in backlog:
            backlog.discard(ev.job_id)
            if unopened:
                pattern.append("N")
    return "".join(pattern)


class TestRegimeConsistency:
    POLICY_OF = {
        Regime.NONPREEMPTIVE: "nonpreemptive",
        Regime.PREEMPTIVE: "preemptive",
        Regime.HYBRID: "hybrid",
    }

    def test_threshold_rule_matches_its_regime(self):
        rng = random.Random(23)
        for _ in range(120):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), 1)
            model = PredictionModel(
                F(rng.randint(1, 9), 10),
                F(rng.randint(0, 8), 16),
                F(rng.randint(0, 8), 16),
            )
            inst = sample_instance(rng.randint(1, 12), model, params, seed=rng.randrange(10 ** 6))
            mirror = get_policy(self.POLICY_OF[classify_regime(model, params)])
            assert run(inst, get_policy("beta")).trace == run(inst, mirror).trace

    def test_single_switch_in_batch_runs(self, base_model, base_params):
        # the threshold rule may move from probing to finishing at most once
        for seed in range(60):
            inst = sample_instance(14, base_model, base_params, seed=seed)
            trace = run(inst, get_policy("beta")).trace
            pattern = _decision_pattern(trace)
            assert "NP" not in pattern, pattern

    def test_revealed_urgent_never_preempted(self):
        rng = random.Random(5)
        for _ in range(80):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 40), 1)
            model = PredictionModel(
                F(rng.randint(1, 9), 10),
                F(rng.randint(0, 8), 16),
                F(rng.randint(0, 8), 16),
            )
            inst = sample_instance(rng.randint(1, 10), model, params, seed=rng.randrange(10 ** 6))
            for policy in ("beta", "preemptive", "hybrid"):
                trace = run(inst, get_policy(policy)).trace
                assert not any(ev.kind == "preempt" and ev.true_type == 0 for ev in trace)
