"""Shared fixtures and independent brute-force oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, compress, product
from math import comb
from operator import not_
from typing import NamedTuple

import pytest

from betasched.analytics import expected_conditional
from betasched.domain import Instance, Job, Parameters, PredictionModel
from betasched.engine import offline_wspt, offline_wsrpt, run
from betasched.errors import TerminalStateError
from betasched.experiments import _rep_rng
from betasched.policies import OPEN_NEXT, Policy, Regime, complete_low, get_policy

ONE = Fraction(1)


@pytest.fixture
def base_params():
    """The running example: alpha 0.4, weights 20 and 1 (beta = 2/57)."""
    return Parameters(Fraction(2, 5), 20, 1)


@pytest.fixture
def base_model():
    """rho 0.1 with symmetric 10% error: posteriors 1/2 and 1/82."""
    return PredictionModel(Fraction(1, 10), Fraction(1, 10), Fraction(1, 10))


def worked_example_instance(params, model):
    """Nine jobs, already in predicted order, with one hidden permutation."""
    trues = [0, 1, 0, 0, 1, 1, 1, 0, 1]
    preds = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    jobs = [Job(i + 1, trues[i], preds[i]) for i in range(9)]
    return Instance(jobs, params, model)


def label_prob(model, true_type, label):
    if true_type == 0:
        return (ONE - model.eps0) if label == 0 else model.eps0
    return model.eps1 if label == 0 else (ONE - model.eps1)


def bruteforce_conditional_mean(n, n0, model, params, policy_name):
    """Exact E[cost | n0 urgent] by enumerating types and labels through the engine.

    Types are exchangeable given their count, so each arrangement has weight
    1/C(n, n0); labels are independent flips on top. Everything stays rational.
    """
    policy = get_policy(policy_name)
    total = Fraction(0)
    arrangements = comb(n, n0)
    for urgent_positions in combinations(range(n), n0):
        types = [0 if i in urgent_positions else 1 for i in range(n)]
        for labels in product((0, 1), repeat=n):
            prob = ONE
            for tt, lab in zip(types, labels):
                prob *= label_prob(model, tt, lab)
                if prob == 0:
                    break
            if prob == 0:
                continue
            inst = Instance(
                [Job(i + 1, types[i], labels[i]) for i in range(n)], params, model
            )
            cost = run(inst, policy, keep_trace=False).total_cost
            total += prob * cost
    return total / arrangements


def bruteforce_unconditional_mean(n, model, params, policy_name):
    """Binomial mixture of the conditional brute force, exact."""
    rho = model.rho
    total = Fraction(0)
    for n0 in range(n + 1):
        weight = comb(n, n0) * rho ** n0 * (ONE - rho) ** (n - n0)
        total += weight * bruteforce_conditional_mean(n, n0, model, params, policy_name)
    return total


def mixture_unconditional(n, model, params):
    """Binomial(n, rho) mixture of expected_conditional over every n0, exact.

    Returns (opt, nonpreemptive, preemptive, hybrid): an O(n) reference for
    expected_unconditional, which uses the moments of the urgent count instead.
    With rho = a/b the weight of n0 is C(n, n0) a^n0 (b-a)^(n-n0) / b^n, so
    the sum runs over integer weights and is divided by b^n once.
    """
    a, b = model.rho.numerator, model.rho.denominator
    totals = [Fraction(0)] * 4
    for n0 in range(n + 1):
        weight = comb(n, n0) * a ** n0 * (b - a) ** (n - n0)
        cond = expected_conditional(n, n0, model, params)
        for i, value in enumerate((cond.opt, cond.nonpreemptive, cond.preemptive, cond.hybrid)):
            totals[i] += weight * value
    scale = b ** n
    return tuple(total / scale for total in totals)


def algebra_classify_regime(model, params):
    """The beta rule's regime from posterior algebra, without asking any policy.

    The body `classify_regime` had before it read the rule's label flags:
    hybrid when posterior(1) <= beta < posterior(0), otherwise nonpreemptive
    when rho <= beta and preemptive else.
    """
    b = params.beta()
    if model.posterior(1) <= b < model.posterior(0):
        return Regime.HYBRID
    if model.rho <= b:
        return Regime.NONPREEMPTIVE
    return Regime.PREEMPTIVE


def draw_jobs(rng, n, rho, e0, e1):
    """Binary-label jobs 1..n released at 0: per job a type draw, then a label flip."""
    jobs = []
    rand = rng.random
    for i in range(1, n + 1):
        tt = 0 if rand() < rho else 1
        flip = rand() < (e0 if tt == 0 else e1)
        jobs.append(Job(i, tt, (1 - tt) if flip else tt))
    return jobs


class LabelClass(NamedTuple):
    """The jobs of one label, in queue (id) order, reduced to what costs need.

    The summary `experiments._draw_classes` returns as a plain tuple and
    `engine.label_schedule_ticks` reads.
    """

    size: int
    urgent: int
    urgent_positions: int  # sum of the urgent jobs' 1-based places in the class
    ends_urgent: bool

    @classmethod
    def of(cls, types) -> "LabelClass":
        """Summarise the true types (0 urgent, 1 not) of a class in id order."""
        m = len(types)
        return cls(m, m - sum(types), sum(compress(range(1, m + 1), map(not_, types))),
                   m > 0 and types[-1] == 0)


def draw_class_types(rng, n, rho, e0, e1):
    """True types of each label class in id order: per job a type, then a label flip.

    The body `experiments._draw_classes` had before it summarised the classes
    while drawing; `LabelClass.of` of each list is what it returns now.
    """
    rand = rng.random
    classes = ([], [])
    for _ in range(n):
        tt = 0 if rand() < rho else 1
        flip = rand() < (e0 if tt == 0 else e1)
        classes[(1 - tt) if flip else tt].append(tt)
    return classes


def draw_releases(rng, n, mean):
    """Arrival times of a Poisson stream, first job at 0, exact binary fractions."""
    lam = 1.0 / mean
    times = [Fraction(0)]
    t = 0.0
    for _ in range(n - 1):
        t += rng.expovariate(lam)
        times.append(Fraction(t))
    return times


def engine_sweep_chunk(config, grid_index, eps0, eps1, start, stop):
    """Batch sweep costs through the engine: one Instance and run() per schedule.

    The body `experiments._sweep_chunk` had before the label kernel replaced
    it; same signature and output layout (opt first, one row per rep).
    """
    params = config.params
    model = config.model_for(eps0, eps1)
    policies = [get_policy(name) for name in config.policies]
    rho_f, e0f, e1f = float(config.rho), float(eps0), float(eps1)
    out = [[0.0] * (stop - start) for _ in range(len(policies) + 1)]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        inst = Instance(draw_jobs(rng, config.n, rho_f, e0f, e1f), params, model)
        k = rep - start
        out[0][k] = float(offline_wspt(inst, keep_trace=False).total_cost)
        for pi, pol in enumerate(policies, start=1):
            out[pi][k] = float(run(inst, pol, keep_trace=False).total_cost)
    return out


def engine_arrivals_chunk(config, grid_index, eps0, eps1, start, stop):
    """Arrival ratios through the engine: one Instance, run() and offline_wsrpt per rep.

    The body `experiments._arrivals_chunk` had before the release-date
    kernels replaced it; same signature and output layout.
    """
    params = config.params
    model = config.model_for(eps0, eps1)
    policies = [get_policy(name) for name in config.policies]
    rho_f, e0f, e1f = float(config.rho), float(eps0), float(eps1)
    mean = float(config.interarrival)
    out = [[0.0] * (stop - start) for _ in range(len(policies))]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        base = draw_jobs(rng, config.n, rho_f, e0f, e1f)
        releases = draw_releases(rng, config.n, mean)
        jobs = [job._replace(release_time=r) for job, r in zip(base, releases)]
        inst = Instance(jobs, params, model)
        opt_cost = offline_wsrpt(inst, keep_trace=False).total_cost
        k = rep - start
        for pi, pol in enumerate(policies):
            cost = run(inst, pol, keep_trace=False).total_cost
            out[pi][k] = float(cost / opt_cost)
    return out


def scan_argmax_theta(interrupted):
    """(job_id, theta) with the largest theta by a linear scan, FIFO among ties.

    The body `InterruptedQueue.argmax_theta` had before the theta heap; reads
    only the queue's FIFO `items()`.
    """
    entries = iter(interrupted.items())
    best = next(entries)
    for entry in entries:
        if entry[1] > best[1]:
            best = entry
    return best


def scan_modified_beta_decide(state, params):
    """The modified-beta rule with a theta scan and tau built from Fractions.

    The body `modified_beta_decide` had before the heap and the integer
    test, with beta recomputed from alpha, w0 and w1; an oracle only.
    """
    if len(state.unopened) == 0 and len(state.interrupted) == 0:
        raise TerminalStateError(f"no legal action at t={state.clock}")
    if len(state.unopened) == 0:
        job_id, _ = scan_argmax_theta(state.interrupted)
        return complete_low(job_id)
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    job_id, theta = scan_argmax_theta(state.interrupted)
    if theta >= ONE:
        return complete_low(job_id)
    alpha, w0, w1 = params.alpha, params.w0, params.w1
    beta = (alpha / (ONE - alpha)) * (w1 / (w0 - w1))
    tau = beta + (alpha / (ONE - alpha)) * (w0 / (w0 - w1)) * (theta / (ONE - theta))
    if state.unopened.head_priority() > tau:
        return OPEN_NEXT
    return complete_low(job_id)


SCAN_MODIFIED_BETA = Policy("modified-beta-scan", scan_modified_beta_decide)


def fraction_beta_threshold_decide(state, params):
    """The beta threshold rule comparing the head p_hat with beta as Fractions.

    The body `beta_threshold_decide` had before its integer test; an oracle only.
    """
    if len(state.unopened) == 0 and len(state.interrupted) == 0:
        raise TerminalStateError(f"no legal action at t={state.clock}")
    if len(state.unopened) == 0:
        return complete_low(state.interrupted.first_id())
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    if state.unopened.head_priority() > params.beta():
        return OPEN_NEXT
    return complete_low(state.interrupted.first_id())
