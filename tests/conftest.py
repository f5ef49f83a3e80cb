"""Shared fixtures and independent brute-force oracles for the test suite."""

import math
import random
from fractions import Fraction
from itertools import combinations, compress, product
from math import comb, lcm
from operator import not_
from typing import NamedTuple, Optional

import pytest
from hypothesis import strategies as st

from betasched.analytics import (
    CompetitiveRatioReport,
    CrValue,
    HybridCrValue,
    _maximiser,
    expected_conditional,
)
from betasched.domain import ZERO, Instance, Job, Parameters, PredictionModel, to_fraction
from betasched.engine import RunOutcome, TraceEvent, offline_wspt, run, tree_layers
from betasched.errors import (
    ContractViolationError,
    InvalidInstanceError,
    TerminalStateError,
    UnsupportedInputError,
)
from betasched.experiments import _rep_rng
from betasched.policies import (
    OPEN_NEXT,
    InterruptedQueue,
    Policy,
    PolicyState,
    Regime,
    UnopenedQueue,
    get_policy,
)

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


# hypothesis strategies for one channel: alpha with odd denominators, weights
# on or off the weight-gap boundary, and error rates with 0 and 1/2 (exact and
# collapsed posteriors); `drawn_channel` turns a draw into (params, model)
CHANNEL = dict(
    alpha=st.tuples(st.integers(1, 10), st.integers(2, 11)).filter(
        lambda t: t[0] < t[1]).map(lambda t: Fraction(*t)),
    w1=st.fractions(Fraction(1, 10), 10, max_denominator=12).filter(lambda w: w > 0),
    gap=st.one_of(st.fractions(Fraction(1, 10), 20, max_denominator=12).filter(lambda g: g > 0),
                  st.just("boundary")),
    rho=st.fractions(0, 1, max_denominator=20).filter(lambda r: 0 < r < 1),
    e0=st.one_of(st.sampled_from([0, Fraction(1, 2)]),
                 st.fractions(0, Fraction(1, 2), max_denominator=20)),
    e1=st.one_of(st.sampled_from([0, Fraction(1, 2)]),
                 st.fractions(0, Fraction(1, 2), max_denominator=20)),
)


def drawn_channel(alpha, w1, gap, rho, e0, e1):
    # on the boundary w1 = w0*(1 - alpha), so beta = 1
    w0 = w1 / (1 - alpha) if gap == "boundary" else w1 + gap
    return Parameters(alpha, w0, w1), PredictionModel(rho, e0, e1)


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


def reference_label_flags(policy, model, params):
    """`label_flags` with a fresh probe state per call, asked in a loop over the labels.

    The body `policies.label_flags` had before every call shared one
    read-only interrupted queue.
    """
    head = [None]  # the probe's one unopened entry, set per label
    state = PolicyState(UnopenedQueue(head), InterruptedQueue([(1, ZERO)]))
    flags = []
    for label in (0, 1):
        head[0] = (0, 2, label, model.posterior(label))
        target = policy.decide(state, params)
        if target is not None and target != 1:
            raise ContractViolationError(
                f"policy {policy.name} answered {target!r} with job 1 interrupted"
            )
        flags.append(target is None)
    return flags[0], flags[1]


def draw_jobs(rng, n, rho, e0, e1):
    """Binary-label jobs 1..n released at 0: per job a type draw, then a label flip."""
    jobs = []
    rand = rng.random
    for i in range(1, n + 1):
        tt = 0 if rand() < rho else 1
        flip = rand() < (e0 if tt == 0 else e1)
        jobs.append(Job(i, tt, (1 - tt) if flip else tt))
    return jobs


def reference_validate(jobs, model):
    """`Instance._validate` as a loop of `Fraction` comparisons on `Job` fields.

    Raises what an `Instance` of `jobs` and `model` must raise, or nothing.
    A type, a label and an id are ints, a release time an int or a Fraction
    (none a bool), and a p_hat an int, a float or a Fraction.
    """
    if not jobs:
        raise InvalidInstanceError("an instance needs at least one job")
    seen_ids = set()
    modes = set()
    for job in jobs:
        if job.true_type not in (0, 1) or isinstance(job.true_type, (bool, float, Fraction)):
            raise InvalidInstanceError(f"job {job.id}: true_type must be 0 or 1")
        has_label = job.label is not None
        has_prob = job.p_hat is not None
        if has_label == has_prob:
            raise InvalidInstanceError(f"job {job.id}: exactly one of label / p_hat must be set")
        if has_label and (job.label not in (0, 1)
                          or isinstance(job.label, (bool, float, Fraction))):
            raise InvalidInstanceError(f"job {job.id}: label must be 0 or 1")
        if has_prob and not (isinstance(job.p_hat, (int, float, Fraction))
                             and Fraction(0) <= job.p_hat <= ONE):
            raise InvalidInstanceError(f"job {job.id}: p_hat must lie in [0,1]")
        if isinstance(job.release_time, bool) or not isinstance(job.release_time, (int, Fraction)):
            raise InvalidInstanceError(f"job {job.id}: release must be an int or a Fraction")
        if job.release_time < Fraction(0):
            raise InvalidInstanceError(f"job {job.id}: negative release time")
        if isinstance(job.id, bool) or not isinstance(job.id, int):
            raise InvalidInstanceError(f"job {job.id!r}: id must be an int")
        if job.id in seen_ids:
            raise InvalidInstanceError(f"duplicate job id {job.id}")
        seen_ids.add(job.id)
        modes.add("binary" if has_label else "probabilistic")
    if len(modes) > 1:
        raise InvalidInstanceError("instance mixes binary labels and probability estimates")
    if modes == {"binary"} and model is None:
        raise InvalidInstanceError("binary-label instances need a prediction model")


def bernoulli(rng, p):
    """One exact draw of probability `p`: no draw at 0 or 1, else randrange(den) < num."""
    if p == 0:
        return False
    if p == 1:
        return True
    return rng.randrange(p.denominator) < p.numerator


def reference_sample_jobs(n, model, seed):
    """The jobs of `sample_instance(n, model, params, seed)`, one `bernoulli` call per draw."""
    rng = random.Random(seed)
    jobs = []
    for i in range(1, n + 1):
        true_type = 0 if bernoulli(rng, model.rho) else 1
        flipped = bernoulli(rng, model.eps0 if true_type == 0 else model.eps1)
        jobs.append(Job(i, true_type, (1 - true_type) if flipped else true_type))
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


def offline_wsrpt(instance: Instance, keep_trace: bool = True) -> RunOutcome:
    """Optimal preemptive schedule with known types and release dates.

    At every release and completion, processes the available job with the
    largest weight-to-remaining-work ratio; ties go to smaller remaining work,
    then smaller id. With unit jobs and two weight classes, preemption is only
    ever triggered by an arrival. All arithmetic is integer on the tick grid.
    """
    params = instance.params
    den = lcm(*(job.release_time.denominator for job in instance.jobs))
    wden, *w_int = params.weight_grid  # w_int[true type]: weights on one integer grid

    jobs = instance.jobs
    releases = sorted(
        (job.release_time.numerator * (den // job.release_time.denominator), job.id)
        for job in jobs
    )
    true_of = {j.id: j.true_type for j in jobs}
    remaining: dict[int, int] = {j.id: den for j in jobs}  # den ticks = 1 unit

    t = 0
    ri = 0
    available: list[int] = []
    comp_ticks: dict[int, int] = {}
    cost_scaled = 0  # sum of w_int * completion ticks
    trace: Optional[list[TraceEvent]] = [] if keep_trace else None
    started: set[int] = set()
    current: Optional[int] = None
    preemptions = 0
    n = len(jobs)

    while len(comp_ticks) < n:
        while ri < n and releases[ri][0] <= t:
            available.append(releases[ri][1])
            ri += 1
        if not available:
            t = releases[ri][0]
            continue

        best = available[0]
        bw, bx = w_int[true_of[best]], remaining[best]
        for jid in available[1:]:
            jw, jx = w_int[true_of[jid]], remaining[jid]
            lhs = jw * bx
            rhs = bw * jx
            if lhs > rhs or (lhs == rhs and (jx, jid) < (bx, best)):
                best, bw, bx = jid, jw, jx

        if current is not None and current != best and remaining[current] > 0:
            if remaining[current] < den:
                preemptions += 1
                if trace is not None:
                    trace.append(TraceEvent(Fraction(t, den), "preempt", current, true_of[current]))
        if best not in started:
            started.add(best)
            if trace is not None:
                trace.append(TraceEvent(Fraction(t, den), "open", best, true_of[best]))
        current = best

        finish = t + bx
        next_release = releases[ri][0] if ri < n else None
        if next_release is None or finish <= next_release:
            t = finish
            remaining[best] = 0
            comp_ticks[best] = t
            cost_scaled += bw * t
            if trace is not None:
                trace.append(TraceEvent(Fraction(t, den), "complete", best, true_of[best]))
            available.remove(best)
            current = None
        else:
            remaining[best] = bx - (next_release - t)
            t = next_release

    total = Fraction(cost_scaled, wden * den)
    return RunOutcome(
        comp_ticks, den, total, tuple(trace) if trace is not None else None, preemptions
    )


def engine_sweep_chunk(config, grid_index, model, start, stop):
    """Batch sweep costs through the engine: one Instance and run() per schedule.

    The body `experiments._sweep_chunk` had before the label kernel replaced
    it; same signature and output layout (opt first, one row per rep).
    """
    params = config.params
    policies = [get_policy(name) for name in config.policies]
    rho_f, e0f, e1f = float(config.rho), float(model.eps0), float(model.eps1)
    out = [[0.0] * (stop - start) for _ in range(len(policies) + 1)]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        inst = Instance(draw_jobs(rng, config.n, rho_f, e0f, e1f), params, model)
        k = rep - start
        out[0][k] = float(offline_wspt(inst, keep_trace=False).total_cost)
        for pi, pol in enumerate(policies, start=1):
            out[pi][k] = float(run(inst, pol, keep_trace=False).total_cost)
    return out


def engine_arrivals_chunk(config, grid_index, model, start, stop):
    """Arrival ratios through the engine: one Instance, run() and offline_wsrpt per rep.

    The body `experiments._arrivals_chunk` had before the release-date
    kernels replaced it; same signature and output layout.
    """
    params = config.params
    policies = [get_policy(name) for name in config.policies]
    rho_f, e0f, e1f = float(config.rho), float(model.eps0), float(model.eps1)
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


def run_record(inst, policy, revelation, seed, allowed=(UnsupportedInputError,)):
    """Everything a run gives back, or its error, and the rng state after it.

    Only the error types in `allowed` are recorded (by default the hybrid's
    refusal of p_hat instances); any other error fails the calling test.
    """
    rng = random.Random(seed)
    try:
        out = run(inst, policy, revelation, rng=rng)
    except allowed as exc:
        return type(exc), str(exc), rng.getstate()
    return (out.trace, out.completion_ticks, list(out.completion_ticks), out.den,
            out.total_cost, out.preemption_count, rng.getstate())


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
        return job_id
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    job_id, theta = scan_argmax_theta(state.interrupted)
    theta = Fraction(theta)  # a float theta would make tau a float
    if theta >= ONE:
        return job_id
    alpha, w0, w1 = params.alpha, params.w0, params.w1
    beta = (alpha / (ONE - alpha)) * (w1 / (w0 - w1))
    tau = beta + (alpha / (ONE - alpha)) * (w0 / (w0 - w1)) * (theta / (ONE - theta))
    if state.unopened.head_priority() > tau:
        return OPEN_NEXT
    return job_id


SCAN_MODIFIED_BETA = Policy("modified-beta-scan", scan_modified_beta_decide)


def probe_label_1_decide(state, params):
    """Probes only the predicted non-urgent class: label flags (False, True).

    No built-in rule has these flags.
    """
    if len(state.unopened) and (
        len(state.interrupted) == 0 or state.unopened.head_label() == 1
    ):
        return OPEN_NEXT
    return state.interrupted.first_id()


def fraction_beta_threshold_decide(state, params):
    """The beta threshold rule comparing the head p_hat with beta as Fractions.

    The body `beta_threshold_decide` had before its integer test; an oracle only.
    """
    if len(state.unopened) == 0 and len(state.interrupted) == 0:
        raise TerminalStateError(f"no legal action at t={state.clock}")
    if len(state.unopened) == 0:
        return state.interrupted.first_id()
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    if state.unopened.head_priority() > params.beta():
        return OPEN_NEXT
    return state.interrupted.first_id()


def fraction_tree_expected_cost(n, model, params, flags):
    """Expected cost of n batch jobs on the collapsed decision tree, in Fractions.

    The body the tree evaluator had before the integer bottom-up pass
    (`engine.tree_layers`): a memoised top-down recursion over
    (unopened per label, set-aside) counts with `flags` deciding, or the
    minimum when `flags` is None. An oracle only; its recursion depth grows
    with n, so the tests keep n small.
    """
    p = (model.posterior(0), model.posterior(1))
    ew = (expected_weight(p[0], params), expected_weight(p[1], params))
    w0, w1, alpha = params.w0, params.w1, params.alpha
    memo = {}

    def backlog_weight(u0, u1, ell):
        return u0 * ew[0] + u1 * ew[1] + ell * w1

    def value(u0, u1, ell):
        if u0 == 0 and u1 == 0 and ell == 0:
            return Fraction(0)
        key = (u0, u1, ell)
        cached = memo.get(key)
        if cached is not None:
            return cached

        def open_value():
            if u0 > 0:
                prob, a0, a1 = p[0], u0 - 1, u1
            else:
                prob, a0, a1 = p[1], u0, u1 - 1
            v = Fraction(0)
            if prob > 0:
                # urgent: runs to completion one unit from now
                v += prob * (w0 + backlog_weight(a0, a1, ell) + value(a0, a1, ell))
            if prob < ONE:
                # non-urgent: reveal point alpha from now, job joins the backlog
                v += (ONE - prob) * (
                    alpha * backlog_weight(a0, a1, ell + 1) + value(a0, a1, ell + 1)
                )
            return v

        def complete_value():
            return (ONE - alpha) * (w1 + backlog_weight(u0, u1, ell - 1)) + value(u0, u1, ell - 1)

        if u0 == 0 and u1 == 0:
            result = complete_value()
        elif ell == 0:
            result = open_value()
        elif flags is None:
            result = min(open_value(), complete_value())
        else:
            result = open_value() if flags[0 if u0 > 0 else 1] else complete_value()
        memo[key] = result
        return result

    p_label0 = model.label_probability(0)
    total = Fraction(0)
    for u0 in range(n + 1):
        weight = comb(n, u0) * p_label0 ** u0 * (ONE - p_label0) ** (n - u0)
        if weight > 0:
            total += weight * value(u0, n - u0, 0)
    return total


def tree_expected_costs(n_max, model, params, flags):
    """Expected cost for every n = 1..n_max, exact: each layer of `tree_layers` mixed.

    Entry n - 1 is the expectation over the labels and types of n batch
    jobs, under `flags` or, with flags None, under the best non-anticipating
    policy. The Binomial label weights of layer k come from layer k - 1's by
    Pascal's rule. Was `engine.tree_expected_costs`, which `verify` read
    before it compared the layers' roots instead.
    """
    q = model.label_probability(0)
    qa, qb = q.numerator, q.denominator - q.numerator
    mix = [1]  # Binomial label weights of layer k, times q.denominator**k
    qk = 1
    costs = []
    for rows, den in tree_layers(n_max, model, params, flags):
        mix = [qb * x + qa * y for x, y in zip(mix + [0], [0] + mix)]
        qk *= q.denominator
        costs.append(Fraction(sum(m * row[0] for m, row in zip(mix, rows)), qk * den))
    return costs


def expected_weight(priority, params):
    """Mean delay cost of a job with the given urgency probability.

    Was `policies.expected_weight`.
    """
    return params.w1 + (params.w0 - params.w1) * priority


def urgent_count(instance):
    """Number of truly urgent jobs in `instance`. Was `Instance.n0`."""
    return sum(1 for job in instance.jobs if job.true_type == 0)


def coupled_grid(values):
    """(eps, eps) pairs, eps0 = eps1, as exact Fractions. Was `experiments.coupled_grid`."""
    return tuple((to_fraction(v), to_fraction(v)) for v in values)


def satisfies_weight_gap(params):
    """True when w1 < w0*(1-alpha), equivalently beta < 1.

    The regime where preemption at reveal points can pay off; outside it the
    threshold rule never preempts. Was `Parameters.satisfies_weight_gap`.
    """
    return params.w1 < params.w0 * (ONE - params.alpha)


def priority(instance, job):
    """Urgency probability the scheduler sees for a job: p_hat, else its label posterior."""
    if job.p_hat is not None:
        return job.p_hat
    return instance.model.posterior(job.label)


def sort_for_policy(instance):
    """Jobs in nonincreasing order of urgency probability; ties by label, then id.

    The order in which `run()` opens a batch queue, as the reference its own
    integer ranking is tested against. The label tie-break only matters when
    a degenerate channel collapses the two posteriors (both error rates one
    half): predicted-urgent jobs still come first, the order the closed-form
    expectations assume. Was `domain.sort_for_policy`.
    """
    if instance.mode == "binary":
        return tuple(
            sorted(instance.jobs, key=lambda j: (-priority(instance, j), j.label, j.id))
        )
    return tuple(sorted(instance.jobs, key=lambda j: (-j.p_hat, j.id)))


def limit_excess_ratio(kind, q, model, params):
    """Large-n limit of E(policy)/OPT - 1 at urgent fraction q, as a float.

    The curve whose maximum the closed-form competitive ratios evaluate;
    was `analytics.limit_excess_ratio`.
    """
    w0 = float(params.w0)
    w1 = float(params.w1)
    alpha = float(params.alpha)
    gap = w0 - w1
    eps = float((model.eps0 + model.eps1) / 2)
    denom = gap * q * q + w1
    if kind == "nonpreemptive":
        num = 2.0 * eps * gap * q * (1.0 - q)
    elif kind == "preemptive":
        num = alpha * (2.0 * eps * w0 * q * (1.0 - q) + w1 * (1.0 - q) ** 2)
    elif kind == "hybrid":
        e0 = float(model.eps0)
        e1 = float(model.eps1)
        num = (alpha * w0 * e1 * (1.0 - e0) + gap * e0 * (1.0 + e1)) * q * (1.0 - q) \
            + alpha * w1 * e1 * e1 * (1.0 - q) ** 2
    else:
        raise ValueError(f"unknown ratio kind {kind!r}")
    return num / denom


def search_worst_q(kind, model, params, step=1e-3, tol=1e-10):
    """Numerically maximise `limit_excess_ratio` over q in [0, 1].

    A step-sized sweep brackets the maximum and golden-section refinement
    narrows it to `tol`; returns (argmax, 1 + max), comparable with the
    closed-form ratio values. Was `analytics.search_worst_q`.
    """
    grid_n = max(2, round(1.0 / step))
    best_i = 0
    best_v = -1.0
    for i in range(grid_n + 1):
        v = limit_excess_ratio(kind, i / grid_n, model, params)
        if v > best_v:
            best_v = v
            best_i = i
    lo = max(0.0, (best_i - 1) / grid_n)
    hi = min(1.0, (best_i + 1) / grid_n)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = limit_excess_ratio(kind, c, model, params)
    fd = limit_excess_ratio(kind, d, model, params)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = limit_excess_ratio(kind, c, model, params)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = limit_excess_ratio(kind, d, model, params)
    q_star = (a + b) / 2.0
    return q_star, 1.0 + limit_excess_ratio(kind, q_star, model, params)


# ---------------------------------------------------------------------------
# Exact-Fraction oracles of the analytic layer: the bodies the competitive
# ratios and the channel posteriors had before they moved to integer pairs.
# Each rational is a Fraction and rounds where it becomes a float.
# ---------------------------------------------------------------------------

def fraction_posteriors(rho, eps0, eps1):
    """(P(label 0), P(type 0 | label 0), P(type 0 | label 1)), by Bayes' rule.

    Was the body of `PredictionModel.__init__`.
    """
    p_label0 = (ONE - eps0) * rho + eps1 * (ONE - rho)
    return p_label0, (ONE - eps0) * rho / p_label0, eps0 * rho / (ONE - p_label0)


def fraction_maximiser(r, m):
    """The worst urgent fraction sqrt(r + m^2) - m, as r / (sqrt(r + m^2) + m).

    The second form has no cancellation. Its denominator is 0.0 only where
    r, r + m^2 and m all round to 0.0; the maximiser is 0.0 then. Where
    r + m^2 overflows a float, r and m are quartered and halved, exactly,
    until it is under 2^1000, and the float is doubled back as often.
    """
    try:
        root = math.sqrt(float(r + m * m)) + float(m)
        return float(r) / root if root else 0.0
    except OverflowError:
        pass
    j = 0
    while r + m * m >= 2 ** 1000:
        r, m, j = r / 4, m / 2, j + 1
    return math.ldexp(fraction_maximiser(r, m), j)


def fraction_cr_nonpreemptive(model, params):
    eps = (model.eps0 + model.eps1) / 2
    w0, w1 = params.w0, params.w1
    value = 1.0 + float(eps) * (math.sqrt(w0 / w1) - 1.0)
    r = w1 / (w0 - w1)
    return CrValue(value, fraction_maximiser(r, r))


def fraction_cr_nonpreemptive_cap(alpha, eps0, eps1):
    a = to_fraction(alpha)
    eps = (to_fraction(eps0) + to_fraction(eps1)) / 2
    return 1.0 + float(eps) * (math.sqrt(ONE / (ONE - a)) - 1.0)


def fraction_cr_preemptive(model, params):
    eps = (model.eps0 + model.eps1) / 2
    w0, w1, alpha = params.w0, params.w1, params.alpha
    if eps <= w1 / w0:
        return CrValue(float(ONE + alpha), 0.0)
    factor = (alpha / 2) * (w0 / (w0 - w1))
    radicand = ONE - 4 * eps + 4 * eps * eps * (w0 / w1)
    value = float(ONE + factor * (ONE - 2 * eps)) + float(factor) * math.sqrt(float(radicand))
    r = w1 / (w0 - w1)
    s = (2 * eps * w0 - 2 * w1 + w0) / (2 * eps * w0 - 2 * w1)
    return CrValue(value, fraction_maximiser(r, r * s))


def fraction_hybrid_mix_coefficient(model, params):
    w0, w1, alpha = params.w0, params.w1, params.alpha
    e0, e1 = model.eps0, model.eps1
    gap = w0 - w1
    return e0 * (ONE + e1) + (alpha * w0 / gap) * e1 * (ONE - e0) - (alpha * w1 / gap) * e1 * e1


def fraction_cr_hybrid(model, params):
    w0, w1, alpha = params.w0, params.w1, params.alpha
    e1 = model.eps1
    lam = fraction_hybrid_mix_coefficient(model, params)
    a = alpha * e1 * e1
    radicand = (w0 / w1) * lam * lam + (w0 / (w0 - w1)) * a * a
    if lam > 1:  # sqrt(radicand) - lam, about radicand / (2 * lam), without cancelling
        t = (radicand - lam * lam) / lam
        s = math.sqrt(float(radicand / (lam * lam)))
        value = 1.0 + float(a / 2) + float(t) / (2 * (1.0 + s))
    else:
        value = float(ONE + (a - lam) / 2) + math.sqrt(float(radicand)) / 2
    bound = (
        1.0
        + float(lam / 2) * (math.sqrt(w0 / w1) - 1.0)
        + float(a / 2) * (1.0 + math.sqrt(w0 / (w0 - w1)))
    )
    r = w1 / (w0 - w1)
    denom = lam - r * a
    if lam == 0 and a == 0:
        worst_q = 0.0
    elif denom > 0:
        worst_q = fraction_maximiser(r, r * (lam + a) / denom)
    else:
        worst_q = None
    return HybridCrValue(value, worst_q, float(lam), bound)


def fraction_competitive_ratio(model, params):
    """The report `competitive_ratio` gives, from the Fraction bodies above."""
    np_cr = fraction_cr_nonpreemptive(model, params)
    p_cr = fraction_cr_preemptive(model, params)
    h_cr = fraction_cr_hybrid(model, params)
    regime = algebra_classify_regime(model, params)
    selected = {
        Regime.NONPREEMPTIVE: np_cr.value,
        Regime.PREEMPTIVE: p_cr.value,
        Regime.HYBRID: h_cr.value,
    }[regime]
    return CompetitiveRatioReport(np_cr, p_cr, h_cr, regime, selected, model, params)


# ---------------------------------------------------------------------------
# The integer-pair worst-case ratios as three separate bodies, one per ratio,
# each reading the channel's integers again: what `analytics` had before one
# body built all three. Every float expression keeps its operation order, so
# the shared body must match these bit for bit, and raise OverflowError for
# exactly the same calls.
# ---------------------------------------------------------------------------

def split_channel_ints(model, params):
    """(a, da, p0, q0, p1, q1, w0, w1): alpha = a/da, eps0 = p0/q0, eps1 = p1/q1."""
    _, w0, w1 = params.weight_grid
    return (*params.alpha.as_integer_ratio(), *model.eps0.as_integer_ratio(),
            *model.eps1.as_integer_ratio(), w0, w1)


# the worst urgent fraction is not what these bodies split: they share the
# package's, which `fraction_maximiser` checks
split_maximiser = _maximiser


def split_cr_nonpreemptive(model, params):
    _, _, p0, q0, p1, q1, w0, w1 = split_channel_ints(model, params)
    value = 1.0 + (p0 * q1 + p1 * q0) / (2 * q0 * q1) * (math.sqrt(w0 / w1) - 1.0)
    return CrValue(value, split_maximiser(w1, w0 - w1, w1, w0 - w1))


def split_cr_preemptive(model, params):
    a, da, p0, q0, p1, q1, w0, w1 = split_channel_ints(model, params)
    en, ed = p0 * q1 + p1 * q0, 2 * q0 * q1
    if en * w0 <= w1 * ed:
        return CrValue((da + a) / da, 0.0)
    gap = w0 - w1
    fn, fd = a * w0, 2 * da * gap
    radicand = ((ed - 4 * en) * ed * w1 + 4 * en * en * w0) / (ed * ed * w1)
    value = (fd * ed + fn * (ed - 2 * en)) / (fd * ed) + fn / fd * math.sqrt(radicand)
    d = 2 * (en * w0 - w1 * ed)
    return CrValue(value, split_maximiser(w1, gap, w1 * (d + w0 * ed), gap * d))


def split_cr_hybrid(model, params):
    a, da, p0, q0, p1, q1, w0, w1 = split_channel_ints(model, params)
    gap = w0 - w1
    ln = (p0 * (q1 + p1) * da * gap * q1 + a * w0 * p1 * (q0 - p0) * q1
          - a * w1 * p1 * p1 * q0)
    ld = da * gap * q0 * q1 * q1
    an = a * p1 * p1 * gap * q0
    if ln > ld:
        t = (gap * gap * ln * ln + w0 * w1 * an * an) / (w1 * gap * ld * ln)
        s = math.sqrt((w0 * gap * ln * ln + w0 * w1 * an * an) / (w1 * gap * ln * ln))
        value = 1.0 + an / (2 * ld) + t / (2 * (1.0 + s))
    else:
        value = ((2 * ld + an - ln) / (2 * ld)
                 + math.sqrt((w0 * gap * ln * ln + w0 * w1 * an * an) / (w1 * gap * ld * ld)) / 2)
    bound = (
        1.0
        + ln / (2 * ld) * (math.sqrt(w0 / w1) - 1.0)
        + an / (2 * ld) * (1.0 + math.sqrt(w0 / gap))
    )
    dn = ln * gap - w1 * an
    if ln == 0 and an == 0:
        worst_q = 0.0
    elif dn > 0:
        worst_q = split_maximiser(w1, gap, w1 * (ln + an), dn)
    else:
        worst_q = None
    return HybridCrValue(value, worst_q, ln / ld, bound)


def split_competitive_ratio(model, params):
    """The report `competitive_ratio` gives, from the three bodies above."""
    np_cr = split_cr_nonpreemptive(model, params)
    p_cr = split_cr_preemptive(model, params)
    h_cr = split_cr_hybrid(model, params)
    regime = algebra_classify_regime(model, params)
    selected = {
        Regime.NONPREEMPTIVE: np_cr.value,
        Regime.PREEMPTIVE: p_cr.value,
        Regime.HYBRID: h_cr.value,
    }[regime]
    return CompetitiveRatioReport(np_cr, p_cr, h_cr, regime, selected, model, params)


def fraction_expected_costs(n, urgent_pairs, mixed_pairs, nonurgent_pairs, model, params):
    """(opt, nonpreemptive, preemptive, hybrid) from the three pair statistics.

    Was the body of `analytics._expected_costs`, which now reads the
    statistics as integers over one denominator.
    """
    w0, w1, alpha = params.w0, params.w1, params.alpha
    e0, e1 = model.eps0, model.eps1

    opt = (w0 - w1) * urgent_pairs + w1 * Fraction(n * (n + 1), 2)
    ex = (e0 + e1) * mixed_pairs              # inverted (non-urgent, urgent) pairs
    ey = nonurgent_pairs                      # (non-urgent, non-urgent) pairs
    ex0 = e1 * (ONE - e0) * mixed_pairs       # inversions inside the predicted-urgent prefix
    ey0 = e1 * e1 * nonurgent_pairs           # non-urgent pairs inside the prefix

    nonpreemptive = opt + (w0 - w1) * ex
    preemptive = opt + alpha * w0 * ex + alpha * w1 * ey
    hybrid = opt + alpha * w0 * ex0 + alpha * w1 * ey0 + (w0 - w1) * (ex - ex0)
    return opt, nonpreemptive, preemptive, hybrid


def fraction_expected_conditional(n, n0, model, params):
    n1 = n - n0
    pairs = (Fraction(n0 * (n0 + 1), 2), Fraction(n0 * n1, 2), Fraction(n1 * (n1 - 1), 2))
    return fraction_expected_costs(n, *pairs, model, params)


def fraction_expected_unconditional(n, model, params):
    rho = model.rho
    pairs = (n * rho * (2 - rho + n * rho) / 2, n * (n - 1) * rho * (ONE - rho) / 2,
             n * (n - 1) * (ONE - rho) ** 2 / 2)
    return fraction_expected_costs(n, *pairs, model, params)
