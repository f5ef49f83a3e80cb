"""Exact event-driven simulation of the single machine, plus offline oracles.

Event times inside a run live on an integer tick grid (the common denominator
of alpha and all release times), so the clock advances with integer adds and
every completion time is an exact rational. Costs are assembled from the tick
sums at the end; nothing is rounded anywhere.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress
from math import comb, lcm
from operator import not_
from typing import NamedTuple, Optional

from .domain import Instance, Parameters, PredictionModel, ZERO, ONE, format_fraction
from .errors import (
    ContractViolationError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .policies import (
    EXACT_REVELATION,
    ExactRevelation,
    InterruptedQueue,
    Policy,
    PolicyState,
    UnopenedQueue,
    expected_weight,
    get_policy,
    label_flags,
    theta_key,
)


class TraceEvent(NamedTuple):
    time: Fraction
    kind: str  # open | alpha_reveal | complete | preempt
    job_id: int
    true_type: int


@dataclass(frozen=True)
class RunOutcome:
    """Result of one simulated schedule.

    Job `j` completes at exactly `completion_ticks[j] / den`; the
    `completion_times` Fractions are built from these on first access.
    """

    completion_ticks: dict[int, int]
    den: int
    total_cost: Fraction
    trace: Optional[tuple[TraceEvent, ...]]
    preemption_count: int

    @cached_property
    def completion_times(self) -> dict[int, Fraction]:
        den = self.den
        return {jid: Fraction(ticks, den) for jid, ticks in self.completion_ticks.items()}


def format_trace(outcome: RunOutcome) -> str:
    """One line per event: `t,kind,job_id,true_type`, times as exact fractions."""
    if outcome.trace is None:
        raise ValueError("run was executed without trace retention")
    lines = []
    for ev in outcome.trace:
        lines.append(f"{format_fraction(ev.time)},{ev.kind},{ev.job_id},{ev.true_type}")
    return "\n".join(lines) + "\n"


def weight_grid(params: Parameters) -> tuple[int, int, int]:
    """(wden, W0, W1): w0 = W0/wden and w1 = W1/wden on one integer grid.

    Costs on it are integers, and the quotient of two of them (`int / int`)
    rounds like the float of the exact Fraction.
    """
    wden = lcm(params.w0.denominator, params.w1.denominator)
    return (wden, params.w0.numerator * (wden // params.w0.denominator),
            params.w1.numerator * (wden // params.w1.denominator))


class _Prepared(NamedTuple):
    """Per-instance layout of a run: tick grid, queue entries, true types."""

    den: int                 # tick denominator: lcm of alpha and release denominators
    alpha_ticks: int
    initial: tuple           # queue entries (rank, job_id, label, priority), sorted
    future: tuple            # (release_ticks, entry) for later arrivals, sorted
    true_of: dict[int, int]


def _prepare(instance: Instance) -> _Prepared:
    params = instance.params
    jobs = instance.jobs
    den = lcm(params.alpha.denominator, *(job.release_time.denominator for job in jobs))
    alpha_ticks = params.alpha.numerator * (den // params.alpha.denominator)

    true_of = {job.id: job.true_type for job in jobs}
    # entries carry an integer rank of the (negated) priority so queue order
    # and arrival insertion avoid rational arithmetic; in binary mode label
    # order IS priority order (posterior(0) >= posterior(1), and a collapsed
    # tie still puts predicted-urgent jobs first)
    if instance.mode == "binary":
        post = {0: instance.model.posterior(0), 1: instance.model.posterior(1)}
        tagged = [(job.label, job.id, job.label, post[job.label]) for job in jobs]
    else:
        # equal Fractions have equal (numerator, denominator) pairs, so only
        # the distinct values are compared as Fractions
        keys = [(job.p_hat.numerator, job.p_hat.denominator) for job in jobs]
        value_of = dict(zip(keys, (job.p_hat for job in jobs)))
        rank_of = {key: i for i, key in
                   enumerate(sorted(value_of, key=value_of.__getitem__, reverse=True))}
        tagged = [(rank_of[key], job.id, None, job.p_hat) for key, job in zip(keys, jobs)]

    initial = []
    future = []
    for job, entry in zip(jobs, tagged):
        r = job.release_time
        if r.numerator == 0:
            initial.append(entry)
        else:
            future.append((r.numerator * (den // r.denominator), entry))
    initial.sort()
    future.sort()
    return _Prepared(den, alpha_ticks, tuple(initial), tuple(future), true_of)


def run(
    instance: Instance,
    policy: Policy,
    revelation=EXACT_REVELATION,
    *,
    rng: Optional[random.Random] = None,
    keep_trace: bool = True,
) -> RunOutcome:
    """Simulate one schedule of `instance` under `policy`.

    Decision points are job completions, reveal points (alpha after a job is
    opened), and, when the machine is idle, release times. A job freshly at
    its reveal point joins the interrupted pool; it counts as preempted only
    if the next action does not immediately finish it. Under exact revelation
    a job revealed urgent continues straight to completion, and a policy with
    `preempts=False` always continues regardless. Newly released jobs become
    visible at the next decision point and enter the queue in priority order.
    The engine never idles while released work exists.
    """
    params = instance.params
    exact_mode = isinstance(revelation, ExactRevelation)
    if not exact_mode and rng is None:
        raise ValueError("probabilistic revelation requires an rng")

    prep = _prepare(instance)
    den = prep.den
    alpha_ticks = prep.alpha_ticks
    unit = den
    tail = den - alpha_ticks
    true_of = prep.true_of
    forced_continue = not policy.preempts

    pend = list(prep.initial)   # sorted (rank, job_id, label, priority)
    pi = 0                      # head index into pend
    future = prep.future
    fi = 0
    nf = len(future)
    intr: list = []             # (job_id, theta) in FIFO order
    ii = 0                      # head index into intr
    # theta_key entries of intr, largest theta on top; completed jobs' entries
    # are popped lazily. Exact reveals give every job theta 0, so the FIFO
    # head is the argmax and no heap is kept.
    heap: Optional[list] = None if exact_mode else []

    decide = policy.decide
    t = 0
    n = instance.n
    done = 0
    comp_ticks: dict[int, int] = {}
    s0 = 0  # completion-tick sums by true type
    s1 = 0
    trace: Optional[list[TraceEvent]] = [] if keep_trace else None
    preemptions = 0
    pending: Optional[int] = None  # job at its reveal point this instant
    pn = len(pend)  # mirrors len(pend); pend only grows via insort below
    il = len(intr)  # mirrors len(intr)

    while done < n:
        while fi < nf and future[fi][0] <= t:
            insort(pend, future[fi][1], lo=pi)
            pn += 1
            fi += 1
        have_pend = pi < pn
        have_intr = ii < il
        if not have_pend and not have_intr:
            t = future[fi][0]  # idle until the next arrival
            continue

        action = decide(PolicyState(UnopenedQueue._wrap(pend, pi),
                                    InterruptedQueue._wrap(intr, ii, heap), t, den), params)
        kind = action.kind
        target = action.job_id
        if kind == "open":
            if not have_pend:
                raise ContractViolationError(
                    f"policy {policy.name} opened with an empty queue at t={Fraction(t, den)}"
                )
        elif kind != "complete":
            raise ContractViolationError(f"unknown action kind {kind!r} from {policy.name}")

        if pending is not None:
            if kind != "complete" or target != pending:
                preemptions += 1
                if trace is not None:
                    trace.append(TraceEvent(Fraction(t, den), "preempt", pending, true_of[pending]))
            pending = None

        if kind == "open":
            jid = pend[pi][1]
            pi += 1
            tt = true_of[jid]
            if trace is not None:
                trace.append(TraceEvent(Fraction(t, den), "open", jid, tt))
                trace.append(TraceEvent(Fraction(t + alpha_ticks, den), "alpha_reveal", jid, tt))
            if forced_continue or (exact_mode and tt == 0):
                ct = t + unit
                comp_ticks[jid] = ct
                if tt == 0:
                    s0 += ct
                else:
                    s1 += ct
                if trace is not None:
                    trace.append(TraceEvent(Fraction(ct, den), "complete", jid, tt))
                done += 1
                t = ct
            else:
                theta = ZERO if exact_mode else revelation.sample(tt, rng)
                intr.append((jid, theta))
                il += 1
                if heap is not None:
                    heappush(heap, theta_key(theta, pi, jid))  # pi counts opens: FIFO order
                t += alpha_ticks
                pending = jid
        else:
            if have_intr and intr[ii][0] == target:
                ii += 1
            else:
                for k in range(ii + 1, il):
                    if intr[k][0] == target:
                        del intr[k]
                        il -= 1
                        break
                else:
                    raise ContractViolationError(
                        f"policy {policy.name} completed job {target}, which is not "
                        f"interrupted, at t={Fraction(t, den)} "
                        f"({done}/{n} done, {pn - pi} unopened, {il - ii} interrupted)"
                    )
            tt = true_of[target]
            ct = t + tail
            comp_ticks[target] = ct
            if tt == 0:
                s0 += ct
            else:
                s1 += ct
            if trace is not None:
                trace.append(TraceEvent(Fraction(ct, den), "complete", target, tt))
            done += 1
            t = ct
            if heap is not None:
                while heap and heap[0][3] in comp_ticks:
                    heappop(heap)

    return RunOutcome(
        completion_ticks=comp_ticks,
        den=den,
        total_cost=(params.w0 * s0 + params.w1 * s1) / den,
        trace=tuple(trace) if trace is not None else None,
        preemption_count=preemptions,
    )


# ---------------------------------------------------------------------------
# Batch kernels: binary labels, all jobs released at 0, exact reveal
# ---------------------------------------------------------------------------

class LabelClass(NamedTuple):
    """The jobs of one label, in queue (id) order, reduced to what costs need."""

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


def label_schedule_ticks(classes, flags, alpha_ticks: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of one batch schedule.

    The schedule is the one `run()` gives a policy with these `label_flags` on
    a batch instance with binary labels under exact reveal: the queue holds
    the label-0 class, then the label-1 class. In a probed class every job is
    opened; an urgent one completes a unit later, a non-urgent one is set
    aside at its alpha point. An unprobed class first finishes the set-aside
    jobs (1 - alpha each, FIFO) and then runs its jobs back to back; its last
    job, if non-urgent, waits at its alpha point for the next decision. Set
    aside jobs are all non-urgent, so only their count matters. The clock
    counts ticks of 1/den, and a unit is den ticks; each class costs O(1).
    """
    tail = den - alpha_ticks
    t = s0 = s1 = held = 0
    for (m, u, pos, ends_urgent), probe in zip(classes, flags):
        if m == 0:
            continue  # no decision ever sees this label
        if probe:
            # the urgent job at place p has p - c non-urgent jobs ahead of it,
            # where c is its rank among the urgent ones
            s0 += u * t + den * (u * (u + 1) // 2) + alpha_ticks * (pos - u * (u + 1) // 2)
            t += u * den + (m - u) * alpha_ticks
            held += m - u
            continue
        s1 += held * t + tail * (held * (held + 1) // 2)
        t += held * tail
        s0 += u * t + den * pos
        s1 += (m - u) * t + den * (m * (m + 1) // 2 - pos)
        t += m * den
        held = 0
        if not ends_urgent:  # undo the last job's final 1 - alpha
            s1 -= t
            t -= tail
            held = 1
    s1 += held * t + tail * (held * (held + 1) // 2)
    return s0, s1


def wspt_ticks(n: int, n0: int) -> tuple[int, int]:
    """Completion-time sums (urgent, non-urgent) of `offline_wspt` with n0 urgent jobs."""
    s0 = n0 * (n0 + 1) // 2
    return s0, n * (n + 1) // 2 - s0


# ---------------------------------------------------------------------------
# Release-date kernels: binary labels, exact reveal, ids rising with release
# ---------------------------------------------------------------------------

def label_release_ticks(classes, flags, alpha_ticks: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of one schedule with release dates.

    `classes[l]` is (release ticks, true types) of the label-l jobs in id
    order. The schedule is the one `run()` gives a policy with these
    `label_flags` under exact reveal when job ids rise with release time
    (equal times allowed): an arrival then always joins the end of its label
    class, so the unopened jobs are two FIFOs and the head is the first
    released label-0 job, else the first released label-1 job. With set
    aside work the policy opens that head iff its class is probed, else it
    finishes a set-aside job (1 - alpha). Set-aside jobs are all non-urgent,
    so only their count matters. With nothing set aside the head is opened,
    and with nothing released the machine idles to the next release. A
    never-preempting policy probes no class, which finishes each non-urgent
    job at its alpha point at once: the same ticks as running it through.
    """
    (r0, y0), (r1, y1) = classes
    m0, m1 = len(r0), len(r1)
    f0, f1 = flags
    tail = den - alpha_ticks
    h0 = h1 = t = s0 = s1 = held = 0
    while True:
        opened = None  # the opened job's true type; None finishes a set-aside job
        if h0 < m0 and r0[h0] <= t:
            if f0 or not held:
                opened = y0[h0]
                h0 += 1
        elif h1 < m1 and r1[h1] <= t:
            if f1 or not held:
                opened = y1[h1]
                h1 += 1
        elif not held:  # nothing to run: idle until the next release, if any
            if h0 < m0:
                t = r1[h1] if h1 < m1 and r1[h1] < r0[h0] else r0[h0]
            elif h1 < m1:
                t = r1[h1]
            else:
                return s0, s1
            continue
        if opened is None:
            t += tail
            s1 += t
            held -= 1
        elif opened:
            t += alpha_ticks
            held += 1
        else:
            t += den
            s0 += t


def wsrpt_release_ticks(releases, types, w0: int, w1: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of `offline_wsrpt`'s schedule.

    `releases` are the jobs' release ticks in nondecreasing order, `types`
    their true types, `w0` > `w1` the weights on one integer grid and a unit
    den ticks. With unit jobs and two weights at most one job of each type
    is ever partly processed. A started urgent job outranks every other job:
    it beat them all when it started, its ratio w0/x only grows, and an
    arrival is a fresh job with ratio at most w0/den. A started non-urgent
    job with x ticks left outranks every fresh non-urgent job and yields
    only to a fresh urgent one, exactly when w0*x > w1*den (at equality the
    smaller remaining work wins). So the state is two fresh counts and two
    remaining-tick slots, and after the last release the rest runs in three
    blocks priced in closed form.
    """
    n = len(releases)
    i = t = s0 = s1 = 0
    c0 = c1 = 0  # released, never started
    u = x = 0    # ticks left of the started urgent / non-urgent job, 0 for none
    cut = w1 * den
    while True:
        while i < n and releases[i] <= t:
            if types[i]:
                c1 += 1
            else:
                c0 += 1
            i += 1
        if i == n:
            break
        nxt = releases[i]
        while t < nxt:
            if not u and c0 and (not x or w0 * x > cut):
                c0 -= 1
                u = den
            if u:
                if t + u <= nxt:
                    t += u
                    s0 += t
                    u = 0
                else:
                    u -= nxt - t
                    t = nxt
            elif x or c1:
                if not x:
                    c1 -= 1
                    x = den
                if t + x <= nxt:
                    t += x
                    s1 += t
                    x = 0
                else:
                    x -= nxt - t
                    t = nxt
            else:
                t = nxt  # idle until the release
    if u:
        t += u
        s0 += t
    if x and w0 * x <= cut:
        t += x
        s1 += t
        x = 0
    s0 += c0 * t + den * (c0 * (c0 + 1) // 2)
    t += c0 * den
    if x:
        t += x
        s1 += t
    s1 += c1 * t + den * (c1 * (c1 + 1) // 2)
    return s0, s1


# ---------------------------------------------------------------------------
# Offline (clairvoyant) schedules
# ---------------------------------------------------------------------------

def offline_wspt(instance: Instance, keep_trace: bool = True) -> RunOutcome:
    """Optimal batch schedule with known types: urgent first, back to back.

    Only valid when every release time is 0; job j in the sorted order
    completes exactly at time j.
    """
    if any(job.release_time.numerator != 0 for job in instance.jobs):
        raise UnsupportedInputError("offline_wspt needs all release times 0; use offline_wsrpt")
    params = instance.params
    order = sorted(instance.jobs, key=lambda j: (j.true_type, j.id))
    comp: dict[int, int] = {}
    s0 = 0
    s1 = 0
    trace = [] if keep_trace else None
    for pos, job in enumerate(order, start=1):
        comp[job.id] = pos
        if job.true_type == 0:
            s0 += pos
        else:
            s1 += pos
        if trace is not None:
            trace.append(TraceEvent(Fraction(pos - 1), "open", job.id, job.true_type))
            trace.append(TraceEvent(Fraction(pos), "complete", job.id, job.true_type))
    total = params.w0 * s0 + params.w1 * s1
    return RunOutcome(comp, 1, total, tuple(trace) if trace is not None else None, 0)


def offline_wsrpt(instance: Instance, keep_trace: bool = True) -> RunOutcome:
    """Optimal preemptive schedule with known types and release dates.

    At every release and completion, processes the available job with the
    largest weight-to-remaining-work ratio; ties go to smaller remaining work,
    then smaller id. With unit jobs and two weight classes, preemption is only
    ever triggered by an arrival. All arithmetic is integer on the tick grid.
    """
    params = instance.params
    den = lcm(*(job.release_time.denominator for job in instance.jobs))
    wden, *w_int = weight_grid(params)  # w_int[true type]: weights on one integer grid

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


def enumerate_offline_optimum(instance: Instance, limit: int = 4) -> Fraction:
    """Minimum cost over preemptive schedules restricted to the event grid.

    Exhaustively searches schedules whose decision points are release times
    and the completions reachable from them. For unit jobs with two weight
    classes this grid contains an optimal schedule, so the result equals the
    true preemptive optimum. Exponential; guarded by `limit`.
    """
    if instance.n > limit:
        raise ResourceLimitError(f"enumeration over {instance.n} jobs exceeds the limit {limit}")
    params = instance.params
    jobs = list(instance.jobs)
    rel = [j.release_time for j in jobs]
    wt = [j.weight(params) for j in jobs]
    n = len(jobs)
    memo: dict = {}

    def go(t: Fraction, rem: tuple) -> Fraction:
        if all(x == ZERO for x in rem):
            return ZERO
        key = (t, rem)
        if key in memo:
            return memo[key]
        avail = [i for i in range(n) if rem[i] > ZERO and rel[i] <= t]
        if not avail:
            t_next = min(rel[i] for i in range(n) if rem[i] > ZERO)
            result = go(t_next, rem)
            memo[key] = result
            return result
        pending = [rel[i] for i in range(n) if rem[i] > ZERO and rel[i] > t]
        next_release = min(pending) if pending else None
        best: Optional[Fraction] = None
        for i in avail:
            finish = t + rem[i]
            if next_release is None or finish <= next_release:
                new_rem = rem[:i] + (ZERO,) + rem[i + 1:]
                value = wt[i] * finish + go(finish, new_rem)
            else:
                new_rem = rem[:i] + (rem[i] - (next_release - t),) + rem[i + 1:]
                value = go(next_release, new_rem)
            if best is None or value < best:
                best = value
        memo[key] = best
        return best

    return go(ZERO, tuple(ONE for _ in range(n)))


# ---------------------------------------------------------------------------
# Exact expected cost on the decision tree (batch, binary labels)
# ---------------------------------------------------------------------------

def _tree_expected_cost(
    n: int,
    model: PredictionModel,
    params: Parameters,
    flags: Optional[tuple[bool, bool]],
) -> Fraction:
    """Expected total weighted completion time over label and type draws.

    States collapse job identities to (unopened count per label, interrupted
    count): posteriors depend only on labels and jobs are exchangeable within
    a label class. Chance nodes resolve the opened job's type by its label
    posterior; decision nodes open iff `flags` (see `label_flags`) probes the
    head's label, or minimize when `flags` is None. Values are cost-to-go
    measured from the current decision instant, which is valid because the
    future evolution is translation invariant in time.
    """
    p = (model.posterior(0), model.posterior(1))
    ew = (expected_weight(p[0], params), expected_weight(p[1], params))
    w0, w1, alpha = params.w0, params.w1, params.alpha
    memo: dict = {}

    def backlog_weight(u0: int, u1: int, ell: int) -> Fraction:
        return u0 * ew[0] + u1 * ew[1] + ell * w1

    def value(u0: int, u1: int, ell: int) -> Fraction:
        if u0 == 0 and u1 == 0 and ell == 0:
            return ZERO
        key = (u0, u1, ell)
        cached = memo.get(key)
        if cached is not None:
            return cached

        def open_value() -> Fraction:
            if u0 > 0:
                prob, a0, a1 = p[0], u0 - 1, u1
            else:
                prob, a0, a1 = p[1], u0, u1 - 1
            v = ZERO
            if prob > ZERO:
                # urgent: runs to completion one unit from now
                v += prob * (w0 + backlog_weight(a0, a1, ell) + value(a0, a1, ell))
            if prob < ONE:
                # non-urgent: reveal point alpha from now, job joins the backlog
                v += (ONE - prob) * (
                    alpha * backlog_weight(a0, a1, ell + 1) + value(a0, a1, ell + 1)
                )
            return v

        def complete_value() -> Fraction:
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
    total = ZERO
    for u0 in range(n + 1):
        weight = comb(n, u0) * p_label0 ** u0 * (ONE - p_label0) ** (n - u0)
        if weight > ZERO:
            total += weight * value(u0, n - u0, 0)
    return total


def expectimax_optimal(
    n: int,
    model: PredictionModel,
    params: Parameters,
    limit: int = 6,
) -> Fraction:
    """Exact expected cost of the best non-anticipating policy (batch, labels).

    Full expectimax over the collapsed decision tree, memoized and exact.
    The state space is cubic in n but the probability arithmetic gets heavy,
    hence the bound.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ResourceLimitError(f"expectimax over {n} jobs exceeds the limit {limit}")
    return _tree_expected_cost(n, model, params, None)


def rule_expected_cost(
    n: int,
    model: PredictionModel,
    params: Parameters,
    rule: str = "beta",
    threshold: Optional[Fraction] = None,
) -> Fraction:
    """Exact expected cost of a fixed decision rule on the same tree.

    `rule` is "optimal" or a policy name, whose `label_flags` decide. A given
    `threshold` makes the rule a beta rule with that threshold (label l is
    probed iff posterior(l) > threshold); tests use it to confirm the
    verification harness catches a perturbed threshold.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    flags = None if rule == "optimal" else label_flags(get_policy(rule), model, params)
    if threshold is not None:
        flags = (model.posterior(0) > threshold, model.posterior(1) > threshold)
    return _tree_expected_cost(n, model, params, flags)
