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
from itertools import repeat
from math import lcm
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
    get_policy,
    label_flags,
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
    opened), and, when the machine is idle, release times. There `decide`
    returns `OPEN_NEXT` (None) to open the next job, or an interrupted job's
    id to complete it; an open with no job waiting, or any other answer, is
    a `ContractViolationError`. A job freshly at its reveal point joins the
    interrupted pool, and counts as preempted iff the next decision is not
    its id. Under exact revelation a job revealed urgent continues straight
    to completion; that is the one decision point the policy is not asked
    at. Newly released jobs become visible at the next decision point and
    enter the queue in priority order. The engine never idles while
    released work exists.
    """
    params = instance.params
    exact_mode = isinstance(revelation, ExactRevelation)
    if not exact_mode and rng is None:
        raise ValueError("probabilistic revelation requires an rng")

    # the instance builds its layout on first use and keeps it; each run
    # copies only pend, which insort below extends with the arrivals
    den, alpha_ticks, pend, future = instance.run_layout
    true_of = instance.true_of
    pend = list(pend)           # sorted (rank, job_id, label, priority)
    tail = den - alpha_ticks

    pi = 0                      # head index into pend
    fi = 0                      # next arrival in future, sorted (release_ticks, entry)
    nf = len(future)
    # one state and two queue views per run, moved to each decision point
    # with the two counts; exact reveals give every job theta 0, so the
    # theta heap's top is the FIFO head
    unopened = UnopenedQueue(pend)
    interrupted = InterruptedQueue([])
    state = PolicyState(unopened, interrupted, 0, den)
    add = interrupted.add
    remove = interrupted.remove
    sample = None if exact_mode else revelation.sample

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
    held = 0  # mirrors len(interrupted)

    while done < n:
        while fi < nf and future[fi][0] <= t:
            insort(pend, future[fi][1], lo=pi)
            pn += 1
            fi += 1
        waiting = pn - pi
        if not waiting and not held:
            t = future[fi][0]  # idle until the next arrival
            continue

        unopened._pi = pi
        state.n_unopened = waiting
        state.n_interrupted = held
        state._clock_ticks = t
        target = decide(state, params)  # None opens, a job id completes

        if pending is not None:
            if target != pending:
                preemptions += 1
                if trace is not None:
                    trace.append(TraceEvent(Fraction(t, den), "preempt", pending, true_of[pending]))
            pending = None

        if target is None:
            if not waiting:
                raise ContractViolationError(
                    f"policy {policy.name} opened with an empty queue at t={Fraction(t, den)}"
                )
            target = pend[pi][1]
            pi += 1
            tt = true_of[target]
            if trace is not None:
                trace.append(TraceEvent(Fraction(t, den), "open", target, tt))
                trace.append(TraceEvent(Fraction(t + alpha_ticks, den), "alpha_reveal", target, tt))
            t += alpha_ticks
            if not exact_mode or tt:  # set aside; a job revealed urgent runs on
                add(target, ZERO if exact_mode else sample(tt, rng))
                held += 1
                pending = target
                continue
        elif remove(target):
            held -= 1
            tt = true_of[target]
        else:
            raise ContractViolationError(
                f"policy {policy.name} completed job {target}, which is not "
                f"interrupted, at t={Fraction(t, den)} "
                f"({done}/{n} done, {pn - pi} unopened, {held} interrupted)"
            )
        # the completion of an interrupted job, or of one revealed urgent
        t += tail
        comp_ticks[target] = t
        if tt == 0:
            s0 += t
        else:
            s1 += t
        if trace is not None:
            trace.append(TraceEvent(Fraction(t, den), "complete", target, tt))
        done += 1

    wden, w0, w1 = params.weight_grid
    return RunOutcome(
        completion_ticks=comp_ticks,
        den=den,
        total_cost=Fraction(w0 * s0 + w1 * s1, wden * den),
        trace=tuple(trace) if trace is not None else None,
        preemption_count=preemptions,
    )


# ---------------------------------------------------------------------------
# Batch kernels: binary labels, all jobs released at 0, exact reveal
# ---------------------------------------------------------------------------

def label_schedule_ticks(classes, flags, alpha_ticks: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of one batch schedule.

    `classes[l]` is (size, urgent, urgent_positions, ends_urgent) of the label-l
    jobs in id order: their urgent count, the sum of the urgent ones' 1-based
    places, and whether the last is urgent. The schedule is the one `run()`
    gives a policy with these `label_flags` on a batch instance with binary
    labels under exact reveal: the queue holds the label-0 class, then the
    label-1 class. In a probed class every job is opened; an urgent one
    completes a unit later, a non-urgent one is set aside at its alpha point.
    An unprobed class first finishes the set-aside jobs (1 - alpha each, FIFO)
    and then runs its jobs back to back; its last job, if non-urgent, waits at
    its alpha point for the next decision. Set aside jobs are all non-urgent,
    so only their count matters. The clock counts ticks of 1/den, and a unit
    is den ticks; each class costs O(1).
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

def release_lists(ticks, types, labels, den: int):
    """(classes, urgent, non_urgent): the release kernels' inputs, in one pass.

    `ticks` are the release ticks of at least one job in id order, which is
    nondecreasing, `types` their true types and `labels` their labels (true:
    label 1). `classes[l]` is (release ticks, true types) of the label-l jobs,
    and `urgent` and `non_urgent` are the release ticks of each true type.
    Each of the four tick lists ends in the same sentinel, `ticks[-1] +
    (n + 1) * den`: each job holds the machine for at most den ticks, so the
    sentinel is past every completion, and no kernel's head runs off its list.
    """
    end = ticks[-1] + (len(ticks) + 1) * den
    r0, y0, r1, y1, urgent, non_urgent = [], [], [], [], [], []
    for tick, y, label in zip(ticks, types, labels):
        if label:
            r1.append(tick)
            y1.append(y)
        else:
            r0.append(tick)
            y0.append(y)
        if y:
            non_urgent.append(tick)
        else:
            urgent.append(tick)
    r0.append(end)
    r1.append(end)
    urgent.append(end)
    non_urgent.append(end)
    return ((r0, y0), (r1, y1)), urgent, non_urgent


def type_release_lists(ticks, types, den: int):
    """(urgent, non_urgent): `release_lists`' per-type tick lists alone, the
    inputs of `wsrpt_release_ticks`. The jobs pass as unlabelled, so the
    sentinel and the type split stay written once."""
    _, urgent, non_urgent = release_lists(ticks, types, repeat(False), den)
    return urgent, non_urgent


def label_release_ticks(classes, flags, alpha_ticks: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of one schedule with release dates.

    `classes[l]` is (release ticks, true types) of the label-l jobs in id
    order, each tick list ended by `release_lists`' sentinel. The schedule is
    the one `run()` gives a policy with these `label_flags` under exact
    reveal when job ids rise with release time
    (equal times allowed): an arrival then always joins the end of its label
    class, so the unopened jobs are two FIFOs and the head is the first
    released label-0 job, else the first released label-1 job. With set
    aside work the policy opens that head iff its class is probed, else it
    finishes a set-aside job (1 - alpha). Set-aside jobs are all non-urgent,
    so only their count matters. With nothing set aside the head is opened,
    and with nothing released the machine idles to the next release. An
    unprobed class's head is opened only with nothing set aside, so a
    non-urgent one is finished in the step that opens it unless the next
    decision opens a probed head. A never-preempting policy probes no class,
    so it finishes each non-urgent job at its alpha point at once: the same
    ticks as running it through.
    """
    (r0, y0), (r1, y1) = classes
    end = r0[-1]  # the sentinel
    f0, f1 = flags
    tail = den - alpha_ticks
    h0 = h1 = t = s0 = s1 = held = 0
    n0, n1 = r0[0], r1[0]  # the heads' release ticks
    while True:  # each branch does its own step, with no action value to dispatch on
        if n0 <= t:
            if f0 or not held:  # open the label-0 head
                y = y0[h0]
                h0 += 1
                n0 = r0[h0]
                if not y:
                    t += den
                    s0 += t
                    continue
                t += alpha_ticks
                if f0 or f1 and n1 <= t < n0:  # the next decision opens a probed head
                    held += 1
                else:  # it would finish this job, the only one set aside
                    t += tail
                    s1 += t
                continue
        elif n1 <= t:
            if f1 or not held:  # open the label-1 head
                y = y1[h1]
                h1 += 1
                n1 = r1[h1]
                if not y:
                    t += den
                    s0 += t
                    continue
                t += alpha_ticks
                if f1 or f0 and n0 <= t:  # the next decision opens a probed head
                    held += 1
                else:  # it would finish this job, the only one set aside
                    t += tail
                    s1 += t
                continue
        elif not held:  # nothing to run: idle until the next release
            t = n1 if n1 < n0 else n0
            if t == end:  # both lists at their sentinel: every job is done
                return s0, s1
            continue
        t += tail  # finish a set-aside job
        s1 += t
        held -= 1


def wsrpt_release_ticks(r0, r1, w0: int, w1: int, den: int) -> tuple[int, int]:
    """Completion-tick sums (urgent, non-urgent) of the clairvoyant WSRPT schedule.

    `r0` and `r1` are the release ticks of the urgent and the non-urgent jobs
    in nondecreasing order, each ended by the sentinel as `type_release_lists`
    or `release_lists` gives them, `w0` >
    `w1` the weights on one integer grid and a unit den ticks. With unit jobs
    and two weights the loop takes one step per job, plus one per yield and
    per idle stretch, because:
    - A started urgent job is never preempted: it beat every job when it
      started, its ratio w0/x only grows, and an arrival is a fresh job with
      ratio at most w0/den. So a released urgent job runs whole.
    - A started non-urgent job with x ticks left yields to a fresh urgent
      one iff w0*x > w1*den; at equality the non-urgent job keeps the
      machine (the smaller remaining work wins). So it runs toward the next
      urgent release, and completes by then, yields there, or runs on.
    - A yielded job keeps its x, which still beats the cut, so it never
      blocks a later urgent job.
    - A started non-urgent job outranks every fresh one, so at most one is
      ever partly processed.
    The schedule ends when the machine would idle to both sentinels.
    """
    end = r0[-1]  # the sentinel
    cut = w1 * den
    h0 = h1 = t = s0 = s1 = 0
    x = 0  # ticks left of the started non-urgent job, 0 for none
    n0, n1 = r0[0], r1[0]  # the next releases of each type
    while True:
        if n0 <= t:  # run the released urgent job whole
            t += den
            s0 += t
            h0 += 1
            n0 = r0[h0]
        elif x or n1 <= t:  # run the started non-urgent job, else a fresh one, toward n0
            if not x:
                x = den
                h1 += 1
                n1 = r1[h1]
            t += x
            if t <= n0:  # done by the urgent release
                s1 += t
                x = 0
            else:
                x = t - n0  # ticks left at n0
                if w0 * x <= cut:  # it keeps the machine and runs on
                    s1 += t
                    x = 0
                else:  # it yields to the urgent job released at n0, keeping its x
                    t = n0
        else:  # nothing to run: idle until the next release
            t = n1 if n1 < n0 else n0
            if t == end:  # both lists at their sentinel: every job is done
                return s0, s1


# ---------------------------------------------------------------------------
# Offline (clairvoyant) schedules
# ---------------------------------------------------------------------------

def offline_wsrpt_cost(instance: Instance) -> Fraction:
    """Exact cost of the optimal preemptive schedule with known types and release dates.

    WSRPT (largest weight over remaining work first), priced by
    `wsrpt_release_ticks` on the lcm of the release denominators.
    """
    jobs = sorted(instance.jobs, key=lambda job: job.release_time)
    den = lcm(*(job.release_time.denominator for job in jobs))
    wden, w0, w1 = instance.params.weight_grid
    urgent, non_urgent = type_release_lists(
        [job.release_time.numerator * (den // job.release_time.denominator) for job in jobs],
        [job.true_type for job in jobs], den)
    s0, s1 = wsrpt_release_ticks(urgent, non_urgent, w0, w1, den)
    return Fraction(w0 * s0 + w1 * s1, wden * den)


def offline_wspt(instance: Instance, keep_trace: bool = True) -> RunOutcome:
    """Optimal batch schedule with known types: urgent first, back to back.

    Only valid when every release time is 0; job j in the sorted order
    completes exactly at time j. The order is the instance's `true_of`,
    which `run()` also reads, so no run layout is built here.
    """
    if any(job.release_time for job in instance.jobs):
        raise UnsupportedInputError(
            "offline_wspt needs all release times 0; use offline_wsrpt_cost")
    true_of = instance.true_of  # urgent first, ids ascending within a type
    n = len(true_of)
    comp = dict(zip(true_of, range(1, n + 1)))
    s0, s1 = wspt_ticks(n, n - sum(true_of.values()))
    trace = None
    if keep_trace:
        trace = []
        for jid, pos in comp.items():
            tt = true_of[jid]
            trace.append(TraceEvent(Fraction(pos - 1), "open", jid, tt))
            trace.append(TraceEvent(Fraction(pos), "complete", jid, tt))
    wden, w0, w1 = instance.params.weight_grid
    total = Fraction(w0 * s0 + w1 * s1, wden)
    return RunOutcome(comp, 1, total, tuple(trace) if trace is not None else None, 0)


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

# Largest n the tree evaluators accept: on integers of O(n) digits, the
# expectimax pass visits about n**3/6 states and a rule's pass about n**2/2
# rows (the README's oracle bullet gives the time and memory at this n).
TREE_N_LIMIT = 200


def tree_layers(n_max: int, model: PredictionModel, params: Parameters,
                flags: Optional[tuple[bool, bool]]):
    """Yield (rows, den) for each layer k = 1..n_max of the decision tree.

    `rows[u0][0] / den` is the exact expected cost-to-go of the state with u0
    label-0 and k - u0 label-1 jobs unopened and none set aside; the cost for
    n = k is their Binomial(k, label 0 rate) mixture. A state is (u0, u1,
    ell), ell the set-aside jobs. Opening the head (label 0 first) is a
    chance node on its label's posterior: an urgent job completes a unit
    later, a non-urgent one is set aside at its alpha point. Completing the
    first set-aside job takes 1 - alpha. A decision node opens iff `flags`
    (see `label_flags`) probes the head's label, or takes the cheaper action
    when `flags` is None. Values are cost-to-go, so one pass prices every n.

    Layers go bottom-up, layer k times den = Da * D**(k+1) * Dw (posteriors
    a_l/D, alpha = A/Da, weights on `Parameters.weight_grid`), so every step
    is on integers, and two passes over one channel share each den. Each
    label's terms are built once per layer, and a row's own costs advance by
    one add per row and per ell. With flags None a row is a list over ell,
    filled by a min loop; under fixed flags it is the quadratic
    P + Q*ell + R*ell*(ell + 1)/2, kept as (P, Q, R), so the pass costs
    O(n_max**2) integer operations. Refuses n_max below 1, and past
    `TREE_N_LIMIT` with ResourceLimitError, before the first layer.
    """
    if n_max < 1:
        raise ValueError("n must be at least 1")
    if n_max > TREE_N_LIMIT:
        raise ResourceLimitError(
            f"the decision tree over {n_max} jobs exceeds the limit {TREE_N_LIMIT}")
    p = (model.posterior(0), model.posterior(1))
    d = lcm(p[0].denominator, p[1].denominator)
    a = [post.numerator * (d // post.denominator) for post in p]
    big_a, da = params.alpha_pair
    dw, w0, w1 = params.weight_grid
    # backlog weight times d*dw of an unopened label-l job, and of a set-aside one
    c = [w1 * d + (w0 - w1) * al for al in a]
    cw, w0d, dc = w1 * d, w0 * d, c[0] - c[1]

    # layer 0: set-aside jobs only, completed one after another
    r0 = (da - big_a) * cw
    prev = [[r0 * (ell * (ell + 1) // 2) for ell in range(n_max + 1)] if flags is None
            else (0, 0, r0)]
    for k in range(1, n_max + 1):
        dk = d ** (k - 1)
        k_open, k_reveal, k_done = da * dk, big_a * dk, (da - big_a) * dk * d
        kc, kb_row = k_done * cw, k_done * dc  # kb_row: per row, as u0 grows
        cur = []
        # the label-1 row (u0 = 0), then the label-0 rows u0 = 1..k on children
        # u0 - 1; bi: backlog weight of a label's first row at ell = 0, times d*dw
        b1 = k * c[1]
        for lab, bi, children in ((1, b1, prev[:1]), (0, b1 + dc, prev)):
            al, bl = a[lab], d - a[lab]
            urgent, aside = al * k_open, bl * k_reveal
            # open: urgent with chance al/d, done a unit later; else set aside
            # at its alpha point, joining the backlog. Affine in ell but for
            # the children: lin + al*child[ell] + bl*child[ell + 1].
            lin = (urgent + aside) * (bi - c[lab]) + urgent * w0d + aside * cw
            step, lin_row = (urgent + aside) * cw, (urgent + aside) * dc
            kb = k_done * bi  # complete: kb + row[ell - 1], with kb advanced to ell
            for child in children:
                if flags is None:
                    # ell = 0 has no set-aside job, so it opens
                    x = lin + al * child[0] + bl * child[1]
                    row = [x]
                    lo, ko = lin, kb  # this row's own costs, advanced per ell
                    for ell in range(1, n_max - k + 1):
                        lo += step
                        ko += kc
                        o = lo + al * child[ell] + bl * child[ell + 1]
                        done = ko + x
                        x = o if o <= done else done
                        row.append(x)
                else:
                    cp, cq, cr = child  # ell = 0 opens under every flag
                    x = lin + d * cp + bl * (cq + cr)
                    if flags[lab]:  # open: lin and the children, summed per power of ell
                        row = (x, step + d * cq + bl * cr, d * cr)
                    else:  # complete: kb + row[ell - 1] summed from ell = 0
                        row = (x, kb, kc)
                cur.append(row)
                lin += lin_row
                kb += kb_row
        prev = cur
        yield cur, k_open * d * d * dw


def _tree_expected_cost(n: int, model: PredictionModel, params: Parameters,
                        flags: Optional[tuple[bool, bool]]) -> Fraction:
    """Expected cost of n batch jobs: layer n of `tree_layers`, labels mixed.

    The Binomial weights C(n, u0) * qa**u0 * qb**(n - u0) go by Horner's rule
    in qb, so the mixture costs O(n) multiplies and one Fraction.
    """
    for rows, den in tree_layers(n, model, params, flags):
        pass
    q = model.label_probability(0)
    qa, qb = q.numerator, q.denominator - q.numerator
    num, binom, qa_u0 = 0, 1, 1
    for u0, row in enumerate(rows):
        num = num * qb + binom * qa_u0 * row[0]
        binom = binom * (n - u0) // (u0 + 1)
        qa_u0 *= qa
    return Fraction(num, q.denominator ** n * den)


def expectimax_optimal(n: int, model: PredictionModel, params: Parameters) -> Fraction:
    """Exact expected cost of the best non-anticipating policy (batch, labels).

    Full expectimax over the collapsed tree of `tree_layers`, with flags
    None. Refuses n past `TREE_N_LIMIT` with ResourceLimitError.
    """
    return _tree_expected_cost(n, model, params, None)


def rule_expected_cost(n: int, model: PredictionModel, params: Parameters,
                       rule: str = "beta") -> Fraction:
    """Exact expected cost of the policy named `rule` on the same tree.

    Its `label_flags` decide at each decision node. Refuses n past
    `TREE_N_LIMIT` likewise.
    """
    flags = label_flags(get_policy(rule), model, params)
    return _tree_expected_cost(n, model, params, flags)
