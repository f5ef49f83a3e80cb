"""Decision rules mapping observed scheduler state to the next job.

A policy is a pure function of (state, params): `OPEN_NEXT` (None) opens the
next job, and an interrupted job's id completes that job. The simulation
engine owns all mutation; policies only read the state views passed to them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import exp, log, sqrt
from random import LOG4, SG_MAGICCONST
from typing import Callable, Optional

from .domain import ZERO, Parameters, PredictionModel
from .errors import ContractViolationError, TerminalStateError, UnsupportedInputError


class Regime(Enum):
    NONPREEMPTIVE = "nonpreemptive"
    PREEMPTIVE = "preemptive"
    HYBRID = "hybrid"


# a decision: None opens the next job, a job id completes that interrupted job
OPEN_NEXT = None


class UnopenedQueue:
    """Released, unopened jobs in nonincreasing priority order (ties by id).

    Entries are (rank, job_id, label, priority) tuples where `rank` is an
    integer ordinal of the negated priority, so plain tuple comparison gives
    the scheduling order without rational arithmetic. Equal priorities share
    a rank; the id field then breaks ties ascending.
    """

    __slots__ = ("_pend", "_pi")

    def __init__(self, pend: list):
        # a view over a sorted list; the engine moves the head _pi before each decision
        self._pend = pend
        self._pi = 0

    def __len__(self) -> int:
        return len(self._pend) - self._pi

    def head_priority(self) -> Fraction:
        return self._pend[self._pi][3]

    def head_label(self) -> Optional[int]:
        return self._pend[self._pi][2]

    def items(self):
        """Yield (job_id, priority, label) in scheduling order."""
        for _, job_id, label, priority in self._pend[self._pi:]:
            yield job_id, priority, label


def theta_key(theta, seq: int, job_id: int) -> tuple:
    """Min-heap key that puts the largest theta first, FIFO (`seq`) among ties.

    theta may be a float (a posterior reveal's Beta draw), a Fraction or an
    int, each exact. Correctly rounded conversion to float is monotone, so the
    float orders two thetas exactly whenever it differs; equal floats fall
    through to the exact theta, then to the arrival sequence. The last two
    fields are what `argmax_theta` returns.
    """
    return (-float(theta), -theta, seq, job_id, theta)


class InterruptedQueue:
    """Partially processed jobs awaiting their final segment, in FIFO order.

    An ordered map of job_id -> theta keeps the jobs in the order they were
    added (each at most once), so `add`, `remove` and `first_id` are O(1).
    For `argmax_theta` a heap of `theta_key` entries is built by the first
    read that finds it empty; while it is non-empty `add` pushes and
    `remove` pops the tops whose job has left, so the top is always queued.
    Under exact revelation every theta is 0 and the top is the FIFO head;
    under posterior revelation each theta is the float of its Beta draw.
    """

    __slots__ = ("_fifo", "_seq", "_heap")

    def __init__(self, entries: list):
        # (job_id, theta) pairs in FIFO order; the heap is built on the first read
        self._fifo = OrderedDict(entries)
        self._heap = []
        self._seq = 0  # the FIFO place of the next key pushed

    def __len__(self) -> int:
        return len(self._fifo)

    def add(self, job_id: int, theta) -> None:
        heap = self._heap
        if heap:
            heappush(heap, theta_key(theta, self._seq, job_id))
            self._seq += 1
        self._fifo[job_id] = theta

    def remove(self, job_id) -> bool:
        """Drop `job_id` from the queue; False if it is not in it."""
        fifo = self._fifo
        try:
            del fifo[job_id]
        except (KeyError, TypeError):  # not queued, or not even hashable
            return False
        heap = self._heap
        while heap and heap[0][3] not in fifo:
            heappop(heap)
        return True

    def first_id(self) -> int:
        return next(iter(self._fifo))

    def items(self):
        """Yield (job_id, theta) in insertion order."""
        return iter(self._fifo.items())

    def argmax_theta(self):
        """(job_id, theta) with the largest theta; FIFO order breaks ties."""
        heap = self._heap
        if not heap:
            fifo = self._fifo
            heap.extend(theta_key(theta, seq, job_id)
                        for seq, (job_id, theta) in enumerate(fifo.items()))
            heapify(heap)
            self._seq = len(fifo)
        top = heap[0]
        return top[3], top[4]


class PolicyState:
    """What a policy sees at a decision point: queues, their sizes, the clock.

    The engine builds one state per run and moves it to each decision
    point: the unopened queue is a view over the engine's sorted list, and
    the engine adds jobs to and removes them from the interrupted queue.
    `n_unopened` and `n_interrupted` are the two queues' lengths; the engine
    sets them from its own counts before each decision, and a state built
    anywhere else takes them from `len()`. So a state, its views and its
    counts are valid only during the `decide` call it is passed to.
    """

    __slots__ = ("unopened", "interrupted", "n_unopened", "n_interrupted",
                 "_clock_ticks", "_clock_den")

    def __init__(self, unopened: UnopenedQueue, interrupted: InterruptedQueue,
                 clock_ticks: int = 0, clock_den: int = 1):
        self.unopened = unopened
        self.interrupted = interrupted
        self.n_unopened = len(unopened)
        self.n_interrupted = len(interrupted)
        self._clock_ticks = clock_ticks
        self._clock_den = clock_den

    @property
    def clock(self) -> Fraction:
        return Fraction(self._clock_ticks, self._clock_den)


def _no_action(state: PolicyState) -> TerminalStateError:
    """What each rule raises in its branch where both queues are empty."""
    return TerminalStateError(f"no legal action at t={state.clock}")


def nonpreemptive_decide(state: PolicyState, params: Parameters) -> Optional[int]:
    """Finish interrupted work first (FIFO); open the next job only with none.

    A job set aside at its alpha point is thus completed at the next
    decision, as if it had run straight through.
    """
    if state.n_interrupted:
        return state.interrupted.first_id()
    if not state.n_unopened:
        raise _no_action(state)
    return OPEN_NEXT


def preemptive_decide(state: PolicyState, params: Parameters) -> Optional[int]:
    """Open everything available first; finish interrupted work only after."""
    if state.n_unopened:
        return OPEN_NEXT
    if not state.n_interrupted:
        raise _no_action(state)
    return state.interrupted.first_id()


def beta_threshold_decide(state: PolicyState, params: Parameters) -> Optional[int]:
    """Open the next job iff its urgency probability strictly exceeds beta.

    With nothing interrupted the only useful move is to open; with nothing
    unopened the only move is to finish interrupted work (FIFO). A head
    probability exactly equal to beta completes low.
    """
    if not state.n_interrupted:
        if not state.n_unopened:
            raise _no_action(state)
        return OPEN_NEXT
    if state.n_unopened:
        a, b = state.unopened.head_priority().as_integer_ratio()
        c, d = params.beta_pair
        # p = a/b > beta = c/d  <=>  a*d > c*b, as b, d > 0
        if a * d > c * b:
            return OPEN_NEXT
    return state.interrupted.first_id()


def hybrid_decide(state: PolicyState, params: Parameters) -> Optional[int]:
    """Label-driven switch: treat predicted-urgent jobs preemptively, the rest not.

    Opens while the head job is labelled 0; once only predicted non-urgent
    jobs remain it drains the interrupted queue and completes the rest in
    order. Requires binary labels: the label is read before any shortcut,
    so the first decision on an unlabelled instance raises.
    """
    if not state.n_unopened:
        if not state.n_interrupted:
            raise _no_action(state)
        return state.interrupted.first_id()
    label = state.unopened.head_label()
    if label is None:
        raise UnsupportedInputError("hybrid policy needs binary labels")
    if label == 0 or not state.n_interrupted:
        return OPEN_NEXT
    return state.interrupted.first_id()


def modified_beta_decide(state: PolicyState, params: Parameters) -> Optional[int]:
    """Threshold rule for uncertain reveals: raise the bar by the best theta.

    Let theta be the largest urgency probability among interrupted jobs. The
    next job is opened iff its prior probability exceeds
    tau = beta + K * theta/(1-theta), with K = (alpha/(1-alpha)) * (w0/(w0-w1))
    (`Parameters.theta_slope`); otherwise the job attaining theta is completed
    (FIFO among ties). theta = 1 forces that completion outright. With every
    theta equal to 0 this reduces to the plain beta threshold rule.

    theta comes from the interrupted queue's heap in O(1), beta and K are
    stored on `params` as integer pairs, and the comparison is integer-only:
    theta (a float under posterior reveal) and the head p_hat are read
    through `as_integer_ratio()`, so a decision costs no rational arithmetic.
    """
    if not state.n_interrupted:
        if not state.n_unopened:
            raise _no_action(state)
        return OPEN_NEXT
    job_id, theta = state.interrupted.argmax_theta()
    g, h = theta.as_integer_ratio()
    if not state.n_unopened or g >= h:  # nothing to open, or theta >= 1
        return job_id
    # With p = a/b, beta = c/d, K = e/f and theta = g/h (all denominators
    # positive):  p > beta + K*theta/(1-theta)
    #   <=>  (a*d - c*b)/(b*d) > e*g/(f*(h-g))
    #   <=>  (a*d - c*b)*f*(h-g) > e*g*b*d,   as b*d > 0 and f*(h-g) > 0 for theta < 1.
    a, b = state.unopened.head_priority().as_integer_ratio()
    c, d = params.beta_pair
    e, f = params.slope_pair
    if (a * d - c * b) * f * (h - g) > e * g * b * d:
        return OPEN_NEXT
    return job_id


# ---------------------------------------------------------------------------
# Reveal models: what is learned about a job once its alpha point is reached.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactRevelation:
    """The true type is learned outright at the alpha point.

    It has no `sample`: `run()` tests for this class and sets theta = 0 itself.
    """


# The largest Beta shape accepted: `random.gammavariate` (and `_cheng`) takes
# sqrt(2*shape - 1), which overflows above about 9e307, and then a draw never returns.
MAX_BETA_SHAPE = 1e300


def _cheng(shape) -> tuple:
    """(ainv, bbb, ccc): the constants `random.gammavariate` computes for a
    shape > 1 (Cheng's algorithm), by the same float expressions."""
    ainv = sqrt(2.0 * shape - 1.0)
    return ainv, shape - LOG4, shape + ainv


@dataclass(frozen=True)
class PosteriorRevelation:
    """At the alpha point only an urgency probability theta is learned.

    Theta is drawn from a Beta distribution conditioned on the true type; the
    shapes are free knobs in (0, MAX_BETA_SHAPE]. The defaults skew urgent
    jobs toward high theta and non-urgent jobs toward low theta. `sample`
    returns the float the draw gave, an exact binary rational.

    `sample` runs the body of `random.Random.betavariate(a, b)`, with both of
    its `gammavariate(shape, 1.0)` calls inline and each shape's constants
    computed once, here: the same `random()` calls and the same float
    expressions in the same order, so the same float and the same stream
    state after it (the stdlib's final `x * 1.0` is x, so it is left out).
    A type with a shape <= 1 calls `rng.betavariate` itself.
    """

    a0: float = 8.0
    b0: float = 2.0
    a1: float = 2.0
    b1: float = 8.0

    def __post_init__(self):
        for name in ("a0", "b0", "a1", "b1"):
            shape = getattr(self, name)
            if not 0 < shape <= MAX_BETA_SHAPE:  # false for nan too
                raise ValueError(
                    f"Beta shape {name} must lie in (0, {MAX_BETA_SHAPE:g}], got {shape!r}"
                )
        # per type: (a, b), then Cheng's constants of both shapes if each is > 1
        object.__setattr__(self, "_draws", tuple(
            (a, b, _cheng(a) + _cheng(b) if a > 1.0 and b > 1.0 else None)
            for a, b in ((self.a0, self.b0), (self.a1, self.b1))
        ))

    def sample(self, true_type: int, rng) -> float:
        a, b, cheng = self._draws[true_type != 0]
        if cheng is None:
            return rng.betavariate(a, b)
        ainv, abb, acc, binv, bbb, bcc = cheng
        random = rng.random
        # two copies of the loop, not a helper or a loop over the two shapes:
        # either costs about 0.1 us more per draw (timeit, 2 vCPUs, CPython 3.11.7)
        while True:  # y = gammavariate(a, 1.0)
            u1 = random()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - random()
            v = log(u1 / (1.0 - u1)) / ainv
            y = a * exp(v)
            z = u1 * u1 * u2
            r = abb + acc * v - y
            if r + SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                break
        if y:
            while True:  # x = gammavariate(b, 1.0)
                u1 = random()
                if not 1e-7 < u1 < 0.9999999:
                    continue
                u2 = 1.0 - random()
                v = log(u1 / (1.0 - u1)) / binv
                x = b * exp(v)
                z = u1 * u1 * u2
                r = bbb + bcc * v - x
                if r + SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                    return y / (y + x)
        return 0.0


EXACT_REVELATION = ExactRevelation()


@dataclass(frozen=True)
class Policy:
    """A named decide function; `run()` consults it at every decision point."""

    name: str
    decide: Callable[[PolicyState, Parameters], Optional[int]]


POLICIES: dict[str, Policy] = {
    "nonpreemptive": Policy("nonpreemptive", nonpreemptive_decide),
    "preemptive": Policy("preemptive", preemptive_decide),
    "beta": Policy("beta", beta_threshold_decide),
    "hybrid": Policy("hybrid", hybrid_decide),
    "modified-beta": Policy("modified-beta", modified_beta_decide),
}


def get_policy(name: str) -> Policy:
    try:
        return POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise UnsupportedInputError(f"unknown policy {name!r} (known: {known})") from None


class _ProbeQueue(InterruptedQueue):
    """An interrupted queue that refuses `add` and `remove`, so one serves every probe."""

    __slots__ = ()

    def add(self, *args):
        raise ContractViolationError("a policy may not change a label_flags probe's queue")

    remove = add


# job 1 interrupted at theta = 0, in every `label_flags` probe
_PROBE_INTERRUPTED = _ProbeQueue([(1, ZERO)])


def _probe_opens(policy: Policy, state: PolicyState, params: Parameters) -> bool:
    """The policy's answer at a `label_flags` probe: True opens the head."""
    target = policy.decide(state, params)
    if target is not None and target != 1:
        raise ContractViolationError(
            f"policy {policy.name} answered {target!r} with job 1 interrupted"
        )
    return target is None


def label_flags(policy: Policy, model: PredictionModel, params: Parameters) -> tuple[bool, bool]:
    """Which label classes `policy` probes on a batch instance under exact reveal.

    flag[l] is the policy's answer to the question `run()` asks at each
    decision: with the head job labelled l and job 1 interrupted at
    theta = 0, does it open the head (`OPEN_NEXT`, True) or complete job 1
    (False)? Any other answer is a `ContractViolationError`. The
    nonpreemptive rule completes it, so it probes no class. The batch
    kernel, the closed forms, the tree oracle and the regime all read a
    policy's batch behaviour from here. One probe state serves both
    questions: its head entry is swapped from label 0 to label 1. Its
    interrupted queue is built once and shared by every call; it refuses
    `add` and `remove` with a `ContractViolationError`, so no rule can
    change what a later call, or a call nested in `decide`, sees.
    """
    head = [(0, 2, 0, model.posterior(0))]
    state = PolicyState(UnopenedQueue(head), _PROBE_INTERRUPTED)
    flag0 = _probe_opens(policy, state, params)
    head[0] = (0, 2, 1, model.posterior(1))
    return flag0, _probe_opens(policy, state, params)


# The paper's regimes probe neither label class, both, or only the predicted
# urgent one; each regime's value names the policy with those flags.
REGIME_OF_FLAGS = {
    (False, False): Regime.NONPREEMPTIVE,
    (True, True): Regime.PREEMPTIVE,
    (True, False): Regime.HYBRID,
}


def classify_regime(model: PredictionModel, params: Parameters) -> Regime:
    """The regime of the beta rule's flags (posterior(0) > beta, posterior(1) > beta).

    Error rates of at most 1/2 give posterior(1) <= rho <= posterior(0), so
    this is hybrid iff posterior(1) <= beta < posterior(0), else nonpreemptive
    iff rho <= beta, else preemptive; the flags (False, True) cannot occur.
    """
    return REGIME_OF_FLAGS[label_flags(POLICIES["beta"], model, params)]
