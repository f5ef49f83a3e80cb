"""Decision rules mapping observed scheduler state to an action.

A policy is a pure function of (state, params). The simulation engine owns
all mutation; policies only read the state views passed to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heapify
from typing import Callable, NamedTuple, Optional

from .domain import ONE, ZERO, Parameters, PredictionModel
from .errors import ContractViolationError, TerminalStateError, UnsupportedInputError


class Regime(Enum):
    NONPREEMPTIVE = "nonpreemptive"
    PREEMPTIVE = "preemptive"
    HYBRID = "hybrid"


class Action(NamedTuple):
    """What a policy asks the machine to do next."""

    kind: str  # "open" or "complete"
    job_id: Optional[int] = None


OPEN_NEXT = Action("open")


def complete_low(job_id: int) -> Action:
    return Action("complete", job_id)


class UnopenedQueue:
    """Released, unopened jobs in nonincreasing priority order (ties by id).

    Entries are (rank, job_id, label, priority) tuples where `rank` is an
    integer ordinal of the negated priority, so plain tuple comparison gives
    the scheduling order without rational arithmetic. Equal priorities share
    a rank; the id field then breaks ties ascending.
    """

    __slots__ = ("_entries", "_start")

    def __init__(self, jobs_with_priority=()):
        """Build from (priority, job_id, label) triples (tests, direct use).

        Priority ties rank predicted-urgent labels first, matching the
        canonical job sort.
        """
        keys = sorted({(-p, label if label is not None else 0)
                       for p, _, label in jobs_with_priority})
        rank_of = {key: i for i, key in enumerate(keys)}
        self._entries = sorted(
            (rank_of[(-p, label if label is not None else 0)], jid, label, p)
            for p, jid, label in jobs_with_priority
        )
        self._start = 0

    @classmethod
    def _wrap(cls, entries: list, start: int) -> "UnopenedQueue":
        # read-only view over an engine-owned, already-sorted list
        q = object.__new__(cls)
        q._entries = entries
        q._start = start
        return q

    def __len__(self) -> int:
        return len(self._entries) - self._start

    def head_priority(self) -> Fraction:
        return self._entries[self._start][3]

    def head_label(self) -> Optional[int]:
        return self._entries[self._start][2]

    def items(self):
        """Yield (job_id, priority, label) in scheduling order."""
        for _, job_id, label, priority in self._entries[self._start:]:
            yield job_id, priority, label


def theta_key(theta: Fraction, seq: int, job_id: int) -> tuple:
    """Min-heap key that puts the largest theta first, FIFO (`seq`) among ties.

    Correctly rounded Fraction -> float is monotone, so the float orders two
    thetas exactly whenever it differs; equal floats fall through to the
    exact theta, then to the arrival sequence. The last two fields are what
    `argmax_theta` returns.
    """
    return (-float(theta), -theta, seq, job_id, theta)


class InterruptedQueue:
    """Partially processed jobs awaiting their final segment, in FIFO order.

    Next to the FIFO list of (job_id, theta) entries the queue keeps a heap
    of `theta_key` entries, so `argmax_theta` reads its top in O(1). A queue
    built from entries heapifies them; the engine instead wraps its own list
    and a heap it updates in O(log n) per interrupt, popping the entries of
    completed jobs lazily. Under exact revelation every theta is 0, the
    engine keeps no heap (`heap` is None), and the FIFO head is the answer.
    """

    __slots__ = ("_entries", "_start", "_heap")

    def __init__(self, entries=()):
        self._entries = list(entries)
        self._start = 0
        self._heap = [theta_key(theta, seq, job_id)
                      for seq, (job_id, theta) in enumerate(self._entries)]
        heapify(self._heap)

    @classmethod
    def _wrap(cls, entries: list, start: int, heap: Optional[list]) -> "InterruptedQueue":
        # read-only view over the engine's FIFO list and theta heap (or None)
        q = object.__new__(cls)
        q._entries = entries
        q._start = start
        q._heap = heap
        return q

    def __len__(self) -> int:
        return len(self._entries) - self._start

    def first_id(self) -> int:
        return self._entries[self._start][0]

    def items(self):
        """Yield (job_id, theta) in insertion order."""
        for entry in self._entries[self._start:]:
            yield entry

    def argmax_theta(self):
        """(job_id, theta) with the largest theta; FIFO order breaks ties."""
        if self._heap is None:
            return self._entries[self._start]
        top = self._heap[0]
        return top[3], top[4]


class PolicyState:
    """Snapshot a policy sees at a decision point: queues plus the clock."""

    __slots__ = ("unopened", "interrupted", "_clock_ticks", "_clock_den")

    def __init__(self, unopened: UnopenedQueue, interrupted: InterruptedQueue,
                 clock_ticks: int = 0, clock_den: int = 1):
        self.unopened = unopened
        self.interrupted = interrupted
        self._clock_ticks = clock_ticks
        self._clock_den = clock_den

    @property
    def clock(self) -> Fraction:
        return Fraction(self._clock_ticks, self._clock_den)


def _require_action(state: PolicyState) -> None:
    if len(state.unopened) == 0 and len(state.interrupted) == 0:
        raise TerminalStateError(f"no legal action at t={state.clock}")


def preemptive_decide(state: PolicyState, params: Parameters) -> Action:
    """Open everything available first; finish interrupted work only after.

    Also the nonpreemptive rule (`nonpreemptive_decide`): what separates the
    two is the policy's `preempts` flag. The engine never consults a
    non-preempting policy at reveal points, so under that rule the
    interrupted queue stays empty and the completion branch only keeps the
    function total on arbitrary states.
    """
    _require_action(state)
    if len(state.unopened) > 0:
        return OPEN_NEXT
    return complete_low(state.interrupted.first_id())


nonpreemptive_decide = preemptive_decide


def beta_threshold_decide(state: PolicyState, params: Parameters) -> Action:
    """Open the next job iff its urgency probability strictly exceeds beta.

    With nothing interrupted the only useful move is to open; with nothing
    unopened the only move is to finish interrupted work (FIFO). A head
    probability exactly equal to beta completes low.
    """
    _require_action(state)
    if len(state.unopened) == 0:
        return complete_low(state.interrupted.first_id())
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    if state.unopened.head_priority() > params.beta():
        return OPEN_NEXT
    return complete_low(state.interrupted.first_id())


def hybrid_decide(state: PolicyState, params: Parameters) -> Action:
    """Label-driven switch: treat predicted-urgent jobs preemptively, the rest not.

    Opens while the head job is labelled 0; once only predicted non-urgent
    jobs remain it drains the interrupted queue and completes the rest in
    order. Requires binary labels: the label is read before any shortcut,
    so the first decision on an unlabelled instance raises.
    """
    _require_action(state)
    if len(state.unopened) == 0:
        return complete_low(state.interrupted.first_id())
    label = state.unopened.head_label()
    if label is None:
        raise UnsupportedInputError("hybrid policy needs binary labels")
    if label == 0 or len(state.interrupted) == 0:
        return OPEN_NEXT
    return complete_low(state.interrupted.first_id())


def modified_beta_decide(state: PolicyState, params: Parameters) -> Action:
    """Threshold rule for uncertain reveals: raise the bar by the best theta.

    Let theta be the largest urgency probability among interrupted jobs. The
    next job is opened iff its prior probability exceeds
    tau = beta + K * theta/(1-theta), with K = (alpha/(1-alpha)) * (w0/(w0-w1))
    (`Parameters.theta_slope`); otherwise the job attaining theta is completed
    (FIFO among ties). theta = 1 forces that completion outright. With every
    theta equal to 0 this reduces to the plain beta threshold rule.

    theta comes from the interrupted queue's heap in O(1) (the FIFO head
    under exact revelation), beta and K are stored on `params`, and the
    comparison is integer-only, so a decision costs no rational arithmetic.
    """
    _require_action(state)
    if len(state.unopened) == 0:
        job_id, _ = state.interrupted.argmax_theta()
        return complete_low(job_id)
    if len(state.interrupted) == 0:
        return OPEN_NEXT
    job_id, theta = state.interrupted.argmax_theta()
    g, h = theta.numerator, theta.denominator
    if g >= h:  # theta >= 1
        return complete_low(job_id)
    # With p = a/b, beta = c/d, K = e/f and theta = g/h (all denominators
    # positive):  p > beta + K*theta/(1-theta)
    #   <=>  (a*d - c*b)/(b*d) > e*g/(f*(h-g))
    #   <=>  (a*d - c*b)*f*(h-g) > e*g*b*d,   as b*d > 0 and f*(h-g) > 0 for theta < 1.
    p = state.unopened.head_priority()
    beta, slope = params.beta(), params.theta_slope()
    a, b = p.numerator, p.denominator
    d = beta.denominator
    if (a * d - beta.numerator * b) * slope.denominator * (h - g) > slope.numerator * g * b * d:
        return OPEN_NEXT
    return complete_low(job_id)


def expected_weight(priority: Fraction, params: Parameters) -> Fraction:
    """Mean delay cost of a job with the given urgency probability."""
    return params.w1 + (params.w0 - params.w1) * priority


# ---------------------------------------------------------------------------
# Reveal models: what is learned about a job once its alpha point is reached.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactRevelation:
    """The true type is learned outright at the alpha point."""

    def sample(self, true_type: int, rng) -> Fraction:
        return ONE if true_type == 0 else Fraction(0)


@dataclass(frozen=True)
class PosteriorRevelation:
    """At the alpha point only an urgency probability theta is learned.

    Theta is drawn from a Beta distribution conditioned on the true type;
    shape parameters are free knobs. The defaults skew urgent jobs toward
    high theta and non-urgent jobs toward low theta.
    """

    a0: float = 8.0
    b0: float = 2.0
    a1: float = 2.0
    b1: float = 8.0

    def sample(self, true_type: int, rng) -> Fraction:
        if true_type == 0:
            draw = rng.betavariate(self.a0, self.b0)
        else:
            draw = rng.betavariate(self.a1, self.b1)
        # Fraction(float) is the exact binary value of the draw
        return Fraction(draw)


EXACT_REVELATION = ExactRevelation()


@dataclass(frozen=True)
class Policy:
    """A decide function plus the contract flags the engine relies on.

    preempts: the engine consults the policy at reveal points; when False the
        job in progress always continues to completion.
    """

    name: str
    decide: Callable[[PolicyState, Parameters], Action]
    preempts: bool = True


POLICIES: dict[str, Policy] = {
    "nonpreemptive": Policy("nonpreemptive", nonpreemptive_decide, preempts=False),
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


def label_flags(policy: Policy, model: PredictionModel, params: Parameters) -> tuple[bool, bool]:
    """Which label classes `policy` probes on a batch instance under exact reveal.

    flag[l] is the policy's answer to the question `run()` asks at each
    decision: with the head job labelled l and one job interrupted at
    theta = 0, does it open the head (True) or complete the interrupted job
    (False)? A policy that never preempts probes no class. The batch kernel,
    the closed forms, the tree oracle and the regime all read a policy's
    batch behaviour from here.
    """
    if not policy.preempts:
        return False, False
    flags = []
    for label in (0, 1):
        state = PolicyState(
            UnopenedQueue([(model.posterior(label), 2, label)]),
            InterruptedQueue([(1, ZERO)]),
        )
        action = policy.decide(state, params)
        if action.kind not in ("open", "complete") or (
            action.kind == "complete" and action.job_id != 1
        ):
            raise ContractViolationError(
                f"policy {policy.name} answered {action} with one job interrupted"
            )
        flags.append(action.kind == "open")
    return flags[0], flags[1]


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
