"""Problem data: machine physics, the prediction channel, jobs, and instances.

Probabilities, weights, and times are exact `fractions.Fraction` values, so
event times and threshold comparisons never see rounding. Monte Carlo
aggregation elsewhere uses floats; this layer stays exact.

Convention for numeric inputs: `int`, `str` ("2/5", "0.1"), and `Fraction`
are taken at face value. A `float` is converted through its shortest decimal
repr, so `0.1` means one tenth, not the nearest binary double.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .errors import InvalidInstanceError

RationalLike = Union[int, str, float, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Fraction builds 10**exponent before anything can refuse the value, and a
# result past 4 300 digits cannot even be printed in an error message
MAX_DECIMAL_EXPONENT = 1000


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce a number to an exact Fraction (floats go through str repr).

    A zero denominator is a ValueError, and so is a decimal exponent (the
    int after the last e or E) past `MAX_DECIMAL_EXPONENT` in magnitude;
    ASCII `d`, `d/d`, `d.d` skip `Fraction`'s regex.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    elif not isinstance(value, str):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    head, sep, tail = value.partition("/" if "/" in value else ".")
    if head.isascii() and head.isdigit() and (not sep or tail.isascii() and tail.isdigit()):
        num, den = int(head), int(tail) if sep == "/" else 10 ** len(tail)
        if sep == ".":
            num = num * den + int(tail)
        if den:
            return Fraction(num, den)
    cut = max(value.rfind("e"), value.rfind("E"))
    try:
        exponent = int(value[cut + 1:]) if cut >= 0 else 0
    except ValueError:
        exponent = 0  # no exponent: Fraction gives its own error
    if abs(exponent) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {value!r} is outside "
                         f"[-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def unit_ratio(name: str, value: Fraction) -> tuple[int, int]:
    """`value.as_integer_ratio()`, refusing a value outside the open interval (0, 1)."""
    num, den = value.as_integer_ratio()
    if not 0 < num < den:
        raise ValueError(f"{name} must lie strictly in (0,1), got {value}")
    return num, den


def rate_ratio(name: str, value: Fraction) -> tuple[int, int]:
    """`value.as_integer_ratio()`, refusing an error rate outside [0, 1/2]."""
    num, den = value.as_integer_ratio()
    if not 0 <= 2 * num <= den:
        raise ValueError(f"{name} must lie in [0, 1/2], got {value}")
    return num, den


def format_fraction(value: Fraction) -> str:
    """Render an exact number, a float as its binary rational, as `num` or `num/den`."""
    num, den = value.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


@dataclass(frozen=True)
class Parameters:
    """Machine physics: reveal fraction alpha and the two delay weights.

    alpha is the fraction of a job processed before its true type becomes
    known; w0 and w1 are the per-unit-delay costs of urgent and non-urgent
    jobs, with w0 > w1 > 0. `alpha_pair`, `beta_pair` and `slope_pair` hold
    alpha, beta and the modified rule's slope K as (numerator, denominator)
    ints, and `weight_grid` is (wden, W0, W1): w0 = W0/wden and w1 = W1/wden,
    so costs on it are integers, and a quotient of two rounds like the exact
    Fraction.
    """

    alpha: Fraction
    w0: Fraction
    w1: Fraction

    def __init__(self, alpha: RationalLike, w0: RationalLike, w1: RationalLike):
        alpha, w0, w1 = to_fraction(alpha), to_fraction(w0), to_fraction(w1)
        a, da = alpha_pair = unit_ratio("alpha", alpha)
        if not (w0 > w1 > ZERO):
            raise ValueError(f"weights must satisfy w0 > w1 > 0, got w0={w0}, w1={w1}")
        wden = lcm(w0.denominator, w1.denominator)
        grid = (wden, w0.numerator * (wden // w0.denominator),
                w1.numerator * (wden // w1.denominator))
        # beta = (a/(da-a)) * (w1/(w0-w1)) and K = beta * w0/w1; wden cancels
        scale = (da - a) * (grid[1] - grid[2])
        b, slope = Fraction(a * grid[2], scale), Fraction(a * grid[1], scale)
        # the fields, then plain attributes, so eq, hash and repr stay on the fields
        vars(self).update(alpha=alpha, w0=w0, w1=w1, _beta=b, _theta_slope=slope,
                          alpha_pair=alpha_pair, beta_pair=b.as_integer_ratio(),
                          slope_pair=slope.as_integer_ratio(), weight_grid=grid)

    def beta(self) -> Fraction:
        """Threshold (alpha/(1-alpha)) * (w1/(w0-w1)), computed once at construction."""
        return self._beta

    def theta_slope(self) -> Fraction:
        """Slope K = (alpha/(1-alpha)) * (w0/(w0-w1)) = beta * w0/w1 of the modified rule.

        The modified-beta threshold is beta + K * theta/(1-theta); computed
        once at construction, like beta.
        """
        return self._theta_slope


@dataclass(frozen=True)
class PredictionModel:
    """Binary prediction channel: prior urgency rate and the two flip rates.

    rho is the marginal probability a job is urgent (type 0). eps0 is the
    false negative rate (urgent job labelled 1), eps1 the false positive rate
    (non-urgent job labelled 0). Both error rates are capped at one half so
    label 0 never signals *less* urgency than label 1. `rho_pair`,
    `eps0_pair` and `eps1_pair` hold the rates as (numerator, denominator)
    ints. They and the two posteriors are built once, in the one dict update
    that also sets the fields; as plain attributes outside the fields they
    leave eq, hash and repr on rho, eps0 and eps1.
    """

    rho: Fraction
    eps0: Fraction
    eps1: Fraction

    def __init__(self, rho: RationalLike, eps0: RationalLike, eps1: RationalLike):
        rho, eps0, eps1 = to_fraction(rho), to_fraction(eps0), to_fraction(eps1)
        rn, rd = rho_pair = unit_ratio("rho", rho)
        p0, q0 = eps0_pair = rate_ratio("eps0", eps0)
        p1, q1 = eps1_pair = rate_ratio("eps1", eps1)
        # over q0*q1*rd: urgent and labelled 0, non-urgent and labelled 0, urgent and labelled 1
        u0, v0, u1 = (q0 - p0) * rn * q1, p1 * (rd - rn) * q0, p0 * rn * q1
        den = q0 * q1 * rd
        vars(self).update(rho=rho, eps0=eps0, eps1=eps1, rho_pair=rho_pair, eps0_pair=eps0_pair,
                          eps1_pair=eps1_pair, _label0_rate=(u0 + v0, den),
                          _posteriors=(Fraction(u0, u0 + v0), Fraction(u1, den - u0 - v0)))

    def label_probability(self, label: int) -> Fraction:
        """Marginal probability that a job receives the given label, 0 or 1."""
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        num, den = self._label0_rate
        return Fraction(den - num if label else num, den)

    def posterior(self, label: int) -> Fraction:
        """P(true type is 0 | predicted label), by Bayes' rule, exact."""
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        return self._posteriors[label]


class Job(NamedTuple):
    """One unit-length job.

    Exactly one of `label` (binary prediction) or `p_hat` (estimated urgency
    probability) is set; an instance must not mix the two styles.
    """

    id: int
    true_type: int
    label: Optional[int] = None
    p_hat: Optional[Fraction] = None
    release_time: Fraction = ZERO

    def weight(self, params: Parameters) -> Fraction:
        return params.w0 if self.true_type == 0 else params.w1


def make_job(
    id: int,
    true_type: int,
    label: Optional[int] = None,
    p_hat: Optional[RationalLike] = None,
    release_time: RationalLike = ZERO,
) -> Job:
    """Build a Job, coercing numeric fields to exact Fractions; the release defaults to `ZERO`."""
    return Job(id, true_type, label, None if p_hat is None else to_fraction(p_hat),
               to_fraction(release_time))


class RunLayout(NamedTuple):
    """An instance on its integer tick grid, in the engine's queue order.

    `den` is the lcm of alpha's and the release times' denominators: alpha is
    `alpha_ticks` ticks of 1/den and every release a whole number of ticks.
    `pend` holds the queue entries (rank, job_id, label, priority) of the
    jobs released at 0 in queue order, and `future` the (release_ticks,
    entry) pairs of the rest, sorted. `rank` is an integer ordinal of the
    negated priority, so tuple order is queue order. `run()` copies `pend`
    into the list it inserts arrivals into.
    """

    den: int
    alpha_ticks: int
    pend: tuple
    future: tuple


@dataclass(frozen=True)
class Instance:
    """A set of jobs plus the machine parameters and (optionally) the channel.

    In binary mode every job carries a label and `model` must be present so
    posteriors can be computed. In probabilistic mode every job carries a
    `p_hat` estimate and `model` may be omitted. `true_of` and `run_layout`
    are built on first access and kept outside the fields, so eq, hash and
    repr ignore them.
    """

    jobs: tuple[Job, ...]
    params: Parameters
    model: Optional[PredictionModel] = None

    def __init__(self, jobs, params: Parameters, model: Optional[PredictionModel] = None):
        object.__setattr__(self, "jobs", tuple(jobs))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "model", model)
        self._validate()

    def _validate(self) -> None:
        if not self.jobs:
            raise InvalidInstanceError("an instance needs at least one job")
        seen_ids = set()
        labelled = 0
        # each field is read once, in the order of the checks; an id, a type
        # and a label are ints, a release an int or a Fraction, none a bool
        for job in self.jobs:
            true_type = job.true_type
            if type(true_type) is not int or true_type not in (0, 1):
                raise InvalidInstanceError(f"job {job.id}: true_type must be 0 or 1")
            label, p_hat = job.label, job.p_hat
            if (label is None) == (p_hat is None):
                raise InvalidInstanceError(
                    f"job {job.id}: exactly one of label / p_hat must be set")
            if p_hat is None:
                labelled += 1
                if type(label) is not int or label not in (0, 1):
                    raise InvalidInstanceError(f"job {job.id}: label must be 0 or 1")
            else:
                try:
                    num, den = p_hat.as_integer_ratio()
                except (AttributeError, ValueError, OverflowError):
                    num, den = 1, 0  # nan, an infinity, a str: no integer ratio
                if not 0 <= num <= den:
                    raise InvalidInstanceError(f"job {job.id}: p_hat must lie in [0,1]")
            release_time = job.release_time
            if type(release_time) not in (int, Fraction):
                raise InvalidInstanceError(f"job {job.id}: release must be an int or a Fraction")
            if release_time.numerator < 0:
                raise InvalidInstanceError(f"job {job.id}: negative release time")
            job_id = job.id
            if type(job_id) is not int:
                raise InvalidInstanceError(f"job {job_id!r}: id must be an int")
            if job_id in seen_ids:
                raise InvalidInstanceError(f"duplicate job id {job_id}")
            seen_ids.add(job_id)
        if 0 < labelled < len(self.jobs):
            raise InvalidInstanceError("instance mixes binary labels and probability estimates")
        if labelled and self.model is None:
            raise InvalidInstanceError("binary-label instances need a prediction model")

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def mode(self) -> str:
        return "binary" if self.jobs[0].label is not None else "probabilistic"

    @cached_property
    def true_of(self) -> dict[int, int]:
        """Job id to true type, urgent first and ids ascending within a type."""
        jobs = sorted(self.jobs)  # id order: the id is a Job's first field, and unique
        true_of = {job.id: 0 for job in jobs if not job.true_type}
        true_of.update({job.id: 1 for job in jobs if job.true_type})
        return true_of

    @cached_property
    def run_layout(self) -> RunLayout:
        """The `RunLayout` every run of this instance starts from."""
        jobs = sorted(self.jobs)  # id order: the id is a Job's first field, and unique
        alpha = self.params.alpha
        den = lcm(alpha.denominator, *{job.release_time.denominator for job in jobs})
        if self.mode == "binary":
            # label order IS priority order: posterior(0) >= posterior(1), and
            # a collapsed tie still puts predicted-urgent jobs first
            post = (self.model.posterior(0), self.model.posterior(1))
            tagged = [(job.label, job.id, job.label, post[job.label]) for job in jobs]
        else:
            # equal Fractions have equal (numerator, denominator) pairs, so only
            # the distinct values are ranked; correctly rounded a / b is monotone,
            # so the floats order them, and only equal floats compare Fractions
            keys = [job.p_hat.as_integer_ratio() for job in jobs]
            value_of = dict(zip(keys, [job.p_hat for job in jobs]))
            ranked = sorted([(a / b, value_of[a, b], (a, b)) for a, b in value_of], reverse=True)
            rank_of = {key: i for i, (_, _, key) in enumerate(ranked)}
            tagged = [(rank_of[key], job.id, None, job.p_hat) for key, job in zip(keys, jobs)]
        pend = []
        future = []
        for job, entry in zip(jobs, tagged):
            r = job.release_time
            if r.numerator:
                future.append((r.numerator * (den // r.denominator), entry))
            else:
                pend.append(entry)
        # entries are in id order, so a stable sort on the rank is queue order
        pend.sort(key=itemgetter(0))
        future.sort()
        return RunLayout(den, alpha.numerator * (den // alpha.denominator),
                         tuple(pend), tuple(future))


def sample_instance(
    n: int,
    model: PredictionModel,
    params: Parameters,
    seed: int,
) -> Instance:
    """Draw a batch instance: iid urgent with rate rho, labels flipped per channel.

    All jobs are released at time 0. A rate num/den draws `randrange(den) <
    num`, exact, and a zero rate draws nothing. The draw is an exact function
    of (n, model, params, seed); identical seeds give identical instances.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    draw = random.Random(seed).randrange
    (rn, rd), *flips = model.rho_pair, model.eps0_pair, model.eps1_pair
    jobs = []
    for i in range(1, n + 1):
        true_type = 0 if draw(rd) < rn else 1
        num, den = flips[true_type]
        jobs.append(Job(i, true_type, 1 - true_type if num and draw(den) < num else true_type))
    return Instance(jobs, params, model)


# ---------------------------------------------------------------------------
# Line-oriented instance files: `# key=value` header then one job per line as
# `id,true_type,prediction,release_time`, all rationals written exactly.
# ---------------------------------------------------------------------------

def dump_instance(instance: Instance) -> str:
    p, m = instance.params, instance.model
    lines = [f"# {key}={format_fraction(getattr(p, key))}" for key in ("alpha", "w0", "w1")]
    lines.append(f"# mode={instance.mode}")
    if m is not None:
        lines += [f"# {key}={format_fraction(getattr(m, key))}" for key in ("rho", "eps0", "eps1")]
    lines.append("# columns=id,true_type,prediction,release_time")
    for job in instance.jobs:
        pred = str(job.label) if job.label is not None else format_fraction(job.p_hat)
        lines.append(f"{job.id},{job.true_type},{pred},{format_fraction(job.release_time)}")
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> Instance:
    header: dict[str, str] = {}
    rows: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
            continue
        rows.append(line)

    for key in ("alpha", "w0", "w1", "mode"):
        if key not in header:
            raise InvalidInstanceError(f"instance file is missing header field {key!r}")
    params = Parameters(header["alpha"], header["w0"], header["w1"])
    mode = header["mode"]
    if mode not in ("binary", "probabilistic"):
        raise InvalidInstanceError(f"unknown mode {mode!r}")

    model = None
    if all(k in header for k in ("rho", "eps0", "eps1")):
        model = PredictionModel(header["rho"], header["eps0"], header["eps1"])
    if mode == "binary" and model is None:
        raise InvalidInstanceError("binary instance file needs rho/eps0/eps1 in the header")

    jobs = []
    for row in rows:
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 4:
            raise InvalidInstanceError(f"bad job row {row!r}")
        job_id, true_type, pred, release = fields
        if mode == "binary":
            job = make_job(int(job_id), int(true_type), label=int(pred), release_time=release)
        else:
            job = make_job(int(job_id), int(true_type), p_hat=pred, release_time=release)
        jobs.append(job)
    return Instance(jobs, params, model)
