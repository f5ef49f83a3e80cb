"""Experiment drivers: Monte Carlo sweeps, arrival studies, and oracle checks.

Determinism contract: every replication draws from its own stream, the one
`random.Random("<seed>:<grid-index>:<replication>")` gives (SHA-512 seeding
of the stdlib Mersenne Twister, stable across platforms and Python
versions). A chunk of replications reaches each stream by reseeding one
generator with the integer that `Random.seed` derives from that string.
Results are reduced in replication order, so outputs are byte-identical
regardless of how replications are divided among worker processes.
"""

from __future__ import annotations

import _random
import copy
import math
import os
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log
from typing import Optional

# the builtin SHA-512 that `random` seeds with, and faster per call: hashlib's
# loads OpenSSL, about 3 ms and 3.6 MiB at import on CPython 3.11
try:
    from _sha2 import sha512  # CPython 3.12 on
except ImportError:
    try:
        from _sha512 import sha512  # CPython 3.10 and 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha512

from .analytics import competitive_ratio, expected_unconditional
from .domain import (
    HALF,
    Instance,
    Job,
    Parameters,
    PredictionModel,
    ZERO,
    dump_instance,
    format_fraction,
    sample_instance,
)
from .engine import (
    enumerate_offline_optimum,
    label_release_ticks,
    label_schedule_ticks,
    offline_wsrpt_cost,
    release_lists,
    run,
    tree_layers,
    wsrpt_release_ticks,
    wspt_ticks,
)
from .errors import ResourceLimitError
from .policies import classify_regime, get_policy, label_flags

# Most replications per error point: a point keeps one float per replication
# for each policy, about 24 bytes each, so 1 000 000 at six columns is about
# 150 MB (ten times the batch default)
REPLICATION_LIMIT = 1_000_000
# Most jobs in an arrival instance: a replication builds its lists of n types,
# labels, release times and ticks, about 130 bytes a job
ARRIVAL_N_LIMIT = 1_000_000
# Most jobs in a batch instance: a replication keeps no per-job list, but it
# draws each job in Python, about 0.1 us a job, so one at the limit takes 0.1 s
SWEEP_N_LIMIT = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; flags and config files both build this. Building it
    builds `params` and `models` (one per error point), whose own checks refuse a bad channel."""

    alpha: Fraction = Fraction(2, 5)
    rho: Fraction = Fraction(1, 10)
    w0: Fraction = Fraction(20)
    w1: Fraction = Fraction(1)
    n: int = 50
    eps_pairs: Optional[tuple[tuple[Fraction, Fraction], ...]] = None  # None: default_eps_grid()
    replications: int = 100_000
    seed: int = 0
    interarrival: Fraction = Fraction(9, 10)
    policies: tuple[str, ...] = ("nonpreemptive", "preemptive", "beta")
    jobs: int = 1

    def __post_init__(self):
        if self.eps_pairs is None:
            object.__setattr__(self, "eps_pairs", default_eps_grid())
        elif not self.eps_pairs:
            raise ValueError("error grid has no points")
        object.__setattr__(self, "params", Parameters(self.alpha, self.w0, self.w1))
        object.__setattr__(self, "models",
                           tuple(PredictionModel(self.rho, e0, e1) for e0, e1 in self.eps_pairs))
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.interarrival <= ZERO:
            raise ValueError("mean interarrival must be positive")
        try:  # arrival streams draw with the float mean, at rate 1 / mean
            mean = float(self.interarrival)
        except OverflowError:
            mean = math.inf
        if not 0.0 < mean < math.inf:
            raise ValueError("mean interarrival must round to a positive finite float")
        if 1.0 / mean == math.inf:  # every gap at rate inf is 0: every release at 0
            raise ValueError("mean interarrival is too small: its rate 1/mean overflows a float")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for k, name in enumerate(self.policies):
            get_policy(name)
            if name in self.policies[:k]:  # two rows of one name: an ambiguous CSV
                raise ValueError(f"policy named twice: {name}")

    def header(self, mode: str) -> dict[str, str]:
        h = {
            "mode": mode,
            "alpha": format_fraction(self.alpha),
            "rho": format_fraction(self.rho),
            "w0": format_fraction(self.w0),
            "w1": format_fraction(self.w1),
            "n": str(self.n),
            "replications": str(self.replications),
            "seed": str(self.seed),
            "policies": ",".join(self.policies),
        }
        if mode == "arrivals":
            h["interarrival"] = format_fraction(self.interarrival)
            h["normalization"] = "per-replication ratio against the clairvoyant preemptive schedule"
        elif mode == "sweep":
            h["normalization"] = "costs divided by the analytic expected clairvoyant optimum"
        return h


def default_eps_grid() -> tuple[tuple[Fraction, Fraction], ...]:
    """eps0 = eps1 on 0, 0.05, ..., 0.5."""
    return tuple((Fraction(k, 20), Fraction(k, 20)) for k in range(11))


# ---------------------------------------------------------------------------
# Replication sampling
# ---------------------------------------------------------------------------

def _rep_streams(seed: int, grid_index: int, start: int, stop: int):
    """The bound `random` of one kept generator, reseeded for each replication in
    [start, stop) with the integer `Random.seed` derives from "<seed>:<grid-index>:<rep>"
    (its bytes, then their SHA-512, big-endian): `getstate()` is the string-seeded one's."""
    rng = random.Random()
    rand = rng.random
    for rep in range(start, stop):
        key = f"{seed}:{grid_index}:{rep}".encode()
        _random.Random.seed(rng, int.from_bytes(key + sha512(key).digest(), "big"))
        yield rand


def _draw_classes(rand, n: int, rho: float, e0: float, e1: float):
    """(size, urgent, urgent_positions, ends_urgent) of label classes 0 and 1, counted
    as each job draws (`rand`) its type, then its label flip: no per-class list."""
    m0 = u0 = p0 = u1 = p1 = 0  # the jobs drawn so far: m0 labelled 0, j - m0 labelled 1
    last0 = last1 = -1  # place of each class's last urgent job
    for j in range(1, n + 1):
        if rand() < rho:  # urgent, labelled 1 when flipped
            if rand() < e0:
                u1 += 1
                last1 = j - m0
                p1 += last1
            else:
                m0 += 1
                u0 += 1
                p0 += m0
                last0 = m0
        elif rand() < e1:  # non-urgent, labelled 0 when flipped
            m0 += 1
    return (m0, u0, p0, last0 == m0), (n - m0, u1, p1, last1 == n - m0)


def _flag_columns(config: ExperimentConfig, model: PredictionModel,
                  columns: list[list[float]]) -> list[tuple[tuple[bool, bool], list[list[float]]]]:
    """Each distinct `label_flags` pair of `config.policies`, with the output
    columns (`columns`, in policy order) of the policies that have it, so a
    kernel prices each pair once and fills its columns straight."""
    by_flags: dict[tuple[bool, bool], list[list[float]]] = {}
    for name, column in zip(config.policies, columns, strict=True):
        by_flags.setdefault(label_flags(get_policy(name), model, config.params), []).append(column)
    return list(by_flags.items())


def _sweep_chunk(config: ExperimentConfig, grid_index: int, model: PredictionModel,
                 start: int, stop: int):
    """Costs for replications [start, stop): one row per policy, opt first.

    A batch replication needs no engine run: each policy's schedule follows
    from its `label_flags`, so one summary of the draw prices every policy,
    and `label_schedule_ticks` runs once per distinct flag pair.
    """
    params = config.params
    alpha_ticks, den = params.alpha_pair
    wden, w0, w1 = params.weight_grid  # cost = (w0*s0 + w1*s1) / (wden*den) exactly
    cost_den = wden * den
    rho_f, e0f, e1f = float(config.rho), float(model.eps0), float(model.eps1)
    n = config.n
    opt, *out = [[0.0] * (stop - start) for _ in range(len(config.policies) + 1)]
    pricing = _flag_columns(config, model, out)
    for k, rand in enumerate(_rep_streams(config.seed, grid_index, start, stop)):
        classes = _draw_classes(rand, n, rho_f, e0f, e1f)
        s0, s1 = wspt_ticks(n, classes[0][1] + classes[1][1])
        opt[k] = (w0 * s0 + w1 * s1) / wden
        for flags, columns in pricing:
            s0, s1 = label_schedule_ticks(classes, flags, alpha_ticks, den)
            cost = (w0 * s0 + w1 * s1) / cost_den
            for column in columns:
                column[k] = cost
    return [opt, *out]


def _release_ticks(times: list[float], alpha_den: int) -> tuple[list[int], int]:
    """(ticks, den): nondecreasing float release times from 0 as integers over
    one grid of den ticks per unit, a multiple of `alpha_den`.

    Every later release is at least the first positive one, r1, so a multiple
    of ulp(r1) = 2**-k: over den = lcm(alpha_den, 2**k) a release r is
    r * 2**k (exact) times den >> k. Where 2**k or a scaled release overflows
    a float (r1 subnormal or a huge span), each release's own ratio is taken.
    """
    r1 = next(filter(None, times), 0.0)
    # r1 in [2**(e-1), 2**e) has ulp 2**(e-53); from 2**53 on every float is an integer
    k = max(0, 53 - math.frexp(r1)[1]) if r1 else 0
    den = math.lcm(alpha_den, 1 << k)
    try:
        scale, step = float(1 << k), den >> k
        return [int(r * scale) * step for r in times], den
    except OverflowError:
        ratios = [r.as_integer_ratio() for r in times]
        den = math.lcm(alpha_den, max(d for _, d in ratios))  # release dens: powers of 2
        return [a * (den // d) for a, d in ratios], den


def _release_times(rand, n: int, lam: float) -> list[float]:
    """Release times of a Poisson stream of n jobs at rate `lam`, the first at 0.

    Each gap is `-log(1.0 - rand()) / lam`, the body of
    `random.Random.expovariate(lam)`: the same `random()` calls, so the same
    floats and the same stream state after them.
    """
    times = [0.0]
    t = 0.0
    for _ in range(n - 1):
        t += -log(1.0 - rand()) / lam
        times.append(t)
    return times


def _arrivals_chunk(config: ExperimentConfig, grid_index: int, model: PredictionModel,
                    start: int, stop: int):
    """Per-replication cost ratios against the clairvoyant preemptive optimum.

    An arrival replication needs no engine run either. Each job draws its
    type and label flip (`_draw_classes`' order), then `_release_times` draws
    the n - 1 gaps of a Poisson stream, with the first job released at 0.
    Every release time is a float, so an exact binary fraction, and
    `_release_ticks` puts them all on one integer grid from the ulp of the
    first positive release. One pass of `release_lists` then splits the
    ticks by label and by type. Job ids rise with release time, so
    `label_release_ticks` prices each distinct `label_flags` pair once, for
    every policy that has it, and `wsrpt_release_ticks` prices the
    clairvoyant schedule. The kernels are linear in ticks, so any common grid
    gives the same ratios; each is one exact integer quotient, which rounds
    like the float of the Fraction ratio.
    """
    params = config.params
    alpha_num, alpha_den = params.alpha_pair
    _, w0, w1 = params.weight_grid
    rho_f, e0f, e1f = float(config.rho), float(model.eps0), float(model.eps1)
    lam = 1.0 / float(config.interarrival)
    n = config.n
    out = [[0.0] * (stop - start) for _ in config.policies]
    pricing = _flag_columns(config, model, out)
    for k, rand in enumerate(_rep_streams(config.seed, grid_index, start, stop)):
        types = []
        labels = []  # True: labelled 1
        for _ in range(n):
            if rand() < rho_f:  # urgent, labelled 1 when flipped
                types.append(0)
                labels.append(rand() < e0f)
            else:  # non-urgent, labelled 0 when flipped
                types.append(1)
                labels.append(not rand() < e1f)
        times = _release_times(rand, n, lam)
        if not math.isfinite(times[-1]):
            raise ValueError("release times overflow a float at this mean interarrival")
        ticks, den = _release_ticks(times, alpha_den)
        alpha_ticks = alpha_num * (den // alpha_den)
        classes, urgent, non_urgent = release_lists(ticks, types, labels, den)
        o0, o1 = wsrpt_release_ticks(urgent, non_urgent, w0, w1, den)
        opt = w0 * o0 + w1 * o1
        for flags, columns in pricing:
            s0, s1 = label_release_ticks(classes, flags, alpha_ticks, den)
            ratio = (w0 * s0 + w1 * s1) / opt
            for column in columns:
                column[k] = ratio
    return out


# Fewest replications that pay for a worker process of their own, counting the
# pool's import at a process's first pool: with fewer, two workers were no
# faster than one. The README gives the measurements.
SWEEP_MIN_REPS_PER_WORKER = 3000
ARRIVALS_MIN_REPS_PER_WORKER = 700


def _chunks(total: int, jobs: int):
    """Replication spans, one per worker process, never more than the CPUs."""
    workers = min(jobs, os.cpu_count() or 1)
    size = max(1, math.ceil(total / workers))
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _process_pool(workers: int):
    """A pool of `workers` processes. Its modules (`multiprocessing` and what
    it pulls in) load here, at a process's first pool, not at every import."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _run_grid(worker, config: ExperimentConfig, min_reps_per_worker: int):
    """Yield each grid point's replication columns, in grid order.

    The whole grid's replication count sets the number of workers, each given
    at least `min_reps_per_worker` replications. Every (grid point, span)
    chunk is planned up front; with more than one span they all go to a
    single process pool. A pool task pickles its config, so each point's
    tasks carry a copy whose grid is that point alone, with its built model:
    a task's size does not grow with the grid. Chunks are reduced in grid and
    replication order, so the split never shows in the output. A replication
    count past `REPLICATION_LIMIT` is refused before any chunk is planned.
    """
    if config.replications > REPLICATION_LIMIT:
        raise ResourceLimitError(f"{config.replications} replications per error point "
                                 f"exceed the limit {REPLICATION_LIMIT}")
    grid_reps = config.replications * len(config.models)
    spans = _chunks(config.replications,
                    max(1, min(config.jobs, grid_reps // min_reps_per_worker)))
    if len(spans) == 1:
        for gi, model in enumerate(config.models):
            yield worker(config, gi, model, *spans[0])
        return
    plan = []
    for gi, model in enumerate(config.models):  # not replace(): it would build the model again
        one = copy.copy(config)
        vars(one).update(eps_pairs=config.eps_pairs[gi:gi + 1], models=(model,))
        plan.append((one, gi, model))
    with _process_pool(len(spans)) as pool:
        pending = deque([pool.submit(worker, *point, s, e) for s, e in spans] for point in plan)
        while pending:  # popped, so a reduced point's results can be freed
            blocks = [f.result() for f in pending.popleft()]
            yield [[v for col in cols for v in col] for cols in zip(*blocks)]


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    m = len(values)
    try:
        mean = math.fsum(values) / m
        if m < 2:
            return mean, 0.0
        var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    except OverflowError:
        # the sum or a square overflows although every value fits: take the
        # statistics of the values scaled by 2**-k, with which every rounding
        # step commutes, and scale them back
        k = math.frexp(max(map(abs, values)))[1]
        mean, stderr = _mean_stderr([math.ldexp(v, -k) for v in values])
        return math.ldexp(mean, k), math.ldexp(stderr, k)
    return mean, math.sqrt(var / m)


# ---------------------------------------------------------------------------
# The three data products
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("eps0", "eps1", "policy", "analytic_ratio", "mc_mean_ratio",
                 "mc_stderr", "replications")
ARRIVAL_COLUMNS = ("eps0", "eps1", "policy", "mc_mean_ratio", "mc_stderr",
                   "mc_max_ratio", "replications")
CR_COLUMNS = ("eps0", "eps1", "policy", "cr", "worst_q", "regime")


def _cell(value) -> str:
    """A float to 12 significant digits, None as an empty cell, else its str."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _row(columns, model: PredictionModel, policy: str, *cells) -> dict[str, str]:
    """One row in `columns` order: the error point, the policy, then `cells`."""
    return dict(zip(columns, map(_cell, (float(model.eps0), float(model.eps1), policy, *cells)),
                    strict=True))


def run_sweep(config: ExperimentConfig) -> list[dict[str, str]]:
    """Batch sweep rows: analytic and Monte Carlo cost ratios per policy.

    Ratios are normalized by the analytic expected clairvoyant optimum. The
    `opt` row checks the simulated optimum against that same baseline. An n
    past `SWEEP_N_LIMIT` is refused before any replication is drawn.
    """
    if config.n > SWEEP_N_LIMIT:
        raise ResourceLimitError(
            f"a batch instance of {config.n} jobs exceeds the limit {SWEEP_N_LIMIT}")
    rows = []
    grid = _run_grid(_sweep_chunk, config, SWEEP_MIN_REPS_PER_WORKER)
    try:  # a cost, its mean or its squared spread past the float range
        for model, costs in zip(config.models, grid):
            perf = expected_unconditional(config.n, model, config.params)
            opt_mean = float(perf.opt)
            for name, column in zip(("opt", *config.policies), costs):
                mean, stderr = _mean_stderr(column)
                rows.append(_row(SWEEP_COLUMNS, model, name,
                                 float(perf.for_policy(name)) / opt_mean,
                                 mean / opt_mean, stderr / opt_mean, config.replications))
    except OverflowError:
        raise ValueError("costs overflow a float at these weights") from None
    return rows


def run_arrivals(config: ExperimentConfig) -> list[dict[str, str]]:
    """Arrival-mode rows: per-replication ratio against the clairvoyant schedule.

    An n past `ARRIVAL_N_LIMIT` is refused before any replication is drawn.
    """
    if config.n > ARRIVAL_N_LIMIT:
        raise ResourceLimitError(
            f"an arrival instance of {config.n} jobs exceeds the limit {ARRIVAL_N_LIMIT}")
    rows = []
    grid = _run_grid(_arrivals_chunk, config, ARRIVALS_MIN_REPS_PER_WORKER)
    for model, ratios in zip(config.models, grid):
        for name, column in zip(config.policies, ratios):
            mean, stderr = _mean_stderr(column)
            rows.append(_row(ARRIVAL_COLUMNS, model, name, mean, stderr, max(column),
                             config.replications))
    return rows


def run_cr_sweep(config: ExperimentConfig) -> list[dict[str, str]]:
    """Worst-case ratio curves per error point, plus the regime-selected value."""
    rows = []
    for model in config.models:
        try:
            report = competitive_ratio(model, config.params)
        except OverflowError:
            raise ValueError("competitive ratios overflow a float at these weights") from None
        for name, cr in zip(("nonpreemptive", "preemptive", "hybrid"), report):
            rows.append(_row(CR_COLUMNS, model, name, cr.value, cr.worst_q, None))
        rows.append(_row(CR_COLUMNS, model, "selected", report.selected, None,
                         report.regime.value))
    return rows


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def render_csv(header: dict[str, str], columns, rows: list[dict[str, str]]) -> str:
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row[c] for c in columns))
    return "\n".join(lines) + "\n"


def render_json(header: dict[str, str], columns, rows: list[dict[str, str]]) -> str:
    import json

    return json.dumps({"config": header, "rows": rows}, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# Oracle verification suites
# ---------------------------------------------------------------------------

DEFAULT_OPTIMALITY_GRID = {
    "n": tuple(range(1, 51)),
    "alpha": (Fraction(1, 4), Fraction(2, 5), Fraction(7, 10)),
    "weight_ratio": (3, 20, 100),
    "rho": (Fraction(1, 10), Fraction(1, 2)),
    "eps": (ZERO, Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)),
}


def verify_optimality(grid=None) -> list[str]:
    """Exhaustive-search oracle vs the threshold rule, exact equality.

    Returns one description per failing (channel, n), naming the first state
    whose values differ (empty = all equal). Per channel the expectimax pass
    (about n**3/6 states) and the rule's (about n**2/2 rows) of `tree_layers`
    run side by side to the largest n, comparing each layer's roots. No rule
    value is below the optimum's, and each root has a positive label weight,
    so the expected costs at n are equal iff every root of layer n is. A grid
    with an n below 1, or past `TREE_N_LIMIT`, is refused before any pricing.
    """
    g = dict(DEFAULT_OPTIMALITY_GRID)
    if grid:
        g.update(grid)
    if min(g["n"]) < 1:
        raise ValueError("n must be at least 1")
    n_max = max(g["n"])
    failures = []
    channels = product(g["alpha"], g["weight_ratio"], g["rho"], g["eps"], g["eps"])
    for alpha, ratio, rho, e0, e1 in channels:
        params, model = Parameters(alpha, ratio, 1), PredictionModel(rho, e0, e1)
        flags = label_flags(get_policy("beta"), model, params)
        # the expectimax pass refuses an n_max past the limit first
        layers = zip(tree_layers(n_max, model, params, None),
                     tree_layers(n_max, model, params, flags), strict=True)
        found = {}  # n: its failure line
        for n, ((best, den), (rule, _)) in enumerate(layers, 1):
            diff = [u0 for u0, (b, r) in enumerate(zip(best, rule)) if b[0] != r[0]]
            if diff:
                u0 = diff[0]
                found[n] = (f"n={n} alpha={alpha} w0/w1={ratio} rho={rho} eps0={e0} "
                            f"eps1={e1}: at u0={u0} optimal {Fraction(best[u0][0], den)} "
                            f"!= rule {Fraction(rule[u0][0], den)}")
        failures += [found[n] for n in g["n"] if n in found]
    return failures


WSRPT_N_MAX = 4  # jobs per instance of the wsrpt suite, the enumeration's limit
REGIME_N_MAX = 12  # jobs per instance of the regime suite


def random_release_instance(rng: random.Random, params: Parameters) -> Instance:
    """Small instance with rational release times on the 1/8 grid in [0, 4)."""
    n = rng.randint(1, WSRPT_N_MAX)
    jobs = []
    for i in range(1, n + 1):
        tt = rng.randint(0, 1)
        jobs.append(Job(i, tt, tt, release_time=Fraction(rng.randrange(32), 8)))
    model = PredictionModel(HALF, 0, 0)
    return Instance(jobs, params, model)


def verify_wsrpt(instances: int, seed: int = 0) -> list[str]:
    """The clairvoyant preemptive schedule's cost vs exhaustive grid search, exact.

    `offline_wsrpt_cost`, which prices through `wsrpt_release_ticks` as the
    arrival sweeps do, must equal the enumerated optimum.
    """
    rng = random.Random(f"wsrpt:{seed}")
    weight_choices = [(2, 1), (3, 2), (20, 1), (100, 7)]
    failures = []
    for _ in range(instances):
        w0, w1 = rng.choice(weight_choices)
        params = Parameters(Fraction(2, 5), w0, w1)
        inst = random_release_instance(rng, params)
        want = enumerate_offline_optimum(inst, limit=WSRPT_N_MAX)
        got = offline_wsrpt_cost(inst)
        if got != want:
            failures.append(f"wsrpt {got} != enumerated optimum {want} on:\n"
                            f"{dump_instance(inst)}")
    return failures


def verify_regimes(samples: int, seed: int = 0) -> list[str]:
    """The threshold rule must trace-match the policy its regime names."""
    rng = random.Random(f"regimes:{seed}")
    failures = []
    for _ in range(samples):
        alpha = Fraction(rng.randint(1, 9), 10)
        w0 = rng.randint(2, 40)
        params = Parameters(alpha, w0, 1)
        model = PredictionModel(
            Fraction(rng.randint(1, 9), 10),
            Fraction(rng.randint(0, 8), 16),
            Fraction(rng.randint(0, 8), 16),
        )
        n = rng.randint(1, REGIME_N_MAX)
        inst = sample_instance(n, model, params, seed=rng.randrange(2 ** 30))
        regime = classify_regime(model, params)
        mirror = get_policy(regime.value)
        got = run(inst, get_policy("beta"))
        want = run(inst, mirror)
        if got.trace != want.trace:
            failures.append(
                f"regime {regime.value}: threshold-rule trace differs from "
                f"{mirror.name} on:\n{dump_instance(inst)}"
            )
    return failures
