"""Experiment drivers: Monte Carlo sweeps, arrival studies, and oracle checks.

Determinism contract: every replication draws from its own stream seeded by
the string "<seed>:<grid-index>:<replication>" (SHA-512 seeding of the
stdlib Mersenne Twister, stable across platforms and Python versions).
Results are reduced in replication order, so outputs are byte-identical
regardless of how replications are divided among worker processes.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import not_
from typing import Optional

from .analytics import _fmt, competitive_ratio, expected_unconditional
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
    to_fraction,
)
from .engine import (
    LabelClass,
    enumerate_offline_optimum,
    expectimax_optimal,
    label_release_ticks,
    label_schedule_ticks,
    offline_wsrpt,
    rule_expected_cost,
    run,
    weight_grid,
    wsrpt_release_ticks,
    wspt_ticks,
)
from .policies import classify_regime, get_policy, label_flags


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; flags and config files both build this."""

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
        for e0, e1 in self.eps_pairs:
            if not (ZERO <= e0 <= HALF) or not (ZERO <= e1 <= HALF):
                raise ValueError(f"error rates must lie in [0, 1/2], got ({e0}, {e1})")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.interarrival <= ZERO:
            raise ValueError("mean interarrival must be positive")
        try:  # arrival streams draw with the float mean
            finite = 0.0 < float(self.interarrival) < math.inf
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("mean interarrival must round to a positive finite float")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in self.policies:
            get_policy(name)

    @property
    def params(self) -> Parameters:
        return Parameters(self.alpha, self.w0, self.w1)

    def model_for(self, eps0: Fraction, eps1: Fraction) -> PredictionModel:
        return PredictionModel(self.rho, eps0, eps1)

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


def coupled_grid(values) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple((to_fraction(v), to_fraction(v)) for v in values)


# ---------------------------------------------------------------------------
# Replication sampling
# ---------------------------------------------------------------------------

def _rep_rng(seed: int, grid_index: int, rep: int) -> random.Random:
    return random.Random(f"{seed}:{grid_index}:{rep}")


def _draw_classes(rng: random.Random, n: int, rho: float, e0: float,
                  e1: float) -> tuple[list[int], list[int]]:
    """True types of each label class in id order: per job a type, then a label flip."""
    rand = rng.random
    classes = ([], [])
    for _ in range(n):
        tt = 0 if rand() < rho else 1
        flip = rand() < (e0 if tt == 0 else e1)
        classes[(1 - tt) if flip else tt].append(tt)
    return classes


def _sweep_chunk(config: ExperimentConfig, grid_index: int, eps0: Fraction,
                 eps1: Fraction, start: int, stop: int):
    """Costs for replications [start, stop): one row per rep, opt first.

    A batch replication needs no engine run: each policy's schedule follows
    from its `label_flags`, so one summary of the draw prices every policy.
    """
    params = config.params
    model = config.model_for(eps0, eps1)
    flags = [label_flags(get_policy(name), model, params) for name in config.policies]
    alpha_ticks, den = params.alpha.numerator, params.alpha.denominator
    wden, w0, w1 = weight_grid(params)  # cost = (w0*s0 + w1*s1) / (wden*den) exactly
    rho_f, e0f, e1f = float(config.rho), float(eps0), float(eps1)
    n = config.n
    out = [[0.0] * (stop - start) for _ in range(len(flags) + 1)]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        classes = [LabelClass.of(types) for types in _draw_classes(rng, n, rho_f, e0f, e1f)]
        k = rep - start
        s0, s1 = wspt_ticks(n, classes[0].urgent + classes[1].urgent)
        out[0][k] = (w0 * s0 + w1 * s1) / wden
        for pi, f in enumerate(flags, start=1):
            s0, s1 = label_schedule_ticks(classes, f, alpha_ticks, den)
            out[pi][k] = (w0 * s0 + w1 * s1) / (wden * den)
    return out


def _arrivals_chunk(config: ExperimentConfig, grid_index: int, eps0: Fraction,
                    eps1: Fraction, start: int, stop: int):
    """Per-replication cost ratios against the clairvoyant preemptive optimum.

    An arrival replication needs no engine run either. Each job draws its
    type and label flip (`_draw_classes`' order), then the n - 1 gaps of a
    Poisson stream follow, with the first job released at 0. Every release
    time is a float, so an exact binary fraction: over the tick grid of
    lcm(alpha's denominator, the largest release denominator) it is an
    integer. Job ids rise with release time, so `label_release_ticks`
    prices each policy from its `label_flags`, and `wsrpt_release_ticks`
    prices the clairvoyant schedule. Each ratio is one exact integer
    quotient, which rounds like the float of the Fraction ratio.
    """
    params = config.params
    model = config.model_for(eps0, eps1)
    flags = [label_flags(get_policy(name), model, params) for name in config.policies]
    alpha_num, alpha_den = params.alpha.numerator, params.alpha.denominator
    _, w0, w1 = weight_grid(params)
    rho_f, e0f, e1f = float(config.rho), float(eps0), float(eps1)
    lam = 1.0 / float(config.interarrival)
    n = config.n
    out = [[0.0] * (stop - start) for _ in range(len(flags))]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        rand = rng.random
        types = []
        labels = []
        for _ in range(n):
            tt = 0 if rand() < rho_f else 1
            types.append(tt)
            labels.append((1 - tt) if rand() < (e0f if tt == 0 else e1f) else tt)
        expovariate = rng.expovariate
        t = 0.0
        times = [t]
        for _ in range(n - 1):
            t += expovariate(lam)
            times.append(t)
        if not math.isfinite(t):
            raise ValueError("release times overflow a float at this mean interarrival")
        ratios = [r.as_integer_ratio() for r in times]
        den = math.lcm(alpha_den, max(d for _, d in ratios))  # release dens: powers of 2
        ticks = [a * (den // d) for a, d in ratios]
        alpha_ticks = alpha_num * (den // alpha_den)
        label0 = list(map(not_, labels))
        classes = ((list(compress(ticks, label0)), list(compress(types, label0))),
                   (list(compress(ticks, labels)), list(compress(types, labels))))
        o0, o1 = wsrpt_release_ticks(ticks, types, w0, w1, den)
        opt = w0 * o0 + w1 * o1
        k = rep - start
        for pi, f in enumerate(flags):
            s0, s1 = label_release_ticks(classes, f, alpha_ticks, den)
            out[pi][k] = (w0 * s0 + w1 * s1) / opt
    return out


# Fewest replications that pay for a worker process of their own. On 2 vCPUs
# (CPython 3.11.7, n = 50, 11-point grid, three policies) starting and
# feeding a pool costs about 10-30 ms, a batch replication about 30 us and
# an arrival replication about 85 us. Batch: 2 200 replications took 0.11 s
# with two workers against 0.08 s with one, 4 400 took 0.09 s against
# 0.16 s. Arrivals (median of 7 fresh processes): 220 took 22 ms against
# 19 ms, 440 took 27 ms against 36 ms, 660 took 35 ms against 53 ms.
SWEEP_MIN_REPS_PER_WORKER = 2000
ARRIVALS_MIN_REPS_PER_WORKER = 200


def _chunks(total: int, jobs: int):
    """Replication spans, one per worker process, never more than the CPUs."""
    workers = min(jobs, os.cpu_count() or 1)
    size = max(1, math.ceil(total / workers))
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def _run_grid(worker, config: ExperimentConfig, min_reps_per_worker: int):
    """Yield each grid point's replication columns, in grid order.

    The whole grid's replication count sets the number of workers, each given
    at least `min_reps_per_worker` replications. Every (grid point, span)
    chunk is planned up front; with more than one span they all go to a
    single process pool. Chunks are reduced in grid and replication order, so
    the split never shows in the output.
    """
    grid_reps = config.replications * len(config.eps_pairs)
    spans = _chunks(config.replications,
                    max(1, min(config.jobs, grid_reps // min_reps_per_worker)))
    plan = [[(config, gi, e0, e1, s, e) for s, e in spans]
            for gi, (e0, e1) in enumerate(config.eps_pairs)]
    if len(spans) == 1:
        for (task,) in plan:
            yield worker(*task)
        return
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        pending = deque([pool.submit(worker, *task) for task in point] for point in plan)
        while pending:  # popped, so a reduced point's results can be freed
            blocks = [f.result() for f in pending.popleft()]
            yield [[v for col in cols for v in col] for cols in zip(*blocks)]


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    m = len(values)
    mean = math.fsum(values) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    return mean, math.sqrt(var / m)


# ---------------------------------------------------------------------------
# The three data products
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("eps0", "eps1", "policy", "analytic_ratio", "mc_mean_ratio",
                 "mc_stderr", "replications")
ARRIVAL_COLUMNS = ("eps0", "eps1", "policy", "mc_mean_ratio", "mc_stderr",
                   "mc_max_ratio", "replications")
CR_COLUMNS = ("eps0", "eps1", "policy", "cr", "worst_q", "regime")


def run_sweep(config: ExperimentConfig) -> list[dict[str, str]]:
    """Batch sweep rows: analytic and Monte Carlo cost ratios per policy.

    Ratios are normalized by the analytic expected clairvoyant optimum. The
    `opt` row checks the simulated optimum against that same baseline.
    """
    rows = []
    names = ("opt",) + config.policies
    grid = _run_grid(_sweep_chunk, config, SWEEP_MIN_REPS_PER_WORKER)
    for (e0, e1), costs in zip(config.eps_pairs, grid):
        model = config.model_for(e0, e1)
        perf = expected_unconditional(config.n, model, config.params)
        opt_mean = float(perf.opt)
        for ci, name in enumerate(names):
            mean, stderr = _mean_stderr(costs[ci])
            analytic = float(perf.for_policy(name)) / opt_mean
            rows.append({
                "eps0": _fmt(float(e0)),
                "eps1": _fmt(float(e1)),
                "policy": name,
                "analytic_ratio": _fmt(analytic),
                "mc_mean_ratio": _fmt(mean / opt_mean),
                "mc_stderr": _fmt(stderr / opt_mean),
                "replications": str(config.replications),
            })
    return rows


def run_arrivals(config: ExperimentConfig) -> list[dict[str, str]]:
    """Arrival-mode rows: per-replication ratio against the clairvoyant schedule."""
    rows = []
    grid = _run_grid(_arrivals_chunk, config, ARRIVALS_MIN_REPS_PER_WORKER)
    for (e0, e1), ratios in zip(config.eps_pairs, grid):
        for ci, name in enumerate(config.policies):
            mean, stderr = _mean_stderr(ratios[ci])
            rows.append({
                "eps0": _fmt(float(e0)),
                "eps1": _fmt(float(e1)),
                "policy": name,
                "mc_mean_ratio": _fmt(mean),
                "mc_stderr": _fmt(stderr),
                "mc_max_ratio": _fmt(max(ratios[ci])),
                "replications": str(config.replications),
            })
    return rows


def run_cr_sweep(config: ExperimentConfig) -> list[dict[str, str]]:
    """Worst-case ratio curves per error point, plus the regime-selected value."""
    rows = []
    for e0, e1 in config.eps_pairs:
        model = config.model_for(e0, e1)
        report = competitive_ratio(model, config.params)
        for name, cr in (
            ("nonpreemptive", report.nonpreemptive),
            ("preemptive", report.preemptive),
            ("hybrid", report.hybrid),
        ):
            rows.append({
                "eps0": _fmt(float(e0)),
                "eps1": _fmt(float(e1)),
                "policy": name,
                "cr": _fmt(cr.value),
                "worst_q": "" if cr.worst_q is None else _fmt(cr.worst_q),
                "regime": "",
            })
        rows.append({
            "eps0": _fmt(float(e0)),
            "eps1": _fmt(float(e1)),
            "policy": "selected",
            "cr": _fmt(report.selected),
            "worst_q": "",
            "regime": report.regime.value,
        })
    return rows


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def render_csv(header: dict[str, str], columns, rows: list[dict[str, str]]) -> str:
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row.get(c, "") for c in columns))
    return "\n".join(lines) + "\n"


def render_json(header: dict[str, str], columns, rows: list[dict[str, str]]) -> str:
    import json

    return json.dumps({"config": header, "rows": rows}, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# Oracle verification suites
# ---------------------------------------------------------------------------

DEFAULT_OPTIMALITY_GRID = {
    "n": (1, 2, 3, 4, 5),
    "alpha": (Fraction(1, 4), Fraction(2, 5), Fraction(7, 10)),
    "weight_ratio": (3, 20, 100),
    "rho": (Fraction(1, 10), Fraction(1, 2)),
    "eps": (ZERO, Fraction(1, 10), Fraction(3, 10), Fraction(1, 2)),
}


def verify_optimality(grid=None, threshold_shift: Optional[Fraction] = None) -> list[str]:
    """Exhaustive-search oracle vs the threshold rule, exact equality.

    Returns one description per failing grid point (empty = all equal).
    `threshold_shift` perturbs the rule's threshold, for harness self-tests.
    A grid with n past the expectimax size bound raises ResourceLimitError
    rather than silently grinding.
    """
    g = dict(DEFAULT_OPTIMALITY_GRID)
    if grid:
        g.update(grid)
    failures = []
    for alpha in g["alpha"]:
        for ratio in g["weight_ratio"]:
            params = Parameters(alpha, ratio, 1)
            for rho in g["rho"]:
                for e0 in g["eps"]:
                    for e1 in g["eps"]:
                        model = PredictionModel(rho, e0, e1)
                        threshold = None
                        if threshold_shift is not None:
                            threshold = params.beta() + threshold_shift
                        for n in g["n"]:
                            best = expectimax_optimal(n, model, params)
                            rule = rule_expected_cost(n, model, params, "beta", threshold)
                            if best != rule:
                                failures.append(
                                    f"n={n} alpha={alpha} w0/w1={ratio} rho={rho} "
                                    f"eps0={e0} eps1={e1}: optimal {best} != rule {rule}"
                                )
    return failures


def random_release_instance(rng: random.Random, params: Parameters,
                            n_max: int = 4) -> Instance:
    """Small instance with rational release times on the 1/8 grid in [0, 4)."""
    n = rng.randint(1, n_max)
    jobs = []
    for i in range(1, n + 1):
        tt = rng.randint(0, 1)
        jobs.append(Job(i, tt, tt, release_time=Fraction(rng.randrange(32), 8)))
    model = PredictionModel(HALF, 0, 0)
    return Instance(jobs, params, model)


def wsrpt_kernel_cost(instance: Instance) -> Fraction:
    """`offline_wsrpt`'s exact cost through `wsrpt_release_ticks`.

    The jobs go in release order over the lcm of the release denominators,
    the weights on the lcm of theirs.
    """
    jobs = sorted(instance.jobs, key=lambda job: job.release_time)
    den = math.lcm(*(job.release_time.denominator for job in jobs))
    wden, w0, w1 = weight_grid(instance.params)
    s0, s1 = wsrpt_release_ticks(
        [job.release_time.numerator * (den // job.release_time.denominator) for job in jobs],
        [job.true_type for job in jobs], w0, w1, den)
    return Fraction(w0 * s0 + w1 * s1, wden * den)


def verify_wsrpt(instances: int = 1000, seed: int = 0, n_max: int = 4) -> list[str]:
    """Clairvoyant preemptive schedules vs exhaustive grid search, exact.

    Both `offline_wsrpt` and the kernel the arrival sweeps use
    (`wsrpt_kernel_cost`) must equal the enumerated optimum.
    """
    rng = random.Random(f"wsrpt:{seed}")
    weight_choices = [(2, 1), (3, 2), (20, 1), (100, 7)]
    failures = []
    for _ in range(instances):
        w0, w1 = rng.choice(weight_choices)
        params = Parameters(Fraction(2, 5), w0, w1)
        inst = random_release_instance(rng, params, n_max)
        want = enumerate_offline_optimum(inst, limit=n_max)
        for name, got in (("wsrpt", offline_wsrpt(inst, keep_trace=False).total_cost),
                          ("wsrpt kernel", wsrpt_kernel_cost(inst))):
            if got != want:
                failures.append(
                    f"{name} {got} != enumerated optimum {want} on:\n{dump_instance(inst)}"
                )
    return failures


def verify_regimes(samples: int = 300, seed: int = 0, n_max: int = 12) -> list[str]:
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
        n = rng.randint(1, n_max)
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
