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
    label_schedule_ticks,
    offline_wsrpt,
    rule_expected_cost,
    run,
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
    arrival: str = "batch"  # batch | poisson
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
        if self.arrival not in ("batch", "poisson"):
            raise ValueError(f"arrival mode must be batch or poisson, got {self.arrival!r}")
        if self.interarrival <= ZERO:
            raise ValueError("mean interarrival must be positive")
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


def _draw_jobs(rng: random.Random, n: int, rho: float, e0: float, e1: float) -> list[Job]:
    jobs = []
    rand = rng.random
    for i in range(1, n + 1):
        tt = 0 if rand() < rho else 1
        flip = rand() < (e0 if tt == 0 else e1)
        jobs.append(Job(i, tt, (1 - tt) if flip else tt))
    return jobs


def _draw_releases(rng: random.Random, n: int, mean: float) -> list[Fraction]:
    """Arrival times of a Poisson stream, first job at 0, exact binary fractions."""
    lam = 1.0 / mean
    times = [ZERO]
    t = 0.0
    for _ in range(n - 1):
        t += rng.expovariate(lam)
        times.append(Fraction(t))
    return times


def _draw_classes(rng: random.Random, n: int, rho: float, e0: float,
                  e1: float) -> tuple[list[int], list[int]]:
    """`_draw_jobs`' draw, kept as the true types of each label class in id order."""
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
    # cost = (w0*s0 + w1*s1) / den exactly; int / int rounds like float(Fraction)
    wden = math.lcm(params.w0.denominator, params.w1.denominator)
    w0 = params.w0.numerator * (wden // params.w0.denominator)
    w1 = params.w1.numerator * (wden // params.w1.denominator)
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
    """Per-replication cost ratios against the clairvoyant preemptive optimum."""
    params = config.params
    model = config.model_for(eps0, eps1)
    policies = [get_policy(name) for name in config.policies]
    rho_f, e0f, e1f = float(config.rho), float(eps0), float(eps1)
    mean = float(config.interarrival)
    n = config.n
    out = [[0.0] * (stop - start) for _ in range(len(policies))]
    for rep in range(start, stop):
        rng = _rep_rng(config.seed, grid_index, rep)
        base = _draw_jobs(rng, n, rho_f, e0f, e1f)
        releases = _draw_releases(rng, n, mean)
        jobs = [job._replace(release_time=r) for job, r in zip(base, releases)]
        inst = Instance(jobs, params, model)
        opt_cost = offline_wsrpt(inst, keep_trace=False).total_cost
        k = rep - start
        for pi, pol in enumerate(policies):
            cost = run(inst, pol, keep_trace=False).total_cost
            out[pi][k] = float(cost / opt_cost)
    return out


# Fewest replications that pay for a worker process of their own. On 2 vCPUs
# (CPython 3.11.7, n = 50, 11-point grid) starting and feeding a pool costs
# about 20-30 ms, a batch replication about 30 us and an arrival replication
# about 1 ms. Batch: 2 200 replications took 0.11 s with two workers against
# 0.08 s with one, 4 400 took 0.09 s against 0.16 s. Arrivals: 110 took
# 0.17 s against 0.14 s, 220 took 0.15 s against 0.29 s.
SWEEP_MIN_REPS_PER_WORKER = 2000
ARRIVALS_MIN_REPS_PER_WORKER = 100


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
    if config.arrival != "batch":
        raise ValueError("run_sweep is the batch driver; use run_arrivals for poisson mode")
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
    if config.arrival != "poisson":
        raise ValueError("run_arrivals needs arrival='poisson'")
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


def verify_wsrpt(instances: int = 1000, seed: int = 0, n_max: int = 4) -> list[str]:
    """Clairvoyant preemptive schedule vs exhaustive grid search, exact."""
    rng = random.Random(f"wsrpt:{seed}")
    weight_choices = [(2, 1), (3, 2), (20, 1), (100, 7)]
    failures = []
    for _ in range(instances):
        w0, w1 = rng.choice(weight_choices)
        params = Parameters(Fraction(2, 5), w0, w1)
        inst = random_release_instance(rng, params, n_max)
        got = offline_wsrpt(inst, keep_trace=False).total_cost
        want = enumerate_offline_optimum(inst, limit=n_max)
        if got != want:
            failures.append(
                f"wsrpt {got} != enumerated optimum {want} on:\n{dump_instance(inst)}"
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
