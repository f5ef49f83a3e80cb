"""The benchmark's workloads: inputs from a seed, one data product, its checks.

Every workload is a closed loop with one caller: the benchmark asks for the
next data product (a "table") only after the previous one is complete, in
one process with `--jobs 1`. Table k of a run is made from (seed, k), so the
same seed gives the same inputs and no two tables of a run repeat an input.

A workload object offers:
  inputs(k)          build the inputs of table k (not timed);
  product(inp, mark) compute table k through the program, return its text;
  check(text, k)     [(check name, passed)] for that text;
  reps               replications in one table;
  params             the workload's parameters, for provenance.
`mark(i)` tells the tracer that replication i of the table starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")
DEFAULT_SEED = 0

# the channel of the paper's headline figure (the Tier-1 closed-form test)
ALPHA, RHO, W0, W1, N_JOBS = "2/5", "1/10", "20", "1", 50
EPS_GRID = "0:0.5:0.05"  # 11 coupled points eps0 = eps1
EPS_POINTS = 11
MC_POLICIES = ("nonpreemptive", "preemptive", "hybrid", "beta")


def table_seed(seed: int, k: int) -> int:
    """The program's --seed for table k; table 0 uses the workload seed itself."""
    return seed * 1_000_000 + k


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def digest_check(workload, text: str, k: int):
    """Table 0 at the default seed must reproduce the recorded bytes."""
    if workload.seed != DEFAULT_SEED or k != 0:
        return []
    return [("digest", sha256(text) == workload.expected["digests"][workload.name])]


def parse_csv(text: str):
    """(header dict, column names, rows as dicts) of a betasched CSV."""
    header: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        header[key] = value
        i += 1
    columns = lines[i].split(",") if i < len(lines) else []
    rows = [dict(zip(columns, line.split(","))) for line in lines[i + 1:]]
    return header, columns, rows


class CliWorkload:
    """A `betasched` subcommand run in-process, its CSV captured from stdout."""

    name = ""
    command = ""
    reps_per_point = 0
    extra_flags: tuple[str, ...] = ()

    def __init__(self, mods, seed: int, expected: dict):
        self.mods = mods
        self.seed = seed
        self.expected = expected
        self.reps = EPS_POINTS * self.reps_per_point
        self.flags = [
            self.command, "--alpha", ALPHA, "--rho", RHO, "--w0", W0, "--w1", W1,
            "--n", str(N_JOBS), "--eps-grid", EPS_GRID, "--jobs", "1", *self.extra_flags,
        ]
        for policy in MC_POLICIES:
            self.flags += ["--policy", policy]
        self.params = {"argv": self.flags + ["--reps", str(self.reps_per_point)],
                       "seed_of_table_k": "seed * 1000000 + k"}

    def inputs(self, k: int, reps_per_point: int = 0):
        reps = reps_per_point or self.reps_per_point
        return self.flags + ["--reps", str(reps), "--seed", str(table_seed(self.seed, k))]

    def warm_up(self) -> None:
        self.product(self.inputs(0, reps_per_point=1), lambda i: None)

    def product(self, argv, mark) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.mods.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"betasched {' '.join(argv)} exited with {code}")
        return out.getvalue()

    def check(self, text: str, k: int):
        header, columns, rows = parse_csv(text)
        results = [
            ("shape", header.get("seed") == str(table_seed(self.seed, k))
             and len(rows) == EPS_POINTS * self.rows_per_point
             and all(r.get("replications") == str(self.reps_per_point) for r in rows)),
        ]
        try:
            results += self.check_rows(rows)
        except (KeyError, ValueError) as exc:  # a malformed value fails the check
            results.append((f"parse: {exc}", False))
        return results + digest_check(self, text, k)


class SweepBatch(CliWorkload):
    name = "sweep-batch"
    command = "sweep"
    reps_per_point = 500  # keeps the n=50 closed forms near 3 % of a table
    rows_per_point = len(MC_POLICIES) + 1

    def check_rows(self, rows):
        analytic = [r["analytic_ratio"] for r in rows]
        monotone = True
        for i in range(0, len(rows), self.rows_per_point):
            block = rows[i:i + self.rows_per_point]
            opt = float(block[0]["mc_mean_ratio"])
            monotone &= block[0]["policy"] == "opt"
            monotone &= all(float(r["mc_mean_ratio"]) >= opt for r in block[1:])
        return [
            ("analytic_ratio independent of the seed",
             analytic == self.expected["sweep_analytic_ratio"]),
            ("policy mean ratio >= opt mean ratio", monotone),
        ]


class ArrivalsPoisson(CliWorkload):
    name = "arrivals-poisson"
    command = "arrivals"
    reps_per_point = 100
    extra_flags = ("--interarrival", "9/10")
    rows_per_point = len(MC_POLICIES)

    def check_rows(self, rows):
        means = [float(r["mc_mean_ratio"]) for r in rows]
        maxes = [float(r["mc_max_ratio"]) for r in rows]
        return [
            ("every ratio >= 1", all(m >= 1.0 for m in means)),
            ("mc_max_ratio >= mc_mean_ratio", all(x >= m for x, m in zip(maxes, means))),
        ]


class AnalyticScaling:
    """Closed forms only: how the exact expectations and ratios scale with n.

    `expected_unconditional` runs at n = 500 + d and 2000 + d, with d drawn
    per table from [0, N_JITTER), so no table repeats an input while the cost
    moves by under 3 %. n = 2000 runs on one error point only, because one
    such call takes seconds.
    """

    name = "analytic-scaling"
    reps = 1  # one replication is one whole table
    N_NOMINAL = {500: ("1/20", "1/10", "1/4"), 2000: ("1/10",)}
    N_JITTER = 8
    TREE = (30, "1/10")  # the tree oracle, checked against the closed form
    CR_POINTS = tuple(Fraction(k, 100) for k in range(51))  # `sweep --cr` 0:0.5:0.01

    def __init__(self, mods, seed: int, expected: dict):
        self.mods = mods
        self.seed = seed
        self.expected = expected
        self.channel = mods.domain.Parameters(ALPHA, W0, W1)
        self.params = {
            "alpha": ALPHA, "rho": RHO, "w0": W0, "w1": W1,
            "expected_unconditional": {f"{n}+d": list(e) for n, e in self.N_NOMINAL.items()},
            "d": f"per table from random.Random('analytic:<seed>:<k>').randrange({self.N_JITTER})",
            "rule_expected_cost": {"n": self.TREE[0], "eps": self.TREE[1], "rule": "beta"},
            "competitive_ratio_eps": "0:0.5:0.01",
        }

    def model(self, eps):
        return self.mods.domain.PredictionModel(RHO, eps, eps)

    def inputs(self, k: int):
        rng = random.Random(f"analytic:{self.seed}:{k}")
        return {n: n + rng.randrange(self.N_JITTER) for n in self.N_NOMINAL}

    def warm_up(self) -> None:
        a = self.mods.analytics
        a.expected_unconditional(N_JOBS, self.model("1/10"), self.channel)
        a.competitive_ratio(self.model("1/10"), self.channel)
        self.mods.engine.rule_expected_cost(4, self.model("1/10"), self.channel, "beta")

    def product(self, sizes, mark) -> str:
        a, e, fmt = self.mods.analytics, self.mods.engine, self.mods.domain.format_fraction
        lines = []
        cell = 0
        tree_n, tree_eps = self.TREE
        points = [(sizes[n], eps) for n, epss in self.N_NOMINAL.items() for eps in epss]
        for n, eps in points + [(tree_n, tree_eps)]:
            mark(cell)
            cell += 1
            p = a.expected_unconditional(n, self.model(eps), self.channel)
            values = (p.opt, p.nonpreemptive, p.preemptive, p.hybrid, p.for_policy("beta"))
            lines.append(",".join(["eu", str(n), eps] + [fmt(v) for v in values]))
        mark(cell)
        cell += 1
        tree = e.rule_expected_cost(tree_n, self.model(tree_eps), self.channel, "beta")
        lines.append(f"tree,{tree_n},{tree_eps},{fmt(tree)}")
        for eps in self.CR_POINTS:
            mark(cell)
            cell += 1
            r = a.competitive_ratio(self.model(eps), self.channel)
            crs = (r.nonpreemptive.value, r.preemptive.value, r.hybrid.value, r.selected)
            lines.append(",".join(["cr", fmt(eps)] + [repr(v) for v in crs] + [r.regime.value]))
        return "\n".join(lines) + "\n"

    def check(self, text: str, k: int):
        rows = [line.split(",") for line in text.splitlines()]
        sizes = self.inputs(k)
        want_n = sorted([str(sizes[n]) for n, epss in self.N_NOMINAL.items() for _ in epss]
                        + [str(self.TREE[0])])
        try:
            eu = {(r[1], r[2]): [Fraction(v) for v in r[3:8]] for r in rows if r[0] == "eu"}
            tree = [r for r in rows if r[0] == "tree"]
            crs = [[float(v) for v in r[2:6]] for r in rows if r[0] == "cr"]
            tree_ok = len(tree) == 1 and eu[(tree[0][1], tree[0][2])][4] == Fraction(tree[0][3])
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            return [(f"parse: {exc}", False)]
        results = [
            ("shape", sorted(n for n, _ in eu) == want_n and len(crs) == len(self.CR_POINTS)),
            ("opt <= every policy expectation",
             all(v[0] <= x for v in eu.values() for x in v[1:])),
            ("tree oracle == closed form for beta", tree_ok),
            ("competitive ratios >= 1, selected is one of them",
             all(min(c) >= 1.0 and c[3] in c[:3] for c in crs)),
        ]
        return results + digest_check(self, text, k)


class PosteriorReveal:
    """Probabilistic-mode batch instances under posterior revelation.

    Each job has a p_hat on the grid k/40; urgent jobs draw k from [8, 40],
    the others from [0, 16], so some p_hat fall below beta = 2/57 and the
    beta rule differs from preemptive. The engine's decision memo is off under
    posterior revelation, so every decision consults the policy.
    """

    name = "posterior-reveal"
    n = 200
    reps = 10
    policies = ("modified-beta", "beta", "preemptive")

    def __init__(self, mods, seed: int, expected: dict):
        self.mods = mods
        self.seed = seed
        self.expected = expected
        self.channel = mods.domain.Parameters(ALPHA, W0, W1)
        self.params = {
            "alpha": ALPHA, "w0": W0, "w1": W1, "rho": RHO, "n": self.n,
            "instances_per_table": self.reps, "policies": list(self.policies),
            "p_hat": "k/40, k from [8,40] if urgent else [0,16]",
            "revelation": "PosteriorRevelation() defaults, rng 'posterior:<seed>:<k>:<i>:<policy>'",
            "baseline": "offline_wspt",
        }

    def inputs(self, k: int):
        d = self.mods.domain
        instances = []
        for i in range(self.reps):
            rng = random.Random(f"posterior:{self.seed}:{k}:{i}")
            jobs = []
            for j in range(1, self.n + 1):
                urgent = rng.random() < 0.1
                grid = rng.randrange(8, 41) if urgent else rng.randrange(0, 17)
                jobs.append(d.make_job(j, 0 if urgent else 1, p_hat=Fraction(grid, 40)))
            instances.append(d.Instance(jobs, self.channel))
        return k, instances

    def warm_up(self) -> None:
        self.product((0, self.inputs(0)[1][:1]), lambda i: None)

    def product(self, inp, mark) -> str:
        k, instances = inp
        e, p, fmt = self.mods.engine, self.mods.policies, self.mods.domain.format_fraction
        lines = []
        for i, inst in enumerate(instances):
            mark(i)
            base = e.offline_wspt(inst, keep_trace=False).total_cost
            lines.append(f"{i},offline_wspt,{fmt(base)},0")
            for name in self.policies:
                rng = random.Random(f"posterior:{self.seed}:{k}:{i}:{name}")
                out = e.run(inst, p.get_policy(name), p.PosteriorRevelation(), rng=rng,
                            keep_trace=False)
                lines.append(f"{i},{name},{fmt(out.total_cost)},{out.preemption_count}")
        return "\n".join(lines) + "\n"

    def check(self, text: str, k: int):
        try:
            rows = [line.split(",") for line in text.splitlines()]
            base = {r[0]: Fraction(r[2]) for r in rows if r[1] == "offline_wspt"}
            runs = [(base[r[0]], Fraction(r[2]), int(r[3])) for r in rows
                    if r[1] != "offline_wspt"]
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            return [(f"parse: {exc}", False)]
        results = [
            ("shape", len(base) == self.reps and len(runs) == self.reps * len(self.policies)),
            ("cost >= offline_wspt cost", all(cost >= b for b, cost, _ in runs)),
            ("preemptions <= n", all(0 <= m <= self.n for _, _, m in runs)),
        ]
        return results + digest_check(self, text, k)


WORKLOADS = {w.name: w for w in (SweepBatch, ArrivalsPoisson, AnalyticScaling, PosteriorReveal)}
