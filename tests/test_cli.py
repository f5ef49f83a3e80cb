import _random
import json
import pickle
import random
from itertools import accumulate, product
from decimal import Decimal, localcontext
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched import cli, engine, experiments
from betasched.analytics import expected_unconditional
from betasched.cli import main
from betasched.domain import (
    MAX_DECIMAL_EXPONENT,
    Parameters,
    PredictionModel,
    dump_instance,
    load_instance,
    sample_instance,
)
from betasched.engine import TREE_N_LIMIT, run, tree_layers
from betasched.errors import ResourceLimitError
from betasched.experiments import (
    ARRIVAL_COLUMNS,
    DEFAULT_OPTIMALITY_GRID,
    SWEEP_COLUMNS,
    ExperimentConfig,
    default_eps_grid,
    render_csv,
    run_arrivals,
    run_sweep,
    verify_optimality,
    verify_regimes,
    verify_wsrpt,
)
from betasched.policies import (
    OPEN_NEXT,
    POLICIES,
    Policy,
    Regime,
    beta_threshold_decide,
    classify_regime,
    label_flags,
)
from conftest import (
    LabelClass,
    draw_class_types,
    engine_arrivals_chunk,
    engine_sweep_chunk,
    tree_expected_costs,
)

F = Fraction


def record_tree_passes(monkeypatch):
    """The channels the verify suite prices: each completed tree pass's arguments."""
    priced = []
    tree_layers = experiments.tree_layers

    def recorded(*args):
        yield from tree_layers(*args)
        priced.append(args)

    monkeypatch.setattr(experiments, "tree_layers", recorded)
    return priced


@pytest.fixture
def inline_pools(monkeypatch):
    """Stand-in for the process pool that runs tasks inline and records each pool."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiments, "_process_pool", InlinePool)
    return pools


def small_config(**kw):
    base = dict(
        n=8,
        eps_pairs=((F(0), F(0)), (F(1, 10), F(1, 10))),
        replications=300,
        seed=5,
        policies=("nonpreemptive", "preemptive", "hybrid", "beta"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSweepDriver:
    def test_rows_and_exact_unity_at_zero_error(self):
        rows = run_sweep(small_config())
        zero = [r for r in rows if r["eps0"] == "0"]
        by_policy = {r["policy"]: r for r in zero}
        assert by_policy["nonpreemptive"]["analytic_ratio"] == "1"
        assert by_policy["hybrid"]["analytic_ratio"] == "1"
        assert by_policy["opt"]["analytic_ratio"] == "1"
        assert float(by_policy["preemptive"]["analytic_ratio"]) > 1

    def test_monte_carlo_tracks_analytic(self):
        rows = run_sweep(small_config(replications=2500))
        for r in rows:
            diff = abs(float(r["mc_mean_ratio"]) - float(r["analytic_ratio"]))
            assert diff <= 5 * float(r["mc_stderr"]) + 1e-12, r

    def test_deterministic_given_seed(self):
        assert run_sweep(small_config()) == run_sweep(small_config())

    def test_worker_count_does_not_change_output(self):
        # enough replications that jobs=2 really starts a two-process pool
        reps = experiments.SWEEP_MIN_REPS_PER_WORKER
        assert run_sweep(small_config(replications=reps, jobs=2)) == \
            run_sweep(small_config(replications=reps, jobs=1))

    def test_one_parameters_per_config(self, monkeypatch):
        """`ExperimentConfig.params` is built with the config and kept: a sweep
        and an arrival run each build one `Parameters` for their config."""
        built = []
        init = Parameters.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Parameters, "__init__", counted)
        config = small_config()
        rows = run_sweep(config)
        assert built == [(config.alpha, config.w0, config.w1)]
        assert run_sweep(config) == rows and len(built) == 1  # kept on the config
        run_arrivals(small_config(replications=40))
        assert len(built) == 2

    @pytest.mark.parametrize("command", [["sweep"], ["arrivals"], ["sweep", "--cr"]],
                             ids=["sweep", "arrivals", "cr"])
    def test_one_model_per_error_point(self, monkeypatch, capsys, command):
        """The config builds each point's `PredictionModel` and every stage reads
        it: the chunks, the closed forms and the rows of the 11-point default grid."""
        built = []
        init = PredictionModel.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PredictionModel, "__init__", counted)
        assert main([*command, "--n", "3", "--reps", "2", "--jobs", "1"]) == 0
        assert capsys.readouterr().err == ""
        assert built == [(F(1, 10), e0, e1) for e0, e1 in default_eps_grid()]

    def test_worker_processes_capped_at_cpu_count(self, monkeypatch, inline_pools):
        """A huge --jobs plans at most one chunk per CPU; no process is started."""
        monkeypatch.setattr(experiments, "SWEEP_MIN_REPS_PER_WORKER", 1)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        spans = experiments._chunks(1000, 100_000)
        assert len(spans) == 3
        assert [s for a, b in spans for s in range(a, b)] == list(range(1000))
        assert run_sweep(small_config(jobs=100_000)) == run_sweep(small_config(jobs=1))
        assert inline_pools and all(w <= 3 for w in inline_pools)
        assert len(inline_pools) == 1  # one pool for the whole grid, not one per point
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments._chunks(1000, 100_000) == [(0, 1000)]

    def test_a_pool_task_does_not_grow_with_the_grid(self, monkeypatch, inline_pools):
        """A task pickles its config with a grid of its own point only, and that
        copy's own model, so the pickle holds the model once."""
        sizes = []

        def worker(*task):  # the inline pool hands the worker the submitted task
            config, gi, model, start, stop = task
            (own,) = config.models
            assert own is model
            sizes[-1].append(len(pickle.dumps(task)))
            return [[gi] * (stop - start)]

        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        for points in (1, 100, 1000):
            sizes.append([])
            config = small_config(eps_pairs=((F(1, 10), F(3, 10)),) * points, replications=4,
                                  jobs=2)
            assert list(experiments._run_grid(worker, config, 1)) == \
                [[[gi] * 4] for gi in range(points)]
            assert len(sizes[-1]) == 2 * points
        assert inline_pools == [2, 2, 2]
        # only the grid index's digits differ
        assert max(sizes[2]) - min(sizes[0]) <= 4

    def test_pool_only_for_enough_work(self, monkeypatch, inline_pools):
        """Small sweeps run in-process; the whole grid's work sets the workers."""
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        tiny = ExperimentConfig(n=50, replications=20, jobs=2)
        assert run_sweep(tiny) == run_sweep(replace(tiny, jobs=1))
        assert inline_pools == []
        # two grid points of this many replications fill exactly two workers
        big = small_config(replications=experiments.SWEEP_MIN_REPS_PER_WORKER, jobs=2)
        assert run_sweep(big) == run_sweep(replace(big, jobs=1))
        assert inline_pools == [2]

        few = small_config(replications=20, jobs=2, policies=("beta",))
        assert run_arrivals(few) == run_arrivals(replace(few, jobs=1))
        assert inline_pools == [2]
        enough = replace(few, replications=experiments.ARRIVALS_MIN_REPS_PER_WORKER)
        assert run_arrivals(enough) == run_arrivals(replace(enough, jobs=1))
        assert inline_pools == [2, 2]

    @pytest.mark.parametrize("config", [
        small_config(seed=0, n=50, eps_pairs=default_eps_grid(), replications=30),
        small_config(seed=7, n=1, eps_pairs=((F(0), F(0)), (F(1, 2), F(1, 2))),
                     replications=200, policies=("preemptive", "beta", "modified-beta")),
        small_config(seed=3, n=9, alpha=F(1, 2), w0=F(3), w1=F(1), rho=F(1, 3),
                     eps_pairs=((F(0), F(1, 2)), (F(1, 2), F(0)), (F(1, 10), F(3, 10))),
                     replications=150, policies=tuple(POLICIES)),
        small_config(seed=11, n=20, alpha=F(3, 5), w0=F(5), w1=F(2), replications=100),
    ], ids=["headline", "n1-collapsed", "tie-asymmetric", "beta1"])
    def test_rows_equal_the_engine_path(self, monkeypatch, config):
        rows = run_sweep(config)
        monkeypatch.setattr(experiments, "_sweep_chunk", engine_sweep_chunk)
        assert rows == run_sweep(config)

    def test_one_price_per_distinct_flag_pair(self, monkeypatch):
        """At eps = 1/10 beta has hybrid's flags, so four policies take three calls."""
        priced = []
        label_schedule_ticks = experiments.label_schedule_ticks

        def counted(classes, flags, alpha_ticks, den):
            priced.append(flags)
            return label_schedule_ticks(classes, flags, alpha_ticks, den)

        monkeypatch.setattr(experiments, "label_schedule_ticks", counted)
        config = small_config(n=20, replications=40, eps_pairs=((F(1, 10), F(1, 10)),))
        args = (config, 0, config.models[0], 0, 40)
        got = experiments._sweep_chunk(*args)
        assert len(priced) == 3 * 40
        assert set(priced) == {(False, False), (True, True), (True, False)}
        assert got[4] == got[3]  # opt first, then the policies in order
        assert got == engine_sweep_chunk(*args)

    @pytest.mark.parametrize("eps", [(0, 0), (F(1, 2), F(1, 2)), (0, F(1, 2)), (F(1, 2), 0),
                                     (F(1, 10), F(3, 10))])
    def test_fused_draw_summarises_the_list_draw(self, eps):
        """`_draw_classes` gives `LabelClass.of` of the list-form draw's classes.

        The next rand() after each draw agrees too, so both consumed the same
        number of draws. At rho near 0 or 1 a class is often empty, and its
        summary must say it does not end urgent.
        """
        e0, e1 = map(float, eps)
        empty = 0
        for n in (1, 2, 50):
            for rho in (1 / 1000, 1 / 10, 999 / 1000):
                for seed in range(500):
                    fused, lists = random.Random(seed), random.Random(seed)
                    got = experiments._draw_classes(fused, n, rho, e0, e1)
                    assert got == tuple(map(LabelClass.of,
                                            draw_class_types(lists, n, rho, e0, e1)))
                    assert fused.random() == lists.random()
                    for size, _, _, ends_urgent in got:
                        if size == 0:
                            assert ends_urgent is False
                            empty += 1
        assert empty > 0

    def test_one_replication_has_no_spread(self, capsys):
        assert main(["sweep", "--n", "5", "--reps", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        stderr = rows[0].index("mc_stderr")
        assert len(rows) == 1 + 11 * 4  # the columns, then opt and three policies per point
        assert {row[stderr] for row in rows[1:]} == {"0"}

    def test_hybrid_at_small_error_beats_both(self):
        rows = run_sweep(small_config(n=20, replications=200))
        tenth = {r["policy"]: float(r["analytic_ratio"]) for r in rows if r["eps0"] == "0.1"}
        assert tenth["hybrid"] <= min(tenth["nonpreemptive"], tenth["preemptive"])


class TestArrivalsDriver:
    def test_columns_and_determinism(self):
        cfg = small_config(replications=150, policies=("beta",))
        rows = run_arrivals(cfg)
        assert {"mc_mean_ratio", "mc_stderr", "mc_max_ratio"} <= set(rows[0])
        assert rows == run_arrivals(cfg)

    def test_ratios_at_least_one(self):
        cfg = small_config(replications=200, policies=("nonpreemptive", "beta"))
        for r in run_arrivals(cfg):
            assert float(r["mc_mean_ratio"]) >= 1.0

    @pytest.mark.parametrize("config", [
        small_config(seed=0, n=50, eps_pairs=((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1, 2), F(0))),
                     replications=60, policies=tuple(POLICIES)),
        small_config(seed=4, n=12, alpha=F(3, 7), w0=F(7, 2), w1=F(3, 4), rho=F(1, 3),
                     eps_pairs=((F(1, 10), F(3, 10)), (F(1, 4), F(0))),
                     replications=150, policies=tuple(POLICIES)),
        small_config(seed=7, n=1, eps_pairs=((F(0), F(0)), (F(1, 2), F(1, 2))),
                     replications=200, policies=tuple(POLICIES)),
        small_config(seed=1, n=20, interarrival=F(1, 5), replications=100,
                     policies=tuple(POLICIES)),
        small_config(seed=2, n=20, interarrival=F(3), replications=100,
                     policies=tuple(POLICIES)),
        small_config(seed=3, n=20, interarrival=F(1, 10 ** 6), replications=100,
                     policies=tuple(POLICIES)),
        small_config(seed=8, n=2, eps_pairs=((F(0), F(0)), (F(1, 4), F(1, 2))),
                     replications=200, policies=tuple(POLICIES)),
        # the first release is subnormal or nearly: its ulp grid is past a float
        small_config(seed=9, n=12, interarrival=F(3, 10 ** 308), replications=60,
                     policies=tuple(POLICIES)),
        # every release is an integer, so the grid is alpha's alone
        small_config(seed=10, n=5, interarrival=F(10 ** 307), replications=100,
                     policies=tuple(POLICIES)),
        # den >> k == 1: alpha's denominator divides 2**k
        small_config(seed=11, n=15, alpha=F(1, 1024), replications=100,
                     policies=tuple(POLICIES)),
        small_config(seed=12, n=15, alpha=F(5, 8), w0=F(9, 4), w1=F(5, 3),
                     eps_pairs=((F(1, 5), F(1, 20)),), replications=100,
                     policies=tuple(POLICIES)),
    ], ids=["headline-eps", "fractional", "n1", "interarrival-1/5", "interarrival-3",
            "interarrival-1e-6", "n2", "interarrival-3e-308", "interarrival-1e307",
            "alpha-1/1024", "alpha-5/8-mixed-weights"])
    def test_ratios_equal_the_engine_path(self, config):
        """The kernels' ratios are float-equal to the engine's, replication by replication."""
        for gi, model in enumerate(config.models):
            args = (config, gi, model, 0, config.replications)
            assert experiments._arrivals_chunk(*args) == engine_arrivals_chunk(*args)

    def test_equal_release_times_equal_the_engine_path(self, monkeypatch):
        # each job draws twice (type, label flip); from draw 2n + 1 on every
        # gap is -log(1.0 - 0.0) / lam = -0.0
        config = small_config(n=15, replications=100,
                              eps_pairs=((F(1, 10), F(1, 10)), (F(1, 2), F(0))),
                              policies=tuple(POLICIES))
        zero_draws(monkeypatch, lambda k: k > 2 * config.n)
        seen = record_release_times(monkeypatch)
        for gi, model in enumerate(config.models):
            args = (config, gi, model, 0, config.replications)
            assert experiments._arrivals_chunk(*args) == engine_arrivals_chunk(*args)
        assert len(seen) == len(config.eps_pairs) * config.replications
        assert all(times == [0.0] * config.n for times in seen)

    def test_zero_first_gap_equals_the_engine_path(self, monkeypatch):
        """Two jobs at 0, so the grid comes from the second gap on."""
        config = small_config(n=10, replications=100, policies=tuple(POLICIES))
        zero_draws(monkeypatch, lambda k: k == 2 * config.n + 1)  # reads the n of the loop
        seen = record_release_times(monkeypatch)
        for n in (2, 10):
            config = replace(config, n=n)
            seen.clear()
            for gi, model in enumerate(config.models):
                args = (config, gi, model, 0, config.replications)
                assert experiments._arrivals_chunk(*args) == engine_arrivals_chunk(*args)
            assert len(seen) == len(config.eps_pairs) * config.replications
            assert all(times[:2] == [0.0, 0.0] for times in seen)
        assert all(times[2] > 0 for times in seen)  # at n = 10 the second gap is drawn

    @pytest.mark.parametrize("interarrival", [F(9, 10), F(1, 5), F(3), F(1, 10 ** 6),
                                              F(3, 10 ** 308), F(10 ** 307)])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_release_times_draw_like_expovariate(self, interarrival, n):
        """Each gap is the float `expovariate` draws, and the stream ends in its state."""
        lam = 1.0 / float(interarrival)
        for seed in range(20):
            inline, stdlib = random.Random(seed), random.Random(seed)
            for _ in range(n - 1):  # one gap at a time: 0.0 + gap is the gap
                assert experiments._release_times(inline.random, 2, lam) == \
                    [0.0, stdlib.expovariate(lam)]
            assert inline.getstate() == stdlib.getstate()
            times = experiments._release_times(inline.random, n, lam)
            gaps = [stdlib.expovariate(lam) for _ in range(n - 1)]
            assert times == list(accumulate(gaps, initial=0.0))
            assert inline.getstate() == stdlib.getstate()

    def test_one_price_per_distinct_flag_pair(self, monkeypatch):
        """At eps = 1/10 beta has hybrid's flags, so four policies take three calls."""
        priced = []
        label_release_ticks = experiments.label_release_ticks

        def counted(classes, flags, alpha_ticks, den):
            priced.append(flags)
            return label_release_ticks(classes, flags, alpha_ticks, den)

        monkeypatch.setattr(experiments, "label_release_ticks", counted)
        config = small_config(n=20, replications=40, eps_pairs=((F(1, 10), F(1, 10)),),
                              policies=("nonpreemptive", "preemptive", "hybrid", "beta"))
        got = experiments._arrivals_chunk(config, 0, config.models[0], 0, 40)
        assert len(priced) == 3 * 40
        assert set(priced) == {(False, False), (True, True), (True, False)}
        assert got[3] == got[2]

    def test_any_decide_prices_through_its_label_flags(self, monkeypatch):
        """A decide that is none of the built-ins, under a new name."""
        def wrapped(state, params):
            return beta_threshold_decide(state, params)

        monkeypatch.setitem(POLICIES, "beta-wrapped", Policy("beta-wrapped", wrapped))
        config = small_config(n=20, replications=150, policies=("beta-wrapped", "beta"))
        for gi, model in enumerate(config.models):
            args = (config, gi, model, 0, config.replications)
            got = experiments._arrivals_chunk(*args)
            assert got == engine_arrivals_chunk(*args)
            assert got[0] == got[1]

    @pytest.mark.parametrize("times, alpha_den, ticks, den", [
        ([0.0, 0.75, 2.5], 5, [0, 15 << 51, 25 << 52], 5 << 53),  # ulp(0.75) = 2**-53
        ([0.0, 0.0], 3, [0, 0], 3),  # no positive release
        ([0.0, 2.0 ** 60, 2.0 ** 61], 3, [0, 3 << 60, 3 << 61], 3),  # ulp(r1) > 1
        ([0.0, 0.5], 1024, [0, 512 << 43], 1 << 53),  # 2**53 a multiple of alpha's den
        # a subnormal r1 (2**1074 is past a float), and 2**660 scaled past a
        # float: each release's own ratio
        ([0.0, 5e-324, 1.0], 1, [0, 1, 1 << 1074], 1 << 1074),
        ([0.0, 0.5 ** 660, 2.0 ** 660], 1, [0, 1, 1 << 1320], 1 << 660),
    ])
    def test_release_ticks_grid(self, times, alpha_den, ticks, den):
        assert experiments._release_ticks(times, alpha_den) == (ticks, den)

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=8),
        alpha_den=st.integers(1, 2000),
    )
    @example(gaps=[5e-324, 1e300], alpha_den=7)
    @example(gaps=[1e-200, 1e300], alpha_den=3)
    @example(gaps=[0.0, 0.0, 3.0], alpha_den=1)
    def test_release_ticks_are_exact(self, gaps, alpha_den):
        """Every release over the chosen grid is an exact integer, one grid or the fallback."""
        times = [0.0]
        for g in gaps:
            times.append(times[-1] + g)
        ticks, den = experiments._release_ticks(times, alpha_den)
        assert den % alpha_den == 0
        assert [F(tick) for tick in ticks] == [F(r) * den for r in times]

    def test_instant_arrivals_approach_batch(self):
        # with interarrival ~ 0 every job is effectively released at once
        eps = ((F(1, 10), F(1, 10)),)
        batch = run_sweep(small_config(eps_pairs=eps, replications=4000, n=6,
                                       policies=("beta",)))
        crowded = run_arrivals(small_config(
            interarrival=F(1, 10 ** 6), eps_pairs=eps,
            replications=4000, n=6, policies=("beta",),
        ))
        b = [r for r in batch if r["policy"] == "beta"][0]
        a = crowded[0]
        tol = 4 * (float(b["mc_stderr"]) + float(a["mc_stderr"])) + 5e-3
        assert abs(float(b["mc_mean_ratio"]) - float(a["mc_mean_ratio"])) <= tol


def zero_draws(monkeypatch, zero):
    """Make `random.Random.random` return 0.0 at each draw k, counted from 1 in
    each stream, for which `zero(k)` holds, and draw as before at the others.

    The draws come from the C base class's method, so a second call replaces
    the first patch instead of wrapping it.
    """
    draw = _random.Random.random

    def patched(rng):
        rng.draws = getattr(rng, "draws", 0) + 1
        return 0.0 if zero(rng.draws) else draw(rng)

    monkeypatch.setattr(random.Random, "random", patched)


def record_release_times(monkeypatch):
    """The list of every release-time list `_arrivals_chunk` draws from now on."""
    seen = []
    release_times = experiments._release_times

    def recorded(rand, n, lam):
        times = release_times(rand, n, lam)
        seen.append(times)
        return times

    monkeypatch.setattr(experiments, "_release_times", recorded)
    return seen


def shifted_beta(shift):
    """The beta rule at threshold beta + shift, under the name `beta`."""
    def decide(state, params):
        if state.unopened.head_priority() > params.beta() + shift:
            return OPEN_NEXT
        return state.interrupted.first_id()

    return Policy("beta", decide)


class TestVerifySuites:
    SHIFTED_GRID = {"n": (2, 3, 4), "eps": (F(1, 10), F(3, 10))}

    def test_optimality_clean_on_reduced_grid(self):
        grid = {"n": (1, 2, 3), "eps": (F(0), F(3, 10))}
        assert verify_optimality(grid) == []

    def test_optimality_catches_perturbed_threshold(self, monkeypatch):
        # the suite reads the rule's label flags, which ask this decide
        monkeypatch.setitem(POLICIES, "beta", shifted_beta(F(1, 1000)))
        failures = verify_optimality(self.SHIFTED_GRID)
        assert failures  # a shifted threshold must lose somewhere on the grid
        assert {f.split()[0] for f in failures} <= {"n=2", "n=3", "n=4"}

    # beta + 1/10 also holds label-0 jobs the optimum probes, so some (channel,
    # n) differ only at roots with a label-0 job
    @pytest.mark.parametrize("shift", [F(1, 1000), F(1, 10)], ids=["shift-1e-3", "shift-1e-1"])
    def test_optimality_failures_match_the_every_n_reference(self, monkeypatch, shift):
        """Exactly the (channel, n) whose expected costs differ, mixed at every n.

        Each line also names the first root state (u0 label-0 jobs, none set
        aside) whose two values differ, and gives them.
        """
        monkeypatch.setitem(POLICIES, "beta", shifted_beta(shift))
        grid = dict(DEFAULT_OPTIMALITY_GRID, **self.SHIFTED_GRID)
        failures = verify_optimality(self.SHIFTED_GRID)
        got = dict(line.split(": ") for line in failures)  # channel and n: the state
        want = []
        for alpha, ratio, rho, e0, e1 in product(grid["alpha"], grid["weight_ratio"], grid["rho"],
                                                 grid["eps"], grid["eps"]):
            params, model = Parameters(alpha, ratio, 1), PredictionModel(rho, e0, e1)
            flags = label_flags(POLICIES["beta"], model, params)
            best = tree_expected_costs(4, model, params, None)
            rule = tree_expected_costs(4, model, params, flags)
            layers = list(zip(tree_layers(4, model, params, None),
                              tree_layers(4, model, params, flags)))
            for n in grid["n"]:
                if best[n - 1] == rule[n - 1]:
                    continue
                want.append(f"n={n} alpha={alpha} w0/w1={ratio} rho={rho} eps0={e0} eps1={e1}")
                if want[-1] not in got:
                    continue  # the last assertion reports it
                # "at u0=<u0> optimal <value> != rule <value>"
                _, u0, _, opt_value, _, _, rule_value = got[want[-1]].split()
                u0 = int(u0.removeprefix("u0="))
                (opt_rows, den), (rule_rows, _) = layers[n - 1]
                assert [row[0] for row in opt_rows[:u0]] == [row[0] for row in rule_rows[:u0]]
                assert F(opt_value) == F(opt_rows[u0][0], den) != F(rule_value) == \
                    F(rule_rows[u0][0], den)
        assert [line.split(": ")[0] for line in failures] == want
        assert len(want) > 1

    @pytest.mark.parametrize("sizes, error, message", [
        ((1, TREE_N_LIMIT + 1), ResourceLimitError, "exceeds the limit"),
        ((3, 0, 2), ValueError, "n must be at least 1"),
    ])
    def test_optimality_checks_every_size_before_any_channel(self, monkeypatch, sizes, error,
                                                              message):
        priced = record_tree_passes(monkeypatch)
        with pytest.raises(error, match=message):
            verify_optimality({"n": sizes})
        assert priced == []

    def test_each_channel_takes_two_passes_to_the_largest_n(self, monkeypatch):
        priced = record_tree_passes(monkeypatch)
        grid = {"n": (1, 3), "alpha": (F(2, 5),), "weight_ratio": (20,), "rho": (F(1, 10),),
                "eps": (F(0),)}
        assert verify_optimality(grid) == []
        assert [args[0] for args in priced] == [3, 3]

    def test_wsrpt_suite_clean(self):
        assert verify_wsrpt(instances=120, seed=3) == []

    def test_wsrpt_suite_catches_a_kernel_one_tick_off(self, monkeypatch, capsys):
        kernel = engine.wsrpt_release_ticks

        def late(*args):  # one more tick on the urgent sum: every cost moves
            s0, s1 = kernel(*args)
            return s0 + 1, s1

        # the arrival sweeps and offline_wsrpt_cost share this kernel
        monkeypatch.setattr(engine, "wsrpt_release_ticks", late)
        failures = verify_wsrpt(instances=30, seed=3)
        assert len(failures) == 30
        assert all(f.startswith("wsrpt ") for f in failures)
        rc = main(["verify", "--n-max", "1", "--instances", "30", "--samples", "5"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert out[0] == "PASS optimality"
        assert out[1] == "FAIL wsrpt: 30 failing case(s)"
        assert out[-1] == "PASS regimes"

    def test_regimes_suite_clean(self):
        assert verify_regimes(samples=60, seed=3) == []

    def test_regimes_suite_catches_a_wrong_regime(self, monkeypatch, capsys):
        """Each failure names the regime and dumps an instance that reads back."""
        def wrong(model, params):  # the next regime after the true one
            regimes = list(Regime)
            return regimes[(regimes.index(classify_regime(model, params)) + 1) % 3]

        monkeypatch.setattr(experiments, "classify_regime", wrong)
        failures = verify_regimes(samples=40, seed=3)
        assert failures
        for line in failures:
            head, dump = line.split(" on:\n")
            regime = head.removeprefix("regime ").split(":")[0]
            assert head == (f"regime {regime}: threshold-rule trace differs from {regime}")
            inst = load_instance(dump)
            assert dump_instance(inst) == dump
            assert wrong(inst.model, inst.params).value == regime
            assert run(inst, POLICIES["beta"]).trace != run(inst, POLICIES[regime]).trace
        rc = main(["verify", "--n-max", "1", "--instances", "1", "--samples", "40", "--seed", "3"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert out[:2] == ["PASS optimality", "PASS wsrpt"]
        assert out[2] == f"FAIL regimes: {len(failures)} failing case(s)"


class TestCliCommands:
    def test_sweep_csv_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--n", "6", "--reps", "100", "--seed", "3",
            "--eps-grid", "0,0.1", "--policy", "beta", "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("# mode=sweep")
        header_lines = [l for l in text.splitlines() if l.startswith("#")]
        assert any("alpha=2/5" in l for l in header_lines)
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "eps0,eps1,policy,analytic_ratio,mc_mean_ratio,mc_stderr,replications"
        assert len(rows) == 1 + 2 * 2  # header + (opt, beta) x 2 grid points

    def test_sweep_rerun_byte_identical(self, tmp_path):
        args = ["sweep", "--n", "5", "--reps", "80", "--seed", "9",
                "--eps-grid", "0:0.1:0.05"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--n", "4", "--reps", "50", "--eps-grid", "0.1",
                   "--policy", "beta", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["mode"] == "sweep"
        assert doc["rows"][0]["policy"] == "opt"

    def test_cr_sweep(self, tmp_path):
        out = tmp_path / "cr.csv"
        rc = main(["sweep", "--cr", "--eps-grid", "0.02,0.1", "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "eps0,eps1,policy,cr,worst_q,regime"
        # eps = 0.02 <= w1/w0 puts the preemptive curve on its flat branch
        pre = [l for l in lines if l.startswith("0.02,0.02,preemptive")][0]
        assert float(pre.split(",")[3]) == pytest.approx(1.4, abs=1e-12)

    def test_arrivals_command(self, tmp_path):
        out = tmp_path / "arr.csv"
        rc = main(["arrivals", "--n", "5", "--reps", "60", "--eps-grid", "0",
                   "--policy", "beta", "--interarrival", "0.9", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert any(l.startswith("# interarrival=9/10") for l in lines)

    @pytest.mark.parametrize("mean, message", [
        ("1e400", "mean interarrival must round to a positive finite float"),
        ("1e-400", "mean interarrival must round to a positive finite float"),
        # a positive float whose reciprocal overflows would draw every gap as 0
        ("1e-320", "mean interarrival is too small: its rate 1/mean overflows a float"),
        ("5e-309", "mean interarrival is too small: its rate 1/mean overflows a float"),
        ("1e308", "release times overflow a float at this mean interarrival"),
        ("1/0", "zero denominator in '1/0'"),
    ])
    def test_extreme_interarrival_fails_cleanly(self, capsys, mean, message):
        rc = main(["arrivals", "--n", "20", "--reps", "2", "--eps-grid", "0",
                   "--policy", "beta", "--interarrival", mean])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("argv, message", [
        # the costs themselves overflow from about 1e307 on (1e306 still runs)
        (["sweep", "--reps", "3", "--w0", "1e307"], "costs overflow a float at these weights"),
        (["sweep", "--reps", "3", "--w0", "1e400"], "costs overflow a float at these weights"),
        (["sweep", "--cr", "--w0", "1e400"],
         "competitive ratios overflow a float at these weights"),
    ])
    def test_huge_weights_fail_cleanly(self, capsys, argv, message):
        rc = main(argv + ["--eps-grid", "0.1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["arrivals", "--reps", "3", "--w0", "1e200"],
        ["arrivals", "--reps", "3", "--w0", "1e400"],
        ["sweep", "--cr", "--w0", "1e200"],
        ["sweep", "--reps", "3", "--w0", "1e200"],
        # w0 and w1 1e-300 apart: the worst urgent fraction's r + r^2 overflows
        ["sweep", "--cr", "--alpha", "1e-300", "--w0", "1", "--w1", "0." + "9" * 300],
        # w0 and w1 1e-200 apart: the hybrid's lambda is 3.2e198
        ["sweep", "--cr", "--w0", "1", "--w1", "0." + "9" * 200],
    ])
    def test_huge_weights_that_fit_still_run(self, capsys, argv):
        assert main(argv + ["--eps-grid", "0.1"]) == 0
        assert capsys.readouterr().err == ""

    # at 1e200 only the squared deviations overflow, at 1e306 the sum as well
    @pytest.mark.parametrize("w0", ["1e200", "1e306"])
    def test_huge_weight_statistics_are_the_exact_ones(self, capsys, monkeypatch, w0):
        chunks = []
        sweep_chunk = experiments._sweep_chunk

        def recording(config, *args):
            chunks.append((config, args, sweep_chunk(config, *args)))
            return chunks[-1][2]

        monkeypatch.setattr(experiments, "_sweep_chunk", recording)
        assert main(["sweep", "--reps", "3", "--w0", w0, "--eps-grid", "0.1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        (config, (_, model, _, _), costs), = chunks
        opt = float(expected_unconditional(config.n, model, config.params).opt)
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith(("#", "eps0,"))]
        assert [r[2] for r in rows] == ["opt", *config.policies]
        with localcontext() as ctx:
            ctx.prec = 40
            for row, values in zip(rows, costs):
                exact = [F(v) for v in values]
                mean = sum(exact) / len(exact)
                var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1) / len(exact)
                want_mean = Decimal(mean.numerator) / mean.denominator / Decimal(opt)
                want_stderr = (Decimal(var.numerator) / var.denominator).sqrt() / Decimal(opt)
                # the CSV keeps 12 significant digits
                assert abs(Decimal(row[4]) / want_mean - 1) < Decimal("1e-11")
                assert abs(Decimal(row[5]) / want_stderr - 1) < Decimal("1e-11")

    def test_independent_error_grids(self, tmp_path):
        out = tmp_path / "asym.csv"
        rc = main(["sweep", "--n", "4", "--reps", "40",
                   "--eps0-grid", "0,0.1", "--eps1-grid", "0.2,0.3",
                   "--policy", "beta", "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("eps0,")]
        pairs = {(r.split(",")[0], r.split(",")[1]) for r in rows}
        assert pairs == {("0", "0.2"), ("0.1", "0.3")}

    def test_mismatched_error_grids_fail(self, capsys):
        rc = main(["sweep", "--eps0-grid", "0,0.1", "--eps1-grid", "0.2"])
        assert rc == 2
        assert "same length" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        ["--eps-grid", "0.5:0:0.05"],
        ["--eps-grid", ","],
        ["--eps-grid", ""],
        ["--eps0-grid", ",", "--eps1-grid", ","],
        ["--eps0-grid", "0.2:0.1:0.05", "--eps1-grid", "0.2:0.1:0.05"],
    ])
    def test_empty_error_grid_fails(self, capsys, grid):
        rc = main(["sweep", "--n", "3", "--reps", "5"] + grid)
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith("error: error grid") and "no points" in err
        assert out == ""

    @pytest.mark.parametrize("grid, message", [
        # 400 001 points: refused by its count before a point is built
        (["--eps-grid", "0:400000:1"], "grid '0:400000:1' has more than 10000 points"),
        # the first point outside [0, 1/2], refused by its model as the config is built
        (["--eps-grid=-0.1:0.5:0.1"], "eps0 must lie in [0, 1/2], got -1/10"),
        (["--eps0-grid", "0:0.6:0.05", "--eps1-grid", "0:0.12:0.01"],
         "eps0 must lie in [0, 1/2], got 11/20"),
        (["--eps-grid", "0:0.5"], "grid '0:0.5' must be a,b,c or start:stop:step"),
        (["--eps-grid", "0:0.5:0.1:0.1"], "grid '0:0.5:0.1:0.1' must be a,b,c or start:stop:step"),
        (["--eps-grid", "1/0"], "zero denominator in '1/0'"),
        (["--eps-grid", "0:1/0:0.1"], "zero denominator in '1/0'"),
    ])
    def test_bad_error_grid_fails(self, capsys, grid, message):
        rc = main(["sweep", "--n", "3", "--reps", "5"] + grid)
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith(f"error: {message}")
        assert out == ""

    @pytest.mark.parametrize("source", ["eps", "eps0-eps1", "config"])
    def test_huge_range_grid_is_refused_before_a_point_is_built(self, tmp_path, capsys, source):
        # 5 * 10**299 points: counted from the three Fractions, never built
        grid = "0:0.5:1e-300"
        if source == "config":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"eps-grid={grid}\n")
            flags = ["--config", str(cfg)]
        elif source == "eps":
            flags = ["--eps-grid", grid]
        else:
            flags = ["--eps0-grid", grid, "--eps1-grid", "0.1"]
        rc = main(["sweep", "--reps", "1", "--n", "3"] + flags)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: grid '{grid}' has more than {cli.GRID_POINT_LIMIT} points\n"

    @pytest.mark.parametrize("flag, value", [("--alpha", "1e4000000"), ("--w1", "1e-400000"),
                                             ("--eps-grid", "0.1,1E1001")])
    def test_huge_decimal_exponent_flag_fails_cleanly(self, capsys, flag, value):
        # refused before 10**exponent is built, with a message that prints
        rc = main(["sweep", "--reps", "1", "--n", "3", "--eps-grid", "0.1", flag, value])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: decimal exponent of '1") and err.endswith(
            f" is outside [-{MAX_DECIMAL_EXPONENT}, {MAX_DECIMAL_EXPONENT}]\n")

    @pytest.mark.parametrize("flag, value", [("--alpha", "1/0"), ("--w0", "3/0"), ("--rho", "0/0")])
    def test_zero_denominator_flag_fails_cleanly(self, capsys, flag, value):
        rc = main(["sweep", "--reps", "2", "--eps-grid", "0.1", flag, value])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: zero denominator in '{value}'\n"

    def test_grid_point_limit_is_exact(self):
        limit = cli.GRID_POINT_LIMIT
        step = Fraction(1, 2 * limit)
        assert len(cli._parse_grid(f"0:{(limit - 1) * step}:{step}")) == limit
        with pytest.raises(ResourceLimitError, match=f"more than {limit} points"):
            cli._parse_grid(f"0:{limit * step}:{step}")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--n", "1", "--reps", "1000000000000", "--eps-grid", "0.1"],
         "1000000000000 replications per error point exceed the limit 1000000"),
        (["arrivals", "--n", "1", "--reps", "1000000000000", "--eps-grid", "0.1"],
         "1000000000000 replications per error point exceed the limit 1000000"),
        (["arrivals", "--n", "1000000000", "--reps", "1"],
         "an arrival instance of 1000000000 jobs exceeds the limit 1000000"),
        (["sweep", "--n", "1000000000", "--reps", "1", "--eps-grid", "0.1", "--policy", "beta"],
         "a batch instance of 1000000000 jobs exceeds the limit 1000000"),
    ], ids=["sweep-reps", "arrivals-reps", "arrivals-n", "sweep-n"])
    def test_oversized_run_is_refused_before_it_allocates(self, capsys, argv, message):
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--eps-grid", "0:0.5:0"], "grid step must be positive"),
        (["sweep", "--eps0-grid", "0,0.1"], "--eps0-grid and --eps1-grid must be given together"),
        (["sweep", "--n", "0"], "n must be at least 1"),
        (["arrivals", "--interarrival", "0"], "mean interarrival must be positive"),
        (["arrivals", "--interarrival", "-1"], "mean interarrival must be positive"),
        (["sweep", "--jobs", "0"], "jobs must be at least 1"),
    ], ids=["zero-step", "eps0-grid-alone", "no-jobs", "zero-interarrival",
            "negative-interarrival", "no-workers"])
    def test_refusal_message_is_exact(self, capsys, argv, message):
        rc = main(argv + ["--reps", "1"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_grid_stop_past_half_without_a_point_there_runs(self, capsys):
        rc = main(["sweep", "--n", "3", "--reps", "5", "--eps-grid", "0:0.55:0.25"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert [row[0] for row in rows if row[2] == "beta"] == ["0", "0.25", "0.5"]

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=4\nreps=40\nseed=2\neps-grid=0.1\npolicy=beta\n")
        out1 = tmp_path / "o1.csv"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        assert "# n=4" in out1.read_text()
        out2 = tmp_path / "o2.csv"
        main(["sweep", "--config", str(cfg), "--n", "6", "--out", str(out2)])
        assert "# n=6" in out2.read_text()

    def test_config_line_without_a_value_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=3\nbogus\n")
        rc = main(["sweep", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", "error: bad config line 'bogus'\n")

    def test_config_comment_and_blank_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a comment-only line\n\nn=3  # jobs per instance\nreps=2\n"
                       "eps-grid=0.1\npolicy=beta\n")
        rc = main(["sweep", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert "# n=3\n# replications=2\n" in out

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command, driver, columns, reps", [
        ("sweep", "run_sweep", SWEEP_COLUMNS, 100_000),
        ("arrivals", "run_arrivals", ARRIVAL_COLUMNS, 10_000),
    ])
    def test_bare_command_takes_the_config_defaults(self, monkeypatch, capsys, command, driver,
                                                    columns, reps):
        seen = []
        monkeypatch.setattr(cli, driver, lambda config: seen.append(config) or [])
        assert main([command]) == 0
        want = ExperimentConfig(replications=reps)
        assert seen == [want]
        assert capsys.readouterr().out == render_csv(want.header(command), columns, [])

    @pytest.mark.parametrize("command", ["sweep", "arrivals"])
    def test_policy_named_twice_fails(self, capsys, command):
        rc = main([command, "--n", "3", "--reps", "5", "--eps-grid", "0.1",
                   "--policy", "beta", "--policy", "preemptive", "--policy", "beta"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == "error: policy named twice: beta\n"
        assert out == ""

    def test_verify_quick(self, capsys):
        rc = main(["verify", "--n-max", "3", "--instances", "40", "--samples", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("flag, value", [
        ("--n-max", "0"), ("--n-max", "-1"), ("--instances", "0"), ("--samples", "-3"),
    ])
    def test_verify_rejects_empty_sizes(self, capsys, flag, value):
        rc = main(["verify", flag, value])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith(f"error: {flag} must be at least 1")
        assert "PASS" not in out

    def test_verify_size_limit_surfaces_cleanly(self, capsys, monkeypatch):
        priced = record_tree_passes(monkeypatch)
        rc = main(["verify", "--n-max", str(TREE_N_LIMIT + 1), "--instances", "1",
                   "--samples", "1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == (f"error: the decision tree over {TREE_N_LIMIT + 1} jobs "
                       f"exceeds the limit {TREE_N_LIMIT}\n")
        assert out == ""
        assert priced == []

    def test_run_one_trace(self, tmp_path, capsys, base_params, base_model):
        from conftest import worked_example_instance

        inst = worked_example_instance(base_params, base_model)
        path = tmp_path / "inst.txt"
        path.write_text(dump_instance(inst))
        rc = main(["run-one", str(path), "--policy", "beta"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "0,open,1,0"
        assert "total_cost,1637/5" in out
        assert "preemptions,2" in out

    def test_run_one_posterior_revelation(self, tmp_path, capsys, base_params, base_model):
        inst = sample_instance(6, base_model, base_params, seed=2)
        path = tmp_path / "inst.txt"
        path.write_text(dump_instance(inst))
        rc = main(["run-one", str(path), "--policy", "modified-beta",
                   "--revelation", "posterior", "--seed", "4", "--against-wsrpt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wsrpt_cost," in out

    def test_run_one_reports_log_loss_for_estimates(self, tmp_path, capsys, base_params):
        from betasched.domain import Instance, make_job

        jobs = [make_job(1, 0, p_hat="1/2"), make_job(2, 1, p_hat="1/2")]
        path = tmp_path / "prob.txt"
        path.write_text(dump_instance(Instance(jobs, base_params)))
        rc = main(["run-one", str(path), "--policy", "beta"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "log_loss,0.69314718056" in out  # ln 2, 12 significant digits
        assert "log_loss_clamped,0" in out

    def test_bad_instance_path_is_reported(self, capsys):
        rc = main(["run-one", "/nonexistent/file"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, row, message", [
        ("weird", "1,0,0,0", "unknown mode 'weird'"),
        ("binary", "1,0,0,0", "binary instance file needs rho/eps0/eps1 in the header"),
        ("probabilistic", "1,0,1/2", "bad job row '1,0,1/2'"),
    ], ids=["unknown-mode", "binary-without-channel", "three-fields"])
    def test_bad_instance_file_message_is_exact(self, tmp_path, capsys, mode, row, message):
        path = tmp_path / "inst.txt"
        path.write_text(f"# alpha=2/5\n# w0=20\n# w1=1\n# mode={mode}\n{row}\n")
        rc = main(["run-one", str(path)])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_blank_line_between_instance_rows_is_skipped(self, tmp_path, capsys, base_params,
                                                          base_model):
        text = dump_instance(sample_instance(4, base_model, base_params, seed=2))
        plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
        plain.write_text(text)
        lines = text.splitlines()
        spaced.write_text("\n".join(lines[:-2] + ["", "   "] + lines[-2:]) + "\n")
        assert main(["run-one", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["run-one", str(spaced)]) == 0
        assert capsys.readouterr() == (want, "")
        assert "total_cost," in want

    @pytest.mark.parametrize("header, row, text", [
        ("alpha=2/5", "1,0,1/0,0", "1/0"),  # p_hat
        ("alpha=2/5", "1,0,1/2,3/0", "3/0"),  # release time
        ("alpha=1/0", "1,0,1/2,0", "1/0"),
    ])
    def test_zero_denominator_in_instance_fails_cleanly(self, tmp_path, capsys, header, row, text):
        path = tmp_path / "inst.txt"
        path.write_text(f"# {header}\n# w0=20\n# w1=1\n# mode=probabilistic\n"
                        f"# columns=id,true_type,prediction,release_time\n{row}\n")
        rc = main(["run-one", str(path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == f"error: zero denominator in '{text}'\n"


class TestConfigValidation:
    @pytest.mark.parametrize("fields, message", [
        ({"alpha": F(3, 2)}, "alpha must lie strictly in (0,1), got 3/2"),
        ({"w0": F(1), "w1": F(1)}, "weights must satisfy w0 > w1 > 0, got w0=1, w1=1"),
        ({"w0": F(1), "w1": F(2)}, "weights must satisfy w0 > w1 > 0, got w0=1, w1=2"),
        ({"rho": F(2)}, "rho must lie strictly in (0,1), got 2"),
        # the second point's rate: every point is checked, not just the first
        ({"eps_pairs": ((F(0), F(0)), (F(3, 5), F(3, 5)))}, "eps0 must lie in [0, 1/2], got 3/5"),
        ({"eps_pairs": ((F(0), F(-1, 10)),)}, "eps1 must lie in [0, 1/2], got -1/10"),
    ], ids=["alpha", "equal-weights", "w0-below-w1", "rho", "eps0-second-point", "eps1"])
    def test_the_config_refuses_a_bad_channel(self, fields, message):
        """The config itself refuses, with the domain type's own message, so a
        sweep stops before its first chunk and any pool."""
        with pytest.raises(ValueError) as info:
            small_config(**fields)
        assert str(info.value) == message

    def test_bad_eps_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eps_pairs=((F(3, 5), F(0)),))

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)

    def test_replication_limit_is_exact(self):
        """The grid refuses a count past the limit before its worker ever runs."""
        calls = []

        def worker(config, gi, model, start, stop):
            calls.append((start, stop))
            return [[]]

        limit = experiments.REPLICATION_LIMIT
        past = ExperimentConfig(replications=limit + 1, eps_pairs=((F(0), F(0)),))
        with pytest.raises(ResourceLimitError, match=f"^{limit + 1} replications per error"):
            next(experiments._run_grid(worker, past, 1))
        assert calls == []
        at_limit = replace(past, replications=limit)
        assert list(experiments._run_grid(worker, at_limit, 1)) == [[[]]]
        assert calls == [(0, limit)]

    def test_a_cr_sweep_takes_any_replication_count(self, tmp_path):
        """A cr sweep draws nothing, so the replication limit is not its concern."""
        rows = {}
        for reps in ("1", "1000001"):
            out = tmp_path / f"cr-{reps}.csv"
            assert main(["sweep", "--cr", "--reps", reps, "--eps-grid", "0,0.1",
                         "--out", str(out)]) == 0
            rows[reps] = [line for line in out.read_text().splitlines()
                          if not line.startswith("#")]
        assert len(rows["1"]) == 1 + 2 * 4  # the columns, then four rows per point
        assert rows["1000001"] == rows["1"]

    def test_arrival_n_limit_is_exact(self, monkeypatch):
        # no grid runs, so an instance at the limit is never drawn
        monkeypatch.setattr(experiments, "_run_grid", lambda *args: iter(()))
        limit = experiments.ARRIVAL_N_LIMIT
        assert run_arrivals(ExperimentConfig(n=limit)) == []
        with pytest.raises(ResourceLimitError, match=f"of {limit + 1} jobs exceeds the limit"):
            run_arrivals(ExperimentConfig(n=limit + 1))

    def test_sweep_n_limit_is_exact(self, monkeypatch):
        # no grid runs, so an instance at the limit is never drawn
        monkeypatch.setattr(experiments, "_run_grid", lambda *args: iter(()))
        limit = experiments.SWEEP_N_LIMIT
        assert run_sweep(ExperimentConfig(n=limit)) == []
        with pytest.raises(ResourceLimitError, match=f"^a batch instance of {limit + 1} jobs "):
            run_sweep(ExperimentConfig(n=limit + 1))

    def test_unknown_policy(self):
        with pytest.raises(Exception):
            ExperimentConfig(policies=("nope",))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="error grid has no points"):
            run_sweep(ExperimentConfig(eps_pairs=(), n=3, replications=2))

    def test_absent_grid_is_the_default(self):
        assert ExperimentConfig().eps_pairs == default_eps_grid()
        assert ExperimentConfig(eps_pairs=None).eps_pairs == default_eps_grid()

    def test_default_grid_shape(self):
        grid = default_eps_grid()
        assert len(grid) == 11
        assert grid[0] == (0, 0)
        assert grid[-1] == (F(1, 2), F(1, 2))
