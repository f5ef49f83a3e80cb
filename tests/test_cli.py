import json
import random
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import pytest

from betasched import experiments
from betasched.cli import main
from betasched.domain import dump_instance, sample_instance
from betasched.experiments import (
    ExperimentConfig,
    default_eps_grid,
    run_arrivals,
    run_sweep,
    verify_optimality,
    verify_regimes,
    verify_wsrpt,
)
from betasched.policies import POLICIES, Policy, beta_threshold_decide
from conftest import engine_arrivals_chunk, engine_sweep_chunk

F = Fraction


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

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
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
    ], ids=["headline-eps", "fractional", "n1", "interarrival-1/5", "interarrival-3",
            "interarrival-1e-6"])
    def test_ratios_equal_the_engine_path(self, config):
        """The kernels' ratios are float-equal to the engine's, replication by replication."""
        for gi, (e0, e1) in enumerate(config.eps_pairs):
            args = (config, gi, e0, e1, 0, config.replications)
            assert experiments._arrivals_chunk(*args) == engine_arrivals_chunk(*args)

    def test_equal_release_times_equal_the_engine_path(self, monkeypatch):
        monkeypatch.setattr(random.Random, "expovariate", lambda self, lam: 0.0)
        config = small_config(n=15, replications=100,
                              eps_pairs=((F(1, 10), F(1, 10)), (F(1, 2), F(0))),
                              policies=tuple(POLICIES))
        for gi, (e0, e1) in enumerate(config.eps_pairs):
            args = (config, gi, e0, e1, 0, config.replications)
            assert experiments._arrivals_chunk(*args) == engine_arrivals_chunk(*args)

    def test_any_decide_prices_through_its_label_flags(self, monkeypatch):
        """A decide that is none of the built-ins, under a new name."""
        def wrapped(state, params):
            return beta_threshold_decide(state, params)

        monkeypatch.setitem(POLICIES, "beta-wrapped", Policy("beta-wrapped", wrapped))
        config = small_config(n=20, replications=150, policies=("beta-wrapped", "beta"))
        for gi, (e0, e1) in enumerate(config.eps_pairs):
            args = (config, gi, e0, e1, 0, config.replications)
            got = experiments._arrivals_chunk(*args)
            assert got == engine_arrivals_chunk(*args)
            assert got[0] == got[1]

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


class TestVerifySuites:
    def test_optimality_clean_on_reduced_grid(self):
        grid = {"n": (1, 2, 3), "eps": (F(0), F(3, 10))}
        assert verify_optimality(grid) == []

    def test_optimality_catches_perturbed_threshold(self):
        grid = {"n": (2, 3, 4), "eps": (F(1, 10), F(3, 10))}
        failures = verify_optimality(grid, threshold_shift=F(1, 1000))
        assert failures  # a shifted threshold must lose somewhere on the grid

    def test_wsrpt_suite_clean(self):
        assert verify_wsrpt(instances=120, seed=3) == []

    def test_regimes_suite_clean(self):
        assert verify_regimes(samples=60, seed=3) == []


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
        ("1e308", "release times overflow a float at this mean interarrival"),
    ])
    def test_extreme_interarrival_fails_cleanly(self, capsys, mean, message):
        rc = main(["arrivals", "--n", "20", "--reps", "2", "--eps-grid", "0",
                   "--policy", "beta", "--interarrival", mean])
        out, err = capsys.readouterr()
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

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
        # refused before a point is built: the grid reaches 1 at its second point
        (["--eps-grid", "0:400000:1"], "error rates must lie in [0, 1/2], got 1 in grid"),
        (["--eps-grid=-0.1:0.5:0.1"], "error rates must lie in [0, 1/2], got -1/10 in grid"),
        (["--eps0-grid", "0:0.6:0.05", "--eps1-grid", "0:0.1:0.01"],
         "error rates must lie in [0, 1/2], got 11/20 in grid '0:0.6:0.05'"),
        (["--eps-grid", "0:0.5"], "grid '0:0.5' must be a,b,c or start:stop:step"),
        (["--eps-grid", "0:0.5:0.1:0.1"], "grid '0:0.5:0.1:0.1' must be a,b,c or start:stop:step"),
    ])
    def test_bad_error_grid_fails(self, capsys, grid, message):
        rc = main(["sweep", "--n", "3", "--reps", "5"] + grid)
        out, err = capsys.readouterr()
        assert rc == 2
        assert err.startswith(f"error: {message}")
        assert out == ""

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

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

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

    def test_verify_size_limit_surfaces_cleanly(self, capsys):
        rc = main(["verify", "--n-max", "7", "--instances", "1", "--samples", "1"])
        assert rc == 2
        assert "limit" in capsys.readouterr().err

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


class TestConfigValidation:
    def test_bad_eps_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eps_pairs=((F(3, 5), F(0)),))

    def test_bad_replications(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)

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
