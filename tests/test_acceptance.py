"""End-to-end acceptance suite.

One test per headline guarantee, each enforced at its stated tolerance and
reported on its own line (run with -s to see the checklist). The Monte Carlo
comparison is the slowest test: about 40 s of a 47 s run on 2 vCPUs.
"""

import random
import time
from fractions import Fraction

from betasched.analytics import (
    alpha_point_cr_bound,
    cr_hybrid,
    cr_nonpreemptive,
    cr_preemptive,
    expected_unconditional,
    hybrid_mix_coefficient,
)
from betasched.domain import (
    Instance,
    Job,
    Parameters,
    PredictionModel,
    sample_instance,
    to_fraction,
)
from betasched.engine import offline_wspt, offline_wsrpt_cost, run
from betasched.experiments import (
    ExperimentConfig,
    run_arrivals,
    run_sweep,
    verify_optimality,
    verify_wsrpt,
)
from betasched.policies import get_policy
from conftest import coupled_grid, satisfies_weight_gap, search_worst_q

F = Fraction


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


class TestAcceptance:
    def test_01_threshold_rule_matches_exhaustive_optimum(self):
        """Exact optimality at every n <= 50 on the full channel grid, under a minute."""
        start = time.perf_counter()
        failures = verify_optimality()
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60
        report("exhaustive-optimality (exact, zero tolerance)", ok,
               f"{elapsed:.1f}s, {len(failures)} mismatches")
        assert failures == []
        assert elapsed < 60

    def test_02_closed_form_matches_simulation(self):
        """Reference error sweep: analytic means vs 1e5-replication Monte Carlo."""
        config = ExperimentConfig(
            alpha=F(2, 5), rho=F(1, 10), w0=F(20), w1=F(1), n=50,
            replications=100_000, seed=0,
            policies=("nonpreemptive", "preemptive", "hybrid"),
            jobs=2,  # the rows do not depend on the worker count
        )
        rows = run_sweep(config)
        within = 0
        total = 0
        worst = 0.0
        for r in rows:
            total += 1
            gap = abs(float(r["mc_mean_ratio"]) - float(r["analytic_ratio"]))
            se = float(r["mc_stderr"])
            if gap <= 3 * se:
                within += 1
            if se > 0:
                worst = max(worst, gap / se)
        frac = within / total
        ok = frac >= 0.95
        report("closed-form vs Monte Carlo (3 SE at >= 95% of grid)", ok,
               f"{within}/{total} within 3 SE, worst gap {worst:.2f} SE")
        assert ok

    def test_03_perfect_predictions_recover_optimum(self):
        """At zero error the nonpreemptive and hybrid schedules are optimal, exactly."""
        rng = random.Random(303)
        checked = 0
        bad = 0
        for _ in range(400):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 50), 1)
            model = PredictionModel(F(rng.randint(1, 9), 10), 0, 0)
            inst = sample_instance(rng.randint(1, 40), model, params,
                                   seed=rng.randrange(10 ** 9))
            opt = offline_wspt(inst, keep_trace=False).total_cost
            for policy in ("nonpreemptive", "hybrid"):
                checked += 1
                cost = run(inst, get_policy(policy), keep_trace=False).total_cost
                if cost != opt:
                    bad += 1
        report("perfect predictions recover the clairvoyant optimum (exact)",
               bad == 0, f"{checked} schedule comparisons")
        assert bad == 0

    def test_04_no_false_positives_collapse(self):
        """With eps1 = 0 the hybrid schedule is the nonpreemptive schedule."""
        rng = random.Random(404)
        bad = 0
        for _ in range(1000):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 50), 1)
            model = PredictionModel(
                F(rng.randint(1, 9), 10), F(rng.randint(0, 10), 20), 0
            )
            inst = sample_instance(rng.randint(1, 25), model, params,
                                   seed=rng.randrange(10 ** 9))
            a = run(inst, get_policy("hybrid"))
            b = run(inst, get_policy("nonpreemptive"))
            if a.trace != b.trace:
                bad += 1
        report("zero false positives: hybrid trace == nonpreemptive trace",
               bad == 0, "1000 instances")
        assert bad == 0

    def test_05_competitive_ratio_formulas(self):
        """Flat branch exact; bound and mix-coefficient inequalities; search match."""
        # (a) the preemptive ratio is exactly 1+alpha on its flat branch
        flat_ok = True
        for alpha_k in (1, 5, 10, 15):
            for w0 in (3, 20, 100):
                params = Parameters(F(alpha_k, 20), w0, 1)
                for eps_num in range(0, w0 + 1, max(1, w0 // 4)):
                    eps = F(eps_num, 2 * w0)  # runs up to w1/w0 inclusive
                    if eps > F(1, 2):
                        continue
                    m = PredictionModel(F(1, 10), eps, eps)
                    if (m.eps0 + m.eps1) / 2 <= F(1, w0):
                        got = cr_preemptive(m, params).value
                        flat_ok &= got == float(1 + params.alpha)

        # (b) decomposition bound and lambda/2 <= eps over a weight-gap grid
        grid_points = 0
        bound_ok = True
        lam_ok = True
        for alpha_k in (1, 3, 5, 8, 12):
            for w0 in (3, 5, 20, 100):
                params = Parameters(F(alpha_k, 20), w0, 1)
                if not satisfies_weight_gap(params):
                    continue
                for e0_k in range(11):
                    for e1_k in range(11):
                        m = PredictionModel(F(1, 10), F(e0_k, 20), F(e1_k, 20))
                        grid_points += 1
                        h = cr_hybrid(m, params)
                        bound_ok &= h.value <= h.decomposition_bound + 1e-12
                        lam = hybrid_mix_coefficient(m, params)
                        lam_ok &= lam / 2 <= (m.eps0 + m.eps1) / 2  # exact rational check

        # (c) numeric search over q reproduces the closed-form values
        search_ok = True
        rng = random.Random(505)
        closed_checked = 0
        while closed_checked < 25:
            params = Parameters(F(rng.randint(1, 19), 20), rng.randint(2, 100), 1)
            if not satisfies_weight_gap(params):
                continue
            m = PredictionModel(
                F(rng.randint(1, 19), 20),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            for kind, closed in (
                ("nonpreemptive", cr_nonpreemptive(m, params).value),
                ("preemptive", cr_preemptive(m, params).value),
                ("hybrid", cr_hybrid(m, params).value),
            ):
                _, found = search_worst_q(kind, m, params)
                search_ok &= abs(found - closed) <= 1e-6
            closed_checked += 1

        ok = flat_ok and bound_ok and lam_ok and search_ok and grid_points >= 1000
        report("competitive-ratio formulas (flat branch, bounds, 1e-6 search)", ok,
               f"{grid_points} grid points")
        assert flat_ok
        assert bound_ok
        assert lam_ok
        assert search_ok
        assert grid_points >= 1000

    def test_06_preemptive_oracle_equivalence(self):
        """Clairvoyant preemptive schedule equals exhaustive search, exactly."""
        failures = verify_wsrpt(instances=1000, seed=606)
        report("release-date schedule vs exhaustive search (exact)",
               not failures, "1000 instances")
        assert failures == []

    def test_07_known_types_arrival_bound(self):
        """Reveal-point-limited preemption stays within max(1+a, 2/(1+a))."""
        all_ok = True
        details = []
        for alpha_text in ("0.25", "0.41421356", "0.7"):
            alpha = to_fraction(alpha_text)
            params = Parameters(alpha, 20, 1)
            bound = alpha_point_cr_bound(alpha)
            rng = random.Random(f"bound:{alpha_text}")
            worst = 0.0
            sandwich_ok = True
            for _ in range(10_000):
                n = rng.randint(1, 12)
                jobs = []
                t = 0.0
                for i in range(1, n + 1):
                    tt = rng.randint(0, 1)
                    jobs.append(Job(i, tt, tt, release_time=F(t)))
                    t += rng.expovariate(1 / 0.9)
                model = PredictionModel(F(1, 2), 0, 0)
                inst = Instance(jobs, params, model)
                cost = run(inst, get_policy("beta"), keep_trace=False).total_cost
                opt = offline_wsrpt_cost(inst)
                sandwich_ok &= cost >= opt  # clairvoyant schedule is a true lower bound
                worst = max(worst, float(cost / opt))
            ok = worst <= bound + 1e-9 and sandwich_ok
            all_ok &= ok
            details.append(f"alpha={alpha_text}: max {worst:.6f} vs bound {bound:.6f}")
        report("arrival bound with known types (1e4 instances per alpha)",
               all_ok, "; ".join(details))
        assert all_ok

    def test_08_qualitative_curve_orderings(self):
        """The published curve shapes: hybrid wins at small error; alpha=0.7 flips."""
        def analytic(alpha, ratio, eps):
            params = Parameters(alpha, ratio, 1)
            m = PredictionModel(F(1, 10), eps, eps)
            perf = expected_unconditional(50, m, params)
            return (perf.nonpreemptive / perf.opt, perf.preemptive / perf.opt,
                    perf.hybrid / perf.opt)

        batch_ok = True
        for k in range(5):  # eps 0 .. 0.2
            np_r, pre_r, hyb_r = analytic(F(2, 5), 20, F(k, 20))
            batch_ok &= hyb_r <= min(np_r, pre_r)

        steep_ok = True
        for k in range(2):  # eps 0, 0.05: tight error budget at ratio 100
            np_r, pre_r, hyb_r = analytic(F(2, 5), 100, F(k, 20))
            steep_ok &= hyb_r <= min(np_r, pre_r)

        flip_ok = True
        for k in range(11):  # the high-alpha panel: never preempting wins throughout
            np_r, pre_r, _ = analytic(F(7, 10), 20, F(k, 20))
            flip_ok &= np_r <= pre_r

        arrivals_ok = True
        config = ExperimentConfig(
            alpha=F(2, 5), rho=F(1, 10), w0=F(20), w1=F(1), n=20,
            eps_pairs=coupled_grid(F(k, 20) for k in range(3)),
            replications=3000, seed=808, interarrival=F(9, 10),
            policies=("nonpreemptive", "preemptive", "hybrid"),
        )
        rows = run_arrivals(config)
        for k in range(3):
            eps_key = f"{float(F(k, 20)):.12g}"
            point = {r["policy"]: float(r["mc_mean_ratio"])
                     for r in rows if r["eps0"] == eps_key}
            arrivals_ok &= point["hybrid"] <= min(point["nonpreemptive"],
                                                  point["preemptive"])

        ok = batch_ok and steep_ok and flip_ok and arrivals_ok
        report("qualitative curve orderings (batch, steep, high-alpha, arrivals)", ok)
        assert batch_ok
        assert steep_ok
        assert flip_ok
        assert arrivals_ok

    def test_09_uncertain_reveal_rule_degenerates(self):
        """With exact reveals the raised-threshold rule replays the plain rule."""
        rng = random.Random(909)
        bad = 0
        for _ in range(1000):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 50), 1)
            model = PredictionModel(
                F(rng.randint(1, 9), 10),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            inst = sample_instance(rng.randint(1, 25), model, params,
                                   seed=rng.randrange(10 ** 9))
            a = run(inst, get_policy("beta"))
            b = run(inst, get_policy("modified-beta"))
            if a.trace != b.trace:
                bad += 1
        report("uncertain-reveal rule degenerates to the plain rule (traces)",
               bad == 0, "1000 instances")
        assert bad == 0
