import math
import random
from dataclasses import astuple, is_dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched import analytics
from betasched.analytics import (
    CompetitiveRatioReport,
    CrValue,
    HybridCrValue,
    LogLossResult,
    alpha_point_cr_bound,
    competitive_ratio,
    cr_hybrid,
    cr_nonpreemptive,
    cr_nonpreemptive_cap,
    cr_preemptive,
    expected_conditional,
    expected_unconditional,
    hybrid_mix_coefficient,
    log_loss,
)
from betasched.domain import Instance, Parameters, PredictionModel, make_job
from betasched.engine import label_schedule_ticks, wspt_ticks
from betasched.policies import POLICIES, Policy, Regime, label_flags
from conftest import (
    CHANNEL,
    LabelClass,
    drawn_channel,
    fraction_competitive_ratio,
    fraction_cr_nonpreemptive_cap,
    fraction_expected_conditional,
    fraction_expected_unconditional,
    fraction_hybrid_mix_coefficient,
    limit_excess_ratio,
    probe_label_1_decide,
    satisfies_weight_gap,
    search_worst_q,
    split_competitive_ratio,
    split_cr_hybrid,
    split_cr_nonpreemptive,
    split_cr_preemptive,
)

F = Fraction


class TestExpectedConditional:
    def test_worked_numbers(self, base_params, base_model):
        c = expected_conditional(9, 4, base_model, base_params)
        assert c.opt == 235
        assert c.nonpreemptive == 273
        assert c.preemptive == 255
        assert c.hybrid == F("263.14")

    def test_perfect_predictions_collapse(self, base_params):
        m = PredictionModel(F(1, 10), 0, 0)
        c = expected_conditional(9, 4, m, base_params)
        assert c.nonpreemptive == c.opt
        assert c.hybrid == c.opt
        assert c.preemptive > c.opt

    def test_no_false_positives_means_hybrid_is_nonpreemptive(self, base_params):
        for e0_k in range(0, 11, 2):
            m = PredictionModel(F(1, 10), F(e0_k, 20), 0)
            for n0 in range(10):
                c = expected_conditional(9, n0, m, base_params)
                assert c.hybrid == c.nonpreemptive

    def test_domain_error(self, base_params, base_model):
        with pytest.raises(ValueError):
            expected_conditional(5, 6, base_model, base_params)

    def test_opt_lower_bounds_everything(self, base_model):
        rng = random.Random(4)
        for _ in range(100):
            params = Parameters(F(rng.randint(1, 9), 10), rng.randint(2, 60), 1)
            n = rng.randint(1, 30)
            c = expected_conditional(n, rng.randint(0, n), base_model, params)
            assert min(c.nonpreemptive, c.preemptive, c.hybrid) >= c.opt


class TestExpectedUnconditional:
    def test_single_job(self, base_params, base_model):
        u = expected_unconditional(1, base_model, base_params)
        want = F(1, 10) * 20 + F(9, 10) * 1
        assert u.opt == u.nonpreemptive == u.preemptive == u.hybrid == want

    def test_no_jobs_is_refused(self, base_params, base_model):
        with pytest.raises(ValueError) as info:
            expected_unconditional(0, base_model, base_params)
        assert str(info.value) == "n must be at least 1"

    def test_matches_bruteforce_engine_enumeration(self, base_params, base_model):
        from conftest import bruteforce_unconditional_mean

        u = expected_unconditional(4, base_model, base_params)
        for name in ("nonpreemptive", "preemptive", "hybrid"):
            assert getattr(u, name) == bruteforce_unconditional_mean(
                4, base_model, base_params, name
            )

    def test_matches_bruteforce_at_collapsed_posteriors(self, base_params):
        # both error rates at one half: posteriors tie, but the queue still
        # puts predicted-urgent jobs first, so the formulas stay exact
        from conftest import bruteforce_unconditional_mean

        m = PredictionModel(F(1, 4), F(1, 2), F(1, 2))
        u = expected_unconditional(4, m, base_params)
        for name in ("nonpreemptive", "preemptive", "hybrid"):
            assert getattr(u, name) == bruteforce_unconditional_mean(
                4, m, base_params, name
            )

    def test_beta_selection_follows_regime(self, base_params, base_model):
        u = expected_unconditional(6, base_model, base_params)
        assert u.for_policy("beta") == u.hybrid  # hybrid regime here
        noisy = PredictionModel(F(1, 10), F(1, 2), F(1, 2))
        u2 = expected_unconditional(6, noisy, base_params)
        assert u2.for_policy("beta") == u2.preemptive

    def test_for_policy_maps_modified_beta_to_beta(self, base_params, base_model):
        u = expected_unconditional(6, base_model, base_params)
        assert u.for_policy("modified-beta") == u.for_policy("beta") == u.hybrid
        assert u.for_policy("opt") == u.opt

    @pytest.mark.parametrize("name", ["n", "params", "model", "nope", "for_policy"])
    def test_for_policy_rejects_unknown_names(self, base_params, base_model, name):
        u = expected_unconditional(6, base_model, base_params)
        with pytest.raises(ValueError, match="no closed form"):
            u.for_policy(name)

    def test_for_policy_rejects_flags_without_closed_form(self, base_params, base_model,
                                                          monkeypatch):
        monkeypatch.setitem(POLICIES, "probe-01", Policy("probe-01", probe_label_1_decide))
        assert label_flags(POLICIES["probe-01"], base_model, base_params) == (False, True)
        u = expected_unconditional(6, base_model, base_params)
        with pytest.raises(ValueError, match="^no closed form for policy 'probe-01'$"):
            u.for_policy("probe-01")

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 500])
    @pytest.mark.parametrize("rho", [F(1, 10 ** 6), F(1, 10), F(1, 2), F(99, 100)])
    def test_moment_form_equals_binomial_mixture(self, n, rho):
        # collapsed posteriors, asymmetric error, and w1 below, at and above
        # the weight-gap boundary w0*(1 - alpha)
        from conftest import mixture_unconditional

        eps_pairs = [(0, 0), (F(1, 10), F(3, 10)), (F(1, 2), F(1, 2)), (F(1, 2), 0)]
        for alpha in (F(2, 5), F(7, 10)):
            edge = 20 * (1 - alpha)
            for w1, gap in ((edge - 1, True), (edge, False), (edge + 1, False)):
                params = Parameters(alpha, 20, w1)
                assert satisfies_weight_gap(params) is gap
                for e0, e1 in eps_pairs:
                    model = PredictionModel(rho, e0, e1)
                    u = expected_unconditional(n, model, params)
                    got = (u.opt, u.nonpreemptive, u.preemptive, u.hybrid)
                    assert got == mixture_unconditional(n, model, params)

    def test_vanishing_urgency_limit(self, base_params):
        m = PredictionModel(F(1, 10 ** 6), F(1, 10), F(1, 10))
        u = expected_unconditional(9, m, base_params)
        base = F(9 * 10, 2)  # all-low-priority cost 45
        for value in (u.opt, u.nonpreemptive, u.hybrid):
            assert abs(value - base) < 1  # O(rho) away


def enumerated_expectations(n, model, params):
    """Exact expected costs of opt and every POLICIES name, over all 4^n draws.

    Each job is (type, label) with the channel's probability; a draw is priced
    with the label kernel under each policy's label_flags, and with wspt_ticks
    for opt. Weights are kept as integers over a common denominator D, so the
    sums stay integer until the one division at the end.
    """
    rho, e0, e1 = model.rho, model.eps0, model.eps1
    kinds = [((0, 0), rho * (1 - e0)), ((0, 1), rho * e0),
             ((1, 0), (1 - rho) * e1), ((1, 1), (1 - rho) * (1 - e1))]
    D = lcm(*(q.denominator for _, q in kinds))
    kinds = [(tl, int(q * D)) for tl, q in kinds if q]
    flags = {name: label_flags(policy, model, params) for name, policy in POLICIES.items()}
    alpha_ticks, den = params.alpha.numerator, params.alpha.denominator
    sums = {key: [0, 0] for key in ["opt", *set(flags.values())]}
    for draw in product(kinds, repeat=n):
        weight = math.prod(q for _, q in draw)
        by_label = ([], [])
        for (tt, label), _ in draw:
            by_label[label].append(tt)
        classes = [LabelClass.of(types) for types in by_label]
        priced = {"opt": wspt_ticks(n, classes[0].urgent + classes[1].urgent)}
        for f in set(flags.values()):
            priced[f] = label_schedule_ticks(classes, f, alpha_ticks, den)
        for key, (s0, s1) in priced.items():
            sums[key][0] += weight * s0
            sums[key][1] += weight * s1

    def cost(key, scale):
        s0, s1 = sums[key]
        return (params.w0 * s0 + params.w1 * s1) / (scale * D ** n)

    return {"opt": cost("opt", 1), **{name: cost(f, den) for name, f in flags.items()}}


class TestExhaustiveClosedForm:
    """Every (type, label) draw, priced exactly, sums to the closed forms."""

    CHANNELS = {
        "base": (Parameters(F(2, 5), 20, 1), PredictionModel(F(1, 10), F(1, 10), F(1, 10))),
        "collapsed": (Parameters(F(2, 5), 20, 1), PredictionModel(F(1, 4), F(1, 2), F(1, 2))),
        "perfect": (Parameters(F(2, 5), 20, 1), PredictionModel(F(1, 3), 0, 0)),
        # beta = posterior(0) = 1/2
        "beta-tie": (Parameters(F(1, 2), 3, 1), PredictionModel(F(1, 3), 0, F(1, 2))),
        # w1 = w0 (1 - alpha): beta = 1
        "beta-one": (Parameters(F(2, 5), 20, 12), PredictionModel(F(1, 10), F(1, 10), F(3, 10))),
    }

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_sums_equal_the_closed_forms(self, channel):
        params, model = self.CHANNELS[channel]
        for n in range(1, 8):
            u = expected_unconditional(n, model, params)
            got = enumerated_expectations(n, model, params)
            assert got["opt"] == u.opt, n
            for name in POLICIES:
                assert got[name] == u.for_policy(name), (n, name)


class TestCrNonpreemptive:
    def test_zero_error_is_one(self, base_params):
        m = PredictionModel(F(1, 10), 0, 0)
        assert cr_nonpreemptive(m, base_params).value == 1.0

    def test_frozen_value(self, base_params, base_model):
        got = cr_nonpreemptive(base_model, base_params)
        assert got.value == pytest.approx(1 + 0.1 * (math.sqrt(20) - 1), abs=1e-12)

    def test_affine_in_eps(self, base_params):
        vals = [
            cr_nonpreemptive(PredictionModel(F(1, 10), F(k, 20), F(k, 20)), base_params).value
            for k in range(11)
        ]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert all(d == pytest.approx(diffs[0], abs=1e-12) for d in diffs)
        assert all(d > 0 for d in diffs)

    def test_cap_when_gap_fails(self):
        # whenever w1 >= w0*(1-alpha) the ratio stays under the alpha-only cap
        rng = random.Random(8)
        for _ in range(200):
            alpha = F(rng.randint(1, 19), 20)
            w0 = F(rng.randint(2, 50))
            w1 = F(rng.randint(1, w0.numerator - 1))
            if w1 < w0 * (1 - alpha):
                continue
            params = Parameters(alpha, w0, w1)
            m = PredictionModel(F(1, 10), F(rng.randint(0, 10), 20), F(rng.randint(0, 10), 20))
            assert cr_nonpreemptive(m, params).value <= cr_nonpreemptive_cap(
                alpha, m.eps0, m.eps1
            ) + 1e-12


class TestCrPreemptive:
    def test_flat_branch_exact(self):
        params = Parameters(F(2, 5), 20, 1)
        m = PredictionModel(F(1, 10), F(1, 50), F(1, 50))  # eps = 1/50 <= 1/20
        got = cr_preemptive(m, params)
        assert got.value == float(1 + F(2, 5))
        assert got.worst_q == 0.0

    def test_small_weight_spread_always_flat(self):
        params = Parameters(F(2, 5), 3, 2)  # w0 < 2*w1
        for k in range(11):
            m = PredictionModel(F(1, 10), F(k, 20), F(k, 20))
            assert cr_preemptive(m, params).value == float(1 + F(2, 5))

    def test_branch_continuity_at_the_knee(self):
        params = Parameters(F(2, 5), 20, 1)
        eps = F(1, 20)  # exactly w1/w0
        m = PredictionModel(F(1, 10), eps, eps)
        flat = cr_preemptive(m, params).value
        # evaluate the interior-branch expression at the same eps by hand
        factor = (params.alpha / 2) * (params.w0 / (params.w0 - params.w1))
        radicand = 1 - 4 * eps + 4 * eps * eps * (params.w0 / params.w1)
        interior = float(1 + factor * (1 - 2 * eps)) + float(factor) * math.sqrt(float(radicand))
        assert flat == pytest.approx(interior, abs=1e-12)

    def test_nondecreasing_in_eps(self, base_params):
        vals = [
            cr_preemptive(PredictionModel(F(1, 10), F(k, 40), F(k, 40)), base_params).value
            for k in range(21)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestCrHybrid:
    def test_zero_error_is_one(self, base_params):
        m = PredictionModel(F(1, 10), 0, 0)
        got = cr_hybrid(m, base_params)
        assert got.value == 1.0
        assert got.lam == 0.0

    def test_frozen_values(self, base_params, base_model):
        got = cr_hybrid(base_model, base_params)
        assert got.lam == pytest.approx(0.14768421052631578, abs=1e-12)
        assert got.value == pytest.approx(1.2583962037202512, abs=1e-9)

    def test_mix_coefficient_second_form(self):
        # lam = e0 + e1*(alpha + (1-alpha)*e0 + alpha*(w1/(w0-w1))*(1-e0-e1))
        rng = random.Random(12)
        for _ in range(300):
            params = Parameters(F(rng.randint(1, 19), 20), rng.randint(2, 80), 1)
            m = PredictionModel(
                F(rng.randint(1, 19), 20),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            lam = hybrid_mix_coefficient(m, params)
            a, w0, w1 = params.alpha, params.w0, params.w1
            other = m.eps0 + m.eps1 * (
                a + (1 - a) * m.eps0 + a * (w1 / (w0 - w1)) * (1 - m.eps0 - m.eps1)
            )
            assert lam == other

    def test_growth_slower_than_nonpreemptive(self, base_params):
        # (cr_hybrid - 1) / (cr_nonpreemptive - 1) approaches
        # (1 + alpha*w0/(w0-w1)) / 2 < 1 as the error vanishes
        target = float((1 + F(2, 5) * 20 / 19) / 2)
        ratios = []
        for k in (4, 5, 6, 7, 8):
            eps = F(1, 10 ** k)
            m = PredictionModel(F(1, 10), eps, eps)
            h = cr_hybrid(m, base_params).value - 1
            n = cr_nonpreemptive(m, base_params).value - 1
            ratios.append(h / n)
        assert ratios[-1] == pytest.approx(target, rel=1e-4)
        assert target < 1


class TestCompetitiveRatioReport:
    def test_channel_read_once(self, monkeypatch, base_params, base_model):
        calls = []
        worst_case_ratios = analytics._worst_case_ratios

        def counted(*args):
            calls.append(args)
            return worst_case_ratios(*args)

        monkeypatch.setattr(analytics, "_worst_case_ratios", counted)
        report = competitive_ratio(base_model, base_params)
        assert calls == [(base_model, base_params)]
        assert report.nonpreemptive == cr_nonpreemptive(base_model, base_params)
        assert report.preemptive == cr_preemptive(base_model, base_params)
        assert report.hybrid == cr_hybrid(base_model, base_params)

    def test_selected_matches_regime(self, base_params, base_model):
        rep = competitive_ratio(base_model, base_params)
        assert rep.regime is Regime.HYBRID
        assert rep.selected == rep.hybrid.value

    def test_preemptive_regime_selection(self, base_params):
        noisy = PredictionModel(F(1, 10), F(1, 2), F(1, 2))
        rep = competitive_ratio(noisy, base_params)
        assert rep.regime is Regime.PREEMPTIVE
        assert rep.selected == rep.preemptive.value

    def test_nonpreemptive_regime_selection(self):
        # collapsed posteriors with beta = 1 >= rho: the rule never probes
        params = Parameters(F(19, 20), 20, 1)
        noisy = PredictionModel(F(1, 2), F(1, 2), F(1, 2))
        rep = competitive_ratio(noisy, params)
        assert rep.regime is Regime.NONPREEMPTIVE
        assert rep.selected == rep.nonpreemptive.value

    def test_all_ratios_at_least_one_and_finite_at_half(self):
        rng = random.Random(3)
        for _ in range(200):
            params = Parameters(F(rng.randint(1, 19), 20), rng.randint(2, 100), 1)
            m = PredictionModel(F(rng.randint(1, 19), 20), F(1, 2), F(1, 2))
            rep = competitive_ratio(m, params)
            for v in (rep.nonpreemptive.value, rep.preemptive.value, rep.hybrid.value):
                assert 1.0 <= v < float("inf")

    def test_consistency_endpoints(self, base_params):
        perfect = PredictionModel(F(1, 10), 0, 0)
        rep = competitive_ratio(perfect, base_params)
        assert rep.nonpreemptive.value == 1.0
        assert rep.hybrid.value == 1.0
        assert rep.preemptive.value == float(1 + base_params.alpha)


def outcome(fn, *args):
    """fn(*args), or OverflowError if it raises one."""
    try:
        return fn(*args)
    except OverflowError:
        return OverflowError


def assert_matches_fraction_oracle(model, params):
    want = outcome(fraction_competitive_ratio, model, params)
    assert outcome(competitive_ratio, model, params) == want, (model, params)
    assert hybrid_mix_coefficient(model, params) == fraction_hybrid_mix_coefficient(
        model, params), (model, params)
    return want


# Every feature the integer forms branch or round on: eps 0 and 1/2, mean eps
# exactly w1/w0 (1/20 at 20/1, also with eps0 != eps1), lambda = a = 0,
# weight-gap failures (3/2 and 21/20 at alpha 2/5), the hybrid's degenerate
# stationary point (21/20 at eps 1/2; 19/17 at alpha 2/5 and eps 1/2 puts it
# exactly at lambda = (w1/(w0-w1))*alpha*eps1^2), weights close together and
# past the float range, and rho next to 0 and 1.
ORACLE_ALPHAS = (F(1, 10**20), F(2, 5), F(19, 20), 1 - F(1, 10**20))
ORACLE_WEIGHTS = ((20, 1), (3, 2), (21, 20), (F(19, 17), 1), (F("1.0001"), 1), (10**200, 1),
                  (10**400, 1), (1, F(1, 10**400)))
ORACLE_RHOS = (F(1, 10**30), F(1, 10), 1 - F(1, 10**30))
ORACLE_EPS = ((0, 0), (F(1, 2), F(1, 2)), (F(1, 20), F(1, 20)), (F(1, 40), F(3, 40)),
              (F(1, 4), F(5, 12)), (F(1, 3), F(1, 3)), (F(1, 2), 0), (0, F(1, 2)),
              (F(1, 10**20), F(3, 10**20)))


# the repr the frozen dataclasses gave at the base channel, before the records
# became named tuples
BASE_REPORT_REPR = (
    "CompetitiveRatioReport(nonpreemptive=CrValue(value=1.347213595499958, "
    "worst_q=0.1827439976315568), preemptive=CrValue(value=1.417519148762089, "
    "worst_q=0.04379787190522274), hybrid=HybridCrValue(value=1.2583962037202512, "
    "worst_q=0.18158187274821647, lam=0.14768421052631578, "
    "decomposition_bound=1.2604417853812446), regime=<Regime.HYBRID: 'hybrid'>, "
    "selected=1.2583962037202512, model=PredictionModel(rho=Fraction(1, 10), "
    "eps0=Fraction(1, 10), eps1=Fraction(1, 10)), params=Parameters(alpha=Fraction(2, 5), "
    "w0=Fraction(20, 1), w1=Fraction(1, 1)))"
)


class TestRatioRecords:
    """The ratio and log-loss records: fields, repr text, equality, hash, immutability."""

    def test_fields_in_order(self):
        assert CrValue._fields == ("value", "worst_q")
        assert HybridCrValue._fields == ("value", "worst_q", "lam", "decomposition_bound")
        assert CompetitiveRatioReport._fields == (
            "nonpreemptive", "preemptive", "hybrid", "regime", "selected", "model", "params")
        assert LogLossResult._fields == ("value", "clamped")

    def test_repr_text(self, base_params, base_model):
        assert repr(competitive_ratio(base_model, base_params)) == BASE_REPORT_REPR
        assert repr(CrValue(1.5, None)) == "CrValue(value=1.5, worst_q=None)"
        assert repr(LogLossResult(0.5, 2)) == "LogLossResult(value=0.5, clamped=2)"

    def test_equal_and_hashed_by_value(self, base_params, base_model):
        # a twin channel built from other inputs gives an equal report
        twin = competitive_ratio(PredictionModel("0.1", "1/10", 0.1),
                                 Parameters("2/5", F(20), "1"))
        report = competitive_ratio(base_model, base_params)
        assert twin == report and hash(twin) == hash(report)
        assert report.hybrid == HybridCrValue(*report.hybrid)
        assert hash(report.hybrid) == hash(HybridCrValue(*report.hybrid))
        assert CrValue(1.5, 0.25) != CrValue(1.5, 0.5)
        assert CrValue(1.5, 0.25) != CrValue(0.25, 1.5)
        assert LogLossResult(0.5, 2) == LogLossResult(0.5, 2) != LogLossResult(0.5, 1)

    def test_refuse_assignment(self, base_params, base_model):
        report = competitive_ratio(base_model, base_params)
        records = [(report, "selected"), (report.nonpreemptive, "value"),
                   (report.hybrid, "lam"), (LogLossResult(0.5, 2), "clamped")]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, -1.0)
            with pytest.raises(AttributeError):
                record.note = "new"  # no instance dict either
            assert getattr(record, name) != -1.0


class TestFractionOracle:
    def test_fixed_grid(self):
        seen = {"overflow": 0, "degenerate": 0, "flat": 0, "interior": 0, "gap fails": 0}
        for alpha, (w0, w1), rho, (e0, e1) in product(ORACLE_ALPHAS, ORACLE_WEIGHTS,
                                                      ORACLE_RHOS, ORACLE_EPS):
            params = Parameters(alpha, w0, w1)
            want = assert_matches_fraction_oracle(PredictionModel(rho, e0, e1), params)
            if want is OverflowError:
                seen["overflow"] += 1
                continue
            seen["degenerate"] += want.hybrid.worst_q is None
            seen["flat" if want.preemptive.worst_q == 0.0 else "interior"] += 1
            seen["gap fails"] += not satisfies_weight_gap(params)
        assert all(seen.values()), seen

    def test_knee_of_the_preemptive_ratio(self):
        # mean eps exactly w1/w0 is the last flat point; any larger mean is interior
        for w0, knee in ((20, F(1, 20)), (5, F(1, 5))):
            params = Parameters(F(2, 5), w0, 1)
            for e0, e1 in ((knee, knee), (knee / 2, 3 * knee / 2), (knee, knee + F(1, 10**30))):
                want = assert_matches_fraction_oracle(PredictionModel(F(1, 10), e0, e1), params)
                assert (want.preemptive.worst_q == 0.0) == (e0 + e1 == 2 * knee)

    @given(
        alpha=st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
        w1=st.fractions(F(1, 10**6), 10**6, max_denominator=10**6).filter(lambda w: w > 0),
        gap=st.one_of(
            st.fractions(F(1, 10**6), 10**6, max_denominator=10**6).filter(lambda g: g > 0),
            st.sampled_from([F(1, 10**16), F(1, 10**300), F(10**300)]),
        ),
        rho=st.one_of(st.fractions(0, 1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
                      st.sampled_from([F(1, 10**30), 1 - F(1, 10**30)])),
        e0=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6), st.sampled_from([0, F(1, 2)])),
        e1=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6), st.sampled_from([0, F(1, 2)])),
    )
    def test_random_channels(self, alpha, w1, gap, rho, e0, e1):
        assert_matches_fraction_oracle(PredictionModel(rho, e0, e1), Parameters(alpha, w1 + gap, w1))

    def test_maximiser_underflow_is_zero(self):
        # w1/(w0-w1), the maximiser and r + m^2 all round to 0.0 here, while
        # 4*eps^2*w0/w1 still fits a float, so the preemptive ratio is finite
        eps = F(1, 10**197)
        model = PredictionModel(F(1, 10), eps, eps)
        params = Parameters(F(2, 5), 10**700, 1)
        assert cr_preemptive(model, params).worst_q == 0.0


def float_bits(value):
    """A ratio or a report as nested tuples with each float as its exact hex
    (so 0.0 and -0.0 differ), or OverflowError."""
    if value is OverflowError:
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(float_bits, value))
    return float_bits(astuple(value)) if is_dataclass(value) else value


WIDE_FRACTION = st.fractions(F(1, 10**6), 10**6, max_denominator=10**6).filter(lambda x: x > 0)
# past the float range on either side, so some ratios overflow and others not
EXTREME = st.sampled_from([F(1, 10**16), F(1, 10**200), F(1, 10**400), F(10**200), F(10**700)])


class TestSharedRatioBody:
    """The one body of the three worst-case ratios against the three bodies it
    replaced: every float bit for bit, and OverflowError for the same calls,
    for each ratio alone and for the report."""

    @settings(max_examples=150)
    @given(alpha=st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
           w1=st.one_of(WIDE_FRACTION, EXTREME),
           gap=st.one_of(WIDE_FRACTION, EXTREME),
           rho=st.fractions(0, 1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
           e0=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2), F(1, 10**197)])),
           e1=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2), F(1, 10**197)])))
    # only the preemptive ratio fits a float: w0/w1 overflows, but eps is so
    # small that 4*eps^2*w0/w1 fits
    @example(alpha=F(2, 5), w1=1, gap=F(10**700), rho=F(1, 10), e0=F(1, 10**197),
             e1=F(1, 10**197))
    # w1/(w0-w1) overflows the nonpreemptive maximiser; the preemptive ratio is flat
    @example(alpha=F(2, 5), w1=1, gap=F(1, 10**400), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    def test_equals_the_split_bodies(self, alpha, w1, gap, rho, e0, e1):
        model, params = PredictionModel(rho, e0, e1), Parameters(alpha, w1 + gap, w1)
        for got, want in ((cr_nonpreemptive, split_cr_nonpreemptive),
                          (cr_preemptive, split_cr_preemptive),
                          (cr_hybrid, split_cr_hybrid),
                          (competitive_ratio, split_competitive_ratio)):
            assert float_bits(outcome(got, model, params)) == \
                float_bits(outcome(want, model, params)), (got.__name__, model, params)


class TestExpectationOracle:
    """The integer-pair expectations against their old Fraction body, with ==."""

    @settings(max_examples=150)
    @given(n=st.one_of(st.sampled_from([1, 2, 10**6]), st.integers(1, 2000)),
           n0_share=st.fractions(0, 1, max_denominator=50), **CHANNEL)
    # on the weight-gap boundary (w1 = w0*(1 - alpha), beta = 1) with odd
    # denominators; exact and collapsed channels at n = 1 and n = 10**6
    @example(n=10**6, n0_share=F(1, 3), alpha=F(3, 7), w1=F(7, 3), gap="boundary", rho=F(1, 10),
             e0=F(1, 10), e1=F(3, 10))
    @example(n=1, n0_share=F(1), alpha=F(2, 9), w1=F(3, 2), gap=F(5, 4), rho=F(3, 10),
             e0=F(1, 2), e1=F(1, 2))
    @example(n=10**6, n0_share=F(0), alpha=F(1, 3), w1=F(1, 2), gap=F(19, 2), rho=F(2, 5),
             e0=0, e1=0)
    @example(n=1, n0_share=F(0), alpha=F(5, 11), w1=1, gap="boundary", rho=F(1, 99),
             e0=0, e1=F(1, 2))
    def test_equals_the_fraction_body(self, n, n0_share, alpha, w1, gap, rho, e0, e1):
        params, model = drawn_channel(alpha, w1, gap, rho, e0, e1)
        u = expected_unconditional(n, model, params)
        assert (u.opt, u.nonpreemptive, u.preemptive, u.hybrid) == \
            fraction_expected_unconditional(n, model, params)
        n0 = math.floor(n0_share * n)
        c = expected_conditional(n, n0, model, params)
        assert (c.opt, c.nonpreemptive, c.preemptive, c.hybrid) == \
            fraction_expected_conditional(n, n0, model, params)


def decimal_maximiser(r, m):
    """sqrt(r + m^2) - m in decimal arithmetic, from the exact r and m, with 60
    digits beyond the ones the subtraction cancels."""
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * len(str(math.floor(abs(m))))
        dec = lambda x: Decimal(x.numerator) / Decimal(x.denominator)
        return float((dec(r) + dec(m) ** 2).sqrt() - dec(m))


class TestWorstQ:
    def test_nonpreemptive_at_weights_one_ulp_apart(self):
        # r = 1e16: the old form sqrt(r + r^2) - r printed 0
        params = Parameters(F(1, 10), F("1.0000000000000001"), 1)
        r = params.w1 / (params.w0 - params.w1)
        got = cr_nonpreemptive(PredictionModel(F(1, 10), F(1, 2), F(1, 2)), params).worst_q
        assert got == pytest.approx(decimal_maximiser(r, r), rel=1e-15, abs=0)
        assert round(got, 12) == 0.5

    def test_hybrid_at_close_weights(self):
        model = PredictionModel(F(1, 10), F(1, 4), F(2, 5))
        params = Parameters(F(2, 5), 21, 20)
        r = params.w1 / (params.w0 - params.w1)
        lam = fraction_hybrid_mix_coefficient(model, params)
        a = params.alpha * model.eps1 ** 2
        m = r * (lam + a) / (lam - r * a)
        got = cr_hybrid(model, params).worst_q
        assert got == pytest.approx(decimal_maximiser(r, m), rel=1e-15, abs=0)
        assert f"{got:.12g}" == "0.0936710999812"

    @pytest.mark.parametrize("tiny", [F(1, 10**160), F(1, 10**300), F(1, 10**400)])
    def test_weights_past_the_float_range_apart(self, tiny):
        # r = w1/(w0-w1) = 1/tiny - 1, so r + r^2 overflows a float; r itself
        # does too at 1e-400; the maximiser, about 1/2, is finite
        model = PredictionModel(F(1, 10), F(1, 10), F(1, 10))
        params = Parameters(tiny, 1, 1 - tiny)
        r = params.w1 / (params.w0 - params.w1)
        got = cr_nonpreemptive(model, params).worst_q
        assert got == pytest.approx(decimal_maximiser(r, r), rel=1e-15, abs=0)

    def test_hybrid_at_weights_past_the_float_range_apart(self):
        model = PredictionModel(F(1, 10), F(1, 10), F(1, 10))
        params = Parameters(F(1, 10**300), 1, 1 - F(1, 10**300))
        r = params.w1 / (params.w0 - params.w1)
        lam = fraction_hybrid_mix_coefficient(model, params)
        a = params.alpha * model.eps1 ** 2
        m = r * (lam + a) / (lam - r * a)
        report = competitive_ratio(model, params)
        assert report.hybrid.worst_q == pytest.approx(decimal_maximiser(r, m), rel=1e-15, abs=0)
        assert report.nonpreemptive == cr_nonpreemptive(model, params)


def decimal_cr_hybrid(model, params):
    """1 + (alpha*eps1^2 - lambda + sqrt(R))/2, the direct form, in decimal
    arithmetic from the exact Fractions, with 40 digits beyond the ones its
    subtraction cancels (about log10 lambda)."""
    lam = fraction_hybrid_mix_coefficient(model, params)
    a = params.alpha * model.eps1 ** 2
    w0, w1 = params.w0, params.w1
    radicand = (w0 / w1) * lam * lam + (w0 / (w0 - w1)) * a * a
    with localcontext() as ctx:
        ctx.prec = 40 + len(str(math.floor(lam)))
        dec = lambda x: Decimal(x.numerator) / Decimal(x.denominator)
        return float(1 + (dec(a) - dec(lam) + dec(radicand).sqrt()) / 2)


class TestHybridAtCloseWeights:
    """lambda grows like 1/(w0 - w1), and sqrt(R) - lambda cancels about log10
    lambda digits in floats: the hybrid ratio takes it as t/(1 + s) there."""

    def test_weights_1e_200_apart(self):
        # the direct form gave 0.0 at 1e-30 apart and overflowed at 1e-200
        model = PredictionModel(F(1, 10), F(1, 10), F(1, 10))
        got = cr_hybrid(model, Parameters(F(2, 5), 1, 1 - F(1, 10**200)))
        assert got.value == pytest.approx(1.010125, rel=1e-15, abs=0)
        assert got.worst_q == pytest.approx(0.4375, rel=1e-15, abs=0)
        assert got.lam == pytest.approx(3.2e198, rel=1e-15, abs=0)
        assert math.isfinite(got.decomposition_bound)

    @settings(max_examples=300)
    @given(alpha=st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
           w1=WIDE_FRACTION,
           # (w0 - w1)/w1, from 10 down to 1e-300
           spread=st.builds(lambda m, k: m / 10**k, st.fractions(1, 10, max_denominator=10**3),
                            st.integers(0, 300)),
           rho=st.fractions(0, 1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
           e0=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2)])),
           e1=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2)])))
    # lambda 3.2e198: the direct form overflowed
    @example(alpha=F(2, 5), w1=1, spread=F(1, 10**200), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    # lambda about 1.7 with w0 - w1 = 2 on the weight grid, so t's gap^2 is not gap
    @example(alpha=F(2, 5), w1=98, spread=F(2, 98), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    def test_equals_the_decimal_value(self, alpha, w1, spread, rho, e0, e1):
        model, params = PredictionModel(rho, e0, e1), Parameters(alpha, w1 * (1 + spread), w1)
        got = cr_hybrid(model, params).value
        assert got >= 1.0
        assert got == pytest.approx(decimal_cr_hybrid(model, params), rel=1e-15, abs=0)


def decimal_decomposition_bound(model, params):
    """1 + (lambda/2)*(sqrt(w0/w1) - 1) + (alpha*eps1^2/2)*(1 + sqrt(w0/(w0 - w1))),
    in 400-digit decimal arithmetic from the exact Fractions."""
    lam = fraction_hybrid_mix_coefficient(model, params)
    a = params.alpha * model.eps1 ** 2
    w0, w1 = params.w0, params.w1
    with localcontext() as ctx:
        ctx.prec = 400
        dec = lambda x: Decimal(x.numerator) / Decimal(x.denominator)
        return float(1 + dec(lam) / 2 * (dec(w0 / w1).sqrt() - 1)
                     + dec(a) / 2 * (1 + dec(w0 / (w0 - w1)).sqrt()))


class TestDecompositionBoundAtCloseWeights:
    """sqrt(w0/w1) - 1 cancels as w1 nears w0 while lambda grows like
    1/(w0 - w1): the bound takes it as (w0 - w1)/w1 / (sqrt(w0/w1) + 1) there."""

    def test_weights_1e_16_apart(self):
        # the cancelling form gave 200001.002, off by 4e-8 relative
        model = PredictionModel(F(1, 10), F(1, 10), F(1, 10))
        params = Parameters(F(2, 5), 1, 1 - F(1, 10**16))
        exact = decimal_decomposition_bound(model, params)
        assert exact == pytest.approx(200001.010, rel=1e-9, abs=0)
        assert cr_hybrid(model, params).decomposition_bound == pytest.approx(exact, rel=1e-15, abs=0)

    @settings(max_examples=300)
    @given(alpha=st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
           w1=WIDE_FRACTION,
           # (w0 - w1)/w1, from 10 down to 1e-300
           spread=st.builds(lambda m, k: m / 10**k, st.fractions(1, 10, max_denominator=10**3),
                            st.integers(0, 300)),
           rho=st.fractions(0, 1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
           e0=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2)])),
           e1=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**6),
                        st.sampled_from([0, F(1, 2)])))
    # w0 = 1 and w1 = 1 - 1e-16, where the cancelling form was off by 4e-8
    @example(alpha=F(2, 5), w1=1 - F(1, 10**16), spread=F(1, 10**16 - 1), rho=F(1, 10),
             e0=F(1, 10), e1=F(1, 10))
    @example(alpha=F(2, 5), w1=1, spread=F(1, 10**200), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    # w0 = 4*w1 exactly, where the two forms meet, and just below it
    @example(alpha=F(2, 5), w1=1, spread=F(3), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    @example(alpha=F(2, 5), w1=1, spread=F(3) - F(1, 10**6), rho=F(1, 10), e0=F(1, 10), e1=F(1, 10))
    def test_equals_the_decimal_value(self, alpha, w1, spread, rho, e0, e1):
        model, params = PredictionModel(rho, e0, e1), Parameters(alpha, w1 * (1 + spread), w1)
        got = cr_hybrid(model, params).decomposition_bound
        assert got == pytest.approx(decimal_decomposition_bound(model, params), rel=1e-15, abs=0)


class TestNonpreemptiveCap:
    @pytest.mark.parametrize("args, message", [
        ((1, 0, 0), "alpha must lie strictly in (0,1), got 1"),
        ((2, 0, 0), "alpha must lie strictly in (0,1), got 2"),
        ((0, 0, 0), "alpha must lie strictly in (0,1), got 0"),
        (("2/5", -1, 0), "eps0 must lie in [0, 1/2], got -1"),
        (("2/5", 0, "0.6"), "eps1 must lie in [0, 1/2], got 3/5"),
    ])
    def test_refuses_out_of_range(self, args, message):
        with pytest.raises(ValueError) as info:
            cr_nonpreemptive_cap(*args)
        assert str(info.value) == message

    def test_matches_fraction_oracle(self):
        for alpha, e0, e1 in product((F(1, 10**20), "2/5", 0.95, 1 - F(1, 10**20)),
                                     (0, F(1, 7), "0.5"), (0, 0.25, F(1, 2))):
            assert cr_nonpreemptive_cap(alpha, e0, e1) == fraction_cr_nonpreemptive_cap(
                alpha, e0, e1)

    def test_tiny_alpha(self):
        # w0 = 1 and w1 = 1 - alpha: the worst urgent fraction's r + r^2 is
        # past the float range, and the ratio is still 1 + eps*(sqrt(1/(1-alpha)) - 1)
        assert cr_nonpreemptive_cap(1e-300, 0.1, 0.5) == 1.0
        assert cr_nonpreemptive_cap(F(1, 10**400), 0, F(1, 2)) == 1.0


class TestWorstCaseSearch:
    def test_reproduces_closed_forms(self):
        rng = random.Random(9)
        checked = 0
        while checked < 40:
            alpha = F(rng.randint(1, 19), 20)
            w0 = rng.randint(2, 100)
            params = Parameters(alpha, w0, 1)
            if not satisfies_weight_gap(params):
                continue
            m = PredictionModel(
                F(rng.randint(1, 19), 20),
                F(rng.randint(0, 10), 20),
                F(rng.randint(0, 10), 20),
            )
            closed = {
                "nonpreemptive": cr_nonpreemptive(m, params),
                "preemptive": cr_preemptive(m, params),
                "hybrid": cr_hybrid(m, params),
            }
            for kind, want in closed.items():
                _, value = search_worst_q(kind, m, params)
                assert value == pytest.approx(want.value, abs=1e-6), (kind, m, params)
                if want.worst_q is not None:
                    # the closed-form maximizer attains the searched maximum
                    at_q = 1 + limit_excess_ratio(kind, want.worst_q, m, params)
                    assert at_q == pytest.approx(value, abs=1e-6)
            checked += 1

    def test_limit_curve_stays_below_closed_form(self, base_params, base_model):
        want = cr_nonpreemptive(base_model, base_params).value
        for k in range(101):
            assert 1 + limit_excess_ratio("nonpreemptive", k / 100, base_model,
                                          base_params) <= want + 1e-12

    def test_finite_n_ratio_approaches_from_below(self, base_params, base_model):
        # conditional ratio at the worst mix stays under the limit value
        q = cr_nonpreemptive(base_model, base_params).worst_q
        limit = cr_nonpreemptive(base_model, base_params).value
        last = 0.0
        for n in (10, 100, 1000, 10000):
            n0 = round(q * n)
            c = expected_conditional(n, n0, base_model, base_params)
            ratio = float(c.nonpreemptive / c.opt)
            assert ratio <= limit + 1e-12
            last = ratio
        assert last == pytest.approx(limit, rel=2e-3)


class TestAlphaPointBound:
    def test_balanced_point(self):
        assert alpha_point_cr_bound(F(2, 5)) == pytest.approx(10 / 7, abs=1e-15)

    def test_sqrt2_at_optimal_alpha(self):
        a = math.sqrt(2) - 1
        assert alpha_point_cr_bound(a) == pytest.approx(math.sqrt(2), abs=1e-7)

    def test_boundary_limits(self):
        assert alpha_point_cr_bound(F(1, 10 ** 9)) == pytest.approx(2.0, abs=1e-6)
        assert alpha_point_cr_bound(F(10 ** 9 - 1, 10 ** 9)) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [2, -1, 0, 1, "3/2"])
    def test_alpha_outside_the_unit_interval_is_refused(self, alpha):
        # the message Parameters and cr_nonpreemptive_cap give
        message = f"alpha must lie strictly in (0,1), got {F(alpha)}"
        for bound in (alpha_point_cr_bound, lambda a: cr_nonpreemptive_cap(a, 0, 0)):
            with pytest.raises(ValueError) as info:
                bound(alpha)
            assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            Parameters(alpha, 20, 1)
        assert str(info.value) == message


class TestLogLoss:
    def probabilistic_instance(self, params, trues, p_hats):
        jobs = [make_job(i + 1, t, p_hat=p) for i, (t, p) in enumerate(zip(trues, p_hats))]
        return Instance(jobs, params)

    def test_constant_half_gives_log_two(self, base_params):
        inst = self.probabilistic_instance(base_params, [0, 1, 0, 1], ["1/2"] * 4)
        got = log_loss(inst)
        assert got.value == pytest.approx(math.log(2), abs=1e-15)
        assert got.clamped == 0

    def test_perfect_classifier_clamps_to_near_zero(self, base_params):
        inst = self.probabilistic_instance(base_params, [0, 1], [1, 0])
        got = log_loss(inst)
        assert got.value == pytest.approx(0.0, abs=1e-11)
        assert got.clamped == 2

    def test_frozen_hand_value(self, base_params):
        inst = self.probabilistic_instance(base_params, [0, 1], ["0.8", "0.3"])
        want = -0.5 * (math.log(0.8) + math.log(0.7))
        assert log_loss(inst).value == pytest.approx(want, abs=1e-15)

    def test_wrong_class_certainty_blows_up_boundedly(self, base_params):
        inst = self.probabilistic_instance(base_params, [0], [0])
        got = log_loss(inst)
        assert got.clamped == 1
        assert got.value == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_rejects_binary_instances(self, base_params, base_model):
        from betasched.domain import sample_instance

        inst = sample_instance(3, base_model, base_params, seed=0)
        with pytest.raises(ValueError):
            log_loss(inst)
