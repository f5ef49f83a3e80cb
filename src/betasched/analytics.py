"""Closed-form expected performance, competitive ratios, and loss metrics.

Expected costs are exact rationals. Competitive ratios involve square roots,
so they are floats. Each rational in them is built as an exact, unreduced
(numerator, denominator) pair of ints and rounds once, by correctly rounded
int division, where it enters float arithmetic; so each is the float of the
exact rational, with no Fraction arithmetic and no gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .domain import (
    HALF,
    Instance,
    Parameters,
    PredictionModel,
    to_fraction,
    unit_ratio,
)
from .policies import POLICIES, REGIME_OF_FLAGS, Regime, classify_regime, label_flags


# ---------------------------------------------------------------------------
# Exact expected cost, given the urgent count or averaged over it
# ---------------------------------------------------------------------------

def _expected_costs(n: int, s0: int, s1: int, s2: int, sd: int,
                    model: PredictionModel, params: Parameters):
    """(opt, nonpreemptive, preemptive, hybrid), linear in three pair statistics.

    With n0 urgent and n1 = n - n0 non-urgent jobs the statistics are
    n0(n0+1)/2, n0*n1/2 and n1(n1-1)/2; their expectations give expected costs.
    They come in as integers over one denominator: s0/sd, s1/sd and s2/sd.
    The clairvoyant optimum is positional. Each policy pays on top of it for
    mispredicted pairs: a nonpreemptive schedule pays the full weight gap per
    inversion; a preemptive schedule pays alpha-scaled probes on inversions
    and on every non-urgent pair; the hybrid switch pays probe costs inside
    the predicted-urgent prefix and full inversions outside it.

    With alpha = a/da, eps0 = p0/q0 and eps1 = p1/q1 (the pairs stored on
    the channel and the parameters) and the weights W/wd on
    `Parameters.weight_grid`, the inverted pairs are
    (p0*q1 + p1*q0)*s1/(q0*q1*sd), those inside the prefix
    p1*(q0-p0)*s1/(q0*q1*sd), and the non-urgent pairs inside it
    p1**2*s2/(q1**2*sd). Every value is an integer over wd*da*q0*q1**2*sd,
    and only the four returned Fractions reduce.
    """
    a, da = params.alpha_pair
    p0, q0 = model.eps0_pair
    p1, q1 = model.eps1_pair
    wd, w0, w1 = params.weight_grid
    gap = w0 - w1
    den = wd * da * q0 * q1 * q1 * sd
    opt = (gap * s0 + w1 * (n * (n + 1) // 2) * sd) * da * q0 * q1 * q1
    ex = (p0 * q1 + p1 * q0) * s1 * q1  # inverted pairs, times q0*q1**2*sd
    nonpreemptive = opt + gap * ex * da
    preemptive = opt + a * (w0 * ex + w1 * s2 * q0 * q1 * q1)
    # probes inside the prefix; the inversions past it, eps0*(1 + eps1)*s1/sd, at the full gap
    hybrid = opt + a * (w0 * p1 * (q0 - p0) * s1 * q1 + w1 * p1 * p1 * s2 * q0) \
        + gap * p0 * (q1 + p1) * s1 * q1 * da
    return (Fraction(opt, den), Fraction(nonpreemptive, den), Fraction(preemptive, den),
            Fraction(hybrid, den))


@dataclass(frozen=True)
class ExpectedPerformance:
    """Exact per-policy expected costs of n jobs, averaged over n0 ~ Binomial(n, rho)."""

    opt: Fraction
    nonpreemptive: Fraction
    preemptive: Fraction
    hybrid: Fraction
    n: int
    model: PredictionModel
    params: Parameters

    def for_policy(self, name: str) -> Fraction:
        """Expectation for `opt` or a policy: the field its `label_flags`' regime names.

        So `beta` and `modified-beta` follow the channel. Unknown names, and
        flags no closed form covers, raise ValueError.
        """
        if name == "opt":
            return self.opt
        policy = POLICIES.get(name)
        regime = policy and REGIME_OF_FLAGS.get(label_flags(policy, self.model, self.params))
        if regime is None:
            raise ValueError(f"no closed form for policy {name!r}")
        return getattr(self, regime.value)


@dataclass(frozen=True)
class ConditionalExpectation(ExpectedPerformance):
    """`ExpectedPerformance` given the urgent count n0 instead."""

    n0: int


def expected_conditional(n: int, n0: int, model: PredictionModel,
                         params: Parameters) -> ConditionalExpectation:
    """Exact per-policy expectation given n0 urgent jobs among n."""
    if not (0 <= n0 <= n):
        raise ValueError(f"n0 must lie in [0, {n}], got {n0}")
    n1 = n - n0
    costs = _expected_costs(n, n0 * (n0 + 1), n0 * n1, n1 * (n1 - 1), 2, model, params)
    return ConditionalExpectation(*costs, n, model, params, n0)


def expected_unconditional(n: int, model: PredictionModel,
                           params: Parameters) -> ExpectedPerformance:
    """Exact expectation over n0 ~ Binomial(n, rho), in O(1) in n.

    The pair statistics are quadratic in n0, so E[n0] = n*rho and
    E[n0^2] = n*rho*(1-rho) + (n*rho)^2 give their expectations exactly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    r, s = model.rho_pair  # rho = r/s; the pairs are over 2*s**2
    costs = _expected_costs(n, n * r * (2 * s - r + n * r), n * (n - 1) * r * (s - r),
                            n * (n - 1) * (s - r) ** 2, 2 * s * s, model, params)
    return ExpectedPerformance(*costs, n, model, params)


# ---------------------------------------------------------------------------
# Competitive ratios (worst case over the urgent fraction q)
# ---------------------------------------------------------------------------

class CrValue(NamedTuple):
    value: float
    worst_q: Optional[float]


class HybridCrValue(NamedTuple):
    value: float
    worst_q: Optional[float]
    lam: float
    decomposition_bound: float


def _maximiser(rn: int, rd: int, mn: int, md: int) -> float:
    """The worst urgent fraction sqrt(r + m^2) - m at r = rn/rd, m = mn/md.

    Evaluated as r / (sqrt(r + m^2) + m), which has no cancellation. Its
    denominator is 0.0 only where r, r + m^2 and m all round to 0.0; the
    maximiser is 0.0 then. Where r + m^2 overflows a float (w0 and w1 within
    about 1e-154 of each other), the maximiser is still at most sqrt(r): it is
    homogeneous, q(r, m) = 2^j q(r / 4^j, m / 2^j), so it is taken at a j that
    brings r + m^2 under 2^1000, and scaled back. A power of two scales each
    rounding step exactly, so the float is the one an unbounded exponent gives.
    """
    try:
        root = math.sqrt((rn * md * md + mn * mn * rd) / (rd * md * md)) + mn / md
        return rn / rd / root if root else 0.0
    except OverflowError:
        pass
    j = ((rn * md * md + mn * mn * rd).bit_length() - (rd * md * md).bit_length() - 1000) // 2 + 1
    return math.ldexp(_maximiser(rn, rd << 2 * j, mn, md << j), j)


def _mix_coefficient(a, da, p0, q0, p1, q1, w0, w1) -> tuple[int, int]:
    """lambda as an (ln, ld) pair, with ld = da*(w0-w1)*q0*q1^2."""
    gap = w0 - w1
    ln = (p0 * (q1 + p1) * da * gap * q1 + a * w0 * p1 * (q0 - p0) * q1
          - a * w1 * p1 * p1 * q0)
    return ln, da * gap * q0 * q1 * q1


def _worst_case_ratios(model: PredictionModel, params: Parameters,
                       only: Optional[Regime] = None) -> tuple:
    """(nonpreemptive, preemptive, hybrid): the worst-case ratios of one channel.

    They read alpha = a/da, eps0 = p0/q0 and eps1 = p1/q1 from the pairs
    stored on the parameters and the channel, and the weights' numerators
    w0, w1 on `Parameters.weight_grid`: the ratios read those only as w0/w1,
    w0/(w0-w1) and w1/(w0-w1), so the grid's denominator cancels. With
    `only` set, just the ratio of that regime is built and the other two are
    None, so a ratio whose floats overflow never stops another one.
    """
    a, da = params.alpha_pair
    p0, q0 = model.eps0_pair
    p1, q1 = model.eps1_pair
    _, w0, w1 = params.weight_grid
    gap = w0 - w1
    en, ed = p0 * q1 + p1 * q0, 2 * q0 * q1  # the mean error rate en/ed
    nonpreemptive = preemptive = hybrid = None
    if only is not Regime.PREEMPTIVE:
        root_ratio = math.sqrt(w0 / w1)
    if only is None or only is Regime.NONPREEMPTIVE:
        nonpreemptive = CrValue(1.0 + en / ed * (root_ratio - 1.0), _maximiser(w1, gap, w1, gap))
    if only is None or only is Regime.PREEMPTIVE:
        if en * w0 <= w1 * ed:
            preemptive = CrValue((da + a) / da, 0.0)
        else:
            fn, fd = a * w0, 2 * da * gap  # factor = (alpha/2) * w0/(w0-w1)
            radicand = ((ed - 4 * en) * ed * w1 + 4 * en * en * w0) / (ed * ed * w1)
            value = (fd * ed + fn * (ed - 2 * en)) / (fd * ed) + fn / fd * math.sqrt(radicand)
            d = 2 * (en * w0 - w1 * ed)  # 2*eps*w0 - 2*w1 in grid units, times ed
            preemptive = CrValue(value, _maximiser(w1, gap, w1 * (d + w0 * ed), gap * d))
    if only is None or only is Regime.HYBRID:
        ln, ld = _mix_coefficient(a, da, p0, q0, p1, q1, w0, w1)
        an = a * p1 * p1 * gap * q0  # alpha*eps1^2 = an/ld
        rn = w0 * gap * ln * ln + w0 * w1 * an * an  # the radicand R = rn/(w1*gap*ld^2)
        if ln > ld:  # lambda > 1, like 1/(w0-w1): sqrt(R) - lambda = t/(1 + s) cancels nothing,
            # with t = (R - lambda^2)/lambda and s = sqrt(R)/lambda
            t = (gap * gap * ln * ln + w0 * w1 * an * an) / (w1 * gap * ld * ln)
            s = math.sqrt(rn / (w1 * gap * ln * ln))
            value = 1.0 + an / (2 * ld) + t / (2 * (1.0 + s))
        else:
            value = (2 * ld + an - ln) / (2 * ld) + math.sqrt(rn / (w1 * gap * ld * ld)) / 2
        bound = (
            1.0
            + ln / (2 * ld) * (root_ratio - 1.0)
            + an / (2 * ld) * (1.0 + math.sqrt(w0 / gap))
        )
        dn = ln * gap - w1 * an  # lambda - (w1/(w0-w1))*alpha*eps1^2 = dn/(ld*gap)
        if ln == 0 and an == 0:
            worst_q: Optional[float] = 0.0
        elif dn > 0:
            worst_q = _maximiser(w1, gap, w1 * (ln + an), dn)
        else:
            worst_q = None  # stationary-point formula degenerates outside the weight-gap regime
        hybrid = HybridCrValue(value, worst_q, ln / ld, bound)
    return nonpreemptive, preemptive, hybrid


def cr_nonpreemptive(model: PredictionModel, params: Parameters) -> CrValue:
    """Worst-case ratio of a nonpreemptive schedule: 1 + eps*(sqrt(w0/w1)-1)."""
    return _worst_case_ratios(model, params, Regime.NONPREEMPTIVE)[0]


def cr_nonpreemptive_cap(alpha, eps0, eps1) -> float:
    """Ratio cap when the weight gap fails and the rule never preempts.

    With w1 >= w0*(1-alpha) the weight ratio is at most 1/(1-alpha), so the
    nonpreemptive ratio is bounded by its value there, 1 + eps*(sqrt(1/(1-alpha)) - 1).
    alpha outside (0, 1), then a rate outside [0, 1/2], raises ValueError.
    Like `cr_nonpreemptive` it raises OverflowError at 1 - alpha below about
    1e-308, where w0/w1 = 1/(1 - alpha) does.
    """
    alpha = to_fraction(alpha)
    params = Parameters(alpha, 1, 1 - alpha)
    return cr_nonpreemptive(PredictionModel(HALF, eps0, eps1), params).value


def cr_preemptive(model: PredictionModel, params: Parameters) -> CrValue:
    """Worst-case ratio of an always-probe schedule.

    Flat at 1 + alpha while eps <= w1/w0 (the worst mix is then all
    non-urgent); beyond that the interior maximizer takes over.
    """
    return _worst_case_ratios(model, params, Regime.PREEMPTIVE)[1]


def hybrid_mix_coefficient(model: PredictionModel, params: Parameters) -> Fraction:
    """The linear coefficient lambda in the hybrid worst-case ratio, exact.

    lambda = eps0*(1+eps1) + (alpha*w0/(w0-w1))*eps1*(1-eps0)
           - (alpha*w1/(w0-w1))*eps1^2.
    """
    return Fraction(*_mix_coefficient(*params.alpha_pair, *model.eps0_pair, *model.eps1_pair,
                                      *params.weight_grid[1:]))


def cr_hybrid(model: PredictionModel, params: Parameters) -> HybridCrValue:
    """Worst-case ratio of the hybrid switch, with its interpretable bound.

    value = 1 + (alpha*eps1^2 - lambda + sqrt((w0/w1)*lambda^2
            + (w0/(w0-w1))*(alpha*eps1^2)^2)) / 2.
    The decomposition bound splits that into gains relative to the
    nonpreemptive ratio and a quadratic probe-cost term.
    """
    return _worst_case_ratios(model, params, Regime.HYBRID)[2]


class CompetitiveRatioReport(NamedTuple):
    """All three worst-case ratios plus the one the threshold rule realizes."""

    nonpreemptive: CrValue
    preemptive: CrValue
    hybrid: HybridCrValue
    regime: Regime
    selected: float
    model: PredictionModel
    params: Parameters


def competitive_ratio(model: PredictionModel, params: Parameters) -> CompetitiveRatioReport:
    """Regime-selected worst-case guarantee of the beta threshold rule."""
    np_cr, p_cr, h_cr = _worst_case_ratios(model, params)
    regime = classify_regime(model, params)
    selected = (h_cr if regime is Regime.HYBRID else
                p_cr if regime is Regime.PREEMPTIVE else np_cr).value
    return CompetitiveRatioReport(np_cr, p_cr, h_cr, regime, selected, model, params)


def alpha_point_cr_bound(alpha) -> float:
    """Guarantee for reveal-point-limited preemption with known types.

    max(1+alpha, 2/(1+alpha)); minimized at alpha = sqrt(2)-1 where both
    branches equal sqrt(2). alpha outside (0, 1) raises ValueError.
    """
    num, den = unit_ratio("alpha", to_fraction(alpha))
    a = num / den  # the float of the Fraction
    return max(1.0 + a, 2.0 / (1.0 + a))


# ---------------------------------------------------------------------------
# Log loss for probabilistic classifiers
# ---------------------------------------------------------------------------

class LogLossResult(NamedTuple):
    value: float
    clamped: int  # estimates pushed off an exact 0/1 endpoint


def log_loss(instance: Instance, clamp: float = 1e-12) -> LogLossResult:
    """Cross-entropy of the urgency estimates against the true types.

    eta = -(1/n) * sum over jobs of
          (1 - true) * log(p_hat) + true * log(1 - p_hat),
    natural log. Estimates at exactly 0 or 1 are clamped to [clamp, 1-clamp]
    and counted, since the loss is unbounded there.
    """
    if instance.mode != "probabilistic":
        raise ValueError("log loss needs probability estimates, not binary labels")
    total = 0.0
    clamped = 0
    for job in instance.jobs:
        p = float(job.p_hat)
        if p < clamp or p > 1.0 - clamp:
            p = min(max(p, clamp), 1.0 - clamp)
            clamped += 1
        if job.true_type == 0:
            total += math.log(p)
        else:
            total += math.log(1.0 - p)
    return LogLossResult(-total / instance.n, clamped)
