import math
import random
import re
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from betasched.domain import (
    MAX_DECIMAL_EXPONENT,
    ZERO,
    Instance,
    Job,
    Parameters,
    PredictionModel,
    dump_instance,
    load_instance,
    make_job,
    sample_instance,
    to_fraction,
)
from betasched.engine import offline_wspt, offline_wsrpt_cost, run
from betasched.errors import InvalidInstanceError, SchedulingError
from betasched.policies import EXACT_REVELATION, POLICIES, PosteriorRevelation
from conftest import (
    fraction_posteriors,
    priority,
    reference_sample_jobs,
    reference_validate,
    satisfies_weight_gap,
    sort_for_policy,
    urgent_count,
)

F = Fraction
NAN, INF = float("nan"), float("inf")
PARAMS = Parameters(F(2, 5), 20, 1)  # the base_params and base_model fixtures' values
MODEL = PredictionModel(F(1, 10), F(1, 10), F(1, 10))

rationals_01 = st.fractions(min_value=0, max_value=1)


def small_fraction(lo, hi, den=60):
    return st.integers(min_value=int(lo * den), max_value=int(hi * den)).map(
        lambda k: F(k, den)
    )


models = st.builds(
    PredictionModel,
    rho=small_fraction(F(1, 60), F(59, 60)),
    eps0=small_fraction(0, F(1, 2)),
    eps1=small_fraction(0, F(1, 2)),
)


flip_rates = st.one_of(
    st.sampled_from([F(0), F(1, 2), F(10 ** 30 - 1, 2 * 10 ** 30)]),
    st.fractions(0, F(1, 2), max_denominator=7),
    st.fractions(0, F(1, 2), max_denominator=10 ** 40),
)


jobs_of_any_fields = st.builds(
    Job,
    id=st.one_of(st.integers(0, 3), st.sampled_from([1.0, F(2), True])),
    true_type=st.sampled_from([0, 1, 2, -1, True, False, 0.0, 1.0, F(1), None, "0", NAN]),
    label=st.one_of(st.none(), st.sampled_from([0, 1, 2, -1, 1.0, F(0), "1", NAN])),
    p_hat=st.one_of(st.none(), st.integers(-2, 3), st.fractions(-1, 2), st.floats(-1, 2),
                    st.sampled_from([NAN, INF, -INF, "1/2", 0.0, 1.0])),
    release_time=st.one_of(st.integers(-2, 3), st.fractions(-2, 3), st.floats(-2, 3),
                           st.sampled_from([ZERO, NAN, INF, -INF, None, "0"])),
)

p_hats = st.one_of(st.fractions(0, 1, max_denominator=10 ** 6), st.floats(0, 1),
                  st.sampled_from([0, 1, True]))
releases = st.one_of(st.integers(0, 3), st.fractions(0, 3, max_denominator=12), st.just(ZERO))
odd_values = st.sampled_from([True, False, 1.0, 0.0, 0.5, F(0), F(1), NAN, INF, "1/2", None, -1])


@st.composite
def near_valid_jobs(draw):
    """Jobs of one mode that validate, or would but for one field of an odd type."""
    labelled = draw(st.booleans())
    jobs = [Job(i, draw(st.sampled_from([0, 1])),
                draw(st.sampled_from([0, 1])) if labelled else None,
                None if labelled else draw(p_hats), draw(releases))
            for i in range(1, draw(st.integers(1, 4)) + 1)]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(jobs) - 1))
        jobs[k] = jobs[k]._replace(**{draw(st.sampled_from(Job._fields)): draw(odd_values)})
    return jobs


def decimal_exponent(text):
    """The int after the last e or E of `text`, 0 where that is no int."""
    head, e, tail = text.replace("E", "e").rpartition("e")
    try:
        return int(tail) if e else 0
    except ValueError:
        return 0


class TestToFraction:
    def test_decimal_string(self):
        assert to_fraction("0.1") == F(1, 10)

    def test_fraction_string(self):
        assert to_fraction("2/57") == F(2, 57)

    def test_float_goes_through_repr(self):
        # 0.1 the float means one tenth, not 3602879701896397/2**55
        assert to_fraction(0.1) == F(1, 10)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            to_fraction(object())

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 3/0", "-1/00"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match=f"^zero denominator in {re.escape(repr(text))}$"):
            to_fraction(text)

    @given(st.text(alphabet="0123456789/.-+_e \n٣²", max_size=12))
    @example("01/10")
    @example("2/4")
    @example(" 1/2")
    @example("1/0")
    @example("١/٢")
    @example("7" * 5000)  # past int's default digit limit
    @example("1/" + "7" * 5000)
    @example("1." + "7" * 5000)
    @example("0e1000000")  # Fraction would build 10**1000000 first
    @example("1E-4000000")
    @example("0.5e+1_001")
    @example("1e1000")  # at the bound
    @example("-2.5E-1000")
    def test_strings_read_like_fraction(self, text):
        """Equal to `Fraction(text)`, or the same error, bar a zero denominator
        and an exponent past the bound."""
        if abs(decimal_exponent(text)) > MAX_DECIMAL_EXPONENT:
            bound = MAX_DECIMAL_EXPONENT
            with pytest.raises(ValueError, match=re.escape(
                    f"decimal exponent of {text!r} is outside [-{bound}, {bound}]")):
                to_fraction(text)
            return
        try:
            want = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="^zero denominator in "):
                to_fraction(text)
            return
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                to_fraction(text)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return
        got = to_fraction(text)
        assert type(got) is Fraction and got == want


class TestParameters:
    def test_beta_value(self):
        assert Parameters("0.4", 20, 1).beta() == F(2, 57)

    def test_beta_boundary_case(self):
        assert Parameters("0.5", 2, 1).beta() == 1

    def test_integer_pairs_are_not_fields(self):
        p = Parameters("0.4", 20, 1)
        assert p.beta_pair == p.beta().as_integer_ratio() == (2, 57)
        assert p.slope_pair == p.theta_slope().as_integer_ratio() == (40, 57)
        assert p.weight_grid == (1, 20, 1)
        assert Parameters("0.4", "7/3", "1/2").weight_grid == (6, 14, 3)  # 14/6 and 3/6
        assert [f.name for f in fields(p)] == ["alpha", "w0", "w1"]
        assert repr(p) == "Parameters(alpha=Fraction(2, 5), w0=Fraction(20, 1), w1=Fraction(1, 1))"
        twin = Parameters(F(2, 5), F(20), F(1))
        assert p == twin and hash(p) == hash(twin)

    @given(alpha=small_fraction(F(1, 60), F(59, 60)),
           w1=st.fractions(F(1, 30), F(50), max_denominator=30).filter(lambda w: w > 0),
           gap=st.fractions(F(1, 30), F(50), max_denominator=30).filter(lambda g: g > 0))
    @example(alpha=F(2, 5), w1=F(1, 2), gap=F(11, 6))
    def test_stored_values_equal_the_fraction_formulas(self, alpha, w1, gap):
        p = Parameters(alpha, w1 + gap, w1)
        beta = (alpha / (1 - alpha)) * (w1 / gap)
        slope = beta * (w1 + gap) / w1
        assert (p.beta(), p.theta_slope()) == (beta, slope)
        assert (p.beta_pair, p.slope_pair) == (beta.as_integer_ratio(), slope.as_integer_ratio())
        wden, g0, g1 = p.weight_grid
        assert wden == math.lcm((w1 + gap).denominator, w1.denominator)
        assert (F(g0, wden), F(g1, wden)) == (w1 + gap, w1)
        with pytest.raises(FrozenInstanceError):
            p.alpha = F(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^alpha must lie strictly in \(0,1\), got 1$"):
            Parameters(1, 20, 1)
        with pytest.raises(ValueError):
            Parameters("0.4", 1, 20)
        with pytest.raises(ValueError):
            Parameters("0.4", 20, 0)

    @given(
        alpha=small_fraction(F(1, 60), F(59, 60)),
        w0=st.integers(2, 200),
        w1=st.integers(1, 199),
    )
    def test_weight_gap_iff_beta_below_one(self, alpha, w0, w1):
        if w1 >= w0:
            return
        p = Parameters(alpha, w0, w1)
        assert satisfies_weight_gap(p) == (p.beta() < 1)
        # and the direct characterization agrees
        assert satisfies_weight_gap(p) == (p.w1 < p.w0 * (1 - p.alpha))


class TestPosterior:
    def test_perfect_predictor(self):
        m = PredictionModel("0.1", 0, 0)
        assert m.posterior(0) == 1
        assert m.posterior(1) == 0

    def test_uninformative_predictor_collapses_to_prior(self):
        m = PredictionModel("0.1", "0.5", "0.5")
        assert m.posterior(0) == F(1, 10)
        assert m.posterior(1) == F(1, 10)

    def test_symmetric_ten_percent_error(self):
        m = PredictionModel("0.1", "0.1", "0.1")
        assert m.posterior(0) == F(1, 2)
        assert m.posterior(1) == F(1, 82)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionModel(0, "0.1", "0.1")
        with pytest.raises(ValueError):
            PredictionModel("0.1", "0.6", "0.1")
        with pytest.raises(ValueError):
            PredictionModel("0.1", "0.1", "-0.1")

    @pytest.mark.parametrize("args, message", [
        ((0, "0.1", "0.1"), "rho must lie strictly in (0,1), got 0"),
        (("1", "0.1", "0.1"), "rho must lie strictly in (0,1), got 1"),
        (("0.1", "0.6", "0.1"), "eps0 must lie in [0, 1/2], got 3/5"),
        (("0.1", "0.1", "-0.1"), "eps1 must lie in [0, 1/2], got -1/10"),
        ((2, -1, 1), "rho must lie strictly in (0,1), got 2"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            PredictionModel(*args)
        assert str(info.value) == message

    @given(
        rho=st.one_of(st.fractions(0, 1, max_denominator=10**9).filter(lambda r: 0 < r < 1),
                      st.sampled_from([F(1, 10**30), 1 - F(1, 10**30)])),
        eps0=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**9),
                       st.sampled_from([F(0), F(1, 2)])),
        eps1=st.one_of(st.fractions(0, F(1, 2), max_denominator=10**9),
                       st.sampled_from([F(0), F(1, 2)])),
    )
    @example(rho=F(1, 10**30), eps0=F(0), eps1=F(0))
    @example(rho=1 - F(1, 10**30), eps0=F(1, 2), eps1=F(1, 2))
    @example(rho=F(1, 10**30), eps0=F(1, 2), eps1=F(0))
    @example(rho=1 - F(1, 10**30), eps0=F(0), eps1=F(1, 2))
    def test_matches_fraction_oracle(self, rho, eps0, eps1):
        m = PredictionModel(rho, eps0, eps1)
        got = (m.label_probability(0), m.posterior(0), m.posterior(1))
        assert got == fraction_posteriors(rho, eps0, eps1)

    @given(m=models)
    def test_label_zero_never_less_urgent(self, m):
        assert m.posterior(0) >= m.posterior(1)

    @given(m=models)
    def test_posteriors_collapse_only_at_half(self, m):
        if m.posterior(0) == m.posterior(1):
            assert m.eps0 + m.eps1 == 1

    def test_pairs_and_posteriors_are_not_fields(self):
        m = PredictionModel("1/10", "1/20", F(1, 4))
        assert (m.rho_pair, m.eps0_pair, m.eps1_pair) == ((1, 10), (1, 20), (1, 4))
        # 0.095/0.32 urgent among label 0, 0.005/0.68 among label 1
        assert (m.posterior(0), m.posterior(1)) == (F(19, 64), F(1, 136))
        assert m.label_probability(0) == F(8, 25)
        assert [f.name for f in fields(m)] == ["rho", "eps0", "eps1"]
        assert repr(m) == ("PredictionModel(rho=Fraction(1, 10), eps0=Fraction(1, 20), "
                           "eps1=Fraction(1, 4))")
        twin = PredictionModel(F(1, 10), 0.05, "0.25")
        assert m == twin and hash(m) == hash(twin)
        assert m != PredictionModel("1/10", "1/4", "1/20")
        with pytest.raises(FrozenInstanceError):
            m.rho = F(1, 2)

    @pytest.mark.parametrize("label", [2, -1])
    def test_refuses_a_label_other_than_0_or_1(self, label):
        m = PredictionModel("1/10", "1/10", "1/10")
        for method in (m.label_probability, m.posterior):
            with pytest.raises(ValueError) as info:
                method(label)
            assert str(info.value) == f"label must be 0 or 1, got {label}"

    @given(m=models)
    def test_law_of_total_probability(self, m):
        total = m.posterior(0) * m.label_probability(0) + m.posterior(1) * m.label_probability(1)
        assert total == m.rho


class TestSampleInstance:
    def test_deterministic_given_seed(self, base_model, base_params):
        a = sample_instance(40, base_model, base_params, seed=7)
        b = sample_instance(40, base_model, base_params, seed=7)
        assert a.jobs == b.jobs
        c = sample_instance(40, base_model, base_params, seed=8)
        assert a.jobs != c.jobs

    def test_rejects_empty(self, base_model, base_params):
        with pytest.raises(ValueError):
            sample_instance(0, base_model, base_params, seed=1)

    def test_noiseless_channel_copies_types(self, base_params):
        m = PredictionModel("0.3", 0, 0)
        inst = sample_instance(200, m, base_params, seed=3)
        assert all(j.label == j.true_type for j in inst.jobs)

    def test_urgent_fraction_concentrates(self, base_params):
        m = PredictionModel("0.1", "0.1", "0.1")
        n = 100_000
        inst = sample_instance(n, m, base_params, seed=11)
        frac = urgent_count(inst) / n
        assert abs(frac - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / n)

    def test_all_released_at_zero(self, base_model, base_params):
        inst = sample_instance(10, base_model, base_params, seed=2)
        assert all(j.release_time == 0 for j in inst.jobs)

    @given(
        n=st.integers(1, 200),
        rho=st.one_of(st.sampled_from([F(1, 2), F(1, 3), F(1, 10 ** 30), 1 - F(1, 10 ** 30)]),
                      st.fractions(0, 1, max_denominator=7).filter(lambda r: 0 < r < 1),
                      st.fractions(0, 1, max_denominator=10 ** 40).filter(lambda r: 0 < r < 1)),
        eps0=flip_rates,
        eps1=flip_rates,
        seed=st.integers(0, 2 ** 64),
    )
    @example(n=200, rho=F(1, 2), eps0=F(0), eps1=F(1, 2), seed=0)
    @example(n=200, rho=F(1, 2), eps0=F(1, 2), eps1=F(0), seed=1)
    @example(n=50, rho=F(1, 10), eps0=F(0), eps1=F(0), seed=2)
    def test_matches_the_bernoulli_loop(self, n, rho, eps0, eps1, seed):
        """The same jobs as one exact Bernoulli call per draw, none for a zero rate."""
        model = PredictionModel(rho, eps0, eps1)
        got = sample_instance(n, model, PARAMS, seed=seed).jobs
        assert got == tuple(reference_sample_jobs(n, model, seed))


class TestSortForPolicy:
    def test_worked_example_blocks(self, base_model, base_params):
        preds = [0, 1, 0, 0, 0, 1, 1, 1, 0]
        jobs = [Job(i + 1, 0, preds[i]) for i in range(9)]
        inst = Instance(jobs, base_params, base_model)
        ordered = sort_for_policy(inst)
        assert [j.label for j in ordered] == [0] * 5 + [1] * 4
        # stable by id inside each block
        assert [j.id for j in ordered] == [1, 3, 4, 5, 9, 2, 6, 7, 8]

    def test_equal_labels_keep_id_order(self, base_model, base_params):
        jobs = [Job(i, 1, 1) for i in (5, 2, 9, 1)]
        inst = Instance(jobs, base_params, base_model)
        assert [j.id for j in sort_for_policy(inst)] == [1, 2, 5, 9]

    def test_probability_estimates_sort(self, base_params):
        jobs = [
            make_job(1, 0, p_hat="0.2"),
            make_job(2, 0, p_hat="0.9"),
            make_job(3, 1, p_hat="0.5"),
        ]
        inst = Instance(jobs, base_params)
        assert [j.id for j in sort_for_policy(inst)] == [2, 3, 1]

    def test_output_is_permutation_and_monotone(self, base_model, base_params):
        inst = sample_instance(60, base_model, base_params, seed=5)
        ordered = sort_for_policy(inst)
        assert sorted(j.id for j in ordered) == sorted(j.id for j in inst.jobs)
        prios = [priority(inst, j) for j in ordered]
        assert all(a >= b for a, b in zip(prios, prios[1:]))


class TestInstanceValidation:
    @staticmethod
    def refused(jobs, model, message):
        with pytest.raises(InvalidInstanceError) as info:
            Instance(jobs, PARAMS, model)
        assert str(info.value) == message

    def test_empty_rejected(self):
        self.refused([], MODEL, "an instance needs at least one job")

    def test_mixed_modes_rejected(self):
        jobs = [Job(1, 0, label=0), make_job(2, 1, p_hat="0.5")]
        self.refused(jobs, MODEL, "instance mixes binary labels and probability estimates")

    def test_job_needs_exactly_one_prediction(self):
        message = "job 1: exactly one of label / p_hat must be set"
        self.refused([Job(1, 0)], MODEL, message)
        self.refused([Job(1, 0, label=0, p_hat=F(1, 2))], MODEL, message)

    def test_binary_mode_needs_model(self):
        self.refused([Job(1, 0, 0)], None, "binary-label instances need a prediction model")

    def test_duplicate_ids_rejected(self):
        self.refused([Job(1, 0, 0), Job(1, 1, 1)], MODEL, "duplicate job id 1")

    @pytest.mark.parametrize("true_type", [2, -1, None, "0", 0.5])
    def test_bad_true_type(self, true_type):
        self.refused([Job(1, 0, 0), Job(7, true_type, 0)], MODEL,
                     "job 7: true_type must be 0 or 1")

    @pytest.mark.parametrize("label", [2, -1, "1", 0.5])
    def test_bad_label(self, label):
        self.refused([Job(3, 1, label)], MODEL, "job 3: label must be 0 or 1")

    @pytest.mark.parametrize("p_hat", [F(-1, 10), -1, F(11, 10), 2, 1 + 1e-9, NAN, INF, -INF,
                                       F(10 ** 30 + 1, 10 ** 30)])
    def test_p_hat_outside_the_unit_interval(self, p_hat):
        self.refused([make_job(2, 0, p_hat="1/2"), Job(4, 0, p_hat=p_hat)], None,
                     "job 4: p_hat must lie in [0,1]")

    @pytest.mark.parametrize("p_hat", [0, 1, F(0), F(1), 0.0, 1.0, "0", "1", F(1, 10 ** 30)])
    def test_p_hat_ends_accepted(self, p_hat):
        inst = Instance([make_job(1, 0, p_hat=p_hat)], PARAMS)
        assert inst.jobs[0].p_hat == to_fraction(p_hat)

    @pytest.mark.parametrize("release", [F(-1, 3), -1, F(-1, 10 ** 30)])
    def test_negative_release(self, release):
        jobs = [Job(1, 0, 0), Job(2, 1, 1, release_time=release)]
        self.refused(jobs, MODEL, "job 2: negative release time")

    # each of these once validated: a float release then broke run()'s tick
    # grid, a float or Fraction label its posterior lookup, a bool label the
    # instance file, a str p_hat the range check, and a float id the file too
    @pytest.mark.parametrize("release", [0.5, NAN, 0.0, -0.5, -INF, "0", None, True])
    def test_release_must_be_an_int_or_a_fraction(self, release):
        jobs = [Job(1, 0, 0), Job(2, 1, 1, release_time=release)]
        self.refused(jobs, MODEL, "job 2: release must be an int or a Fraction")

    @pytest.mark.parametrize("label", [1.0, F(0), True, False])
    def test_label_must_be_an_int(self, label):
        self.refused([Job(3, 1, label)], MODEL, "job 3: label must be 0 or 1")

    @pytest.mark.parametrize("true_type", [1.0, F(0), True, False])
    def test_true_type_must_be_an_int(self, true_type):
        self.refused([Job(3, true_type, 1)], MODEL, "job 3: true_type must be 0 or 1")

    @pytest.mark.parametrize("p_hat", ["1/2", "0"])
    def test_str_p_hat(self, p_hat):
        self.refused([Job(4, 0, p_hat=p_hat)], None, "job 4: p_hat must lie in [0,1]")

    @pytest.mark.parametrize("job_id", [1.0, F(2), True, "1"])
    def test_id_must_be_an_int(self, job_id):
        self.refused([Job(job_id, 0, 0)], MODEL, f"job {job_id!r}: id must be an int")

    def test_accepted_odd_types_run_and_round_trip(self):
        # an int release, and a float or bool p_hat, are exact numbers
        jobs = [Job(1, 0, p_hat=0.1, release_time=2), Job(2, 1, p_hat=True)]
        inst = Instance(jobs, PARAMS)
        assert load_instance(dump_instance(inst)) == inst
        out = run(inst, POLICIES["modified-beta"])
        assert out.completion_ticks == {2: 5, 1: 15}

    def test_checks_in_order(self):
        """Each job's checks run in order, and the first failing job decides."""
        self.refused([Job(1, 0, 0), Job(1, 2, 5, release_time=F(-1))], MODEL,
                     "job 1: true_type must be 0 or 1")
        self.refused([Job(1, 0, 0), Job(1, 0, 5, release_time=F(-1))], MODEL,
                     "job 1: label must be 0 or 1")
        self.refused([Job(1, 0, 0), Job(1, 0, 0, release_time=F(-1))], MODEL,
                     "job 1: negative release time")
        self.refused([Job(1, 0, 0), Job(2, 0, p_hat=F(1, 2)), Job(2, 0, 0)], MODEL,
                     "duplicate job id 2")

    @settings(max_examples=300)
    @given(jobs=st.one_of(st.lists(st.one_of(jobs_of_any_fields, jobs_of_any_fields.map(tuple)),
                                   max_size=5), near_valid_jobs()),
           with_model=st.booleans())
    # one job per type check, and p_hat = 1: the search alone finds these only
    # by chance, and Hypothesis seeds it from literals in the package's source
    @example(jobs=[Job(1, True, 1)], with_model=True)
    @example(jobs=[Job(1, 0, 1.0)], with_model=True)
    @example(jobs=[Job(1, 0, 0, release_time=0.5)], with_model=True)
    @example(jobs=[Job(1.0, 0, 0)], with_model=True)
    @example(jobs=[Job(1, 0, p_hat=F(1))], with_model=False)
    def test_matches_the_reference_loop(self, jobs, with_model):
        """Accepted, or refused with the same exception type and message, as the
        reference loop of `Fraction` comparisons; a plain tuple is not a Job.
        An accepted instance runs and round-trips through its file."""
        model = MODEL if with_model else None

        def outcome(build):
            try:
                build()
            except Exception as exc:  # noqa: BLE001 - every refusal is compared
                return type(exc), str(exc)
            return None

        want = outcome(lambda: reference_validate(tuple(jobs), model))
        assert outcome(lambda: Instance(jobs, PARAMS, model)) == want
        if want is not None:
            return
        # what validates runs, or is refused with a SchedulingError, under
        # every policy and reveal, and survives its instance file
        inst = Instance(jobs, PARAMS, model)
        for policy in POLICIES.values():
            for revelation in (EXACT_REVELATION, PosteriorRevelation()):
                try:
                    run(inst, policy, revelation, rng=random.Random(0))
                except SchedulingError:
                    pass
        for oracle in (offline_wspt, offline_wsrpt_cost):
            try:
                oracle(inst)
            except SchedulingError:
                pass
        assert load_instance(dump_instance(inst)) == inst

    def test_weight_assignment(self, base_model, base_params):
        assert Job(1, 0, 0).weight(base_params) == 20
        assert Job(1, 1, 0).weight(base_params) == 1


class TestMakeJob:
    def test_coerces_to_fractions(self):
        job = make_job(3, 1, p_hat="0.25", release_time=2)
        assert job == Job(3, 1, None, F(1, 4), F(2))
        assert type(job.p_hat) is type(job.release_time) is Fraction

    def test_release_time_defaults_to_the_shared_zero(self):
        assert make_job(1, 0, label=0).release_time is ZERO


class TestSerialization:
    def test_binary_roundtrip(self, base_model, base_params):
        inst = sample_instance(12, base_model, base_params, seed=4)
        again = load_instance(dump_instance(inst))
        assert again.jobs == inst.jobs
        assert again.params == inst.params
        assert again.model == inst.model

    def test_probabilistic_roundtrip(self, base_params):
        jobs = [
            make_job(1, 0, p_hat="3/4", release_time="1/2"),
            make_job(2, 1, p_hat="0.25"),
        ]
        inst = Instance(jobs, base_params)
        again = load_instance(dump_instance(inst))
        assert again.jobs == inst.jobs
        assert again.model is None

    def test_missing_header_rejected(self):
        with pytest.raises(InvalidInstanceError):
            load_instance("1,0,0,0\n")

    def test_release_times_roundtrip_exactly(self, base_model, base_params):
        jobs = [Job(1, 0, 0, release_time=F(7, 3)), Job(2, 1, 1)]
        inst = Instance(jobs, base_params, base_model)
        again = load_instance(dump_instance(inst))
        assert again.jobs[0].release_time == F(7, 3)
