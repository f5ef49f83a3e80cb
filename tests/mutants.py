"""Mutation gate: each listed edit of the package must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of `MUTANTS` names a file of `src/betasched`, an exact piece of
its text, the text to put in its place, and the test ids that must catch the
edit. The script first runs every named test on an unedited copy of `src/`
and `tests/`, and all of them must pass. Then, for each entry, it makes a new
copy, applies the edit and runs that entry's tests in a subprocess; up to one
entry per CPU runs at once, each in its own copy and working directory, and
the report lines come out in `MUTANTS` order. The entry passes only if every
named test fails (for a parametrized test, at least one of its cases; a run
that stops early, on an import error say, fails them all). A run that takes
longer than `RUN_TIMEOUT` seconds is stopped and fails its tests too: a
mutant that makes a test loop forever is reported as timed out, and the gate
goes on; on the unedited copy a timeout fails the gate. An entry whose old
text is gone, or no longer unique, fails too, so the list cannot rot
silently. Hypothesis runs with a fixed seed, so a run is repeatable; it also
seeds its search from literals in `src/`, so a property test catches a
mutant for sure only through an explicit example. The exit code is 1 if anything failed.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# seconds per pytest run: the longest, the unedited copy's, takes a few, and
# each hanging mutant costs this much of the gate's 3-minute budget
RUN_TIMEOUT = 30


class Mutant(NamedTuple):
    name: str
    file: str  # under src/betasched
    old: str
    new: str
    tests: tuple[str, ...]


TREE_ORACLE = (
    "tests/test_engine.py::TestIntegerTree::test_one_pass_equals_the_oracle_at_every_n",
    "tests/test_engine.py::TestIntegerTree::test_random_channels_equal_the_oracle",
)

RELEASE_KERNELS = "tests/test_engine.py::TestReleaseKernels::"
VALIDATION = "tests/test_domain.py::TestInstanceValidation::"
PROBE = "tests/test_policies.py::"
POSTERIOR = "tests/test_domain.py::TestPosterior::"
RECORDS = "tests/test_analytics.py::TestRatioRecords::"
GOLDEN = "tests/test_products_golden.py::test_data_product_is_golden"
LIMITS = "tests/test_cli.py::TestConfigValidation::"
ARRIVALS = "tests/test_cli.py::TestArrivalsDriver::"
SAMPLER = "tests/test_engine.py::TestPosteriorRevelation::"
CLOSE_WEIGHTS = "tests/test_analytics.py::TestHybridAtCloseWeights::"
REFUSAL = "        raise ContractViolationError(\"a policy may not change a label_flags probe's queue\")\n"

MUTANTS = (
    Mutant(
        "verify compares only the root with no label-0 job",
        "experiments.py",
        "enumerate(zip(best, rule)) if b[0] != r[0]]",
        "enumerate(zip(best[:1], rule[:1])) if b[0] != r[0]]",
        ("tests/test_cli.py::TestVerifySuites::"
         "test_optimality_failures_match_the_every_n_reference[shift-1e-1]",),
    ),
    Mutant(
        "the process pool imported with the package",
        "experiments.py",
        "from collections import deque\n",
        "from collections import deque\nfrom concurrent.futures import ProcessPoolExecutor\n",
        ("tests/test_imports.py::test_a_one_worker_sweep_never_imports_the_process_pool",),
    ),
    Mutant(
        "w1 on the weight grid without its scale",
        "domain.py",
        "w1.numerator * (wden // w1.denominator))",
        "w1.numerator * wden)",
        ("tests/test_domain.py::TestParameters::test_integer_pairs_are_not_fields",
         "tests/test_engine.py::TestIntegerTree::test_random_channels_equal_the_oracle",
         "tests/test_analytics.py::TestExpectationOracle::test_equals_the_fraction_body"),
    ),
    Mutant(
        "argmax_theta returns the newest entry",
        "policies.py",
        "        top = heap[0]\n        return top[3], top[4]\n",
        "        return next(reversed(self._fifo.items()))\n",
        ("tests/test_policies.py::TestInterruptedQueueOps::test_matches_a_plain_list[exact-reveal]",
         "tests/test_policies.py::TestInterruptedQueueOps::"
         "test_matches_a_plain_list[posterior-reveal]",
         "tests/test_policies.py::TestInterruptedQueueArgmax"),
    ),
    Mutant(
        "first_id returns the newest job",
        "policies.py",
        "        return next(iter(self._fifo))\n",
        "        return next(reversed(self._fifo))\n",
        ("tests/test_policies.py::TestInterruptedQueueOps::test_matches_a_plain_list[exact-reveal]",
         "tests/test_policies.py::TestFixedPolicies::"
         "test_nonpreemptive_completes_interrupted_work_first"),
    ),
    Mutant(
        "remove leaves dead heap tops",
        "policies.py",
        "        while heap and heap[0][3] not in fifo:\n            heappop(heap)\n",
        "",
        ("tests/test_policies.py::TestInterruptedQueueOps::"
         "test_matches_a_plain_list[posterior-reveal]",
         "tests/test_engine.py::TestThetaHeapDifferential::test_stale_heap_entries"),
    ),
    Mutant(
        "run() counts no preemption when the next decision opens",
        "engine.py",
        "            if target != pending:\n",
        "            if target is not None and target != pending:\n",
        ("tests/test_engine.py::TestWorkedExample",
         "tests/test_engine.py::TestReleaseDates::test_arrival_visible_at_reveal_point_preempts"),
    ),
    Mutant(
        "label_flags accepts any answer",
        "policies.py",
        "    if target is not None and target != 1:\n",
        "    if False:\n",
        ("tests/test_policies.py::TestLabelFlagsProbe::test_wrong_answer_names_the_policy",
         "tests/test_engine.py::TestLabelKernel::test_flags_reject_an_illegal_answer"),
    ),
    Mutant(
        "label_probability takes any label",
        "domain.py",
        "        if label not in (0, 1):\n            raise ValueError(f\"label must be 0 or 1, "
        "got {label}\")\n        num, den = self._label0_rate\n",
        "        num, den = self._label0_rate\n",
        ("tests/test_domain.py::TestPosterior::test_refuses_a_label_other_than_0_or_1",),
    ),
    Mutant(
        "alpha_point_cr_bound takes any alpha",
        "analytics.py",
        'num, den = unit_ratio("alpha", to_fraction(alpha))',
        "num, den = to_fraction(alpha).as_integer_ratio()",
        ("tests/test_analytics.py::TestAlphaPointBound::"
         "test_alpha_outside_the_unit_interval_is_refused",),
    ),
    # the tree-row mutants: each breaks one hoisted term of a layer
    Mutant(
        "lin not advanced per row",
        "engine.py",
        "                lin += lin_row\n",
        "",
        TREE_ORACLE,
    ),
    Mutant(
        "kb started at the label-0 base for u0 = 0",
        "engine.py",
        "kb = k_done * bi  #",
        "kb = k_done * (b1 + dc)  #",
        TREE_ORACLE,
    ),
    Mutant(
        "the two labels' hoisted products swapped",
        "engine.py",
        "al, bl = a[lab], d - a[lab]",
        "al, bl = a[1 - lab], d - a[1 - lab]",
        TREE_ORACLE,
    ),
    Mutant(
        "the label-1 row reads prev[1]",
        "engine.py",
        "(1, b1, prev[:1])",
        "(1, b1, prev[1:2])",
        TREE_ORACLE,
    ),
    Mutant(
        "a row's own costs not advanced per ell",
        "engine.py",
        "                        lo += step\n",
        "",
        TREE_ORACLE,
    ),
    Mutant(
        "bl * cr dropped from a probed row's ell coefficient",
        "engine.py",
        "row = (x, step + d * cq + bl * cr, d * cr)",
        "row = (x, step + d * cq, d * cr)",
        TREE_ORACLE,
    ),
    Mutant(
        "the label mixture's Horner rule run in qa",
        "engine.py",
        "num = num * qb + binom * qa_u0 * row[0]",
        "num = num * qa + binom * qa_u0 * row[0]",
        ("tests/test_engine.py::TestTreeMatchesClosedForms::test_rule_cost_equals_expected_unconditional",
         "tests/test_engine.py::TestIntegerTree::test_public_evaluators_take_the_last_entry"),
    ),
    # the release-date kernels: WSRPT's yield, resume and urgent-release
    # tests, and the label kernel's finish of an unprobed class's job
    Mutant(
        "WSRPT yields at the tie",
        "engine.py",
        "if w0 * x <= cut:",
        "if w0 * x < cut:",
        (RELEASE_KERNELS + "test_urgent_release_at_the_tie_does_not_preempt",
         RELEASE_KERNELS + "test_wsrpt_kernel_at_release_instants[tie-on-the-last-release]"),
    ),
    Mutant(
        "WSRPT resumes a yielded job with a full unit",
        "engine.py",
        "                    t = n0\n",
        "                    t = n0\n                    x = den\n",
        (RELEASE_KERNELS + "test_wsrpt_kernel_at_release_instants[two-urgent-while-yielded]",
         RELEASE_KERNELS + "test_wsrpt_kernel_matches_offline_wsrpt"),
    ),
    Mutant(
        # the machine then makes no progress at that instant; the test's step
        # budget turns the endless loop into a failure
        "WSRPT starts a non-urgent job over an urgent one released this instant",
        "engine.py",
        "if n0 <= t:  # run the released urgent job whole",
        "if n0 < t:  # run the released urgent job whole",
        (RELEASE_KERNELS + "test_wsrpt_kernel_at_release_instants[urgent-at-a-completion]",),
    ),
    # the next two keep a job set aside that the next step finishes: the
    # ticks are the same, one step later, so only the step count sees them
    Mutant(
        "label-0 fold kept while the next label-0 head is released",
        "engine.py",
        "if f0 or f1 and n1 <= t < n0:",
        "if f0 or f1 and n1 <= t:",
        (RELEASE_KERNELS + "test_label_kernel_at_release_instants[label-1-probed]",),
    ),
    Mutant(
        "label-1 fold kept when an unprobed label-0 head is released",
        "engine.py",
        "if f1 or f0 and n0 <= t:",
        "if f1 or n0 <= t:",
        (RELEASE_KERNELS + "test_label_kernel_at_release_instants[never-preempting]",),
    ),
    Mutant(
        "label-0 fold taken when the probed label-1 head is released at the alpha point",
        "engine.py",
        "if f0 or f1 and n1 <= t < n0:",
        "if f0 or f1 and n1 < t < n0:",
        (RELEASE_KERNELS + "test_label_kernel_at_release_instants[label-1-head-at-alpha]",),
    ),
    Mutant(
        "label-1 fold taken when the probed label-0 head is released at the alpha point",
        "engine.py",
        "if f1 or f0 and n0 <= t:",
        "if f1 or f0 and n0 < t:",
        (RELEASE_KERNELS + "test_label_kernel_at_release_instants[label-0-head-at-alpha]",),
    ),
    # the arrival driver's one split and its inline gaps
    Mutant(
        "the split sends an urgent label-0 job to label 1",
        "engine.py",
        "        if label:\n            r1.append(tick)\n",
        "        if label or not y:\n            r1.append(tick)\n",
        ("tests/test_engine.py::TestReleaseLists::test_equals_the_compress_split_plus_the_sentinel",
         ARRIVALS + "test_ratios_equal_the_engine_path", GOLDEN + "[arrivals-csv]"),
    ),
    Mutant(
        "the per-type lists swapped in the WSRPT call",
        "experiments.py",
        "wsrpt_release_ticks(urgent, non_urgent, w0, w1, den)",
        "wsrpt_release_ticks(non_urgent, urgent, w0, w1, den)",
        (ARRIVALS + "test_ratios_equal_the_engine_path", GOLDEN + "[arrivals-csv]"),
    ),
    Mutant(
        "a gap drawn from u, not 1.0 - u",
        "experiments.py",
        "t += -log(1.0 - rand()) / lam",
        "t += -log(rand()) / lam",
        (ARRIVALS + "test_release_times_draw_like_expovariate",
         ARRIVALS + "test_ratios_equal_the_engine_path", GOLDEN + "[arrivals-csv]"),
    ),
    # run()'s unopened head, the theta heap and the grid's point count
    Mutant(
        "run() never advances the unopened head",
        "engine.py",
        "            target = pend[pi][1]\n            pi += 1\n",
        "            target = pend[pi][1]\n",
        ("tests/test_engine.py::TestWorkedExample",
         "tests/test_engine.py::TestThetaHeapDifferential::test_release_dates"),
    ),
    Mutant(
        "add pushes no entry onto a built theta heap",
        "policies.py",
        "            heappush(heap, theta_key(theta, self._seq, job_id))\n",
        "",
        ("tests/test_policies.py::TestInterruptedQueueOps::"
         "test_matches_a_plain_list[posterior-reveal]",
         "tests/test_engine.py::TestThetaHeapDifferential::test_p_hat_grid"),
    ),
    Mutant(
        "the grid point limit refuses its own value",
        "cli.py",
        "if count > GRID_POINT_LIMIT:",
        "if count >= GRID_POINT_LIMIT:",
        ("tests/test_cli.py::TestCliCommands::test_grid_point_limit_is_exact",),
    ),
    # run() keeps one list on the instance and inserts each run's arrivals
    # into it, so a second run of the instance starts from the first's queue
    Mutant(
        "pend kept as the list run() inserts into",
        "engine.py",
        "    pend = list(pend)           # sorted (rank, job_id, label, priority)\n",
        "    pend = instance.__dict__.setdefault('_pend', list(pend))\n",
        # (the property test beside it fails too, after about 30 s of shrinking)
        ("tests/test_engine.py::TestLayoutReuse::test_release_date_instances",),
    ),
    # posterior reveal without rational arithmetic
    Mutant(
        "a Fraction sample",
        "policies.py",
        "                    return y / (y + x)\n",
        "                    return Fraction(y / (y + x))\n",
        (SAMPLER + "test_sample_is_the_float_draw",),
    ),
    # the stdlib's Beta body, inlined in PosteriorRevelation.sample
    Mutant(
        "Cheng's reject bound at 1e-6",
        "policies.py",
        "\n            if not 1e-7 < u1 < 0.9999999:\n",
        "\n            if not 1e-6 < u1 < 0.9999999:\n",
        (SAMPLER + "test_sample_is_the_float_draw",
         SAMPLER + "test_random_shapes_draw_the_stdlib_floats"),
    ),
    Mutant(
        "u2 drawn as random(), not 1.0 - random()",
        "policies.py",
        "            u2 = 1.0 - random()\n            v = log(u1 / (1.0 - u1)) / ainv\n",
        "            u2 = random()\n            v = log(u1 / (1.0 - u1)) / ainv\n",
        (SAMPLER + "test_sample_is_the_float_draw",
         SAMPLER + "test_every_shape_branch_draws_the_stdlib_floats",
         SAMPLER + "test_random_shapes_draw_the_stdlib_floats"),
    ),
    Mutant(
        "type 0's and type 1's Cheng constants swapped",
        "policies.py",
        "        a, b, cheng = self._draws[true_type != 0]\n",
        "        a, b, _ = self._draws[true_type != 0]\n"
        "        cheng = self._draws[true_type == 0][2]\n",
        (SAMPLER + "test_sample_is_the_float_draw",
         SAMPLER + "test_random_shapes_draw_the_stdlib_floats"),
    ),
    # the squeeze only spares a log call: the floats stay, the log count does not
    Mutant(
        "LOG4 for SG_MAGICCONST in the squeeze",
        "policies.py",
        "            if r + SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):\n                break\n",
        "            if r + LOG4 - 4.5 * z >= 0.0 or r >= log(z):\n                break\n",
        (SAMPLER + "test_sample_is_the_float_draw",
         SAMPLER + "test_random_shapes_draw_the_stdlib_floats"),
    ),
    Mutant(
        "tau computed in floats",
        "policies.py",
        "    if (a * d - c * b) * f * (h - g) > e * g * b * d:\n",
        "    if a / b > c / d + e / f * g / (h - g):\n",
        ("tests/test_policies.py::TestModifiedBeta::test_head_exactly_at_raised_threshold_completes",
         "tests/test_policies.py::TestModifiedBeta::test_float_theta_is_read_exactly",
         "tests/test_engine.py::TestThetaHeapDifferential::test_threshold_boundaries"),
    ),
    Mutant(
        "the old worst_q form, sqrt(r + m^2) - m",
        "analytics.py",
        "        root = math.sqrt((rn * md * md + mn * mn * rd) / (rd * md * md)) + mn / md\n"
        "        return rn / rd / root if root else 0.0\n",
        "        return math.sqrt((rn * md * md + mn * mn * rd) / (rd * md * md)) - mn / md\n",
        ("tests/test_analytics.py::TestWorstQ::test_nonpreemptive_at_weights_one_ulp_apart",
         "tests/test_analytics.py::TestWorstQ::test_hybrid_at_close_weights"),
    ),
    # instance construction on integer ratios
    Mutant(
        "p_hat = 1 refused",
        "domain.py",
        "if not 0 <= num <= den:",
        "if not 0 <= num < den:",
        (VALIDATION + "test_p_hat_ends_accepted", VALIDATION + "test_matches_the_reference_loop"),
    ),
    Mutant(
        "a negative release accepted",
        "domain.py",
        "            if release_time.numerator < 0:\n"
        "                raise InvalidInstanceError(f\"job {job.id}: negative release time\")\n",
        "",
        (VALIDATION + "test_negative_release", VALIDATION + "test_checks_in_order"),
    ),
    Mutant(
        "a duplicate id accepted",
        "domain.py",
        "            if job_id in seen_ids:\n"
        "                raise InvalidInstanceError(f\"duplicate job id {job_id}\")\n",
        "",
        (VALIDATION + "test_duplicate_ids_rejected", VALIDATION + "test_checks_in_order"),
    ),
    # the type checks: each value below once validated, then broke run() or
    # the instance file
    Mutant(
        "a bool or float true_type accepted",
        "domain.py",
        "if type(true_type) is not int or true_type not in (0, 1):",
        "if true_type not in (0, 1):",
        (VALIDATION + "test_true_type_must_be_an_int",
         VALIDATION + "test_matches_the_reference_loop"),
    ),
    Mutant(
        "a bool, float or Fraction label accepted",
        "domain.py",
        "if type(label) is not int or label not in (0, 1):",
        "if label not in (0, 1):",
        (VALIDATION + "test_label_must_be_an_int", VALIDATION + "test_matches_the_reference_loop"),
    ),
    Mutant(
        "a p_hat without an integer ratio reaches the range check",
        "domain.py",
        "except (AttributeError, ValueError, OverflowError):\n                    num, den = 1, 0",
        "except (ValueError, OverflowError):\n                    num, den = 1, 0",
        (VALIDATION + "test_str_p_hat",),
    ),
    Mutant(
        "a float release accepted",
        "domain.py",
        "            if type(release_time) not in (int, Fraction):\n"
        "                raise InvalidInstanceError(f\"job {job.id}: release must be an int or a "
        "Fraction\")\n",
        "",
        (VALIDATION + "test_release_must_be_an_int_or_a_fraction",
         VALIDATION + "test_matches_the_reference_loop"),
    ),
    Mutant(
        "a float or bool id accepted",
        "domain.py",
        "            if type(job_id) is not int:\n"
        "                raise InvalidInstanceError(f\"job {job_id!r}: id must be an int\")\n",
        "",
        (VALIDATION + "test_id_must_be_an_int", VALIDATION + "test_matches_the_reference_loop"),
    ),
    # a channel's model, the regime probe and the ratio records, built
    # without per-call object overhead
    Mutant(
        "label_flags asks about label 1 with the label-0 head",
        "policies.py",
        "    head[0] = (0, 2, 1, model.posterior(1))\n",
        "",
        (PROBE + "TestLabelFlagsProbe::test_views_show_label_0_then_label_1",
         PROBE + "TestLabelFlagsReference::test_equals_the_fresh_probe"),
    ),
    Mutant(
        "posterior(1) over every job, not over the label-1 jobs",
        "domain.py",
        "Fraction(u1, den - u0 - v0)",
        "Fraction(u1, den)",
        (POSTERIOR + "test_pairs_and_posteriors_are_not_fields",
         POSTERIOR + "test_matches_fraction_oracle"),
    ),
    Mutant(
        "the two posteriors swapped",
        "domain.py",
        "_posteriors=(Fraction(u0, u0 + v0), Fraction(u1, den - u0 - v0))",
        "_posteriors=(Fraction(u1, den - u0 - v0), Fraction(u0, u0 + v0))",
        (POSTERIOR + "test_pairs_and_posteriors_are_not_fields",
         POSTERIOR + "test_matches_fraction_oracle"),
    ),
    Mutant(
        "CrValue's two fields in swapped order",
        "analytics.py",
        "    value: float\n    worst_q: Optional[float]\n\n\nclass HybridCrValue",
        "    worst_q: Optional[float]\n    value: float\n\n\nclass HybridCrValue",
        (RECORDS + "test_fields_in_order", RECORDS + "test_repr_text",
         "tests/test_sweep_cr_golden.py::test_sweep_cr_output_is_golden"),
    ),
    Mutant(
        "the probe's job 1 at theta = 1/2",
        "policies.py",
        "_ProbeQueue([(1, ZERO)])",
        "_ProbeQueue([(1, Fraction(1, 2))])",
        (PROBE + "TestLabelFlagsReference::test_equals_the_fresh_probe",
         PROBE + "TestLabelFlagsRobustness::test_every_call_shows_job_1_at_zero"),
    ),
    Mutant(
        "the probe's interrupted job is job 2",
        "policies.py",
        "_ProbeQueue([(1, ZERO)])",
        "_ProbeQueue([(2, ZERO)])",
        (PROBE + "TestLabelFlagsReference::test_equals_the_fresh_probe",
         PROBE + "TestLabelFlagsRobustness::test_every_call_shows_job_1_at_zero"),
    ),
    Mutant(
        "the shared probe queue lets a rule remove job 1",
        "policies.py",
        "    remove = add\n",
        "",
        (PROBE + "TestLabelFlagsRobustness::test_later_calls_unchanged[remover]",),
    ),
    Mutant(
        "the shared probe queue lets a rule add a job",
        "policies.py",
        "    def add(self, *args):\n" + REFUSAL + "\n    remove = add\n",
        "    def remove(self, *args):\n" + REFUSAL,
        (PROBE + "TestLabelFlagsRobustness::test_later_calls_unchanged[adder]",),
    ),
    Mutant(
        "a zero error rate still draws",
        "domain.py",
        "if num and draw(den) < num else",
        "if draw(den) < num else",
        ("tests/test_domain.py::TestSampleInstance::test_matches_the_bernoulli_loop",),
    ),
    Mutant(
        "eps0 written into the eps1 cell",
        "experiments.py",
        "map(_cell, (float(model.eps0), float(model.eps1), policy, *cells))",
        "map(_cell, (float(model.eps0), float(model.eps0), policy, *cells))",
        (GOLDEN + "[sweep-csv]", GOLDEN + "[arrivals-json]", GOLDEN + "[cr-csv]"),
    ),
    Mutant(
        "arrivals' mean and max cells swapped",
        "experiments.py",
        "_row(ARRIVAL_COLUMNS, model, name, mean, stderr, max(column),",
        "_row(ARRIVAL_COLUMNS, model, name, max(column), stderr, mean,",
        (GOLDEN + "[arrivals-csv]", GOLDEN + "[arrivals-json]"),
    ),
    Mutant(
        "the regime cell written on every cr row",
        "experiments.py",
        "cr.value, cr.worst_q, None))",
        "cr.value, cr.worst_q, report.regime.value))",
        (GOLDEN + "[cr-csv]", GOLDEN + "[cr-json]"),
    ),
    Mutant(
        "the replication limit refuses its own value",
        "experiments.py",
        "if config.replications > REPLICATION_LIMIT:",
        "if config.replications >= REPLICATION_LIMIT:",
        (LIMITS + "test_replication_limit_is_exact",),
    ),
    # the dropped checks are caught by tests that build a config or stub the
    # grid's worker or the grid itself out, never by one that would draw the
    # oversized run
    Mutant(
        "no replication limit",
        "experiments.py",
        "if config.replications > REPLICATION_LIMIT:",
        "if False:",
        (LIMITS + "test_replication_limit_is_exact",),
    ),
    # the kept models built lazily: a bad rate surfaces at the first chunk
    # that reads its model (and a pool's copies cannot be indexed)
    Mutant(
        "a config that leaves rho and the rates to the first chunk",
        "experiments.py",
        "tuple(PredictionModel(self.rho, e0, e1) for e0, e1 in self.eps_pairs)",
        "(PredictionModel(self.rho, e0, e1) for e0, e1 in self.eps_pairs)",
        ("tests/test_imports.py::test_a_bad_channel_is_refused_before_any_pool_starts",
         LIMITS + "test_the_config_refuses_a_bad_channel"),
    ),
    Mutant(
        "the kept models built with each point's rates swapped",
        "experiments.py",
        "tuple(PredictionModel(self.rho, e0, e1) for e0, e1 in self.eps_pairs)",
        "tuple(PredictionModel(self.rho, e1, e0) for e0, e1 in self.eps_pairs)",
        ("tests/test_cli.py::TestCliCommands::test_independent_error_grids",
         GOLDEN + "[sweep-csv]", GOLDEN + "[arrivals-csv]", GOLDEN + "[cr-csv]"),
    ),
    Mutant(
        "the arrival n limit refuses its own value",
        "experiments.py",
        "if config.n > ARRIVAL_N_LIMIT:",
        "if config.n >= ARRIVAL_N_LIMIT:",
        (LIMITS + "test_arrival_n_limit_is_exact",),
    ),
    Mutant(
        "no arrival n limit",
        "experiments.py",
        "if config.n > ARRIVAL_N_LIMIT:",
        "if False:",
        (LIMITS + "test_arrival_n_limit_is_exact",),
    ),
    Mutant(
        "the worst urgent fraction raises past the float range",
        "analytics.py",
        "    except OverflowError:\n        pass\n",
        "    except ZeroDivisionError:\n        pass\n",
        ("tests/test_analytics.py::TestWorstQ::test_weights_past_the_float_range_apart",
         "tests/test_analytics.py::TestNonpreemptiveCap::test_tiny_alpha"),
    ),
    Mutant(
        "m scaled by 4^j, like r",
        "analytics.py",
        "_maximiser(rn, rd << 2 * j, mn, md << j), j)",
        "_maximiser(rn, rd << 2 * j, mn, md << 2 * j), j)",
        ("tests/test_analytics.py::TestWorstQ::test_weights_past_the_float_range_apart",
         "tests/test_analytics.py::TestWorstQ::test_hybrid_at_weights_past_the_float_range_apart"),
    ),
    Mutant(
        "each pool task carries the whole grid",
        "experiments.py",
        "    plan = [(one, gi, one.models[0]) for gi, one in enumerate(copies)]\n",
        "    plan = [(config, gi, model) for gi, model in enumerate(config.models)]\n",
        ("tests/test_cli.py::TestSweepDriver::test_a_pool_task_does_not_grow_with_the_grid",),
    ),
    # the hybrid ratio where lambda > 1, which grows like 1/(w0 - w1)
    Mutant(
        "the hybrid's lambda > 1 form dropped",
        "analytics.py",
        "        if ln > ld:  # lambda > 1",
        "        if False:  # lambda > 1",
        (CLOSE_WEIGHTS + "test_weights_1e_200_apart",
         CLOSE_WEIGHTS + "test_equals_the_decimal_value"),
    ),
    Mutant(
        "gap for gap * gap in the hybrid's t",
        "analytics.py",
        "t = (gap * gap * ln * ln + w0 * w1 * an * an)",
        "t = (gap * ln * ln + w0 * w1 * an * an)",
        (CLOSE_WEIGHTS + "test_equals_the_decimal_value",),
    ),
    Mutant(
        "no batch n limit",
        "experiments.py",
        "if config.n > SWEEP_N_LIMIT:",
        "if False:",
        (LIMITS + "test_sweep_n_limit_is_exact",),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_tests(tree: Path, tests) -> tuple[int, list[str]]:
    """(pytest's exit code, the FAILED and ERROR ids it reports) for `tests` in `tree`.

    A run that ends before its tests do (exit code 2 or more: an import or
    collection error, say) counts every one of them as failed, and so does a
    run stopped after `RUN_TIMEOUT` seconds, whose exit code reads None.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, list(tests)
    if proc.returncode > 1:
        return proc.returncode, list(tests)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]
    return proc.returncode, failed


def caught(test: str, failed: list[str]) -> bool:
    """Whether `test`, one of its cases or the file holding it is among `failed`."""
    return any(f == test or f.startswith((test + "[", test + "::")) or test.startswith(f + "::")
               for f in failed)


def check_mutant(tree: Path, mutant: Mutant) -> str:
    """The gate's report line for `mutant`, run in a fresh copy at `tree`:
    it starts with "ok" only if every named test failed."""
    copy_tree(tree)
    try:
        path = tree / "src" / "betasched" / mutant.file
        text = path.read_text()
        count = text.count(mutant.old)
        if count != 1:
            return f"FAIL {mutant.name}: old text found {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        code, failed = failed_tests(tree, mutant.tests)
    finally:
        shutil.rmtree(tree)
    survived = [test for test in mutant.tests if not caught(test, failed)]
    if survived:
        return f"FAIL {mutant.name}: these tests still pass: {survived}"
    timed_out = f" (timed out after {RUN_TIMEOUT} s)" if code is None else ""
    return f"ok   {mutant.name}: caught by {len(mutant.tests)} test(s){timed_out}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code, failed = failed_tests(base, every_test)
        if code != 0:
            reason = f"timed out after {RUN_TIMEOUT} s" if code is None else f"exit code {code}"
            print(f"FAIL unedited copy: pytest {reason}, failed {failed}")
            return 1
        print(f"ok   unedited copy: {len(every_test)} named tests pass", flush=True)
        # each mutant has its own copy and working directory, so up to one per
        # CPU run at once; `map` hands the lines back in `MUTANTS` order
        bad = 0
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            trees = [Path(tmp) / f"mutant-{i}" for i in range(len(MUTANTS))]
            for line in pool.map(check_mutant, trees, MUTANTS):
                print(line, flush=True)
                bad += not line.startswith("ok")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
