"""Recorded outputs behind the benchmark's checks, and a self-test of the checks.

    python3 perfbench/expected.py record     # rewrite expected.json from this checkout
    python3 perfbench/expected.py selftest   # altered outputs must be rejected

`record` computes table 0 of every workload at the default seed and stores
the SHA-256 of its text, plus the sweep's analytic_ratio column, which does
not depend on the seed. Record only from a commit whose outputs are known to
be right: later changes must reproduce these bytes.

`selftest` shows that the checks accept the real output and reject altered
copies: single-digit changes at the default seed (caught by the digest) and,
at another seed, targeted changes that break an invariant the checks hold at
any seed. It exits 1 if any altered copy passes or the real output fails.
"""

from __future__ import annotations

import json
import sys

from run import load_program
import workloads as wl

OTHER_SEED = 1


def table0(name: str, seed: int, expected: dict):
    workload = wl.WORKLOADS[name](load_program(), seed, expected)
    return workload, workload.product(workload.inputs(0), lambda i: None)


def record() -> int:
    digests, analytic = {}, None
    for name in wl.WORKLOADS:
        _, text = table0(name, wl.DEFAULT_SEED, {})
        digests[name] = wl.sha256(text)
        if name == wl.SweepBatch.name:
            analytic = [row["analytic_ratio"] for row in wl.parse_csv(text)[2]]
    data = {"default_seed": wl.DEFAULT_SEED, "digests": digests, "sweep_analytic_ratio": analytic}
    wl.EXPECTED_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


def digit_flips(text: str, count: int = 6):
    """Copies of `text` with one digit changed, at positions spread over it."""
    positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    for j in range(count):
        i = positions[(2 * j + 1) * len(positions) // (2 * count)]
        altered = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        yield f"digit {text[i]!r} at byte {i}", altered


def set_field(text: str, line_prefix_or_index, column: int, value: str) -> str:
    """Copy of `text` with one comma-separated field of one line replaced."""
    lines = text.split("\n")
    if isinstance(line_prefix_or_index, int):
        index = line_prefix_or_index
    else:
        index = next(i for i, line in enumerate(lines) if line.startswith(line_prefix_or_index))
    fields = lines[index].split(",")
    fields[column] = value
    lines[index] = ",".join(fields)
    return "\n".join(lines)


def first_data_line(text: str) -> int:
    """Index of the first row after a CSV's comment header and column line."""
    lines = text.split("\n")
    return next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1


def invariant_breaks(name: str, text: str):
    """(description, altered text) pairs that break a seed-independent check."""
    if name == wl.SweepBatch.name:
        row = first_data_line(text) + 6  # eps 0.05, first policy after opt
        yield "analytic_ratio changed", set_field(text, row, 3, "9.5")
        yield "policy mean below opt", set_field(text, row, 4, "0.5")
    elif name == wl.ArrivalsPoisson.name:
        row = first_data_line(text)
        yield "mean ratio below 1", set_field(text, row, 3, "0.999")
        yield "max below mean", set_field(text, row + 1, 5, "1")
    elif name == wl.AnalyticScaling.name:
        yield "tree value changed", set_field(text, "tree,", 3, "1")
        yield "opt above a policy", set_field(text, "eu,", 3, "1000000000")
        yield "ratio below 1", set_field(text, "cr,", 2, "0.9")
    elif name == wl.PosteriorReveal.name:
        yield "cost below offline_wspt", set_field(text, 1, 2, "1")
        yield "preemptions above n", set_field(text, 1, 3, "201")


def selftest() -> int:
    expected = wl.load_expected()
    bad = 0

    def verdict(label, results, want_pass):
        nonlocal bad
        passed = all(ok for _, ok in results)
        failing = [n for n, ok in results if not ok]
        good = passed == want_pass
        bad += not good
        outcome = "accepted" if passed else f"rejected by {failing}"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {outcome}")

    for name in wl.WORKLOADS:
        workload, text = table0(name, wl.DEFAULT_SEED, expected)
        verdict(f"{name} seed {wl.DEFAULT_SEED} as computed", workload.check(text, 0), True)
        for what, altered in digit_flips(text):
            verdict(f"{name} seed {wl.DEFAULT_SEED} {what}", workload.check(altered, 0), False)
        workload, text = table0(name, OTHER_SEED, expected)
        verdict(f"{name} seed {OTHER_SEED} as computed", workload.check(text, 0), True)
        for what, altered in invariant_breaks(name, text):
            verdict(f"{name} seed {OTHER_SEED} {what}", workload.check(altered, 0), False)
    print("self-test passed" if not bad else f"self-test FAILED: {bad} wrong verdict(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    commands = {"record": record, "selftest": selftest}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} record|selftest")
    sys.exit(commands[sys.argv[1]]())
