"""Outside-in tracer: timing spans around the program's public functions.

The tracer never edits the program. While installed it replaces selected
module attributes with timing wrappers, so every call that the experiment
drivers and the CLI make through those names is recorded; `uninstall` puts
the originals back. The wrappers pass arguments and results through
untouched, so traced data products are byte-identical to untraced ones (the
benchmark checks this).

A span is (id, name, start, end, parent id, replication id). Spans stay in
memory; the caller writes them out with `write_spans` when the run ends.
Self time is a span's duration minus the time its child spans cover,
including the children's own bookkeeping, so wrapper overhead is not charged
to the parent layer.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from math import lcm
from time import perf_counter

# span name -> (module that defines the public name, attribute)
TRACED = {
    "experiments.run_sweep": ("experiments", "run_sweep"),
    "experiments.run_arrivals": ("experiments", "run_arrivals"),
    "cli.render_csv": ("experiments", "render_csv"),
    "domain.Instance": ("domain", "Instance"),
    "engine.run": ("engine", "run"),
    "engine.offline_wspt": ("engine", "offline_wspt"),
    "engine.offline_wsrpt": ("engine", "offline_wsrpt"),
    "engine.rule_expected_cost": ("engine", "rule_expected_cost"),
    "analytics.expected_unconditional": ("analytics", "expected_unconditional"),
    "analytics.competitive_ratio": ("analytics", "competitive_ratio"),
}
DECIDE = "policies.decide"


class Tracer:
    """Spans and per-name counters for one traced data product."""

    def __init__(self, modules):
        """`modules`: name -> module, for the package and its submodules."""
        self._modules = modules
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.self_by_n: dict[int, list[float]] = defaultdict(list)  # expected_unconditional
        self.preemptions = 0
        self.release_den_bits: list[int] = []
        self.rep = 0
        self._next_id = 0
        self._stack: list[list] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        after = {
            "domain.Instance": self._after_instance,
            "engine.run": self._after_run,
            "analytics.expected_unconditional": self._after_expected,
        }
        for span, (home, attr) in TRACED.items():
            original = getattr(self._modules.get(home), attr, None)
            if original is None:  # removed by a later change: reports 0 calls
                continue
            before = self._new_rep if span == "domain.Instance" else None
            self._patch(attr, original, self._wrap(span, original, before, after.get(span)))
        get_policy = getattr(self._modules.get("policies"), "get_policy", None)
        if get_policy is not None:
            self._patch("get_policy", get_policy, self._wrap_get_policy(get_policy))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, attr, original, wrapper) -> None:
        # rebind the name wherever it was imported, so callers see the wrapper
        for module in self._modules.values():
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, original))

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        clock = perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before()
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            rep = tracer.rep
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            own = (end - start) - frame[1]
            tracer.calls[name] += 1
            tracer.self_s[name] += own
            tracer.spans.append((sid, name, start, end, parent, rep))
            if after is not None:
                after(args, result, own)
            if stack:
                stack[-1][1] += clock() - start
            return result

        return traced

    def _wrap_get_policy(self, get_policy):
        wrapped: dict = {}

        def traced_get_policy(name):
            policy = get_policy(name)
            hit = wrapped.get(name)
            if hit is None or hit[0] is not policy:
                # replace() keeps name, preempts and fifo_stationary, which the
                # engine reads to choose its code path
                traced = dataclasses.replace(policy, decide=self._wrap(DECIDE, policy.decide))
                hit = wrapped[name] = (policy, traced)
            return hit[1]

        return traced_get_policy

    # -- counters at the same boundaries ----------------------------------

    def mark(self, rep: int) -> None:
        """Spans from now on belong to replication `rep`."""
        self.rep = rep

    def _new_rep(self) -> None:
        # the experiment drivers build one Instance per replication, first thing
        self.rep += 1

    def _after_instance(self, args, instance, own) -> None:
        den = 1
        for job in instance.jobs:
            den = lcm(den, job.release_time.denominator)
        self.release_den_bits.append(den.bit_length())

    def _after_run(self, args, outcome, own) -> None:
        self.preemptions += outcome.preemption_count

    def _after_expected(self, args, perf, own) -> None:
        self.self_by_n[args[0]].append(own)


def write_spans(spans, path) -> None:
    """CSV of recorded spans, times in seconds from the first span's start."""
    t0 = min((s[2] for s in spans), default=0.0)
    with open(path, "w") as f:
        f.write("id,name,start_s,end_s,parent,rep\n")
        for sid, name, start, end, parent, rep in sorted(spans):
            f.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{rep}\n")
