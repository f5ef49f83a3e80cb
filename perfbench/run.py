"""Benchmark of betasched: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload sweep-batch --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/` and nothing is installed. The run sets up several times
(import, inputs, one warm-up call) and reports the median as `setup_s`, then
computes tables of the workload back to back for `--seconds` seconds, one
caller, and checks every table. Times are scaled to a reference machine speed
by a calibration kernel run around each interval (see calibrate.py); the wall
clock medians are printed too. `--trace 0` prints the end-to-end metrics.
`--trace 1` alternates untraced and traced computations of each table,
requires their text to be byte-identical, and prints the per-layer metrics.

Human-readable lines come first on stdout: provenance as JSON, then one
`name value unit` line per metric. The last line is the result object
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count output checks. Exit status: 0 when every check passed, 1 when one
failed; nonzero without a result line when the program cannot be loaded or a
table raises.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calibrate import ScaledClock  # noqa: E402
from tracer import Tracer, write_spans  # noqa: E402

PROGRAM_MODULES = ("cli", "experiments", "engine", "domain", "policies", "analytics")
SETUPS = 5
OUT_DIR = HERE / "out"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class LoadError(Exception):
    pass


def load_program():
    """Import betasched afresh from the checkout's src/, as a first user would."""
    src = ROOT / "src"
    if not (src / "betasched" / "__init__.py").is_file():
        raise LoadError(f"no betasched package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "betasched" or m.startswith("betasched.")]:
        del sys.modules[name]
    pkg = importlib.import_module("betasched")
    if Path(pkg.__file__).resolve().parent != (src / "betasched").resolve():
        raise LoadError(f"betasched was imported from {pkg.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"betasched.{name}") for name in PROGRAM_MODULES}
    return SimpleNamespace(package=pkg, **mods)


def set_up(workload_cls, seed: int, expected: dict):
    """One set-up: import, build the workload and table 0's inputs, warm up."""
    workload = workload_cls(load_program(), seed, expected)
    first = workload.inputs(0)
    workload.warm_up()
    return workload, first


def provenance(workload, args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            revision = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": src.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workload.params,
    }


def no_mark(i):
    pass


def measure(workload, first, seconds: float, clock, checks: list):
    """Tables back to back until the next one would pass `seconds`.

    Returns the wall and the scaled duration of every table.
    """
    walls, scaled = [], []
    begin = time.perf_counter()
    k = 0
    inp = first
    while True:
        text, wall, steady = clock.time(workload.product, inp, no_mark)
        walls.append(wall)
        scaled.append(steady)
        checks += workload.check(text, k)
        k += 1
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            return walls, scaled
        inp = workload.inputs(k)


def measure_traced(workload, first, seconds: float, clock, checks: list):
    """Untraced and traced computation of each table; per-layer metrics."""
    tracer = Tracer(vars(workload.mods))
    ratios, tables = [], []
    begin = time.perf_counter()
    k = 0
    inp = first

    def traced_table(inp):
        tracer.reset()
        tracer.install()
        try:
            return clock.time(workload.product, inp, tracer.mark)
        finally:
            tracer.uninstall()

    while True:
        # alternate which side runs first, so warm-up effects cancel in the ratio
        if k % 2:
            traced, wall, t_traced = traced_table(inp)
            plain, wall_plain, t_plain = clock.time(workload.product, inp, no_mark)
        else:
            plain, wall_plain, t_plain = clock.time(workload.product, inp, no_mark)
            traced, wall, t_traced = traced_table(inp)
        checks += workload.check(plain, k)
        checks.append(("traced text byte-identical to untraced", traced == plain))
        ratios.append(t_traced / t_plain)
        tables.append(snapshot(tracer, t_traced / wall))
        if k == 0:
            spans = tracer.spans
        k += 1
        if time.perf_counter() - begin + wall_plain + wall > seconds:
            OUT_DIR.mkdir(exist_ok=True)
            write_spans(spans, OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.csv")
            return layer_metrics(tables, ratios)
        inp = workload.inputs(k)


def snapshot(tracer, scale: float) -> dict:
    """One traced table's counters, its times scaled like the table's."""
    by_n = {}
    for nominal in wl.AnalyticScaling.N_NOMINAL:
        own = [s for n, times in tracer.self_by_n.items()
               if nominal <= n < nominal + wl.AnalyticScaling.N_JITTER for s in times]
        by_n[nominal] = statistics.fmean(own) * scale if own else 0.0
    return {
        "calls": dict(tracer.calls),
        "self_s": {name: t * scale for name, t in tracer.self_s.items()},
        "by_n": by_n,
        "preemptions": tracer.preemptions,
        "release_den_bits": statistics.median(tracer.release_den_bits)
        if tracer.release_den_bits else 0,
    }


def layer_metrics(tables: list, ratios: list) -> dict:
    """Counts from table 0, which every run computes; times as means per table."""
    first = tables[0]
    calls = first["calls"]

    def per_table(*names):
        return statistics.fmean(sum(t["self_s"].get(n, 0.0) for n in names) for t in tables)

    runs = calls.get("engine.run", 0)
    decides = calls.get("policies.decide", 0)
    return {
        "experiments.driver_self_s": per_table("experiments.run_sweep",
                                               "experiments.run_arrivals"),
        "domain.Instance.calls": calls.get("domain.Instance", 0),
        "domain.Instance.self_s": per_table("domain.Instance"),
        "domain.release_den_bits": first["release_den_bits"],
        "engine.run.calls": runs,
        "engine.run.self_s": per_table("engine.run"),
        "engine.offline_wspt.self_s": per_table("engine.offline_wspt"),
        "engine.offline_wsrpt.self_s": per_table("engine.offline_wsrpt"),
        "engine.preemptions_per_run": first["preemptions"] / runs if runs else 0,
        "policies.decide.calls": decides,
        "policies.decide.self_s": per_table("policies.decide"),
        "policies.decide_per_run": decides / runs if runs else 0,
        "analytics.expected_unconditional.self_s": per_table("analytics.expected_unconditional"),
        "analytics.expected_unconditional.n500.self_s":
            statistics.fmean(t["by_n"][500] for t in tables),
        "analytics.expected_unconditional.n2000.self_s":
            statistics.fmean(t["by_n"][2000] for t in tables),
        "analytics.competitive_ratio.self_s": per_table("analytics.competitive_ratio"),
        "engine.rule_expected_cost.self_s": per_table("engine.rule_expected_cost"),
        "cli.render_s": per_table("cli.render_csv"),
        "trace.overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        expected = wl.load_expected()
        clock = ScaledClock()
        setups = [clock.time(set_up, wl.WORKLOADS[args.workload], args.seed, expected)
                  for _ in range(SETUPS)]
        workload, first = setups[-1][0]
        checks: list = []
        wall = {}
        if args.trace:
            metrics = measure_traced(workload, first, args.seconds, clock, checks)
            units = PER_LAYER_UNITS
        else:
            walls, scaled = measure(workload, first, args.seconds, clock, checks)
            metrics = {
                "reps_per_s": statistics.median(workload.reps / t for t in scaled),
                "table_s": statistics.median(scaled),
                "setup_s": statistics.median(s[2] for s in setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            wall = {"table_s": statistics.median(walls),
                    "setup_s": statistics.median(s[1] for s in setups)}
    except (LoadError, ImportError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [name for name, ok in checks if not ok]
    print(json.dumps({"provenance": provenance(workload, args)}))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"{name} {value:.6g} s wall clock, before scaling")
    print(f"fail_ratio {len(failed) / len(checks):.6g} ratio")
    for name in sorted(set(failed)):
        print(f"FAILED CHECK: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
