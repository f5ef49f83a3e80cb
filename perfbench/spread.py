"""Repeat benchmark runs and summarise each metric as median and quartiles.

    python3 perfbench/spread.py --workload sweep-batch --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 0 --repeat 5 --out runs.json

Runs `perfbench/run.py` once per (workload, seed, repeat), one after another,
with `run_seconds` from BENCHMARK.json unless `--seconds` is given. For each
metric it prints the median, the quartiles from `statistics.quantiles(n=4)`,
and the spread (q3 - q1) / median; for an end-to-end metric with a bound it
marks whether the spread is below a third of the bound. Use the same
settings for a parent commit and a change when comparing the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(provenance, result) of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name, repeatable, or 'all'")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"),
                        help="seed list such as 1-10 or 0,7")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every value and summary as JSON")
    args = parser.parse_args()
    workloads = names if "all" in args.workload else args.workload
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in args.seeds:
            for _ in range(args.repeat):
                provenance, result = one_run(workload, seed, args.seconds, args.trace)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        provenance.pop("seed")
        report[workload] = {"provenance": provenance, "seeds": args.seeds, "repeat": args.repeat,
                            "failed_checks": failed,
                            "metrics": {n: summarise(v) for n, v in values.items()}}
        print(f"{workload}: {len(args.seeds) * args.repeat} runs, {failed} failed checks")
        for name, s in report[workload]["metrics"].items():
            mark = ""
            if name in bounds:
                mark = "steady" if s["spread"] < bounds[name] / 3 else "NOT steady"
                mark += f" (bound {bounds[name]})"
            print(f"  {name:48s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {mark}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
