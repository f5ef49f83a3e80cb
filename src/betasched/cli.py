"""Command-line interface: sweep, arrivals, verify, run-one."""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

from .analytics import log_loss
from .domain import format_fraction, load_instance, to_fraction
from .engine import format_trace, offline_wsrpt_cost, run
from .errors import ResourceLimitError, SchedulingError
from .experiments import (
    ARRIVAL_COLUMNS,
    CR_COLUMNS,
    DEFAULT_OPTIMALITY_GRID,
    SWEEP_COLUMNS,
    ExperimentConfig,
    render_csv,
    render_json,
    run_arrivals,
    run_cr_sweep,
    run_sweep,
    verify_optimality,
    verify_regimes,
    verify_wsrpt,
)
from .policies import EXACT_REVELATION, PosteriorRevelation, get_policy


# Most points a `start:stop:step` grid may have (the default grid has 11, the
# `--cr` grid 51)
GRID_POINT_LIMIT = 10_000


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    """Grid syntax: `a,b,c` or `start:stop:step`, all exact decimals/fractions.

    A range with more than `GRID_POINT_LIMIT` points is refused before any
    point is built. Each point's range is left to the channel: the config
    refuses a rate outside [0, 1/2] when it builds that point's model.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be a,b,c or start:stop:step")
        start, stop, step = map(to_fraction, parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = max((stop - start) // step + 1, 0)
        if count > GRID_POINT_LIMIT:
            raise ResourceLimitError(
                f"grid {text!r} has more than {GRID_POINT_LIMIT} points")
        values = [start + step * i for i in range(count)]
    else:
        values = [to_fraction(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"error grid {text!r} has no points")
    return tuple(values)


def _read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; `#` starts a comment."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


# config keys that map one-to-one onto an ExperimentConfig field
_SCALAR_KEYS = {
    "alpha": ("alpha", to_fraction), "rho": ("rho", to_fraction), "w0": ("w0", to_fraction),
    "w1": ("w1", to_fraction), "n": ("n", int), "reps": ("replications", int),
    "seed": ("seed", int), "interarrival": ("interarrival", to_fraction), "jobs": ("jobs", int),
}
_CONFIG_KEYS = {*_SCALAR_KEYS, "eps-grid", "eps0-grid", "eps1-grid", "policy"}


def _build_config(args, default_reps: int) -> ExperimentConfig:
    """The values a flag or the config file gave; ExperimentConfig holds the rest."""
    file_values = _read_config_file(args.config) if args.config else {}
    unknown = set(file_values) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def given(key):  # a flag beats the file; a command without the flag reads the file
        value = getattr(args, key.replace("-", "_"), None)
        return file_values.get(key) if value is None else value

    fields = {"replications": default_reps}
    eps_text, eps0_text, eps1_text = given("eps-grid"), given("eps0-grid"), given("eps1-grid")
    if eps0_text is not None or eps1_text is not None:
        if eps0_text is None or eps1_text is None:
            raise ValueError("--eps0-grid and --eps1-grid must be given together")
        g0 = _parse_grid(eps0_text)
        g1 = _parse_grid(eps1_text)
        if len(g0) != len(g1):
            raise ValueError("eps0 and eps1 grids must have the same length")
        fields["eps_pairs"] = tuple(zip(g0, g1))
    elif eps_text is not None:
        fields["eps_pairs"] = tuple((v, v) for v in _parse_grid(eps_text))
    for key, (field, convert) in _SCALAR_KEYS.items():
        value = given(key)
        if value is not None:
            fields[field] = convert(value)

    policies = args.policy or (file_values["policy"].split(",") if "policy" in file_values else None)
    if policies:
        fields["policies"] = tuple(policies)
    return ExperimentConfig(**fields)


def _emit(args, header, columns, rows) -> None:
    text = (render_json if args.format == "json" else render_csv)(header, columns, rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(p, include_interarrival: bool) -> None:
    p.add_argument("--alpha", help="reveal fraction, exact (e.g. 0.4 or 2/5)")
    p.add_argument("--rho", help="urgent rate")
    p.add_argument("--w0", help="urgent weight")
    p.add_argument("--w1", help="non-urgent weight")
    p.add_argument("--n", type=int, help="jobs per instance")
    p.add_argument("--reps", type=int, help="Monte Carlo replications")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--eps-grid", help="error grid: a,b,c or start:stop:step (eps0=eps1)")
    p.add_argument("--eps0-grid", help="independent eps0 grid (with --eps1-grid)")
    p.add_argument("--eps1-grid", help="independent eps1 grid (with --eps0-grid)")
    p.add_argument("--policy", action="append", help="policy name; repeatable")
    p.add_argument("--jobs", type=int,
                   help="worker processes for replications (at most the CPU count)")
    if include_interarrival:
        p.add_argument("--interarrival", help="mean interarrival time (poisson mode)")
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def cmd_sweep(args) -> int:
    config = _build_config(args, default_reps=100_000)
    if args.cr:
        _emit(args, config.header("cr"), CR_COLUMNS, run_cr_sweep(config))
    else:
        _emit(args, config.header("sweep"), SWEEP_COLUMNS, run_sweep(config))
    return 0


def cmd_arrivals(args) -> int:
    config = _build_config(args, default_reps=10_000)
    _emit(args, config.header("arrivals"), ARRIVAL_COLUMNS, run_arrivals(config))
    return 0


def cmd_verify(args) -> int:
    sizes = {"--n-max": args.n_max, "--instances": args.instances, "--samples": args.samples}
    for flag, value in sizes.items():
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    suites = [
        ("optimality", lambda: verify_optimality(grid={"n": tuple(range(1, args.n_max + 1))})),
        ("wsrpt", lambda: verify_wsrpt(instances=args.instances, seed=args.seed)),
        ("regimes", lambda: verify_regimes(samples=args.samples, seed=args.seed)),
    ]
    failed = 0
    for name, suite in suites:
        failures = suite()
        if failures:
            failed += 1
            print(f"FAIL {name}: {len(failures)} failing case(s)")
            for f in failures[:5]:
                print(f"  {f}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


def cmd_run_one(args) -> int:
    instance = load_instance(Path(args.instance).read_text())
    policy = get_policy(args.policy)
    if args.revelation == "exact":
        revelation = EXACT_REVELATION
        rng = None
    else:
        revelation = PosteriorRevelation()
        rng = random.Random(args.seed or 0)
    outcome = run(instance, policy, revelation, rng=rng)
    sys.stdout.write(format_trace(outcome))
    for jid, c in sorted(outcome.completion_times.items()):
        print(f"completion,{jid},{format_fraction(c)}")
    print(f"total_cost,{format_fraction(outcome.total_cost)}")
    print(f"preemptions,{outcome.preemption_count}")
    if instance.mode == "probabilistic":
        ll = log_loss(instance)
        print(f"log_loss,{ll.value:.12g}")
        print(f"log_loss_clamped,{ll.clamped}")
    if args.against_wsrpt:
        print(f"wsrpt_cost,{format_fraction(offline_wsrpt_cost(instance))}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="betasched",
        description="Threshold scheduling with imperfect urgency predictions: "
        "sweeps, arrival studies, oracle verification, single runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="batch performance sweep over error rates")
    _add_common_flags(p_sweep, include_interarrival=False)
    p_sweep.add_argument("--cr", action="store_true",
                         help="emit worst-case ratio curves instead of Monte Carlo rows")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_arr = sub.add_parser("arrivals", help="poisson-arrival performance sweep")
    _add_common_flags(p_arr, include_interarrival=True)
    p_arr.set_defaults(fn=cmd_arrivals)

    p_ver = sub.add_parser("verify", help="run the oracle equivalence suites")
    p_ver.add_argument("--n-max", type=int, default=max(DEFAULT_OPTIMALITY_GRID["n"]),
                       help="largest instance size for the optimality oracle "
                       "(one tree pass per channel prices every size up to it)")
    p_ver.add_argument("--instances", type=int, default=300,
                       help="random instances for the preemptive-oracle suite")
    p_ver.add_argument("--samples", type=int, default=200,
                       help="random draws for the regime-consistency suite")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=cmd_verify)

    p_one = sub.add_parser("run-one", help="simulate one serialized instance")
    p_one.add_argument("instance", help="instance file")
    p_one.add_argument("--policy", default="beta")
    p_one.add_argument("--revelation", choices=("exact", "posterior"), default="exact")
    p_one.add_argument("--seed", type=int, help="rng seed for posterior revelation")
    p_one.add_argument("--against-wsrpt", action="store_true",
                       help="also print the clairvoyant preemptive cost")
    p_one.set_defaults(fn=cmd_run_one)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SchedulingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
