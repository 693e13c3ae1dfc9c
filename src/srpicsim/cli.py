"""Command line front end: run scenarios, sweep a parameter, compare arms.

Exit status 0 on success, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .scenario import (
    COMPARE_COLUMNS,
    ConfigError,
    compare,
    format_value,
    load_scenario,
    override_param,
    parse_csv,
    rows_to_csv,
    run_scenario,
)


def _check_out(out: str | None) -> None:
    """Fail with a ConfigError if ``--out`` cannot be written.

    Commands call it after validating their input and before running, so
    an unwritable path is not a traceback after the whole simulation.
    Appending nothing leaves an existing file as it is.
    """
    if out is None or out == "-":
        return
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror or exc}") from exc


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_run(args) -> int:
    """Run a scenario's points in one ``run_scenario`` call, so a command
    forks at most once, and emit their rows in ``row_key`` order.

    ``run`` is the sweep over no parameter: its one point is the file's
    scenario.  ``sweep`` has one point per ``--values`` entry, named
    ``name[param=value]``; a point named twice is rejected before any runs.
    """
    cfg = load_scenario(args.config)
    if args.seed_count is not None:
        try:
            cfg = replace(cfg, seeds=tuple(range(1, args.seed_count + 1)))
        except ConfigError as exc:  # ScenarioConfig's nonempty-seeds rule
            raise ConfigError(f"--seed-count {args.seed_count}: {exc}") from exc
        except OverflowError as exc:  # more seeds than a tuple can hold
            raise ConfigError(f"--seed-count {args.seed_count}: too many seeds") from exc
    points = [cfg]
    if args.param is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v != ""]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
        if not values:
            raise ConfigError("--values: at least one value required")
        points = []
        for value in values:
            name = f"{cfg.name}[{args.param}={format_value(value)}]"
            if any(point.name == name for point in points):
                raise ConfigError(f"--values: {format_value(value)} is given twice ({name})")
            points.append(replace(override_param(cfg, args.param, value), name=name))
    _check_out(args.out)
    _write(rows_to_csv(run_scenario(*points)), args.out)
    return 0


def cmd_compare(args) -> int:
    try:
        with open(args.csv, "r", encoding="utf-8") as fh:
            rows = parse_csv(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    _check_out(args.out)
    summary = compare(rows)
    _write(rows_to_csv(summary, COMPARE_COLUMNS), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srpicsim",
        description="Paired experiments for in-driver sorting of reordered TCP packets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    points = argparse.ArgumentParser(add_help=False)
    points.add_argument("config", help="scenario YAML file")
    points.add_argument("--out", default=None, help="output CSV path (default stdout)")
    points.add_argument(
        "--seed-count", type=int, default=None, help="replace the config's seed list with seeds 1..N"
    )

    p_run = sub.add_parser("run", parents=[points], help="run one scenario file, emit per-run CSV")
    p_run.set_defaults(func=cmd_run, param=None)

    p_sweep = sub.add_parser("sweep", parents=[points], help="run a scenario across parameter values")
    p_sweep.add_argument("--param", required=True, help="e.g. beta, delta, fwd.beta")
    p_sweep.add_argument("--values", required=True, help="comma separated values, e.g. 0.002,0.01")
    p_sweep.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="summarize a run CSV into paired statistics")
    p_cmp.add_argument("csv", help="CSV produced by 'run' or 'sweep'")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
