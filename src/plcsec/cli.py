"""Command-line front end.

Subcommands::

    plcsec sweep CONFIG [--out FILE]      run one sweep config, emit CSV
    plcsec preset NAME [--out FILE] [--samples K] [--quad-order L] [--seed S]
    plcsec validate CONFIG                parse + validate, print resolved form

``preset`` runs its Monte Carlo on every CPU this process may use; the
thread count never changes a result.  ``sweep`` keeps the config's
``monte_carlo.workers``.

Exit status: 0 on success, 1 if any sweep point failed (remaining rows are
still emitted), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from pathlib import Path

from .config import dump_config, load_config
from .errors import ConfigError
from .presets import available_presets, get_preset
from .sweep import SweepError, SweepSpec, rows_to_csv, run_sweep


@contextmanager
def _output(out: Path | None):
    """Where the CSV goes: stdout, or ``out``, opened before any sweep runs so
    that a path that cannot be written fails at once."""
    if out is None:
        yield sys.stdout
        return
    # The sweeps run inside but do no file I/O: an OSError is the file's.
    try:
        with out.open("w") as fh:
            yield fh
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot write output file {str(out)!r}: {reason}") from None


def _report_errors(errors: list[SweepError], label: str = "") -> None:
    prefix = f"[{label}] " if label else ""
    for err in errors:
        print(
            f"{prefix}ERROR axis={err.axis_value} method={err.method}: {err.message}",
            file=sys.stderr,
        )


def _cmd_sweep(args) -> int:
    spec = load_config(args.config)
    with _output(args.out) as fh:
        rows, errors = run_sweep(spec)
        fh.write(rows_to_csv(rows))
    _report_errors(errors, spec.label)
    return 1 if errors else 0


def _apply_overrides(spec: SweepSpec, args) -> SweepSpec:
    if args.samples is not None:
        spec = replace(spec, mc=replace(spec.mc, samples=args.samples))
    if args.seed is not None:
        spec = replace(spec, mc=replace(spec.mc, seed=args.seed))
    if args.quad_order is not None:
        spec = replace(spec, quadrature_order=args.quad_order)
    return spec


def _cmd_preset(args) -> int:
    workers = _usable_cpus()
    specs = [
        _apply_overrides(replace(s, mc=replace(s.mc, workers=workers)), args)
        for s in get_preset(args.name)
    ]
    chunks = []
    failed = False
    with _output(args.out) as fh:
        for spec in specs:
            rows, errors = run_sweep(spec)
            chunks.append(f"# preset: {args.name} variant: {spec.label}\n" + rows_to_csv(rows))
            _report_errors(errors, spec.label)
            failed = failed or bool(errors)
        fh.write("\n".join(chunks))
    return 1 if failed else 0


def _cmd_validate(args) -> int:
    spec = load_config(args.config)
    sys.stdout.write(dump_config(spec))
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the OS cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``plcsec`` parser, built once per process: each ``parse_args``
    call starts from a fresh namespace, so no argument carries over."""
    parser = argparse.ArgumentParser(
        prog="plcsec",
        description="Secrecy metrics of a pinhole power-line network "
        "with best-destination scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep config and emit CSV")
    p_sweep.add_argument("config", type=Path, help="YAML sweep configuration")
    p_sweep.add_argument("--out", type=Path, default=None, help="write CSV here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser(
        "preset",
        help="run a named preset (%s)" % ", ".join(available_presets()),
    )
    p_preset.add_argument("name", help="preset name")
    p_preset.add_argument("--out", type=Path, default=None)
    p_preset.add_argument("--samples", type=int, default=None, help="Monte Carlo samples per point")
    p_preset.add_argument("--quad-order", type=int, default=None, help="Gauss-Hermite order")
    p_preset.add_argument("--seed", type=int, default=None, help="Monte Carlo master seed")
    p_preset.set_defaults(func=_cmd_preset)

    p_val = sub.add_parser("validate", help="validate a config and print the resolved form")
    p_val.add_argument("config", type=Path)
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
