"""Seeded experiment campaigns over the quadrature methods, emitting CSV.

Subcommands: ``rates`` (error-decay scatter over a list of grid sizes),
``histogram`` (signed-error distribution at one grid size), ``tails``
(confidence-level error of SCV on shrinking corner bumps), ``verify``
(Monte Carlo suites for the concentration inequalities).  Batch only.

Configuration comes from, in increasing precedence: built-in per-command
defaults, the SCV_SEED environment variable (seed only), a flat
``key = value`` config file, command-line flags.  Identical invocations
produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .estimators import (
    DETERMINISTIC,
    SHIFTED,
    BudgetError,
    EstimatorConfig,
    Method,
)
from .stats import (
    derive_seed,
    fit_rate,
    histogram,
    hoeffding_default_suite,
    mz_default_suite,
    prob_error,
    replicate,
    tail_fraction,
)
from .testbed import corner_bump, test_function_2d

__all__ = ["main", "RAW_HEADER", "SUMMARY_HEADER", "EXIT_OK", "EXIT_CONFIG", "EXIT_VERIFY"]

RAW_HEADER = ["method", "s", "d", "m", "n_evals", "rep", "signed_error"]
SUMMARY_HEADER = ["method", "s", "d", "m", "n_evals", "stat", "value"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2

_METHOD_ORDER = list(Method)


class ConfigError(ValueError):
    """Invalid campaign configuration."""


@dataclass
class Settings:
    command: str
    methods: list[Method]
    s: int
    d: int
    m_list: list[int]
    reps: int
    k: int
    seed: int
    delta_list: list[float]
    thresholds: list[float]
    mode: str
    p: float
    bins: int
    trials: int
    threads: int = 1
    out: Path | None = None


_DEFAULTS = {
    "rates": dict(
        methods=[Method.CV, Method.CV_MOM, Method.SCV],
        s=2, d=2, m_list=[1, 2, 4, 8, 16, 32, 64], reps=1000, k=11,
        delta_list=[0.01], thresholds=[2.5, 2.9], mode=DETERMINISTIC,
        p=1.0, bins=50, trials=100_000,
    ),
    "histogram": dict(
        methods=[Method.CV, Method.CV_MOM, Method.SCV],
        s=2, d=2, m_list=[4], reps=100_000, k=11,
        delta_list=[0.01], thresholds=[2.5, 2.9], mode=DETERMINISTIC,
        p=1.0, bins=50, trials=100_000,
    ),
    "tails": dict(
        methods=[Method.SCV],
        s=1, d=2, m_list=[8], reps=10_000, k=11,
        delta_list=[0.1, 0.05, 0.02], thresholds=[], mode=SHIFTED,
        p=1.0, bins=50, trials=100_000,
    ),
    "verify": dict(
        methods=[], s=2, d=2, m_list=[4], reps=1000, k=11,
        delta_list=[0.01], thresholds=[], mode=DETERMINISTIC,
        p=1.0, bins=50, trials=100_000,
    ),
}


def _parse_methods(text: str) -> list[Method]:
    methods = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            methods.append(Method(name))
        except ValueError:
            raise ConfigError(
                f"unknown method {name!r}; choose from "
                + ", ".join(m.value for m in Method)
            ) from None
    if not methods:
        raise ConfigError("method list is empty")
    return methods


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_mode(text: str) -> str:
    text = text.strip()
    if text not in (DETERMINISTIC, SHIFTED):
        raise ConfigError(f"mode must be {DETERMINISTIC!r} or {SHIFTED!r}, got {text!r}")
    return text


# config-file key -> (settings attribute, parser)
_FILE_KEYS = {
    "method": ("methods", _parse_methods),
    "s": ("s", int),
    "d": ("d", int),
    "m_list": ("m_list", _parse_int_list),
    "R": ("reps", int),
    "k": ("k", int),
    "seed": ("seed", int),
    "delta_list": ("delta_list", _parse_float_list),
    "thresholds": ("thresholds", _parse_float_list),
    "mode": ("mode", _parse_mode),
    "p": ("p", float),
    "bins": ("bins", int),
    "trials": ("trials", int),
}


def _read_config_file(path: Path) -> dict:
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parse = _FILE_KEYS[key]
        try:
            values[attr] = parse(raw.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _settings(args: argparse.Namespace) -> Settings:
    merged = dict(_DEFAULTS[args.command])
    merged["seed"] = 0
    env_seed = os.environ.get("SCV_SEED")
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SCV_SEED must be an integer, got {env_seed!r}") from None
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        merged.update(_read_config_file(path))
    overrides = {
        "methods": _parse_methods(args.method) if args.method else None,
        "s": args.s,
        "m_list": _parse_int_list(args.m) if args.m else None,
        "reps": args.reps,
        "k": args.k,
        "seed": args.seed,
        "delta_list": _parse_float_list(args.delta) if args.delta else None,
        "mode": _parse_mode(args.mode) if args.mode else None,
        "trials": args.trials,
    }
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    settings = Settings(
        command=args.command,
        threads=args.threads,
        out=Path(args.out) if args.out else None,
        **merged,
    )
    if settings.s < 1 or settings.d < 1:
        raise ConfigError(f"need s >= 1 and d >= 1, got s={settings.s}, d={settings.d}")
    if settings.reps < 1:
        raise ConfigError(f"need R >= 1, got {settings.reps}")
    if settings.threads < 1:
        raise ConfigError(f"need threads >= 1, got {settings.threads}")
    if any(m < 1 for m in settings.m_list) or not settings.m_list:
        raise ConfigError(f"m_list must be nonempty positive integers, got {settings.m_list}")
    if any(not 0.0 < dl < 1.0 for dl in settings.delta_list):
        raise ConfigError(f"delta values must lie in (0,1), got {settings.delta_list}")
    if not 0 <= settings.seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {settings.seed}")
    return settings


def _fmt(value) -> str:
    """Full round-trip decimal formatting for CSV fields."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _summary_path(out: Path) -> Path:
    return out.with_name(out.stem + "_summary" + (out.suffix or ".csv"))


def _campaign_seed(settings: Settings, method: Method, m: int) -> int:
    return derive_seed(settings.seed, _METHOD_ORDER.index(method), m)


def _estimator_config(settings: Settings, method: Method, m: int) -> EstimatorConfig:
    return EstimatorConfig(
        method=method, s=settings.s, m=m, k=settings.k,
        interpolation_mode=settings.mode,
    )


def _check_test_function(settings: Settings) -> None:
    if settings.d != 2:
        raise ConfigError(f"the {settings.command} campaign uses the 2-d test function; need d=2")
    bad = [m.value for m in settings.methods if m is Method.CRUDE]
    if bad:
        raise ConfigError("crude Monte Carlo takes an explicit sample count and is not part of this campaign")


def _ensembles(settings: Settings, m_list: list[int], raw_rows: list):
    """Replication ensembles of the 2-d test function per (method, m).

    Skips, with a line on stderr, configurations whose budget cannot be
    met.  Appends each ensemble's raw rows to `raw_rows` and yields its
    summary-row prefix with the error sample.
    """
    _check_test_function(settings)
    f = test_function_2d()
    for method in settings.methods:
        for m in m_list:
            cfg = _estimator_config(settings, method, m)
            try:
                evals = cfg.budget(settings.d)
            except BudgetError as exc:
                print(f"skipping {method.value} at m={m}: {exc}", file=sys.stderr)
                continue
            sample = replicate(f, cfg, settings.reps, _campaign_seed(settings, method, m),
                               workers=settings.threads)
            base = [method.value, settings.s, settings.d, m, evals]
            raw_rows.extend(base + [rep, float(err)] for rep, err in enumerate(sample.errors))
            yield base, sample


def _write_campaign(out: Path, raw_rows: list, summary_rows: list) -> None:
    _write_csv(out, RAW_HEADER, raw_rows)
    _write_csv(_summary_path(out), SUMMARY_HEADER, summary_rows)
    print(f"wrote {out} and {_summary_path(out)}")


def cmd_rates(settings: Settings) -> int:
    """Replication ensembles per (method, m); raw errors plus max/quantile summaries."""
    raw_rows = []
    summary_rows = []
    for base, sample in _ensembles(settings, settings.m_list, raw_rows):
        summary_rows.append(base + ["max_abs_error", float(abs(sample.errors).max())])
        summary_rows.append(base + ["q99_error", prob_error(sample, 0.01)])
    _write_campaign(settings.out or Path("rates.csv"), raw_rows, summary_rows)
    return EXIT_OK


def cmd_histogram(settings: Settings) -> int:
    """Signed-error distribution per method at one grid size."""
    raw_rows = []
    summary_rows = []
    for base, sample in _ensembles(settings, settings.m_list[:1], raw_rows):
        summary_rows.append(base + ["mean_error", float(sample.errors.mean())])
        for threshold in settings.thresholds:
            summary_rows.append(
                base + [f"tail_fraction_{threshold:g}", tail_fraction(sample, threshold)]
            )
        for i, (left, right, count) in enumerate(histogram(sample, settings.bins)):
            summary_rows.append(base + [f"hist_left_{i}", left])
            summary_rows.append(base + [f"hist_right_{i}", right])
            summary_rows.append(base + [f"hist_count_{i}", count])
    _write_campaign(settings.out or Path("histogram.csv"), raw_rows, summary_rows)
    return EXIT_OK


def cmd_tails(settings: Settings) -> int:
    """Confidence-level error of SCV on corner bumps rebuilt per delta.

    Emits the delta-level quantile error and the maximum error over the
    replications, and the fitted exponent of the maximum error against
    log(1/delta).  The quantile gets no exponent: a corner bump is hit
    with probability below delta, so its delta-level quantile is exactly
    the bump's integral and its exponent is -1/2 whatever the estimator.
    """
    if not settings.s < settings.d / settings.p:
        raise ConfigError(
            f"tail campaign requires the low-smoothness regime s < d/p, "
            f"got s={settings.s}, d/p={settings.d / settings.p:g}"
        )
    out = settings.out or Path("tails.csv")
    m = settings.m_list[0]
    cfg = _estimator_config(settings, Method.SCV, m)
    base = [Method.SCV.value, settings.s, settings.d, m, cfg.budget(settings.d)]
    summary_rows = []
    max_points = []
    for i, delta in enumerate(settings.delta_list):
        f = corner_bump(settings.s, settings.d, settings.p, m, delta)
        sample = replicate(f, cfg, settings.reps, derive_seed(settings.seed, 3, i),
                           workers=settings.threads)
        e_max = float(abs(sample.errors).max())
        summary_rows.append(base + [f"prob_error_delta_{delta:g}", prob_error(sample, delta)])
        summary_rows.append(base + [f"max_abs_error_delta_{delta:g}", e_max])
        max_points.append((1.0 / delta, e_max))
    if len(max_points) >= 2:
        summary_rows.append(base + ["delta_exponent_max", fit_rate(max_points).slope])
    _write_csv(out, SUMMARY_HEADER, summary_rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(settings: Settings) -> int:
    """Run both concentration-inequality suites; exit 2 on any violation."""
    lines = []
    failures = 0
    for report in hoeffding_default_suite(settings.trials, derive_seed(settings.seed, 101)):
        ok = report.holds
        failures += 0 if ok else 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {report.label}: "
            f"fail_rate={report.empirical_fail_rate:.6f} <= delta={report.delta:g} "
            f"(bound={report.bound:.6g}, trials={report.trials})"
        )
    for report in mz_default_suite(settings.trials, derive_seed(settings.seed, 102)):
        ok = report.satisfied()
        failures += 0 if ok else 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'} {report.label}: "
            f"lhs={report.lhs:.6g} <= rhs={report.rhs:.6g} "
            f"(+/- {3 * (report.lhs_stderr + report.rhs_stderr):.2g} at 3 sigma)"
        )
    verdict = "all bounds hold" if failures == 0 else f"{failures} bound check(s) failed"
    lines.append(verdict)
    text = "\n".join(lines)
    print(text)
    if settings.out is not None:
        settings.out.write_text(text + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


_COMMANDS = {
    "rates": cmd_rates,
    "histogram": cmd_histogram,
    "tails": cmd_tails,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scvquad",
        description="Seeded quadrature experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        cmd.add_argument("--config", metavar="PATH", help="flat key = value config file")
        cmd.add_argument("--seed", type=int, help="master seed (fallback: SCV_SEED env var)")
        cmd.add_argument("--out", metavar="PATH", help="output path")
        cmd.add_argument("--threads", type=int, default=1, help="replication workers")
        cmd.add_argument("--method", metavar="LIST", help="comma-separated method names")
        cmd.add_argument("--s", type=int, help="interpolation order")
        cmd.add_argument("--m", metavar="LIST", help="comma-separated grid sizes")
        cmd.add_argument("--reps", type=int, help="replications per configuration")
        cmd.add_argument("--k", type=int, help="median-of-means group count")
        cmd.add_argument("--delta", metavar="LIST", help="comma-separated uncertainty levels")
        cmd.add_argument("--mode", choices=[DETERMINISTIC, SHIFTED], help="interpolation mode")
        cmd.add_argument("--trials", type=int, help="Monte Carlo trials for verify")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        return _COMMANDS[args.command](settings)
    except (ConfigError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
