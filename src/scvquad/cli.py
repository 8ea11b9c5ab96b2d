"""Seeded experiment campaigns over the quadrature methods, emitting CSV.

Subcommands: ``rates`` (error-decay scatter over a list of grid sizes),
``histogram`` (signed-error distribution at one grid size), ``tails``
(confidence-level error of SCV on shrinking corner bumps), ``verify``
(Monte Carlo suites for the concentration inequalities).  Batch only.

Configuration comes from, in increasing precedence: built-in per-command
defaults, the SCV_SEED environment variable (seed only), a flat
``key = value`` config file, command-line flags.  Each command accepts
only the flags and keys of the settings it reads; any other option, like
any bad value, is a configuration error (exit 1).  Identical invocations
produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .estimators import BudgetError, EstimatorConfig, Method, Mode, _check_seed
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

# Ceiling on --threads: an ensemble starts up to that many OS threads.
_MAX_THREADS = 256
# Ceiling on --trials: a moment-bound check holds about 16 bytes per trial
# and summand at once, some 2.6 GB for the 16-summand mixture at 10^7.
_MAX_TRIALS = 10**7


class ConfigError(ValueError):
    """Invalid campaign configuration."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"need an integer >= 1, got {value}")
    return value


def _at_most(limit: int, noun: str) -> Callable[[str], int]:
    """Parser of a positive integer no larger than `limit`."""
    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > limit:
            raise ValueError(f"need at most {limit} {noun}, got {value}")
        return value
    return parse


def _seed(text: str) -> int:
    value = int(text)
    _check_seed(value)
    return value


def _methods(text: str) -> list[Method]:
    choices = {m.value: m for m in Method}
    names = [name.strip().lower() for name in text.split(",") if name.strip()]
    if not names or any(name not in choices for name in names):
        raise ValueError(f"methods must be a nonempty list of {', '.join(choices)}, got {text!r}")
    return [choices[name] for name in names]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _deltas(text: str) -> list[float]:
    values = _floats(text)
    if not values or any(not 0.0 < dl < 1.0 for dl in values):
        raise ValueError(f"delta values must be a nonempty list in (0,1), got {text!r}")
    return values


def _thresholds(text: str) -> list[float]:
    values = _floats(text)
    if not all(t >= 0.0 for t in values):  # nan included
        raise ValueError(f"thresholds must be >= 0, got {text!r}")
    return values


def _grid_sizes(text: str) -> list[int]:
    sizes = [_positive_int(tok) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise ValueError("need at least one grid size")
    return sizes


def _grid_size(text: str) -> int:
    sizes = _grid_sizes(text)
    if len(sizes) != 1:
        raise ValueError(f"this campaign takes one grid size, got {text!r}")
    return sizes[0]


class _Setting(NamedTuple):
    flag: str | None  # command-line flag, if any
    key: str | None  # config-file key, if any
    parse: Callable[[str], object]  # text -> validated value; raises ValueError
    help: str = ""


# Every setting a campaign can read.  A command accepts exactly the flags and
# config-file keys of the settings it declares in _COMMANDS.
_SETTINGS = {
    "seed": _Setting("--seed", "seed", _seed, "master seed (fallback: SCV_SEED env var)"),
    "threads": _Setting("--threads", None, _at_most(_MAX_THREADS, "threads"),
                        "replication workers"),
    "methods": _Setting("--method", "method", _methods, "comma-separated method names"),
    "s": _Setting("--s", "s", _positive_int, "interpolation order"),
    "d": _Setting(None, "d", _positive_int),
    "p": _Setting(None, "p", float),
    "m_list": _Setting("--m", "m_list", _grid_sizes, "comma-separated grid sizes"),
    "m": _Setting("--m", "m_list", _grid_size, "grid size"),
    "reps": _Setting("--reps", "R", _positive_int, "replications per configuration"),
    "k": _Setting("--k", "k", _positive_int, "median-of-means group count"),
    "delta_list": _Setting("--delta", "delta_list", _deltas, "comma-separated uncertainty levels"),
    "thresholds": _Setting(None, "thresholds", _thresholds),
    "bins": _Setting(None, "bins", _positive_int),
    "mode": _Setting("--mode", "mode", Mode, " or ".join(m.value for m in Mode) + " nodes"),
    "trials": _Setting("--trials", "trials", _at_most(_MAX_TRIALS, "trials"), "Monte Carlo trials"),
}


def _parsed(name: str, text: str, where: str):
    try:
        return _SETTINGS[name].parse(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read_config_file(path: Path, command: str) -> dict:
    names = {_SETTINGS[name].key: name for name in _COMMANDS[command][1] if _SETTINGS[name].key}
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(
                f"{path}:{lineno}: {command} takes no key {key!r}; it takes {', '.join(names)}"
            )
        values[names[key]] = _parsed(names[key], raw, f"{path}:{lineno}: {key}")
    return values


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve the command's settings: default < SCV_SEED < config file < flag."""
    values = dict(_COMMANDS[args.command][1])
    env_seed = os.environ.get("SCV_SEED")
    if env_seed is not None:
        values["seed"] = _parsed("seed", env_seed, "SCV_SEED")
    if args.config is not None:  # a missing file raises OSError: exit 1
        values.update(_read_config_file(Path(args.config), args.command))
    for name in values:
        text = getattr(args, name, None)
        if text is not None:
            values[name] = _parsed(name, text, _SETTINGS[name].flag)
    return argparse.Namespace(out=Path(args.out) if args.out else None, **values)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One line per row, fields joined by commas with `str` (a float's
    shortest round-trip repr); no field holds a comma or a quote."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(str, row)) + "\n" for row in rows)


def _ensembles(settings, m_list: list[int]) -> list:
    """Replication ensembles of the 2-d test function per (method, m).

    Skips, with a line on stderr, configurations whose budget cannot be
    met.  Returns each ensemble's summary-row prefix with its error sample.
    """
    f = test_function_2d()
    ensembles = []
    for method in settings.methods:
        for m in m_list:
            cfg = EstimatorConfig(method=method, s=settings.s, m=m, k=settings.k,
                                  interpolation_mode=settings.mode)
            try:
                evals = cfg.budget(f.dim)
            except BudgetError as exc:
                print(f"skipping {method.value} at m={m}: {exc}", file=sys.stderr)
                continue
            seed = derive_seed(settings.seed, _METHOD_ORDER.index(method), m)
            sample = replicate(f, cfg, settings.reps, seed, workers=settings.threads)
            ensembles.append(([method.value, settings.s, f.dim, m, evals], sample))
    return ensembles


def _write_campaign(out: Path, ensembles: list, summary_rows: list) -> None:
    """The raw rows of every ensemble to `out`, the summary rows beside it."""
    summary = out.with_name(out.stem + "_summary" + (out.suffix or ".csv"))
    prefixes = [(",".join(map(str, base)), sample) for base, sample in ensembles]
    _write_csv(out, RAW_HEADER, ((prefix, rep, err) for prefix, sample in prefixes
                                 for rep, err in enumerate(sample.errors.tolist())))
    _write_csv(summary, SUMMARY_HEADER, summary_rows)
    print(f"wrote {out} and {summary}")


def cmd_rates(settings) -> int:
    """Replication ensembles per (method, m); raw errors plus max/quantile summaries."""
    ensembles = _ensembles(settings, settings.m_list)
    summary_rows = []
    for base, sample in ensembles:
        summary_rows.append(base + ["max_abs_error", float(abs(sample.errors).max())])
        summary_rows.append(base + ["q99_error", prob_error(sample, 0.01)])
    _write_campaign(settings.out or Path("rates.csv"), ensembles, summary_rows)
    return EXIT_OK


def cmd_histogram(settings) -> int:
    """Signed-error distribution per method at one grid size."""
    ensembles = _ensembles(settings, [settings.m])
    summary_rows = []
    for base, sample in ensembles:
        summary_rows.append(base + ["mean_error", float(sample.errors.mean())])
        for threshold in settings.thresholds:
            summary_rows.append(
                base + [f"tail_fraction_{threshold:g}", tail_fraction(sample, threshold)]
            )
        for i, (left, right, count) in enumerate(histogram(sample, settings.bins)):
            summary_rows.append(base + [f"hist_left_{i}", left])
            summary_rows.append(base + [f"hist_right_{i}", right])
            summary_rows.append(base + [f"hist_count_{i}", count])
    _write_campaign(settings.out or Path("histogram.csv"), ensembles, summary_rows)
    return EXIT_OK


def cmd_tails(settings) -> int:
    """Confidence-level error of SCV on corner bumps rebuilt per delta.

    Emits the delta-level quantile error and the maximum error over the
    replications, and the fitted exponent of the maximum error against
    log(1/delta).  The quantile gets no exponent: a corner bump is hit
    with probability below delta, so its delta-level quantile is exactly
    the bump's integral and its exponent is -1/2 whatever the estimator.
    `corner_bump` rejects settings outside the regime s < d/p.
    """
    out = settings.out or Path("tails.csv")
    cfg = EstimatorConfig(method=Method.SCV, s=settings.s, m=settings.m,
                          interpolation_mode=settings.mode)
    base = [Method.SCV.value, settings.s, settings.d, settings.m, cfg.budget(settings.d)]
    summary_rows = []
    max_points = []
    for i, delta in enumerate(settings.delta_list):
        f = corner_bump(settings.s, settings.d, settings.p, settings.m, delta)
        sample = replicate(f, cfg, settings.reps, derive_seed(settings.seed, 3, i),
                           workers=settings.threads)
        e_max = float(abs(sample.errors).max())
        summary_rows.append(base + [f"prob_error_delta_{delta:g}", prob_error(sample, delta)])
        summary_rows.append(base + [f"max_abs_error_delta_{delta:g}", e_max])
        max_points.append((1.0 / delta, e_max))
    if len(max_points) >= 2:
        summary_rows.append(base + ["delta_exponent_max", fit_rate(max_points)])
    _write_csv(out, SUMMARY_HEADER, summary_rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(settings) -> int:
    """Run both concentration-inequality suites; exit 2 on any violation."""
    reports = (hoeffding_default_suite(settings.trials, derive_seed(settings.seed, 101))
               + mz_default_suite(settings.trials, derive_seed(settings.seed, 102)))
    lines = [f"{'PASS' if r.holds else 'FAIL'} {r.label}: {r.detail}" for r in reports]
    failures = sum(not r.holds for r in reports)
    verdict = "all bounds hold" if failures == 0 else f"{failures} bound check(s) failed"
    lines.append(verdict)
    text = "\n".join(lines)
    print(text)
    if settings.out is not None:
        settings.out.write_text(text + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# rates and histogram run the same ensembles of the 2-d test function
_ENSEMBLE_DEFAULTS = dict(seed=0, threads=1, methods=[Method.CV, Method.CV_MOM, Method.SCV],
                          s=2, k=11, mode=Mode.DETERMINISTIC)

# command -> (campaign, {setting: default}); the settings a campaign reads
_COMMANDS = {
    "rates": (cmd_rates, dict(_ENSEMBLE_DEFAULTS, m_list=[1, 2, 4, 8, 16, 32, 64], reps=1000)),
    "histogram": (cmd_histogram, dict(_ENSEMBLE_DEFAULTS, m=4, reps=100_000,
                                      thresholds=[2.5, 2.9], bins=50)),
    "tails": (cmd_tails, dict(seed=0, threads=1, s=1, d=2, p=1.0, m=8, reps=10_000,
                              delta_list=[0.1, 0.05, 0.02], mode=Mode.SHIFTED)),
    "verify": (cmd_verify, dict(seed=0, trials=100_000)),
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ConfigError (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scvquad",
        description="Seeded quadrature experiments with CSV output.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, defaults) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0], allow_abbrev=False)
        cmd.add_argument("--config", metavar="PATH", help="flat key = value config file")
        cmd.add_argument("--out", metavar="PATH", help="output path")
        for setting in defaults:
            flag, _, _, help_text = _SETTINGS[setting]
            if flag:
                cmd.add_argument(flag, dest=setting, help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_settings(args))
    except (ValueError, OSError) as exc:  # ConfigError and BudgetError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
