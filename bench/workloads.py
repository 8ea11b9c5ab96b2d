"""The benchmark's workloads.

Each workload runs replication ensembles through scvquad's public API, either
``scvquad.cli.main`` in-process or ``scvquad.replicate``, on inputs made from
the benchmark's master seed.  A chunk is the fixed unit of work that is
timed; a run repeats chunks under fresh seeds until its time is up.

Why these three (shares of the traced time per replication; see also
``baseline.json``):

* ``ensemble-small-m``: 16 cells per replication, so the estimator's own
  Python (stream set-up, einsum, ``fsum``, dispatch) takes 48 % of the time,
  seed derivation 12 % and the CLI 6 %.  Batching replications should show
  here.
* ``grid-large-m``: 10^4 to 6.5*10^4 cells per replication, so
  ``monomial_matrix`` takes 61 % of the time and seed derivation 0.13 %, and
  memory grows with ``m^d * spc * n0 * d``.  Two workers, because large
  numpy calls release the GIL.
* ``tails-shifted``: shifted mode builds a node set for every replication,
  20 % of the time; a cache of the deterministic fit is bypassed here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import scvquad
import scvquad.cli
from scvquad import EstimatorConfig, ErrorSample, Integrand

# Bound at import, so the traced run, which wraps scvquad.stats.derive_seed,
# does not count the benchmark's own seed derivations as the program's.
from scvquad.stats import derive_seed

# Seed of the warm-up estimates.  Measured seeds are hashed from the master
# seed, so a warm-up estimate never repeats a measured replication.
WARMUP_SEED = 2**64 - 1


@dataclass(frozen=True)
class Ensemble:
    """R replications of one configuration, as one chunk runs them.

    `exact_sd` is the known standard deviation of one replication's error,
    where the sample standard deviation is not a safe yardstick.
    """

    integrand: str
    d: int
    cfg: EstimatorConfig
    reps: int
    tag: str = ""
    exact_sd: float | None = None

    @property
    def config_key(self) -> str:
        return f"{self.cfg.method.value}.m{self.cfg.m}.d{self.d}"

    @property
    def key(self) -> str:
        return self.config_key + self.tag


class Workload:
    """A named list of ensembles and the program call that runs one chunk of them."""

    name: str
    ensembles: list[Ensemble]
    workers: int

    def __init__(self):
        self._integrands: dict[str, Integrand] = {}

    def integrand(self, ensemble: Ensemble) -> Integrand:
        label = ensemble.integrand
        if label not in self._integrands:
            self._integrands[label] = _INTEGRANDS[label]()
        return self._integrands[label]

    def warm_up(self) -> None:
        """One estimate per configuration, filling the plan, node-set and table caches."""
        for e in self.ensembles:
            scvquad.run(self.integrand(e), replace(e.cfg, seed=WARMUP_SEED))

    def calls(self, seed: int, workers: int, out_dir: Path) -> list[Callable[[], list[ErrorSample]]]:
        """The program calls of one chunk, each timed on its own, in order."""
        raise NotImplementedError

    def check_outputs(self, samples: list[ErrorSample], out_dir: Path) -> list[tuple[str, str]]:
        """(ensemble key, problem) for every output that disagrees with the samples."""
        return []


class CliWorkload(Workload):
    """A campaign run through ``scvquad.cli.main`` with CSV written to a directory.

    The ensembles the campaign computes are taken from its calls to
    ``replicate``, so the CSV can be checked against them.
    """

    def __init__(self, name: str, argv: list[str], ensembles: list[Ensemble]):
        super().__init__()
        self.name, self.argv, self.ensembles = name, argv, ensembles
        self.workers = 1
        self.out_name = argv[0] + ".csv"

    def calls(self, seed, workers, out_dir):
        argv = self.argv + ["--threads", str(workers), "--seed", str(seed),
                            "--out", str(out_dir / self.out_name)]
        return [lambda: self._main(argv)]

    def _main(self, argv: list[str]) -> list[ErrorSample]:
        samples = []
        inner = scvquad.cli.replicate

        def capture(*args, **kwargs):
            sample = inner(*args, **kwargs)
            samples.append(sample)
            return sample

        scvquad.cli.replicate = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = scvquad.cli.main(argv)
        finally:
            scvquad.cli.replicate = inner
        if code != 0:
            raise RuntimeError(f"scvquad {' '.join(argv)} exited with {code}")
        return samples


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class HistogramWorkload(CliWorkload):
    def check_outputs(self, samples, out_dir):
        problems = []
        raw = _read_csv(out_dir / self.out_name)
        summary = _read_csv(out_dir / (Path(self.out_name).stem + "_summary.csv"))
        for e, sample in zip(self.ensembles, samples):
            method = e.cfg.method.value
            written = np.array([float(r["signed_error"]) for r in raw if r["method"] == method])
            if written.tobytes() != sample.errors.tobytes():
                problems.append((e.key, "raw CSV differs from the computed errors"))
            stats = {r["stat"]: float(r["value"]) for r in summary if r["method"] == method}
            if stats.get("mean_error") != float(sample.errors.mean()):
                problems.append((e.key, "summary mean_error differs from the raw errors"))
            counts = sum(v for k, v in stats.items() if k.startswith("hist_count_"))
            if counts != sample.R:
                problems.append((e.key, f"histogram counts sum to {counts}, not {sample.R}"))
        return problems


class TailsWorkload(CliWorkload):
    def __init__(self, name, argv, ensembles, deltas):
        super().__init__(name, argv, ensembles)
        self.deltas = deltas

    def check_outputs(self, samples, out_dir):
        problems = []
        stats = {r["stat"]: float(r["value"]) for r in _read_csv(out_dir / self.out_name)}
        for e, sample, delta in zip(self.ensembles, samples, self.deltas):
            ordered = np.sort(np.abs(sample.errors))
            rank = math.ceil(Fraction(sample.R) * (1 - Fraction(delta)))
            if stats.get(f"prob_error_delta_{delta:g}") != float(ordered[rank - 1]):
                problems.append((e.key, "prob_error in the CSV differs from the errors"))
            if stats.get(f"max_abs_error_delta_{delta:g}") != float(ordered[-1]):
                problems.append((e.key, "max_abs_error in the CSV differs from the errors"))
        return problems


class ReplicateWorkload(Workload):
    """Ensembles run by ``scvquad.replicate``, one call per ensemble."""

    def __init__(self, name: str, ensembles: list[Ensemble], workers: int):
        super().__init__()
        self.name, self.ensembles, self.workers = name, ensembles, workers

    def calls(self, seed, workers, out_dir):
        return [
            lambda j=j, e=e: [scvquad.replicate(self.integrand(e), e.cfg, e.reps,
                                                derive_seed(seed, j), workers=workers)]
            for j, e in enumerate(self.ensembles)
        ]


def corner_bump_sd(s: int, d: int, p: float, m: int, delta: float) -> float:
    """Standard deviation of one order-1 SCV estimate of ``corner_bump(s, d, p, m, delta)``.

    At order 1 a cell's estimate is f at its one residual sample, because
    the shifted node lies in the middle half of the cell, outside the spike,
    where f is 0.  Only the corner cell varies:
    ``Var = m^-d * int f^2 - (int f)^2``, with
    ``int f^k = height^k * sigma^d * int_ball (1 - |x|^2)^(k*s)``.
    A sample standard deviation would be unreliable: a replication hits the
    spike with probability about ``pi * delta / 64``.
    """
    sigma = 0.125 * delta ** (1.0 / d) / m
    height = sigma ** (s - d / p)

    def ball(k):
        return math.gamma(k + 1) * math.pi ** (d / 2) / math.gamma(d / 2 + k + 1)

    int_f = height * sigma**d * ball(s)
    int_f2 = height**2 * sigma**d * ball(2 * s)
    return math.sqrt(int_f2 / m**d - int_f**2)


_GRID_BUMP = scvquad.BumpSpec(s=2, d=4, p=1.0, sigma=0.45, center=(0.5,) * 4)
_TAIL_DELTAS = (0.1, 0.05, 0.02)

_INTEGRANDS = {
    "test_function_2d": scvquad.test_function_2d,
    "bump_d4": lambda: scvquad.bump(_GRID_BUMP),
    **{
        f"corner_bump_{delta:g}": (lambda delta=delta: scvquad.corner_bump(1, 2, 1.0, 8, delta))
        for delta in _TAIL_DELTAS
    },
}


def _cfg(method: str, s: int, m: int, mode: str = "deterministic") -> EstimatorConfig:
    return EstimatorConfig(method=method, s=s, m=m, interpolation_mode=mode)


# Replications per chunk are sized so one chunk takes about half a second.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        HistogramWorkload(
            "ensemble-small-m",
            ["histogram", "--method", "cv,cv_mom,scv", "--s", "2", "--m", "4", "--reps", "250"],
            [Ensemble("test_function_2d", 2, _cfg(method, 2, 4), 250)
             for method in ("cv", "cv_mom", "scv")],
        ),
        ReplicateWorkload(
            "grid-large-m",
            [Ensemble("test_function_2d", 2, _cfg(method, 2, 256), 2)
             for method in ("scv", "cv", "strat")]
            + [Ensemble("bump_d4", 4, _cfg(method, 3, 10), 2)
               for method in ("scv", "cv")],
            workers=2,
        ),
        TailsWorkload(
            "tails-shifted",
            ["tails", "--reps", "200"],
            [Ensemble(f"corner_bump_{delta:g}", 2, _cfg("scv", 1, 8, "shifted"), 200,
                      tag=f".delta{delta:g}", exact_sd=corner_bump_sd(1, 2, 1.0, 8, delta))
             for delta in _TAIL_DELTAS],
            _TAIL_DELTAS,
        ),
    )
}
