"""Print one SHA-256 digest per group of scvquad's outputs, to check that a
change keeps every bit.

The package is imported from ``PYTHONPATH``, so the same script digests any
checkout.  Groups:

* ``replicate workers=W``: the error bytes of ``replicate`` (R = 7, master
  seed 11) over a configuration sweep, or the exception a configuration
  raises.  The sweep takes s, d in 1..4 and m in {1, 2, 3, 5, 8} with
  ``n0*m^d <= 40,000``, the integrands ``random_poly(s+1, d, 7)`` and
  ``exp(x1+...+xd)``, both modes, and scv, strat, cv and cv_mom at k in
  {2, 5, 11}; then the 2-d test function at s = 2 and m in {4, 16, 64, 256}
  for every method, the default ``tails`` corner bumps in shifted mode, the
  benchmark's 4-d bump at s = 3, m = 10 for scv and cv, whose sums run
  over 10^4 cells and 1.5*10^5 samples, and the 2-d test function at
  s = 2, m = 181 for scv and cv, whose 32,761 cells leave SCV's tiles of
  2,730 cells a last tile of one cell.  W is 1, 2 and 3: 3 does not
  divide R, so a stack cut that depended on the worker count would make
  uneven stacks there, which must not change a bit.
* ``<campaign> threads=T``: exit code, output CSV, summary CSV and stderr
  of a ``histogram``, shifted ``histogram``, ``tails`` and ``rates`` run.
* ``verify``: exit code and text of ``verify --seed 3``.

Each campaign group, and ``verify``, runs twice in this one process, so the
second run meets whatever state the first left (the CLI's parser is built
once per process); the script exits 1, after printing every line, if the two
runs' bytes differ.  The printed lines are the same either way.

Compare two checkouts by diffing the outputs; a differing line names its group::

    PYTHONPATH=a/src python tools/bit_digest.py > a.txt
    PYTHONPATH=b/src python tools/bit_digest.py > b.txt
    diff a.txt b.txt

With ``--dump DIR`` each ``replicate workers=W`` group also saves its errors
as ``DIR/replicate-workers-W.npy``: one row of R per ensemble of the sweep,
in sweep order, NaN where the ensemble raised.  ``--compare DIR_A DIR_B``
reads two such dumps instead of digesting anything, and prints for each
``replicate-workers-W.npy`` pair the largest |a - b| where both are numbers
and the count of entries that are NaN on one side only: the size of a
deliberate last-ulp change::

    PYTHONPATH=a/src python tools/bit_digest.py --dump a-dump > a.txt
    PYTHONPATH=b/src python tools/bit_digest.py --dump b-dump > b.txt
    PYTHONPATH=a/src python tools/bit_digest.py --compare a-dump b-dump
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import sys
import tempfile
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from scvquad import cli
from scvquad.estimators import EstimatorConfig, Method
from scvquad.grid import poly_dim
from scvquad.stats import replicate
from scvquad.testbed import BumpSpec, Integrand, bump, corner_bump, random_poly, test_function_2d

R, MASTER_SEED = 7, 11
MAX_NODE_EVALS = 40_000
GRID_BUMP = BumpSpec(s=2, d=4, p=1.0, sigma=0.45, center=(0.5,) * 4)  # the benchmark's bump_d4
# (method, k) pairs of the sweep: CV+MoM at three group counts
METHODS = [(Method.SCV, 11), (Method.STRAT, 11), (Method.CV, 11)] + [
    (Method.CV_MOM, k) for k in (2, 5, 11)]

CAMPAIGNS = {
    "histogram": ["histogram", "--seed", "3", "--reps", "2000", "--method", "cv,cv_mom,scv,strat"],
    "histogram-shifted": ["histogram", "--seed", "3", "--reps", "2000",
                          "--method", "cv,cv_mom,scv,strat", "--s", "3", "--mode", "shifted"],
    "tails": ["tails", "--seed", "3", "--reps", "500"],
    "rates": ["rates", "--seed", "3", "--reps", "50", "--method", "cv,cv_mom,scv,strat"],
}


def _exp_sum(d: int) -> Integrand:
    """exp(x1 + ... + xd), summed elementwise so that each value depends on its point only."""
    return Integrand(lambda x: np.exp(sum(x[:, j] for j in range(d))), dim=d,
                     exact_integral=(math.e - 1.0) ** d, label=f"exp-sum d={d}")


def ensembles():
    """(label, integrand factory, config) for every ensemble of the sweep."""
    for s, d, m in product(range(1, 5), range(1, 5), (1, 2, 3, 5, 8)):
        if poly_dim(s, d) * m**d > MAX_NODE_EVALS:
            continue
        integrands = {"poly": partial(random_poly, s + 1, d, 7), "exp": partial(_exp_sum, d)}
        modes = ("deterministic", "shifted")  # strings, which every version accepts
        for (name, make), mode, (method, k) in product(integrands.items(), modes, METHODS):
            cfg = EstimatorConfig(method=method, s=s, m=m, k=k, interpolation_mode=mode)
            yield f"{name} s={s} d={d} m={m} {mode} {method.value} k={k}", make, cfg
    for m in (4, 16, 64, 256):
        for method, k in METHODS:
            cfg = EstimatorConfig(method=method, s=2, m=m, k=k)
            yield f"test-function m={m} {method.value} k={k}", test_function_2d, cfg
    cfg = EstimatorConfig(method=Method.SCV, s=1, m=8, interpolation_mode="shifted")
    for delta in (0.1, 0.05, 0.02):
        yield f"corner-bump delta={delta}", partial(corner_bump, 1, 2, 1.0, 8, delta), cfg
    for method in (Method.SCV, Method.CV):
        cfg = EstimatorConfig(method=method, s=3, m=10)
        yield f"bump d=4 m=10 {method.value}", partial(bump, GRID_BUMP), cfg
    for method in (Method.SCV, Method.CV):
        cfg = EstimatorConfig(method=method, s=2, m=181)
        yield f"test-function m=181 {method.value}", test_function_2d, cfg


def replicate_digest(workers: int, dump: Path | None = None) -> tuple[str, int]:
    """Digest of the sweep at `workers` threads, and the number of ensembles
    that ran; with `dump`, the errors are saved there too (see ``--dump``)."""
    digest, ran, rows = hashlib.sha256(), 0, []
    for label, make, cfg in ensembles():
        digest.update(label.encode() + b"\n")
        try:
            errors = replicate(make(), cfg, R, MASTER_SEED, workers=workers).errors
        except ValueError as exc:  # BudgetError included
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            rows.append(np.full(R, np.nan))
            continue
        digest.update(errors.tobytes())
        rows.append(errors)
        ran += 1
    if dump is not None:
        np.save(dump / f"replicate-workers-{workers}.npy", np.array(rows).reshape(-1, R))
    return digest.hexdigest(), ran


def campaign_digest(argv: list[str], threads: int) -> str:
    """Digest of a campaign's exit code, output CSV, summary CSV and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--threads", str(threads), "--out", str(out)])
        digest = hashlib.sha256(f"exit {code}\n".encode())
        for path in (out, out.with_name("out_summary.csv")):
            digest.update(path.read_bytes() if path.exists() else b"(missing)")
            digest.update(b"\n--\n")
        digest.update(err.getvalue().encode())
    return digest.hexdigest()


def verify_digest() -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["verify", "--seed", "3"])
    return hashlib.sha256(f"exit {code}\n{text.getvalue()}".encode()).hexdigest()


def compare(dir_a: Path, dir_b: Path) -> None:
    """Print, for each ``replicate-workers-W.npy`` in `dir_a` and its namesake
    in `dir_b`, the largest |a - b| where both are numbers and the count of
    entries that are NaN on one side only.  ValueError if `dir_a` holds no
    such file, so a mistyped or empty directory never reads as no drift."""
    paths = sorted(dir_a.glob("replicate-workers-*.npy"))
    if not paths:
        raise ValueError(f"{dir_a}: no replicate-workers-*.npy dump to compare")
    for path in paths:
        a, b = np.load(path), np.load(dir_b / path.name)
        if a.shape != b.shape:
            raise ValueError(f"{path.name}: shapes {a.shape} and {b.shape} differ")
        both = ~(np.isnan(a) | np.isnan(b))
        largest = float(np.max(np.abs(a - b)[both], initial=0.0))
        mismatches = int(np.count_nonzero(np.isnan(a) != np.isnan(b)))
        print(f"{path.name}: max |a - b| = {largest:.3g} over {int(both.sum())} errors, "
              f"{mismatches} NaN mismatches")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digest scvquad's outputs, one line per group.")
    parser.add_argument("--dump", type=Path, metavar="DIR",
                        help="also save each replicate group's errors as DIR/*.npy")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="only compare two --dump directories, error by error")
    args = parser.parse_args(argv)
    if args.compare is not None:
        compare(*args.compare)
        return 0
    dump = args.dump
    if dump is not None:
        dump.mkdir(parents=True, exist_ok=True)
    differ = []

    def twice(label: str, digest) -> str:
        """`digest()`, run twice in this process; `label` is kept if the runs differ."""
        first = digest()
        if digest() != first:
            differ.append(label)
        return first

    for workers in (1, 2, 3):
        digest, ran = replicate_digest(workers, dump)
        print(f"{digest}  replicate workers={workers} ({ran} ensembles)", flush=True)
    for name, campaign in CAMPAIGNS.items():
        for threads in (1, 2):
            label = f"{name} threads={threads}"
            print(f"{twice(label, partial(campaign_digest, campaign, threads))}  {label}", flush=True)
    print(f"{twice('verify', verify_digest)}  verify", flush=True)
    for label in differ:
        print(f"{label}: a second run in this process gave other bytes", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
