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
  for every method, and the default ``tails`` corner bumps in shifted mode.
* ``<campaign> threads=T``: exit code, output CSV, summary CSV and stderr
  of a ``histogram``, shifted ``histogram``, ``tails`` and ``rates`` run.
* ``verify``: exit code and text of ``verify --seed 3 --trials 2000``.

Compare two checkouts by diffing the outputs; a differing line names its group::

    PYTHONPATH=a/src python tools/bit_digest.py > a.txt
    PYTHONPATH=b/src python tools/bit_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

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
from scvquad.testbed import Integrand, corner_bump, random_poly, test_function_2d

R, MASTER_SEED = 7, 11
MAX_NODE_EVALS = 40_000
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


def replicate_digest(workers: int) -> tuple[str, int]:
    """Digest of the sweep at `workers` threads, and the number of ensembles that ran."""
    digest, ran = hashlib.sha256(), 0
    for label, make, cfg in ensembles():
        digest.update(label.encode() + b"\n")
        try:
            errors = replicate(make(), cfg, R, MASTER_SEED, workers=workers).errors
        except ValueError as exc:  # BudgetError included
            digest.update(f"{type(exc).__name__}: {exc}\n".encode())
            continue
        digest.update(errors.tobytes())
        ran += 1
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
        code = cli.main(["verify", "--seed", "3", "--trials", "2000"])
    return hashlib.sha256(f"exit {code}\n{text.getvalue()}".encode()).hexdigest()


def main() -> int:
    for workers in (1, 2):
        digest, ran = replicate_digest(workers)
        print(f"{digest}  replicate workers={workers} ({ran} ensembles)", flush=True)
    for name, argv in CAMPAIGNS.items():
        for threads in (1, 2):
            print(f"{campaign_digest(argv, threads)}  {name} threads={threads}", flush=True)
    print(f"{verify_digest()}  verify", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
