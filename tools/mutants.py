"""Run a curated list of one-line mutants of scvquad against the tier-1 suite.

Each mutant replaces a text `old`, which occurs exactly once in its file,
by `new`, in a fresh copy of the repository, and runs the tier-1 suite
there with ``-x``.  It prints the mutant's number, its property and the
first test that failed (its killer), or ``SURVIVED`` if every test passed.
The recorded-output test (``test_default_campaigns_reproduce_recorded_output``)
is deselected, so a mutant counts as killed only by a test of a property.
Each mutant runs for at most ``TIMEOUT`` seconds; one that runs longer is
reported as ``TIMEOUT``.  It exits 1 if any mutant was not killed.  It
runs outside tier-1, like ``bit_digest.py``::

    python tools/mutants.py            # every mutant, about 4.5 minutes on 2 cores
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900
RECORDED = "tests/test_cli.py::test_default_campaigns_reproduce_recorded_output"


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    property: str  # what a test must guard for the mutant to die


_EST, _GRID, _INTERP, _STATS, _TESTBED = (
    f"src/scvquad/{name}.py" for name in ("estimators", "grid", "interp", "stats", "testbed"))

MUTANTS = [
    # the replication path
    Mutant(_EST, "buf[: n // 2] += buf[(n + 1) // 2 : n]",
           "buf[: n // 2] += buf[(n + 1) // 2 : n][::-1]",
           "the one fold adds in its fixed pairwise order"),
    Mutant(_EST, "means[:, tile] + _rounded_sums(resid) / shape[2]",
           "means[:, tile] + _rounded_sums(resid) / (shape[2] + 1)",
           "SCV's and STRAT's cell term: unbiasedness and exactness"),
    Mutant(_EST, "(rows.reshape(reps, -1) + offset).ravel()",
           "((rows.reshape(reps, -1) + 1) % cfg.m**f.dim + offset).ravel()",
           "CV reads each sample's own cell's interpolant: exactness"),
    Mutant(_EST, "groups[:, k // 2] if k % 2", "groups[:, k // 2 - 1] if k % 2",
           "CV+MoM takes the middle group mean"),
    Mutant(_EST, "_rounded_sums(resid.reshape(reps, k, n1)) / n1",
           "_rounded_sums(resid.reshape(reps, k, n1)[..., 1:]) / (n1 - 1)",
           "CV's group means read every sample of the budget"),
    Mutant(_EST, "for row, key in zip(buf[:, : hi - lo + lo % 4], rows):",
           "for row, key in zip(buf[:, : hi - lo + lo % 4], rows[:1] * len(rows)):",
           "each replication reads its own stream, whatever its stack"),
    Mutant(_EST, "return buf[:, lo % 4 : hi - lo + lo % 4]", "return buf[:, : hi - lo]",
           "a tile starting inside a Philox block drops the block's leading doubles"),
    Mutant(_EST, 'state["state"]["counter"][0] = lo // 4', 'state["state"]["counter"][0] = 0',
           "each tile is drawn at its own counter offset"),
    Mutant(_EST, "poly_dim(self.s, d) * self.m**d", "poly_dim(self.s, d) * self.m**d + 1",
           "the exact evaluation budget"),
    Mutant(_EST, "fit = _fit(f, cfg, tile_map=tile_map) if shared else None",
           "fit = _fit(f, cfg, tile_map=lambda fn, tiles:"
           " tile_map(fn, tiles[:-1] if pool else tiles)) if shared else None",
           "the pooled shared fit fills every node tile"),
    Mutant(_INTERP, "return np.matmul(values, np.swapaxes(self.inverse, -1, -2), out=out)",
           "return np.matmul(values, self.inverse, out=out)",
           "the interpolant matches f at its nodes"),
    Mutant(_INTERP, "RCOND_MIN = 1e-10", "RCOND_MIN = 1e-16",
           "the conditioning threshold"),
    Mutant(_GRID, "np.multiply(out[:, parent], points[:, j], out=out[:, r])",
           "np.multiply(out[:, parent], points[:, -1], out=out[:, r])",
           "the monomial design matrix"),
    Mutant(_GRID, "return (base + shift[..., None, :]) / 2.0",
           "return (base + shift[..., None, :] / 2.0) / 2.0",
           "the shifted node map"),
    Mutant(_TESTBED, "r2 = ((pts[:, 0] - center[0]) / sigma) ** 2", "r2 = np.zeros(len(pts))",
           "the bump's radius reads every coordinate"),
    # the statistics layer and the two inequalities
    Mutant(_STATS, "[rank - 1])", "[rank - 2])", "the delta-quantile rank"),
    Mutant(_STATS, "np.abs(sample.errors) > threshold", "np.abs(sample.errors) >= threshold",
           "a tail fraction counts errors strictly above the threshold"),
    Mutant(_STATS, "return math.ldexp(3.0 / b.size", "return math.ldexp(1.0 / b.size",
           "the Hoeffding bound's constant"),
    Mutant(_STATS, "return self.bound >= self.certificate", "return self.bound > self.certificate",
           "a Hoeffding bound at its certificate is proved"),
    Mutant(_STATS, "math.ldexp(certificate, e), label)", "certificate, label)",
           "the Hoeffding certificate is scaled back"),
    Mutant(_STATS, "return 2.0 ** (1.0 + 1.0 / q) if q < 2.0 else 2.0 * (q - 1.0)",
           "return (2.0 ** (1.0 + 1.0 / q) if q < 2.0 else 2.0 * (q - 1.0)) / 2.0",
           "the moment bound's constant"),
    Mutant(_STATS, "lhs = (math.sqrt(k2) if q <= 2.0 else (k4 + 3.0 * k2**2) ** 0.25) / n",
           "lhs = math.sqrt(k2) / n",
           "the moment bound's left side above q = 2"),
    Mutant(_STATS, "v[0] == v[1] else law(*v)", "v[0] is None else law(*v)",
           "a uniform that loses its width at the common scale is its point"),
]


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's `old` by its `new` in the copy at `root`;
    ValueError unless `old` occurs exactly once."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def killer(root: Path) -> str:
    """The first test that fails at `root` (tier-1, ``-x``), or SURVIVED."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--deselect", RECORDED]
    try:
        out = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "TIMEOUT"
    if out.returncode == 0:
        return "SURVIVED"
    for line in out.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return f"exit {out.returncode} with no failed test named"


def main() -> int:
    survived = 0  # mutants that no test killed
    for number, mutant in enumerate(MUTANTS, start=1):
        label = f"{number:2d}. {mutant.file}: {mutant.property}"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "repo"
            shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
            apply(root, mutant)
            result = killer(root)
        survived += not result.startswith(("FAILED", "ERROR"))  # no test named as its killer
        print(f"{label}: {result}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
