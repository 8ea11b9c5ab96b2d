#!/usr/bin/env python3
"""Benchmark of scvquad's replication ensembles.

Run from the repository root:

    python3 bench/run_bench.py --workload ensemble-small-m --seed 1 --seconds 10 --trace 0

The workloads are defined in ``workloads.py``.  A run builds its inputs from
``--seed``, repeats timed chunks of work for ``--seconds`` seconds and then
checks the program's outputs.

* ``--trace 0`` reports the end-to-end metrics: replications per second,
  set-up time, peak resident memory and the share of replications that
  passed every check.
* ``--trace 1`` runs every chunk twice in a row, untraced and then with a
  span recorded around every call into each scvquad module, and reports
  per-layer metrics (see ``spans.py``).  The spans are written to
  ``bench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the machine and the checks.  The exit code is 1 when any check
failed and 2 when the program could not be loaded.

``--write-reference`` stores the errors of every workload's reference chunk,
computed by the current code, in ``reference.json``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process: BLAS threads
# would otherwise compete with the replication workers.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: "1" for name in PINNED})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

REFERENCE_SEED = 0
# Errors are differences of O(1) estimates: a last-ulp change of an estimate
# moves them by about 1e-16, a changed estimator by far more than 1e-12.
REFERENCE_ATOL = 1e-12
EXACTNESS_TOL = 1e-10
UNBIASED_SIGMAS = 4.0
# cv_mom is a median of means and biased by design.
UNBIASED_METHODS = ("scv", "cv", "strat")
EXACT_METHODS = ("scv", "cv", "cv_mom")
# spawn-key branch of the exactness probe's inputs, apart from the chunk indices
PROBE_KEY = 2**32
MIN_CHUNKS = 3
# reps_per_s times each program call at this quantile of its walls in the run
CALL_QUANTILE = 0.1
SETUP_REPEATS = 7
REFERENCE_HEAD = 8

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import scvquad
import workloads
workloads.WORKLOADS[sys.argv[1]].warm_up()
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Chunk:
    """One timed unit of work and what it produced.

    `samples` is emptied once the chunk is counted into a `Tally`, except
    for the first chunk of a run, which the bit-identity reruns compare with.
    """

    seed: int
    wall: float = 0.0
    call_walls: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    csv_bytes: int = 0
    problems: list = field(default_factory=list)
    error: str | None = None


def environment() -> dict:
    """The machine and software a result was measured on."""
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned": {name: os.environ[name] for name in PINNED},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def setup_sample(name: str) -> float:
    """``import scvquad`` plus the workload's warm-up, timed inside a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, name], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_chunk(workload, seed: int, workers: int, work_dir: Path) -> Chunk:
    """Time one chunk, then check its outputs (untimed)."""
    chunk = Chunk(seed)
    try:
        for call in workload.calls(seed, workers, work_dir):
            start = time.perf_counter()
            chunk.samples += call()
            chunk.call_walls.append(time.perf_counter() - start)
        chunk.wall = sum(chunk.call_walls)
        chunk.csv_bytes = sum(p.stat().st_size for p in work_dir.iterdir() if p.is_file())
        chunk.problems = check_samples(workload, chunk.samples)
        if not chunk.problems:
            chunk.problems = workload.check_outputs(chunk.samples, work_dir)
    except Exception:  # the benchmark keeps going so the failure is counted and reported
        chunk.error = traceback.format_exc()
    return chunk


@dataclass
class Tally:
    """One ensemble's errors over the chunks counted: what the gate and fail_frac need of them.

    Its size does not depend on the number of chunks, so the peak memory of
    a run does not grow with its throughput.
    """

    count: int = 0  # finite errors
    total: float = 0.0
    squares: float = 0.0
    nonfinite: int = 0

    def add(self, errors: np.ndarray) -> None:
        finite = errors[np.isfinite(errors)]
        self.count += finite.size
        self.total += float(finite.sum())
        self.squares += float(finite @ finite)
        self.nonfinite += errors.size - finite.size

    def mean_sd(self) -> tuple[float, float]:
        mean = self.total / self.count
        return mean, math.sqrt(max(self.squares - self.total * mean, 0.0) / (self.count - 1))


def count_chunk(workload, chunk: Chunk, tallies: dict[str, Tally], keep: bool = False) -> None:
    """Add the chunk's errors to `tallies`, then drop its samples unless `keep`."""
    if not chunk.error and len(chunk.samples) == len(workload.ensembles):
        for e, sample in zip(workload.ensembles, chunk.samples):
            tallies[e.key].add(sample.errors)
    if not keep:
        chunk.samples = []


def check_samples(workload, samples) -> list[tuple[str, str]]:
    """The chunk returned one ensemble per declared configuration, of the declared size."""
    if len(samples) != len(workload.ensembles):
        return [("*", f"expected {len(workload.ensembles)} ensembles, got {len(samples)}")]
    problems = []
    for e, sample in zip(workload.ensembles, samples):
        c = sample.config
        if (c.method, c.s, c.m, c.interpolation_mode, sample.R) != (
            e.cfg.method, e.cfg.s, e.cfg.m, e.cfg.interpolation_mode, e.reps
        ):
            problems.append((e.key, f"ensemble is {c} with R={sample.R}, expected {e.cfg}"))
    return problems


def timed_pass(workload, seeds, workers: int, work_dir: Path, seconds: float,
               tallies: dict[str, Tally], traced_tallies: dict[str, Tally],
               setup_times: list[float] | None = None, tracer: spans.Tracer | None = None):
    """Chunks over `seeds` until `seconds` have passed; returns (untraced, traced) chunks.

    Each chunk's errors go to `tallies` as soon as it is checked.  With
    `setup_times`, SETUP_REPEATS set-up samples are taken between chunks,
    spread evenly over the pass.  With `tracer`, every chunk runs a second
    time right after, traced, and must give the same bits; its errors go to
    `traced_tallies`.  Either way the samples compared meet the same machine
    load.
    """
    chunks, traced = [], []
    start = time.perf_counter()
    for seed in seeds:
        elapsed = time.perf_counter() - start
        if setup_times is not None and len(setup_times) < SETUP_REPEATS \
                and elapsed >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(setup_sample(workload.name))
        if len(chunks) >= MIN_CHUNKS and elapsed >= seconds:
            break
        chunk = run_chunk(workload, seed, workers, work_dir)
        chunks.append(chunk)
        if tracer is not None and not chunk.error:
            spans.install(tracer)
            try:
                traced.append(run_chunk(workload, seed, workers, work_dir))
            finally:
                tracer.restore()
            keys = [e.key for e in workload.ensembles]
            traced[-1].problems += [(key, f"tracing changed the errors of seed {seed}")
                                    for key in same_errors(chunk, traced[-1], keys)]
            count_chunk(workload, traced[-1], traced_tallies)
        count_chunk(workload, chunk, tallies, keep=len(chunks) == 1)
        if chunk.error or (traced and traced[-1].error):
            break
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_sample(workload.name))
    return chunks, traced


def chunk_wall(chunks: list[Chunk]) -> float:
    """Wall time of one chunk: the sum over its calls of each call's CALL_QUANTILE wall in the run.

    On a shared virtual machine the same work slows by up to 1.7x in phases
    of seconds to minutes, with the neighbours' load, which moves a median
    from run to run by more than a low quantile.  A quantile, unlike the
    fastest call, does not depend on how many calls a run makes, and it
    moves when a change slows a tenth of the calls or more.
    """
    walls = zip(*(c.call_walls for c in chunks if not c.error))
    return sum(float(np.quantile(w, CALL_QUANTILE)) for w in walls) or math.inf


def chunk_seeds(master: int):
    from workloads import derive_seed

    i = 0
    while True:
        yield derive_seed(master, i)
        i += 1


def same_errors(a: Chunk, b: Chunk, keys) -> list[str]:
    """Keys whose error vectors differ in any bit between two chunks."""
    if a.error or b.error or len(a.samples) != len(b.samples):
        return list(keys)
    return [k for k, x, y in zip(keys, a.samples, b.samples) if x.errors.tobytes() != y.errors.tobytes()]


def gate(workload, master: int, chunks: list[Chunk], traced: list[Chunk],
         tallies: dict[str, Tally], workers: int, work_dir: Path,
         reference: dict) -> dict[str, list[str]]:
    """Every correctness check; returns the problems found, by ensemble key."""
    import scvquad
    from workloads import derive_seed

    keys = [e.key for e in workload.ensembles]
    problems: dict[str, list[str]] = {}

    def fail(key, message):
        problems.setdefault(key, []).append(message)

    for c in chunks + traced:
        if c.error:
            fail("*", f"chunk {c.seed} raised:\n{c.error}")
        for key, message in c.problems:
            fail(key, f"chunk {c.seed}: {message}")
    if "*" in problems:
        return problems

    # the same seed twice, and with the other worker count, gives the same bits
    first = chunks[0]
    again = run_chunk(workload, first.seed, workers, work_dir)
    for key in same_errors(first, again, keys):
        fail(key, f"a rerun of seed {first.seed} changed the errors")
    other = 1 if workers > 1 else 2
    split = run_chunk(workload, first.seed, other, work_dir)
    for key in same_errors(first, split, keys):
        fail(key, f"workers={other} changed the errors of seed {first.seed} (measured: {workers})")

    for e in workload.ensembles:
        tally = tallies[e.key]
        if e.cfg.method.value not in UNBIASED_METHODS or tally.count < 2:
            continue
        mean, sd = tally.mean_sd()
        if e.exact_sd is not None:
            sd = e.exact_sd
        se = sd / math.sqrt(tally.count)
        if abs(mean) > UNBIASED_SIGMAS * se:
            fail(e.key, f"mean error {mean:.3e} exceeds {UNBIASED_SIGMAS:g} standard errors ({se:.3e})")

    # exactness on a random polynomial of degree < s, at every (method, s, d, m, mode)
    probed = set()
    for e in workload.ensembles:
        if e.cfg.method.value not in EXACT_METHODS or e.config_key in probed:
            continue
        probed.add(e.config_key)
        poly = scvquad.random_poly(e.cfg.s, e.d, derive_seed(master, PROBE_KEY, len(probed)))
        value = scvquad.run(poly, replace(e.cfg, seed=derive_seed(master, PROBE_KEY, len(probed), 1))).value
        if not abs(value - poly.exact_integral) <= EXACTNESS_TOL:
            for other_e in workload.ensembles:
                if other_e.config_key == e.config_key:
                    fail(other_e.key, f"random polynomial off by {value - poly.exact_integral:.3e}")

    # the first chunk of the reference seed, against the stored errors
    probe = run_chunk(workload, derive_seed(REFERENCE_SEED, 0), workers, work_dir)
    if probe.error:
        fail("*", f"reference chunk raised:\n{probe.error}")
        return problems
    for e, sample in zip(workload.ensembles, probe.samples):
        stored = reference.get(e.key)
        if stored is None:
            fail(e.key, "no stored reference")
            continue
        found = summarize(sample.errors)
        diffs = [abs(x - y) for x, y in zip(found["head"], stored["head"])]
        diffs += [abs(found[k] - stored[k]) for k in ("mean", "max_abs")]
        if found["reps"] != stored["reps"] or not max(diffs) <= REFERENCE_ATOL:
            fail(e.key, f"reference seed errors differ from reference.json by {max(diffs):.3e}")
    return problems


def summarize(errors) -> dict:
    return {
        "reps": int(errors.size),
        "head": [float(x) for x in errors[:REFERENCE_HEAD]],
        "mean": float(errors.mean()),
        "max_abs": float(abs(errors).max()),
    }


def count_failures(workload, n_chunks: int, tallies, problems) -> tuple[int, int]:
    """(attempted, failed) replications over `n_chunks` chunks whose errors are in `tallies`."""
    attempted = n_chunks * sum(e.reps for e in workload.ensembles)
    if "*" in problems:
        return attempted, attempted
    failed = 0
    for e in workload.ensembles:
        failed += n_chunks * e.reps if e.key in problems else sum(t[e.key].nonfinite for t in tallies)
    return attempted, failed


def report(problems, attempted, failed, metrics, units, env) -> dict:
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps({"environment": env}))
    for key, messages in sorted(problems.items()):
        for message in messages:
            print(f"check failed [{key}]: {message}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} replications)")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    return result


def load_units(section: str) -> dict[str, str]:
    """Metric units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED, help="master seed of the inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "scvquad" / "__init__.py").is_file():
        print(f"error: scvquad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scvquad

    if not Path(scvquad.__file__).resolve().is_relative_to(SRC):
        print(f"error: scvquad loaded from {scvquad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.write_reference:
        return write_reference(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    env = environment()
    workers = min(workload.workers, env["nproc"])
    reference = json.loads(REFERENCE.read_text())["workloads"][workload.name]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work_dir = Path(tmp)
        workload.warm_up()
        setup_times = [] if args.trace == 0 else None
        tracer = spans.Tracer() if args.trace == 1 else None
        tallies = {e.key: Tally() for e in workload.ensembles}
        traced_tallies = {e.key: Tally() for e in workload.ensembles}
        chunks, traced = timed_pass(workload, chunk_seeds(args.seed), workers, work_dir,
                                    args.seconds, tallies, traced_tallies, setup_times, tracer)
        if tracer is not None:
            config_keys = sorted({e.config_key for w in WORKLOADS.values() for e in w.ensembles})
            metrics = spans.layer_metrics(
                tracer, max(len(traced) * sum(e.reps for e in workload.ensembles), 1),
                sum(c.wall for c in traced) or 1.0, sum(c.wall for c in chunks[: len(traced)]) or 1.0,
                sum(c.csv_bytes for c in traced), config_keys,
            )
            (OUT / f"{workload.name}-spans.json").write_text(json.dumps(spans.dump(tracer.spans)))
        problems = gate(workload, args.seed, chunks, traced, tallies, workers, work_dir, reference)
    attempted, failed = count_failures(workload, len(chunks) + len(traced),
                                       (tallies, traced_tallies), problems)

    if args.trace == 0:
        metrics = {
            "reps_per_s": sum(e.reps for e in workload.ensembles) / chunk_wall(chunks),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
    units = load_units("end_to_end" if args.trace == 0 else "per_layer")
    units = {k: units[k] for k in metrics}
    result = report(problems, attempted, failed, metrics, units, env)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workers": workers, "environment": env,
              "setup_times": setup_times, "call_walls": [c.call_walls for c in chunks],
              "problems": problems, **result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_reference(workloads) -> int:
    from workloads import derive_seed

    OUT.mkdir(exist_ok=True)
    stored = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, workload in workloads.items():
            workload.warm_up()
            chunk = run_chunk(workload, derive_seed(REFERENCE_SEED, 0), workload.workers, Path(tmp))
            if chunk.error or chunk.problems:
                print(chunk.error or chunk.problems, file=sys.stderr)
                return 1
            stored[name] = {e.key: summarize(s.errors) for e, s in zip(workload.ensembles, chunk.samples)}
    REFERENCE.write_text(json.dumps(
        {"reference_seed": REFERENCE_SEED, "chunk": 0, "workloads": stored}, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
