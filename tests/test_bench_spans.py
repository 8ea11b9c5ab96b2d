"""The benchmark's span tracer can wrap and restore every callable it patches.

`bench/spans.py` replaces scvquad callables by name for the traced
benchmark run; a rename or removal in the package breaks that run, so the
names are checked here.  This test only reads `bench/`.
"""

import gc
import importlib.util
from pathlib import Path

import scvquad
from scvquad import cli, estimators, grid, interp, stats, testbed

_SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# (owner, attribute) pairs the traced benchmark wraps
_PATCHED = [
    (cli, "main"),
    (scvquad, "replicate"),
    (cli, "replicate"),
    (stats, "derive_seed"),
    (cli, "derive_seed"),
    (cli, "prob_error"),
    (cli, "histogram"),
    (cli, "tail_fraction"),
    (cli, "fit_rate"),
    (stats, "run"),
    (estimators, "regular_nodes"),
    (estimators, "shifted_nodes"),
    (grid, "monomial_matrix"),
    (interp, "monomial_matrix"),
    (interp.LocalInterpolator, "solve"),
    (interp.LocalInterpolator, "design_matrix"),
    (testbed.Integrand, "__call__"),
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_restore(tmp_path):
    spans = _load_spans()
    originals = [getattr(owner, attr) for owner, attr in _PATCHED]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = [getattr(owner, attr) for owner, attr in _PATCHED]
        code = cli.main([
            "histogram", "--seed", "1", "--reps", "3", "--m", "1",
            "--method", "scv", "--mode", "shifted", "--out", str(tmp_path / "h.csv"),
        ])
    finally:
        tracer.restore()
    assert code == cli.EXIT_OK
    assert all(w is not o for w, o in zip(wrapped, originals))
    for (owner, attr), original in zip(_PATCHED, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert gc.isenabled()
    names = {span[0] for span in tracer.spans}
    # shifted ensembles fit each stack of replications without calling run
    for layer in ("cli", "stats.replicate", "grid.nodeset",
                  "interp.solve", "interp.design_matrix", "testbed.f"):
        assert layer in names, f"no {layer} span recorded"
    # replicate derives its seeds through stats.derive_seed, so the trace sees them
    assert any(span[0] == "stats.derive_seed" and span[3] is not None
               and span[3][0] == "stats.replicate" for span in tracer.spans)
