import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from scvquad.estimators import EstimatorConfig, Method
from scvquad.stats import replicate
from scvquad.testbed import test_function_2d as make_benchmark

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import math


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string that is not a docstring"""
        return text  # a trailing comment is code
'''


def test_src_lines_counts_code_lines_only():
    # code: import, class, def, the string's two lines, return
    assert src_lines.count(_SNIPPET) == (_SNIPPET.count("\n"), 6)


def test_src_lines_prints_each_module_and_the_total(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)
    assert src_lines.main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["snippet", "16", "6"],
                    ["snippet", "16", "6"], ["total", "32", "12"]]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bit_digest_dumps_each_replicate_groups_errors(monkeypatch, tmp_path, capsys):
    """`--dump DIR` saves one row of errors per ensemble for each worker
    count, NaN where an ensemble raised; here on two ensembles of the sweep
    and one whose budget fails, with the campaigns and `verify` left out."""
    bit_digest = _load_tool("bit_digest")
    sweep = list(itertools.islice(bit_digest.ensembles(), 2))
    over_budget = EstimatorConfig(method=Method.CV_MOM, s=1, m=1, k=2)
    sweep.append(("over budget", make_benchmark, over_budget))
    monkeypatch.setattr(bit_digest, "ensembles", lambda: iter(sweep))
    monkeypatch.setattr(bit_digest, "CAMPAIGNS", {})
    monkeypatch.setattr(bit_digest, "verify_digest", lambda: "")
    assert bit_digest.main(["--dump", str(tmp_path / "dump")]) == 0
    assert "(2 ensembles)" in capsys.readouterr().out
    expected = [replicate(make(), cfg, bit_digest.R, bit_digest.MASTER_SEED).errors
                for _, make, cfg in sweep[:2]]
    for workers in (1, 2, 3):
        dumped = np.load(tmp_path / "dump" / f"replicate-workers-{workers}.npy")
        assert dumped.shape == (3, bit_digest.R)
        assert dumped[:2].tobytes() == np.array(expected).tobytes()
        assert np.isnan(dumped[2]).all()


def test_bit_digest_compares_two_dumps(tmp_path, capsys):
    """`--compare DIR_A DIR_B` prints, per worker count, the largest |a - b|
    where both dumps hold a number and the count of one-sided NaNs."""
    bit_digest = _load_tool("bit_digest")
    a = np.array([[1.0, 2.0, np.nan], [0.5, np.nan, np.nan]])
    b = np.array([[1.0, 2.0 + 2**-50, np.nan], [0.25, 3.0, np.nan]])
    for name, dump in (("a", a), ("b", b)):
        (tmp_path / name).mkdir()
        for workers in (1, 2):
            np.save(tmp_path / name / f"replicate-workers-{workers}.npy", dump[: 3 - workers])
    assert bit_digest.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "replicate-workers-1.npy: max |a - b| = 0.25 over 3 errors, 1 NaN mismatches",
        "replicate-workers-2.npy: max |a - b| = 8.88e-16 over 2 errors, 0 NaN mismatches",
    ]
    (tmp_path / "empty").mkdir()  # a directory with no dump never reads as no drift
    with pytest.raises(ValueError, match="no replicate-workers"):
        bit_digest.main(["--compare", str(tmp_path / "empty"), str(tmp_path / "b")])


def test_each_mutant_names_text_that_occurs_once():
    """Every listed mutant's `old` text occurs exactly once in its file, and
    its `new` text differs, so the list cannot rot unseen."""
    mutants = _load_tool("mutants")
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        text = (mutants.ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant
        assert mutant.new != mutant.old and text.count(mutant.new) == 0, mutant
