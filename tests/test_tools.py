import importlib.util
from pathlib import Path

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
