"""Print the line counts of scvquad's modules: ``wc -l`` and code lines.

A code line is non-blank, is not a comment, and is not part of a module,
class or function docstring.  Lines of any other string, a multi-line one
included, count as code.  One row per module, then the total::

    python tools/src_lines.py              # src/scvquad/*.py beside this script
    python tools/src_lines.py a.py b.py    # any files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(``wc -l``, code lines) of one module's source text."""
    doc_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc_lines.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = sum(
        1 for n, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#") and n not in doc_lines
    )
    return source.count("\n"), code


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "scvquad").glob("*.py"))
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in paths:
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.stem:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
