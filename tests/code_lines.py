"""Code lines per module of ``src/spintool``.

Run as ``python tests/code_lines.py [ROOT]`` from a checkout, or with the
root of one.  A code line is a line that holds a token other than a comment
or a line break; the lines of module, class and function docstrings are not
code.  A token over several lines, such as a string, makes each of them a
code line.  Prints one count per module and the total, and stops quietly
when the reader closes the pipe.  Only the standard library is used, so
that any tree can be counted.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start (line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0].value
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    total = 0
    try:
        for path in sorted((root / "src" / "spintool").glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path.name}")
        print(f"{total:6d}  total")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as after "| head -3": stdout now points at
        # devnull, so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
