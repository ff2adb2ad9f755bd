"""Count the code lines of each module of the package, and their total.

    python3 tools/code_lines.py [FILE_OR_DIR ...]

A code line is a line that holds a Python token other than a comment,
once docstrings are set aside: the string that opens a module, class or
function, on every line it spans.  So blank lines, lines holding only a
comment and docstring lines do not count, and a line of code with a
trailing comment counts once.  With no argument it counts every module
of `src/hermite_decay`; a directory stands for the `*.py` files in it.
It prints one `<count> <module>` line per module, largest first, then
`<total> total`.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstring of the module and of each class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _modules(paths: list[str]) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(os.path.join(path, name) for name in os.listdir(path)
                            if name.endswith(".py"))
        else:
            files.append(path)
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    counts = []
    for path in _modules(paths or [os.path.join(ROOT, "src", "hermite_decay")]):
        with open(path, encoding="utf-8") as handle:
            counts.append((code_lines(handle.read()), os.path.splitext(os.path.basename(path))[0]))
    for count, module in sorted(counts, key=lambda c: (-c[0], c[1])):
        print(f"{count} {module}")
    print(f"{sum(count for count, _ in counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
