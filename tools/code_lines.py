"""Count the code lines of each module of the package, and their total.

    python3 tools/code_lines.py [FILE_OR_DIR ...]
    python3 tools/code_lines.py --ref REF

A code line is a line that holds a Python token other than a comment,
once docstrings are set aside: the string that opens a module, class or
function, on every line it spans.  So blank lines, lines holding only a
comment and docstring lines do not count, and a line of code with a
trailing comment counts once.  With no argument it counts every module
of `src/hermite_decay`; a directory stands for the `*.py` files in it.
It prints one `<count> <module>` line per module, largest first, then
`<total> total`.

With --ref it counts the modules of `src/hermite_decay` twice: at the
git ref REF, whose `src` is unpacked by `git archive REF src | tar -x`
into a temporary directory (so nothing is written under `.git`), and in
the working tree.  It prints one `<at REF> <now> <change> <module>` line
per module, largest first, a module that exists on one side only
counting 0 on the other, then the same line for the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tempfile
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


def _counts(paths: list[str]) -> list[tuple[str, int]]:
    """(module name, code lines) of each module that paths name."""
    counts = []
    for path in _modules(paths):
        with open(path, encoding="utf-8") as handle:
            counts.append((os.path.splitext(os.path.basename(path))[0], code_lines(handle.read())))
    return counts


def _compare(ref: str) -> int:
    """Print each module's code lines at ref, in the working tree, and the change."""
    with tempfile.TemporaryDirectory(prefix="code-lines-") as tree:
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref, "src"],
                                   stdout=subprocess.PIPE)
        unpacked = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or unpacked.returncode:
            print(f"code_lines: cannot check out {ref!r}", file=sys.stderr)
            return 2
        old = dict(_counts([os.path.join(tree, "src", "hermite_decay")]))
    new = dict(_counts([os.path.join(ROOT, "src", "hermite_decay")]))
    rows = [(old.get(module, 0), new.get(module, 0), module) for module in old.keys() | new.keys()]
    rows.sort(key=lambda row: (-row[1], row[2]))
    rows.append((sum(old.values()), sum(new.values()), "total"))
    for before, after, module in rows:
        print(f"{before} {after} {after - before:+d} {module}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", metavar="FILE_OR_DIR", help="modules to count")
    parser.add_argument("--ref", help="git ref to compare src/hermite_decay against")
    args = parser.parse_args(argv)
    if args.ref is not None:
        if args.paths:
            parser.error("--ref counts src/hermite_decay and takes no paths")
        return _compare(args.ref)
    counts = _counts(args.paths or [os.path.join(ROOT, "src", "hermite_decay")])
    for module, count in sorted(counts, key=lambda c: (-c[1], c[0])):
        print(f"{count} {module}")
    print(f"{sum(count for _, count in counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
