"""Count the code lines of the Python modules under a directory.

Usage:
    python3 tools/code_lines.py DIR

A code line is a source line that holds part of a token other than a comment,
a line break or an indentation change, and is not part of a docstring (the
string that opens a module, class or function body). Blank lines, comment lines
and docstring lines are therefore not counted; a statement spread over several
lines counts each line it spans, and so does a string continued over several
lines inside parentheses. The script prints one ``<module> <count>`` line per
module, in path order, then ``total <count>``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers of every module, class and function docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def count_tree(root: Path) -> dict:
    """``{module: code lines}`` for every ``.py`` file under ``root``, in path order."""
    return {
        path.relative_to(root).with_suffix("").as_posix(): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: python3 tools/code_lines.py DIR", file=sys.stderr)
        return 2
    counts = count_tree(Path(args[0]))
    for module, count in counts.items():
        print(f"{module} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
