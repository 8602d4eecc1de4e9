"""Tests for the code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 12 code lines: the import, the two lines of the def, the two of the string continued inside
# parentheses, the four of the call, the class line and the two of a string that is not a
# docstring. The module, function and class docstrings, the comment and the blanks do not count.
FIXTURE = '''"""Module docstring
over two lines."""

# a comment line
import os  # a trailing comment


def f(a,
      b):
    """Function docstring."""
    text = ("a string continued "
            "inside parentheses")
    return os.path.join(
        a,
        b,
    )


class C:
    """Class docstring."""

    x = """a string, not a docstring,
over two lines"""
'''


def test_fixture_counts_only_code_lines():
    """Blank, comment and docstring lines are left out; each line of a statement is counted."""
    assert code_lines.code_lines(FIXTURE) == 12


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    """One line per module in path order, modules of subpackages by their relative path."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "c.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 12\npkg/c 0\ntotal 13\n"


def test_main_refuses_a_path_that_is_not_a_directory(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err
