"""The repository's own tools, run as a reader would run them."""
import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"

# 8 code lines: the import, def, both lines of the string that is not a
# docstring, both lines of the return, class and its assignment
FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""
    y = 2
'''


def test_code_lines_counts_a_fixture(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "small.py").write_text('"""Only a docstring."""\n\nx = 1\n',
                                       encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"),
                          str(tmp_path)], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == ["     8  fixture.py", "     1  small.py",
                                "     9  total"]
