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


# a two-module package and two runs of it: a script and a pytest selection
LAB_FIRST = '''"""First module."""


def used(x):
    """Doubles x."""
    if x > 0:
        return 2 * x
    return -x


def unused():
    return 1
'''

LAB_SECOND = '''import math


def g():
    try:
        return math.sqrt(4.0)
    except ValueError:
        raise


class C:
    """Never built."""

    def method(self):
        return 0
'''

LAB_REPORT = [
    "first.py: 2 of 7 statements never ran",
    "  first.py:8: return -x",
    "  first.py:12: return 1",
    "second.py: 2 of 9 statements never ran",
    "  second.py:8: raise",
    "  second.py:15: return 0",
]


def test_reach_prints_the_statements_a_run_never_reached(tmp_path):
    (tmp_path / "lab").mkdir()
    (tmp_path / "lab" / "first.py").write_text(LAB_FIRST, encoding="utf-8")
    (tmp_path / "lab" / "second.py").write_text(LAB_SECOND, encoding="utf-8")
    (tmp_path / "run.py").write_text(
        "from lab import first, second\n\nfirst.used(3)\nsecond.g()\n",
        encoding="utf-8")
    (tmp_path / "test_lab.py").write_text(
        "from lab import first, second\n\n\ndef test_lab():\n"
        "    assert first.used(3) == 6 and second.g() == 2.0\n",
        encoding="utf-8")
    for run in (["run.py"], ["pytest", "-q", "-p", "no:cacheprovider",
                             "test_lab.py"]):
        out = subprocess.run(
            [sys.executable, str(TOOLS / "reach.py"), "--package", "lab",
             *run], cwd=tmp_path, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-len(LAB_REPORT):] == LAB_REPORT
