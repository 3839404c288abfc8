"""Print the statements of a package that a run never reached.

    python tools/reach.py [--package DIR] pytest [PYTEST ARGS...]
    python tools/reach.py [--package DIR] SCRIPT [ARGS...]

Runs a pytest selection, or a script as __main__ with ARGS as its argv,
in this process under a line tracer (sys.settrace, which sees the calling
thread alone; correlab starts no other).  DIR defaults to src/correlab,
and its parent goes first on sys.path, so the package is imported from
there.  For each module of DIR it then prints how many of its statements
never ran, and each of them as `module:line: first line of the
statement`.

A statement is one of the module's ast statements whose first line
carries bytecode (a function's docstring and a `global` line carry
none).  The standard library alone does the tracing (sys.settrace, ast,
runpy); pytest is imported only for a pytest run.  Child processes are
not traced, so code that a test runs only in a subprocess (such as a
package's __main__) reads as never run.  The exit status is the run's own.
"""
from __future__ import annotations

import ast
import os
import runpy
import sys
from pathlib import Path


def code_lines(code) -> set:
    """The lines that carry bytecode in a code object and every code
    object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(source: str, filename: str) -> dict:
    """{first line: source line} of every statement in source that carries
    bytecode on its first line."""
    tree = ast.parse(source)
    carried = code_lines(compile(source, filename, "exec"))
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node.lineno in carried}


class LineTracer:
    """Records the lines run in the files under one directory."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.mine: dict = {}  # co_filename -> resolved path or None
        self.hits: dict = {}  # resolved path -> set of lines

    def _path(self, filename: str):
        if filename not in self.mine:
            path = os.path.realpath(filename)
            self.mine[filename] = path if path.startswith(self.root) else None
        return self.mine[filename]

    def __call__(self, frame, event, arg):
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    def run(self, target) -> int:
        sys.settrace(self)
        try:
            return target()
        finally:
            sys.settrace(None)


def _run_script(argv: list) -> int:
    sys.argv = list(argv)
    sys.path.insert(0, str(Path(argv[0]).resolve().parent))
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    return 0


def report(root: Path, hits: dict) -> list:
    """The report's lines: per module, the statements that never ran."""
    out = []
    for path in sorted(root.glob("*.py")):
        stmts = statements(path.read_text(encoding="utf-8"), str(path))
        ran = hits.get(str(path.resolve()), set())
        missed = sorted(set(stmts) - ran)
        out.append(f"{path.name}: {len(missed)} of {len(stmts)} statements "
                   "never ran")
        out += [f"  {path.name}:{line}: {stmts[line]}" for line in missed]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    root = Path(__file__).resolve().parent.parent / "src" / "correlab"
    if args[:1] == ["--package"]:
        root, args = Path(args[1]), args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(root.resolve().parent))
    tracer = LineTracer(root)
    if args[0] == "pytest":
        import pytest
        status = tracer.run(lambda: int(pytest.main(args[1:])))
    else:
        status = tracer.run(lambda: _run_script(args))
    print("\n".join(report(root, tracer.hits)))
    return status


if __name__ == "__main__":
    sys.exit(main())
