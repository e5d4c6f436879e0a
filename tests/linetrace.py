"""Print the lines of src/weylnet that no golden argv runs.

    python tests/linetrace.py

Runs every argv of make_goldens.GOLDENS and make_goldens.COMMANDS through
`cli.main` in process under sys.settrace, tracing only frames whose code lies
in src/weylnet, and prints per module the executable lines that none of them
ran, as line ranges.  A line is executable when its code objects carry
bytecode for it; docstrings are skipped, and comments carry none.  The tracer
starts before weylnet is imported, so module-level lines count as run.  A
line printed here is dead code, or a path that only a Tier-1 test reaches.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylnet"


def executable(path: Path) -> set:
    """The lines of path that carry bytecode, less its docstrings."""
    text = path.read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines - docs


def tracer(hits: set):
    """A sys.settrace function that adds (path, line) to hits for each line
    run in a frame whose code lies in PACKAGE, and traces no other frame."""
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
        return local if inside[name] else None

    return call


def spans(lines) -> str:
    """Sorted line numbers as comma-separated a-b runs."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the shared golden names its registry relative to the root
    hits = set()
    sys.settrace(tracer(hits))
    try:
        import make_goldens
        from weylnet import cli

        argvs = [argv for name in make_goldens.GOLDENS for argv in make_goldens.runs(name).values()]
        for argv in argvs + make_goldens.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.settrace(None)
    run = {(os.path.realpath(name), line) for name, line in hits}
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable(path)
        missed = sorted(line for line in lines if (str(path), line) not in run)
        total, missed_total = total + len(lines), missed_total + len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} not run"
              + (f": {spans(missed)}" if missed else ""))
    print(f"{missed_total} of {total} executable lines not run by {len(argvs)} golden runs"
          f" and {len(make_goldens.COMMANDS)} ad-hoc commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
