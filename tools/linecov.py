"""List the statements of ``src/convexlab`` that a pytest run never executes.

Usage, from the repository root::

    python tools/linecov.py                  # tests/ (with the demos) and perfbench/
    python tools/linecov.py tests -k cli     # any pytest arguments

pytest runs in this process under a ``sys.settrace`` line tracer that is
installed before ``convexlab`` is imported, so module-level statements count
too.  Tests that start a fresh interpreter are not traced.  For each module
the script prints ``path:line: source`` for every statement that never ran,
then a total.  Lines that start a def, class or import, docstrings and
``try:`` headers are not statements here; a statement counts as run when any
line of it (of its header, for if/for/while/with) produced a line event.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convexlab"
DEFAULT_ARGS = ["tests", "perfbench"]
_SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
         ast.Try, ast.Global, ast.Nonlocal)


def statements(path):
    """(first line, last header line) of each counted statement in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, max(node.lineno, last)))
    return sorted(set(out))


def trace(pytest_args):
    """Run pytest under the tracer; returns (exit status, {filename: lines run})."""
    wanted = str(SRC)
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(wanted):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    status, hits = trace(["-q", "-p", "no:cacheprovider", *args])
    total = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        run = hits.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        missed = [(a, b) for a, b in statements(path)
                  if not any(n in run for n in range(a, b + 1))]
        total += len(missed)
        rel = path.relative_to(ROOT)
        print(f"{rel}: {len(missed)} statement(s) never ran")
        for a, _ in missed:
            print(f"  {rel}:{a}: {lines[a - 1].strip()}")
    print(f"total: {total} statement(s) never ran (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
