#!/usr/bin/env python3
"""Line coverage of a source tree under pytest, and the definitions no
test ever calls.

Runs pytest in this process under ``sys.settrace``, recording line and
call events only for files below ``--source`` (default ``src/repro``).
The executable lines of a file are what ``code.co_lines()`` reports for
its code objects, docstrings excluded. Prints, per file, executable and
missed line counts, then every function or method whose body no test
executed. Work done in subprocesses (a CLI a test shells out to, a
process-pool worker) is not seen.

``--allow FILE`` turns the second list into a gate. FILE holds one
``path::qualname  # reason`` per line, the never-called definitions that
are accepted as such; ``__repr__`` is exempt by rule. The exit status is
1 when a never-called definition is not listed, or a listed one is now
called or no longer exists — so the list can neither grow silently nor
go stale.

Stdlib only (pytest apart), so CI can run it without installing
anything:

    PYTHONPATH=src python tools/linecov.py --allow tools/never_called.txt

Arguments after ``--`` go to pytest (default ``-x -q``).
"""

import argparse
import ast
import os
import sys
import threading

EXEMPT = ("__repr__",)


def _docstring_lines(tree):
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(code):
    """Every line some instruction of ``code`` (or a nested code object)
    is attributed to."""
    lines = {line for _start, _end, line in code.co_lines()
             if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _definitions(tree):
    """``{first line: qualname}`` of every function and method, the
    first line being what ``co_firstlineno`` reports (the first
    decorator's, if any)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    decorator.lineno for decorator in child.decorator_list])
                found[first] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def analyse(path):
    """``(executable lines, {first line: qualname})`` of one file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    executable = _code_lines(compile(source, path, "exec"))
    return executable - _docstring_lines(tree), _definitions(tree)


class Tracer:
    """Records executed lines and entered code objects below ``root``."""

    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.lines = {}     # real path -> set of executed line numbers
        self.entered = {}   # real path -> set of co_firstlineno entered
        #: co_filename -> (entered, lines, line tracer); None out of scope
        self._files = {}

    def _file(self, filename):
        real = os.path.realpath(filename)
        entry = None
        if real.startswith(self.root):
            hit = self.lines.setdefault(real, set())

            def local(frame, event, _arg):
                if event == "line":
                    hit.add(frame.f_lineno)
                return local

            entry = (self.entered.setdefault(real, set()), hit, local)
        self._files[filename] = entry
        return entry

    def _global(self, frame, event, _arg):
        if event != "call":
            return None
        code = frame.f_code
        try:
            entry = self._files[code.co_filename]
        except KeyError:
            entry = self._file(code.co_filename)
        if entry is None:
            return None
        entered, hit, local = entry
        entered.add(code.co_firstlineno)
        hit.add(frame.f_lineno)
        return local

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)


def _name(entry):
    """The bare function name of a ``path::qualname`` entry."""
    return entry.rsplit("::", 1)[1].rsplit(".", 1)[-1]


def report(root, tracer, out=sys.stdout):
    """Print the per-file table; return the never-called definitions as
    sorted ``path::qualname`` strings (paths relative to the cwd)."""
    never = []
    total = total_missed = 0
    rows = []
    for directory, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            real = os.path.realpath(path)
            shown = os.path.relpath(path).replace(os.sep, "/")
            executable, definitions = analyse(path)
            missed = executable - tracer.lines.get(real, set())
            rows.append((shown, len(executable), len(missed)))
            total += len(executable)
            total_missed += len(missed)
            entered = tracer.entered.get(real, set())
            never.extend(
                f"{shown}::{qualname}"
                for first, qualname in sorted(definitions.items())
                if first not in entered)
    width = max([len(row[0]) for row in rows] + [5])
    print(f"{'file':<{width}}  lines  missed", file=out)
    for shown, lines, missed in rows:
        print(f"{shown:<{width}}  {lines:5d}  {missed:6d}", file=out)
    share = 100.0 * total_missed / total if total else 0.0
    print(f"{'total':<{width}}  {total:5d}  {total_missed:6d}  "
          f"({share:.1f} % never executed)", file=out)
    dunder = sum(1 for entry in never if _name(entry).startswith("__"))
    print(f"\nnever-called definitions: {len(never)} "
          f"({len(never) - dunder} not counting dunder methods)", file=out)
    for entry in never:
        print(f"  {entry}", file=out)
    return never


def read_allow(path):
    """The ``path::qualname`` entries of an allow file."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = line.split("#", 1)[0].strip()
            if entry:
                entries.append(entry)
    return entries


def check_allow(never, allowed):
    """Problems between the never-called list and the allow list."""
    gated = {entry for entry in never if _name(entry) not in EXEMPT}
    problems = [f"never called and not listed: {entry}"
                for entry in sorted(gated - set(allowed))]
    problems += [f"listed but now called or gone: {entry}"
                 for entry in sorted(set(allowed) - gated)]
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--source", default="src/repro",
                        help="directory whose files are traced")
    parser.add_argument("--allow", metavar="FILE",
                        help="accepted never-called definitions; exit 1 "
                             "on any difference")
    parser.add_argument("pytest_args", nargs="*", default=None,
                        help="arguments for pytest (after --)")
    args = parser.parse_args(argv)

    import pytest

    tracer = Tracer(args.source)
    tracer.start()
    try:
        status = pytest.main(args.pytest_args or ["-x", "-q"])
    finally:
        tracer.stop()
    never = report(args.source, tracer)
    if status != 0:
        print(f"\npytest exited {int(status)}: coverage is of a failed run",
              file=sys.stderr)
        return int(status)
    if args.allow:
        problems = check_allow(never, read_allow(args.allow))
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
