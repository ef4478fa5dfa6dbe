"""``tools/linecov.py``: the report and the allow-list gate, on a toy
package. The traced run is a subprocess: the tool owns ``sys.settrace``,
which this suite may itself be running under."""

import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

TOY = '''\
"""Module docstring
over two lines."""
import functools


def used(flag):
    """A docstring is not an executable line."""
    if flag:
        return 1
    return 2


def unused():
    return 3


class Thing:
    def __repr__(self):
        return "Thing()"

    @functools.lru_cache()
    def decorated(self):
        def inner():
            return 4
        return inner
'''

TOY_TEST = '''\
from toy.mod import Thing, used


def test_used():
    assert used(True) == 1
    Thing().decorated()
'''


def test_docstrings_are_not_executable_lines(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("linecov", TOOL)
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    path = tmp_path / "mod.py"
    path.write_text(TOY)
    executable, definitions = linecov.analyse(str(path))
    assert not executable & {1, 2, 7}          # the two docstrings
    assert {8, 9, 10, 14, 19, 24, 25} <= executable
    assert definitions[21] == "Thing.decorated"  # the decorator's line


def run_tool(tmp_path, allow_lines):
    allow = tmp_path / "allow.txt"
    allow.write_text("".join(line + "\n" for line in allow_lines))
    return subprocess.run(
        [sys.executable, str(TOOL), "--source", "toy",
         "--allow", str(allow), "--", "-q", "-p", "no:cacheprovider",
         "test_toy.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True, timeout=120)


def test_report_and_allow_gate(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    (tmp_path / "test_toy.py").write_text(TOY_TEST)
    listed = ["toy/mod.py::unused  # kept for the example",
              "# a comment line",
              "toy/mod.py::Thing.decorated.<locals>.inner  # never run"]

    done = run_tool(tmp_path, listed)
    assert done.returncode == 0, done.stdout + done.stderr
    # the four bodies that never ran are the four missed lines
    row = [line.split() for line in done.stdout.splitlines()
           if line.startswith("toy/mod.py ")]
    assert len(row) == 1 and row[0][2] == "4"
    assert "never-called definitions: 3 (2 not counting dunder" in done.stdout
    never = done.stdout.split("dunder methods)\n")[1].split()
    assert never == ["toy/mod.py::unused",
                     "toy/mod.py::Thing.__repr__",
                     "toy/mod.py::Thing.decorated.<locals>.inner"]

    # a never-called definition that is not listed fails the gate
    # (``__repr__`` never needs listing)
    done = run_tool(tmp_path, listed[:1])
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "never called and not listed: "
        "toy/mod.py::Thing.decorated.<locals>.inner"]

    # so does a listed definition that is called, or that is gone
    done = run_tool(tmp_path, listed + ["toy/mod.py::used",
                                        "toy/mod.py::deleted"])
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "listed but now called or gone: toy/mod.py::deleted",
        "listed but now called or gone: toy/mod.py::used"]
