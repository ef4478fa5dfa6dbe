"""Every name the benchmark ledger patches is still where it looks.

``benchmarks/e2e/ledger.py`` replaces ~150 entry points under ``src/repro``
by ``owner.__dict__[attr]`` (classes) or ``getattr`` (module functions);
a rename breaks it, and only the minutes-long ``e2e-smoke`` job would
notice. This resolves the same table the same way, in tier-1.
"""

import importlib
import importlib.util
import os

LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                      "benchmarks", "e2e", "ledger.py")


def _ledger():
    spec = importlib.util.spec_from_file_location("e2e_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repro_rows():
    return [row for row in _ledger().ENTRY_POINTS
            if row[0].startswith("repro.")]


def _owner(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def test_every_repro_entry_point_resolves_the_way_the_tracer_installs_it():
    rows = _repro_rows()
    assert len(rows) > 100
    missing = []
    for owner_path, attr, _span, _value in rows:
        owner = _owner(owner_path)
        if ":" in owner_path:
            found = attr in owner.__dict__
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def test_no_two_entry_points_wrap_the_same_attribute():
    """Two rows naming one (owner, attribute) — a class reachable under
    two names, say — would install a wrapper around a wrapper and count
    every call twice."""
    seen = {}
    twice = []
    for owner_path, attr, _span, _value in _repro_rows():
        key = (id(_owner(owner_path)), attr)
        if key in seen:
            twice.append(f"{owner_path}.{attr} is {seen[key]}.{attr}")
        seen.setdefault(key, owner_path)
    assert twice == []


NEVER_CALLED = os.path.join(os.path.dirname(__file__), os.pardir,
                            "tools", "never_called.txt")


def test_every_ledger_only_stub_names_a_row_still_in_the_table():
    """A definition accepted as never called because the ledger patches
    it must still be patched: when the ledger drops the row, the stub
    has no reason left and must go with it."""
    rows = {(owner_path, attr) for owner_path, attr, _span, _value
            in _repro_rows()}
    stubs = []
    with open(NEVER_CALLED) as listing:
        for line in listing:
            entry, _, reason = line.partition("#")
            if "::" not in entry or "ledger" not in reason:
                continue
            path, qualname = entry.strip().split("::")
            module = path[len("src/"):-len(".py")].replace("/", ".")
            owner, _, attr = qualname.rpartition(".")
            stubs.append((f"{module}:{owner}" if owner else module, attr))
    assert stubs
    assert [stub for stub in stubs if stub not in rows] == []
