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


def test_every_repro_entry_point_resolves_the_way_the_tracer_installs_it():
    rows = [row for row in _ledger().ENTRY_POINTS
            if row[0].startswith("repro.")]
    assert len(rows) > 100
    missing = []
    for owner_path, attr, _span, _value in rows:
        module_name, _, class_name = owner_path.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            found = attr in getattr(module, class_name).__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert missing == []
