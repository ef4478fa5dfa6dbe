"""``tools/check_bench.py``: the verdict rules, on canned run values."""

import importlib.util
import pathlib


def load_tool():
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "tools" / "check_bench.py")
    spec = importlib.util.spec_from_file_location("check_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_rules():
    verdict = load_tool().verdict
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def judge(change, better="lower", bound=0.25):
        return verdict(parent, change, better, bound)["verdict"]

    # every pair won and the medians a parent-IQR apart: a gain
    row = verdict(parent, [p - 10.0 for p in parent], "lower", 0.25)
    assert row["verdict"] == "gain"
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert row["parent_median"] == 100.0 and row["change_median"] == 90.0
    assert round(row["parent_iqr"], 6) == 0.35
    # the same numbers are a loss when higher is better, inside the bound
    assert judge([p - 10.0 for p in parent], better="higher") == "within bound"
    # 8 of 10 wins is not nine tenths
    assert judge([p - 10.0 for p in parent[:8]] + [200.0, 200.0]) \
        == "within bound"
    # fewer than ten pairs cannot show a gain
    assert verdict(parent[:4], [p - 10.0 for p in parent[:4]], "lower",
                   0.25)["verdict"] == "within bound"
    # 10 of 10 wins by less than the parent's IQR is no gain either
    assert judge([p - 0.1 for p in parent]) == "within bound"
    # median worse by more than the bound
    assert judge([p * 1.3 for p in parent]) == "regression"
    assert judge([p * 1.3 for p in parent], bound=0.5) == "within bound"
    # quartiles further apart than the bound, medians close: cannot say
    # "unchanged"
    assert judge([60.0, 140.0] * 5) == "unresolved"
    # ties count for neither side
    assert verdict(parent, list(parent), "lower", 0.25)["wins"] == 0
