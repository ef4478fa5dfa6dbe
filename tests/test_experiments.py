"""EXPERIMENTS.md quotes only figures its committed artifacts hold.

A section that says ``Measured (`<artifact>`)`` names a file under
``benchmarks/output/``; every number in the first table after that
marker must occur, as a number, in that file. A hand-typed or stale
cell fails tier-1 instead of drifting unnoticed: regenerating an
artifact (the CI ``paper-artifacts`` job fails until the new one is
committed) then forces the table quoting it to follow.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MARKER = re.compile(r"Measured \(`([^`]+)`\)")
NUMBER = re.compile(r"\d+(?:[.,]\d+)*")


def _numbers(text):
    """The numbers in ``text``, thousands separators dropped."""
    return {match.replace(",", "") for match in NUMBER.findall(text)}


def _measured_tables():
    """``(artifact, body rows)`` of the table after each marker."""
    lines = (ROOT / "EXPERIMENTS.md").read_text().splitlines()
    for index, line in enumerate(lines):
        for name in MARKER.findall(line):
            rows = []
            for row in lines[index + 1:]:
                if row.startswith("|"):
                    rows.append(row)
                elif rows:
                    break
            yield name, rows[2:]  # past the header and its rule


TABLES = list(_measured_tables())


def test_the_paper_experiments_are_covered():
    assert {name for name, _rows in TABLES} >= {
        "fig4_granularity.txt", "table1.txt",
        "d1_dependability_matrix.txt", "a1_checkpoint_granularity.txt",
        "a2_migration_tradeoff.txt", "a3_scheduler_policies.txt",
        "a4_partitioning.txt", "e1_standby_failover.txt"}


@pytest.mark.parametrize("name, rows", TABLES,
                         ids=[name for name, _rows in TABLES])
def test_measured_figures_occur_in_their_artifact(name, rows):
    assert rows, f"no table follows Measured (`{name}`)"
    artifact = _numbers((ROOT / "benchmarks" / "output" / name).read_text())
    missing = sorted(_numbers("\n".join(rows)) - artifact)
    assert not missing, f"{name} does not hold {missing}"
