"""Dependability reports: ``BENCH_chaos.json`` + markdown campaign report.

Pulls the statistical survival table (rate ± Wilson CI per fault
category), the sweep ranking (Pareto front + weighted scores) and the
failure roster into one JSON artifact and one human-readable markdown
report. Pure formatting — no engine imports — so it is cheap to
unit-test.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

from . import stats


def _md_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A GitHub-flavored markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend(
        "| " + " | ".join(str(cell) for cell in row) + " |" for row in rows
    )
    return "\n".join(lines)


def statistical_summary(records: Sequence[Dict],
                        epsilon: Optional[float] = None,
                        z: float = stats.Z_95) -> Dict:
    """Per-category survival with Wilson bounds, plus convergence state.

    ``epsilon=None`` means a fixed seed budget was used: the intervals
    are still reported, but there is no stop rule to converge on.
    """
    per_category = stats.aggregate(records)
    return {
        "epsilon": epsilon,
        "z": round(z, 6),
        "total_runs": len(records),
        "failed_runs": sum(1 for record in records if not record["ok"]),
        "converged": (stats.converged(per_category, epsilon, z)
                      if epsilon is not None else None),
        "unconverged": (stats.unconverged(per_category, epsilon, z)
                        if epsilon is not None else []),
        "categories": {
            name: entry.to_dict(z)
            for name, entry in sorted(per_category.items())
        },
    }


def sweep_summary(outcomes: Sequence, axes: Sequence,
                  seeds: Sequence[int],
                  weights: Optional[Dict[str, float]] = None) -> Dict:
    """The sweep's cells, Pareto front, and weighted ranking."""
    from .sweep import DEFAULT_WEIGHTS
    return {
        "axes": [
            {"name": axis.name, "values": [repr(v) for v in axis.values]}
            for axis in axes
        ],
        "seeds": list(seeds),
        "weights": dict(weights or DEFAULT_WEIGHTS),
        "cells": [outcome.to_dict() for outcome in outcomes],
        "pareto_front": [
            outcome.cell for outcome in outcomes if outcome.pareto
        ],
        "ranking": [outcome.cell for outcome in outcomes],
    }


def failure_roster(records: Sequence[Dict]) -> List[Dict]:
    """Compact list of every failed/hung run across the campaign."""
    return [
        {
            "seed": record["seed"],
            "cell": record["cell"],
            "status": record["status"],
            "violations": record.get("violations", []),
        }
        for record in records
        if not record["ok"]
    ]


def markdown_report(payload: Dict) -> str:
    """Render the whole campaign payload as a markdown report."""
    parts: List[str] = ["# Chaos dependability campaign report", ""]

    statistical = payload.get("statistical")
    if statistical:
        if statistical["epsilon"] is not None:
            headline = (
                f"Stop rule: per-category Wilson half-width ≤ "
                f"{statistical['epsilon']} at z={statistical['z']}; "
                f"{statistical['total_runs']} runs drawn, "
                f"{statistical['failed_runs']} failed, "
                + ("converged."
                   if statistical["converged"]
                   else "NOT converged: "
                        + ", ".join(statistical["unconverged"]) + ".")
            )
        else:
            headline = (
                f"Fixed budget: {statistical['total_runs']} runs, "
                f"{statistical['failed_runs']} failed "
                f"(Wilson intervals at z={statistical['z']})."
            )
        parts += [
            "## Statistical survival (Wilson intervals)",
            "",
            headline,
            "",
            _md_table(
                ("fault category", "engaged", "survived", "rate",
                 "95% CI", "half-width"),
                [
                    (name, c["engaged"], c["survived"],
                     f"{c['rate']:.3f}",
                     f"[{c['ci_low']:.3f}, {c['ci_high']:.3f}]",
                     f"{c['half_width']:.3f}")
                    for name, c in statistical["categories"].items()
                ],
            ),
            "",
        ]

    sweep = payload.get("sweep")
    if sweep:
        axes = ", ".join(
            f"{axis['name']}∈{{{', '.join(axis['values'])}}}"
            for axis in sweep["axes"]
        )
        parts += [
            "## Configuration sweep (common random numbers)",
            "",
            f"{len(sweep['cells'])} cells over {axes}; every cell ran the "
            f"same {len(sweep['seeds'])} seeds. Score = weighted sum over "
            f"min-max-normalized survival/throughput/recovery "
            f"({sweep['weights']}).",
            "",
            _md_table(
                ("rank", "cell", "survival", "throughput",
                 "recovery (s)", "score", "Pareto"),
                [
                    (rank + 1, cell["cell"],
                     f"{cell['metrics']['survival']:.0%}",
                     f"{cell['metrics']['throughput']:.3f}",
                     f"{cell['metrics']['recovery']:.0f}",
                     f"{cell['score']:.3f}",
                     "◆" if cell["pareto"] else "")
                    for rank, cell in enumerate(sweep["cells"])
                ],
            ),
            "",
            "Pareto front: " + ", ".join(sweep["pareto_front"]) + ".",
            "",
        ]

    failures = payload.get("failures", [])
    if failures:
        parts += ["## Failing runs", ""]
        for failure in failures:
            parts.append(
                f"- seed {failure['seed']} [{failure['cell']}] "
                f"status={failure['status']}: "
                + "; ".join(failure["violations"][:3])
            )
        parts.append("")
    else:
        parts += ["## Failing runs", "", "None — every run survived with "
                  "all invariants intact.", ""]

    return "\n".join(parts)


def write_json(path: str, payload: Dict) -> None:
    """Write the JSON artifact (stable key order)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_markdown(path: str, payload: Dict) -> str:
    """Render and write the markdown report; returns the text."""
    text = markdown_report(payload)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
