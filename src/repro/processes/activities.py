"""Pre-packaged activity programs for the process library.

"The library management element has been designed to allow users with more
computer knowledge to prepare pre-packaged activities for those users with
less computer knowledge" (paper, Section 3.2). This module is that library:
it binds the dotted program names used by the OCR templates to executable
code over a :class:`~repro.bio.darwin.DarwinEngine`.

Program inventory (all return JSON-able outputs + a CPU cost):

========================  ====================================================
``allvsall.user_input``   Echo/validate the user's parameters (Figure 3 task 1)
``darwin.queue_generation``  Build the full queue file E=[1..N] (task 2)
``darwin.preprocess``     Partition the queue into TEUs (task 3)
``darwin.align_fixed_pam``  Fixed-PAM alignment of one TEU (block body, 1st)
``darwin.refine_pam``     PAM-parameter refinement of a TEU's matches (2nd)
``darwin.merge_by_entry``  Merge R into the entry-sorted master file
``darwin.merge_by_pam``   Sort matches into PAM-distance buckets
``darwin.cleanup``        Compensation: delete a task's partial outputs
========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Dict

from ..bio.darwin import DarwinEngine, merge_match_sets
from ..core.engine.library import (
    ProgramContext,
    ProgramRegistry,
    ProgramResult,
)
from ..errors import ActivityFailure
from . import partitioning


def register_all_vs_all_programs(registry: ProgramRegistry,
                                 darwin: DarwinEngine) -> None:
    """Install the all-vs-all program bindings over a Darwin engine."""
    cost_model = darwin.cost_model
    n_entries = len(darwin.profile)

    def user_input(inputs: Dict[str, Any], ctx: ProgramContext) -> ProgramResult:
        outputs: Dict[str, Any] = {
            "db_name": inputs.get("db", darwin.profile.name),
            "output_file": inputs.get("output_file", "allvsall.out"),
        }
        if "queue_file" in inputs and inputs["queue_file"] is not None:
            queue = inputs["queue_file"]
            if partitioning.descriptor_size(queue) == 0:
                raise ActivityFailure("program-error", "empty queue file")
            outputs["queue_file"] = queue
        return ProgramResult(outputs, cost=0.1)

    def queue_generation(inputs: Dict[str, Any],
                         ctx: ProgramContext) -> ProgramResult:
        queue = partitioning.range_queue(n_entries)
        return ProgramResult(
            {"queue_file": queue, "entries": n_entries},
            cost=0.5 + 1e-5 * n_entries,
        )

    def preprocess(inputs: Dict[str, Any],
                   ctx: ProgramContext) -> ProgramResult:
        queue = inputs["queue"]
        granularity = int(inputs.get("granularity", 50))
        strategy = inputs.get("strategy", "interleaved")
        partitions = partitioning.make_partitions(
            queue, granularity, strategy,
            profile=darwin.profile if strategy == "balanced" else None,
        )
        return ProgramResult(
            {"partitions": partitions, "n_teus": len(partitions)},
            cost=0.5 + 2e-5 * n_entries,
        )

    def align_fixed_pam(inputs: Dict[str, Any],
                        ctx: ProgramContext) -> ProgramResult:
        partition = partitioning.expand(inputs["partition"])
        result = darwin.align_partition(partition, inputs["queue"],
                                        expand=partitioning.expand)
        return ProgramResult(
            {"match_set": result["match_set"], "pairs": result["pairs"]},
            cost=result["cost"],
        )

    def refine_pam(inputs: Dict[str, Any],
                   ctx: ProgramContext) -> ProgramResult:
        result = darwin.refine_match_set(inputs["matches"])
        return ProgramResult(
            {"match_set": result["match_set"]},
            cost=result["cost"],
        )

    def merge_by_entry(inputs: Dict[str, Any],
                       ctx: ProgramContext) -> ProgramResult:
        sets = [r["matches"] for r in inputs["results"]]
        merged = merge_match_sets(sets, sample_cap=darwin.sample_cap)
        cost = (cost_model.merge_base_cost
                + cost_model.merge_cost_per_match * merged["count"])
        output_file = inputs.get("output_file", "allvsall.out")
        return ProgramResult(
            {
                "master_file": output_file,
                "match_count": merged["count"],
                "matches": merged,
            },
            cost=cost,
        )

    def merge_by_pam(inputs: Dict[str, Any],
                     ctx: ProgramContext) -> ProgramResult:
        sets = [r["matches"] for r in inputs["results"]]
        merged = merge_match_sets(sets, sample_cap=darwin.sample_cap)
        buckets: Dict[str, int] = {}
        edges = [0, 25, 50, 100, 150, 200, 300, 10_000]
        for match in merged["matches"]:
            pam = match.get("pam", 100.0)
            for low, high in zip(edges, edges[1:]):
                if low <= pam < high:
                    buckets[f"pam_{low}_{high}"] = (
                        buckets.get(f"pam_{low}_{high}", 0) + 1
                    )
                    break
        cost = (cost_model.merge_base_cost
                + cost_model.merge_cost_per_match * merged["count"])
        return ProgramResult(
            {
                "pam_sorted_file": "allvsall.pam_sorted",
                "histogram": buckets,
                "match_count": merged["count"],
            },
            cost=cost,
        )

    def cleanup(inputs: Dict[str, Any], ctx: ProgramContext) -> ProgramResult:
        """Compensation: remove the partial outputs a task left behind."""
        return ProgramResult(
            {"cleaned_task": inputs.get("task", ""), "removed": True},
            cost=0.2,
        )

    registry.register("allvsall.user_input", user_input,
                      "query the user for all-vs-all parameters")
    registry.register("darwin.queue_generation", queue_generation,
                      "generate the complete queue file E=[1..N]")
    registry.register("darwin.preprocess", preprocess,
                      "partition the queue into task execution units")
    registry.register("darwin.align_fixed_pam", align_fixed_pam,
                      "fixed-PAM alignment of one TEU against the database")
    registry.register("darwin.refine_pam", refine_pam,
                      "PAM-parameter refinement of a TEU's matches")
    registry.register("darwin.merge_by_entry", merge_by_entry,
                      "merge TEU results sorted by entry number")
    registry.register("darwin.merge_by_pam", merge_by_pam,
                      "sort matches into PAM-distance buckets")
    registry.register("darwin.cleanup", cleanup,
                      "compensation: delete partial outputs")
