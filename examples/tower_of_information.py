#!/usr/bin/env python
"""The Tower of Information (Figure 1) with lineage-driven recomputation.

Runs the full tower — raw DNA to protein-function prediction, with the
all-vs-all embedded as a subprocess — then uses the automatically recorded
lineage to answer the maintenance questions the paper motivates: what was
this dataset derived from, and what must be recomputed when an algorithm
or an input changes?

    python examples/tower_of_information.py
"""

from repro import (
    BioOperaServer,
    DarwinEngine,
    DatabaseProfile,
    InlineEnvironment,
    install_tower,
)
from repro.prov import ProvenanceGraph, lineage_records, plan_rerun


def main():
    profile = DatabaseProfile.synthetic("proteome", 80, seed=12)
    darwin = DarwinEngine(profile, mode="modeled",
                          random_match_rate=2e-3, seed=4)

    server = BioOperaServer(seed=8)
    environment = InlineEnvironment(nodes={"workstation": 8})
    server.attach_environment(environment)
    install_tower(server, darwin)

    instance_id = server.launch("tower_of_information", {
        "genome_name": "synthetic_genome_v1",
        "genome_size": 250_000,
        "db_name": profile.name,
        "granularity": 8,
    })
    status = environment.run_instance(instance_id)
    instance = server.instance(instance_id)

    print(f"=== tower run {instance_id}: {status} ===")
    print(f"  phylogenetic tree: {instance.outputs['tree']}")
    print(f"  structure confidence: "
          f"{instance.outputs['structure_confidence']}")
    print(f"  function table: {instance.outputs['functions']}")

    # ------------------------------------------------------------------
    # Lineage: read off the completions in the event logs, then queried.
    # ------------------------------------------------------------------
    graph = ProvenanceGraph(lineage_records(server.store))
    print(f"\n=== lineage: {len(graph)} derivation records ===")

    # The tower steps and the program that produced each one.
    records = {record.task: record
               for record in graph.run_records(instance_id)}
    step_order = [
        "GeneLocation", "Translation", "PairwiseAlignments", "Distances",
        "MultipleAlignment", "PhylogeneticTree", "AncestralSequences",
        "SecondaryStructure", "FunctionPrediction",
    ]
    for step in step_order:
        if step in records:
            print(f"  {step:<22} <- {records[step].program}")

    # "It is possible for the system to recompute processes as data inputs
    # or algorithms change": ask what a new phylogeny algorithm touches,
    # i.e. what a rerun of every task that ran it would recompute.
    plan = plan_rerun(server.store, instance_id, graph=graph, task_ids=[
        task for task, record in records.items()
        if record.program == "tower.phylo_tree"])
    print(f"\nif the tree algorithm changes, recompute "
          f"{len(plan.invalidated)} dataset(s):")
    for dataset in plan.invalidated:
        print(f"  {dataset.split('/', 1)[1]}")

    # Operator-driven re-run of one step after a parameter change. An
    # ended instance takes no edits: restarting the step reopens it, the
    # edit lands, and restarting it again re-runs it with the new size.
    server.restart_task(instance_id, "GeneLocation")
    server.change_parameter(instance_id, "genome_size", 300_000)
    server.restart_task(instance_id, "GeneLocation")
    environment.run_instance(instance_id)
    rerun = server.instance(instance_id).find_state("GeneLocation")
    print(f"\nGeneLocation re-run after parameter change: "
          f"{rerun.status}, attempts={rerun.attempts}")

    assert status == "completed"


if __name__ == "__main__":
    main()
