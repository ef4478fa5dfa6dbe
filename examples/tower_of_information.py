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
from repro.prov import lineage_records
from repro.store import LineageGraph


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
    graph = LineageGraph(lineage_records(server.store))
    print(f"\n=== lineage: {len(graph)} derivation records ===")

    # Build a task-level dependency view of the tower steps.
    step_order = [
        "GeneLocation", "Translation", "PairwiseAlignments", "Distances",
        "MultipleAlignment", "PhylogeneticTree", "AncestralSequences",
        "SecondaryStructure", "FunctionPrediction",
    ]
    for step in step_order:
        dataset = f"{instance_id}/{step}"
        if graph.is_derived(dataset):
            producer = graph.producer(dataset)
            print(f"  {step:<22} <- {producer.program}")

    # "It is possible for the system to recompute processes as data inputs
    # or algorithms change": ask what a new phylogeny algorithm touches.
    # (Task-level lineage here; dataset-level lineage works identically.)
    stale = graph.invalidated_by_program("tower.phylo_tree")
    print(f"\nif the tree algorithm changes, recompute "
          f"{len(stale)} dataset(s):")
    for dataset in sorted(stale):
        print(f"  {dataset.split('/', 1)[1]}")

    # Operator-driven re-run of one step after a parameter change.
    server.change_parameter(instance_id, "genome_size", 300_000)
    server.restart_task(instance_id, "GeneLocation")
    environment.run_instance(instance_id)
    rerun = server.instance(instance_id).find_state("GeneLocation")
    print(f"\nGeneLocation re-run after parameter change: "
          f"{rerun.status}, attempts={rerun.attempts}")

    assert status == "completed"


if __name__ == "__main__":
    main()
