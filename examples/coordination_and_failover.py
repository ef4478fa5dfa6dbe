#!/usr/bin/env python
"""Event signals between processes + a shard that fails over by itself.

Two of OCR's "advanced programming constructs" in one scenario:

1. **Event handling** — a curation process publishes a cleaned queue file
   and RAISEs ``db_published``; an analysis process AWAITs that signal
   before starting its alignment stage (inter-process coordination without
   polling).
2. **Automatic failover** (the paper's future-work backup architecture) —
   midway through, the shard's BioOpera server dies; the plane's broker
   notices the heartbeat silence, promotes a new incarnation from the
   shard's durable store, and both processes finish with no operator
   involvement.

    python examples/coordination_and_failover.py
"""

from repro import (
    DarwinEngine,
    DatabaseProfile,
    ProgramRegistry,
    ProgramResult,
    SimKernel,
    format_duration,
)
from repro.core.monitor import queries
from repro.core.ocr.parser import parse_ocr
from repro.processes.activities import register_all_vs_all_programs
from repro.processes.all_vs_all import (build_align_chunk_template,
                                        build_all_vs_all_template)
from repro.processes.partitioning import list_queue
from repro.shard import ShardedControlPlane

CURATION = """
PROCESS curation
  DESCRIPTION "Discard ill-behaving sequences, publish the queue file"
  INPUT db_name
  OUTPUT queue = Publish.queue_file
  ACTIVITY Screen
    PROGRAM curation.screen
    IN db = wb.db_name
    MAP queue_file -> queue_file
  END
  ACTIVITY Publish
    PROGRAM curation.publish
    IN queue_file = wb.queue_file
    RAISE db_published
  END
  CONNECT Screen -> Publish
END
"""

ANALYSIS = """
PROCESS analysis
  DESCRIPTION "All-vs-all, gated on the curated queue being published"
  INPUT db_name
  OUTPUT match_count = Align.match_count
  ACTIVITY WaitForData
    PROGRAM analysis.fetch_queue
    AWAIT db_published
    MAP queue_file -> queue_file
  END
  SUBPROCESS Align
    TEMPLATE all_vs_all
    IN db_name = wb.db_name
    IN queue_file = wb.queue_file
    IN granularity = wb.granularity
  END
  INPUT granularity DEFAULT 8
  CONNECT WaitForData -> Align
END
"""


def main():
    profile = DatabaseProfile.synthetic("shared_db", 150, seed=31)
    darwin = DarwinEngine(profile, mode="modeled",
                          random_match_rate=1e-3, seed=6)

    kernel = SimKernel(seed=17)
    registry = ProgramRegistry()
    register_all_vs_all_programs(registry, darwin)

    # a shared "message board": the curation run publishes its queue where
    # the analysis run's fetch program picks it up
    published = {}

    def screen(inputs, ctx):
        rng = ctx.rng()
        keep = [i for i in range(1, len(profile) + 1)
                if rng.random() > 0.05]          # drop ~5% as ill-behaved
        return ProgramResult({"queue_file": list_queue(keep)}, cost=30.0)

    def publish(inputs, ctx):
        published["queue"] = inputs["queue_file"]
        return ProgramResult({"queue_file": inputs["queue_file"]}, cost=1.0)

    def fetch_queue(inputs, ctx):
        return ProgramResult({"queue_file": published["queue"]}, cost=0.5)

    registry.register("curation.screen", screen)
    registry.register("curation.publish", publish)
    registry.register("analysis.fetch_queue", fetch_queue)
    # one shard behind the broker, which watches it for heartbeat silence
    plane = ShardedControlPlane(
        kernel, shards=1, nodes_per_shard=4, cpus=2, seed=6,
        registry=registry, takeover_after=60.0,
        templates=[build_align_chunk_template(), build_all_vs_all_template(),
                   parse_ocr(CURATION), parse_ocr(ANALYSIS)])

    analysis = plane.launch("lab", "analysis", {"db_name": profile.name})
    curation = plane.launch("lab", "curation", {"db_name": profile.name})
    plane.drain_requests()
    analysis_id, curation_id = analysis.result, curation.result

    # the analysis instance is parked on its AWAIT until curation publishes
    kernel.run(until=10.0)
    gated = plane.instance(analysis_id).find_state("WaitForData")
    print(f"t=10s: analysis WaitForData is {gated.status} "
          f"(awaiting db_published)")

    # curation completes -> relay its signal to the analysis instance
    # (inter-process event delivery via the server's signal API)
    plane.run_until(
        lambda: plane.instance(curation_id).status == "completed")
    plane.signal("lab", analysis_id, "db_published", origin=curation_id)
    print(f"t={kernel.now:.0f}s: curation published its queue, "
          f"signal relayed to {analysis_id}")

    # disaster: the shard's server dies mid-analysis
    kernel.run(until=kernel.now + 30.0)
    plane.crash_shard(0)
    print(f"t={kernel.now:.0f}s: SHARD SERVER DOWN")

    plane.run_until(lambda: plane.instance(analysis_id).terminal)
    server = plane.shards[0].server          # the promoted incarnation
    status = server.instance(analysis_id).status
    print(f"t={kernel.now:.0f}s: analysis {status} on the promoted "
          f"incarnation (takeovers: {plane.broker.takeovers})")
    outputs = server.instance(analysis_id).outputs
    print(f"  matches found: {outputs['match_count']}")
    print(f"  manual interventions: "
          f"{server.metrics['manual_interventions']}")

    print("\nper-node accounting (from the durable instance space):")
    for usage in queries.node_usage(server.store, analysis_id):
        print(f"  {usage.node:<10} {usage.activities:>3} activities  "
              f"{format_duration(usage.cpu_seconds):>12}  "
              f"{usage.failures} failures")

    assert status == "completed"
    assert plane.broker.takeovers == 1
    assert server.metrics["manual_interventions"] == 0


if __name__ == "__main__":
    main()
