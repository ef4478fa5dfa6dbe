"""Chaos campaign CLI: a thin front-end over the campaign engine.

Usage::

    PYTHONPATH=src python benchmarks/chaos_run.py
        [--seeds N | --epsilon E] [--workers W] [--timeout T]
        [--profile mixed|partition|shard|rebalance] [--sweep]
        [--journal PATH] [--fresh]
        [--bench-out PATH] [--rerun PLAN.json]

Three modes, all driven through :mod:`repro.faults.campaign`:

* **fixed** (``--seeds N``): the classic N-seed campaign, now parallel,
  timeout-guarded, and reported with Wilson confidence intervals;
* **statistical** (``--epsilon E``): iterative sampling — seed batches
  are drawn until every engaged fault category's Wilson half-width is
  ≤ E (or ``--max-runs`` is exhausted, which the report flags);
* **rerun** (``--rerun plan.json``): replay one dumped FaultPlan with
  verbose per-crash / per-invariant tracing, for debugging a failing
  campaign.

``--sweep`` additionally runs the committed factorial sweep (2 sync
policies × 2 checkpoint intervals × 2 lease settings = 8 cells) under
common random numbers and ranks the cells by survival × throughput ×
recovery time (Pareto front + weighted sum).

Failing or hung runs are never fail-fast: each dumps its plan into
``benchmarks/output/failing_plans/`` and the roster is reported together
at the end (exit 1). ``--journal`` makes the campaign resumable: an
interrupted invocation re-run with the same arguments picks up after the
last journaled run.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.faults import report, stats, sweep  # noqa: E402
from repro.faults.campaign import (  # noqa: E402
    CampaignEngine,
    RunSpec,
    run_statistical,
)
from repro.faults.chaos import (  # noqa: E402
    CampaignConfig,
    default_darwin,
    run_campaign,
)
from repro.faults.plan import PROFILES, FaultPlan  # noqa: E402

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")
FAILING_DIR = os.path.join(OUTPUT_DIR, "failing_plans")

#: the committed factorial design: 8 cells over the three axes the
#: operator handbook calls out as the main dependability trade-offs.
SWEEP_AXES = (
    sweep.SweepAxis("sync_policy", ("group", "per-commit")),
    sweep.SweepAxis("checkpoint_interval", (10, 40)),
    sweep.SweepAxis("leases", ((900.0, 4.0), None)),
)


def parse_args(argv):
    """The CLI surface (kept thin: every mode maps onto the engine)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--seeds", type=int, default=None,
                      help="fixed seed budget (classic mode; default 50 "
                           "when --epsilon is not given)")
    mode.add_argument("--epsilon", type=float, default=None,
                      help="statistical mode: sample until every "
                           "category's Wilson half-width is <= EPSILON")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--max-runs", type=int, default=400,
                        help="statistical-mode run cap (default 400)")
    parser.add_argument("--batch", type=int, default=24,
                        help="statistical-mode batch size (default 24)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-run wall-clock budget in seconds; a "
                             "run over budget is reaped and classified "
                             "'hung' (default 300)")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--cpus", type=int, default=2)
    parser.add_argument("--granularity", type=int, default=8)
    parser.add_argument("--profile", choices=PROFILES, default="mixed",
                        help="fault mix: every category (mixed), the "
                             "network-fabric stress set (partition), "
                             "one-victim shard failures (shard), or "
                             "drain/grow with migration-window crashes "
                             "(rebalance)")
    parser.add_argument("--sweep", action="store_true",
                        help="also run the committed 8-cell factorial "
                             "configuration sweep (CRN seed set)")
    parser.add_argument("--sweep-seeds", type=int, default=16,
                        help="seeds per sweep cell (default 16)")
    parser.add_argument("--journal", default=None,
                        help="journal path; enables crash-safe resume")
    parser.add_argument("--fresh", action="store_true",
                        help="discard an existing journal first")
    parser.add_argument("--output", default="chaos_report",
                        help="report base name under benchmarks/output/ "
                             "(default chaos_report -> chaos_report.md)")
    parser.add_argument("--bench-out", default=None,
                        help="also write the JSON artifact (e.g. "
                             "BENCH_chaos.json) to this path")
    parser.add_argument("--rerun", default=None, metavar="PLAN_JSON",
                        help="replay one dumped plan with verbose "
                             "per-invariant tracing, then exit")
    return parser.parse_args(argv)


def rerun(path: str, args) -> int:
    """Replay one dumped FaultPlan with verbose tracing (repro mode)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    plan_dict = data.get("plan", data)
    plan = FaultPlan.from_dict(plan_dict)
    seed = int(data.get("seed", plan.seed))
    if data.get("config"):
        config = CampaignConfig.from_dict(data["config"])
    else:
        config = CampaignConfig(nodes=args.nodes, cpus=args.cpus,
                                granularity=args.granularity,
                                profile=args.profile)
    print(f"replaying seed {seed} [{config.label()}] from {path}")
    print(f"plan: {len(plan.scheduled)} scheduled disturbances, "
          f"{len(plan.actions)} armed point actions "
          f"({', '.join(plan.categories())})")
    darwin = default_darwin()
    result = run_campaign(seed, darwin, plan=plan, config=config,
                          trace=print)
    print()
    print(f"status={result.status} crashes={result.crashes} "
          f"recoveries={result.recoveries} downtime="
          f"{result.recovery_time:.0f}s wall={result.wall:.0f}s")
    if result.fired:
        print("fired point actions:")
        for entry in result.fired:
            print(f"  {entry['point']} ({entry['kind']}) "
                  f"on hit {entry['hit']}")
    if result.violations:
        print("VIOLATIONS:")
        for violation in result.violations:
            print(f"  - {violation}")
        return 1
    print("all invariants held.")
    return 0


def main(argv=None):
    """Entry point: run the selected campaign mode and report."""
    args = parse_args(argv)
    if args.rerun:
        return rerun(args.rerun, args)

    base = CampaignConfig(nodes=args.nodes, cpus=args.cpus,
                          granularity=args.granularity,
                          profile=args.profile)
    if args.journal and args.fresh and os.path.exists(args.journal):
        os.remove(args.journal)
    meta = {
        "mode": "statistical" if args.epsilon is not None else "fixed",
        "profile": args.profile,
        "start": args.start,
        "epsilon": args.epsilon,
        "seeds": args.seeds,
        "sweep": bool(args.sweep),
        "sweep_seeds": args.sweep_seeds if args.sweep else None,
        "cell": base.label(),
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    payload = {}
    all_records = []

    with CampaignEngine(workers=args.workers, timeout=args.timeout,
                        journal_path=args.journal, journal_meta=meta,
                        failing_dir=FAILING_DIR, log=print) as engine:
        if args.epsilon is not None:
            print(f"statistical campaign: profile={args.profile}, "
                  f"epsilon={args.epsilon}, batch={args.batch}, "
                  f"max {args.max_runs} runs, {args.workers} worker(s)")
            records = run_statistical(
                engine, base, args.epsilon, batch=args.batch,
                max_runs=args.max_runs, start_seed=args.start, log=print,
            )
        else:
            budget = args.seeds if args.seeds is not None else 50
            print(f"fixed campaign: profile={args.profile}, seeds "
                  f"{args.start}..{args.start + budget - 1}, "
                  f"{args.workers} worker(s)")
            records = engine.run([
                RunSpec(seed, base)
                for seed in range(args.start, args.start + budget)
            ])
            for record in records:
                marker = "ok " if record["ok"] else "FAIL"
                print(f"  seed {record['seed']:>3} {marker} "
                      f"status={record['status']:<10} "
                      f"crashes={record['crashes']} "
                      f"recoveries={record['recoveries']} "
                      f"wall={record['wall']:.0f}s")
        all_records.extend(records)
        payload["statistical"] = report.statistical_summary(
            records, args.epsilon, stats.Z_95)
        print(f"  engine: {engine.executed} executed, "
              f"{engine.resumed} resumed from journal, "
              f"{engine.hung} hung")

        if args.sweep:
            seeds = range(args.start, args.start + args.sweep_seeds)
            configs = sweep.cells(SWEEP_AXES, base)
            print(f"sweep: {len(configs)} cells x {args.sweep_seeds} "
                  f"common seeds")
            outcomes = sweep.run_sweep(engine, configs, seeds, log=print)
            payload["sweep"] = report.sweep_summary(
                outcomes, SWEEP_AXES, seeds)
            for outcome in outcomes:
                all_records.extend(outcome.records)

    payload["failures"] = report.failure_roster(all_records)
    report_path = os.path.join(OUTPUT_DIR, args.output + ".md")
    text = report.write_markdown(report_path, payload)
    print()
    print(text)
    print(f"report written to {report_path}")
    if args.bench_out:
        report.write_json(args.bench_out, payload)
        print(f"JSON artifact written to {args.bench_out}")

    if payload["failures"]:
        print(f"\n{len(payload['failures'])} run(s) failed; plans dumped "
              f"under {FAILING_DIR} (re-runnable via --rerun)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
