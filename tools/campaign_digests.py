#!/usr/bin/env python3
"""Digest the seeded chaos campaigns, to show a change altered nothing.

Campaigns are deterministic per seed, and their fault actions fire on hit
counts, so a refactor that adds, drops or reorders even one store commit,
event or fault-point hit shifts a campaign's whole accounting. One cell is
the sha256 of ``json.dumps(dataclasses.asdict(run_campaign(seed, darwin,
config=CampaignConfig(profile=p))), sort_keys=True)``; ``--out`` writes
the cells for seeds 0..N-1 of the ``mixed``, ``partition``, ``shard`` and
``rebalance`` profiles, plus how many runs did not complete or violated an
invariant (about 45 s for the default 30 seeds), and exits non-zero if any
did. It also lists the fault points that fired in some run, and exits
non-zero when a crash window (a point of ``points.CATALOG`` that takes a
crash) fired in none and is not named in :data:`UNREACHED`, or when one
named there did fire, so the table cannot go stale. Run it on the parent
and on the change, then ``--compare`` the two files: differing cells are
listed, then how many moved per profile (e.g. ``mixed 30/30 moved,
partition 0/30 moved``), and the exit code is non-zero. A report names the interpreter that wrote it.
``tools/campaign_digests.json`` is the committed baseline CI compares
against; a change that moves a digest commits the file it regenerates.

Usage::

    PYTHONPATH=src python tools/campaign_digests.py --out after.json
    PYTHONPATH=src python tools/campaign_digests.py --compare before.json after.json
"""

import argparse
import dataclasses
import hashlib
import json
import platform

PROFILES = ("mixed", "partition", "shard", "rebalance")

#: crash windows no campaign reaches, each with the reason.
UNREACHED = {
    "store.checkpoint.rewrite-written":
        "campaign stores never supersede half their chain (ROADMAP 4(iii))",
    "store.checkpoint.manifest-switched":
        "campaign stores never supersede half their chain (ROADMAP 4(iii))",
}


def uncovered(fired):
    """What is wrong with the set of points that ``fired`` across the
    runs: crash windows that fired in none and are not in
    :data:`UNREACHED`, and entries of that table that did fire."""
    from repro.faults.points import CATALOG, CRASH_KINDS

    windows = {point for point, kinds in CATALOG.items()
               if set(kinds) & set(CRASH_KINDS)}
    return ([f"crash window {point} fired in no run"
             for point in sorted(windows - set(fired) - set(UNREACHED))]
            + [f"{point} fired, but UNREACHED says: {UNREACHED[point]}"
               for point in sorted(set(UNREACHED) & set(fired))])


def digests(seeds):
    """Run every (profile, seed) campaign; returns the report dict."""
    from repro.faults.chaos import (
        CampaignConfig, default_darwin, run_campaign,
    )

    darwin = default_darwin()
    cells, not_ok, fired = {}, 0, set()
    for profile in PROFILES:
        config = CampaignConfig(profile=profile)
        for seed in range(seeds):
            result = run_campaign(seed, darwin, config=config)
            not_ok += not result.ok
            fired.update(entry["point"] for entry in result.fired)
            payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
            cells[f"{profile}/{seed}"] = hashlib.sha256(
                payload.encode()
            ).hexdigest()
    return {"cells": cells, "not_ok": not_ok, "fired": sorted(fired),
            "python": platform.python_version()}


def compare(before_path, after_path):
    """Print the cells that differ between two reports; returns them."""
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    names = sorted(set(before["cells"]) | set(after["cells"]))
    differing = [name for name in names
                 if before["cells"].get(name) != after["cells"].get(name)]
    for name in differing:
        print(f"DIFFERS {name}: {before['cells'].get(name)} -> "
              f"{after['cells'].get(name)}")
    per_profile = {}
    for name in names:
        profile = name.split("/")[0]
        moved, total = per_profile.get(profile, (0, 0))
        per_profile[profile] = (moved + (name in differing), total + 1)
    print(", ".join(f"{profile} {moved}/{total} moved"
                    for profile, (moved, total) in per_profile.items()))
    print(f"{len(names) - len(differing)} of {len(names)} cells identical; "
          f"not ok: {before['not_ok']} -> {after['not_ok']}")
    return differing


def main(argv=None):
    """Write a digest report (--out) or compare two (--compare)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE",
                      help="run the campaigns and write their digests")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="list the cells that differ between two reports")
    parser.add_argument("--seeds", type=int, default=30,
                        help="seeds 0..N-1 per profile (default 30)")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    report = digests(args.seeds)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"{len(report['cells'])} cells, {report['not_ok']} not ok "
          f"-> {args.out}")
    problems = uncovered(report["fired"])
    for problem in problems:
        print(f"COVERAGE {problem}")
    return 1 if report["not_ok"] or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
