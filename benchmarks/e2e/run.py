"""End-to-end benchmark of the BioOpera reproduction: one workload per run.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

runs one of the four workloads in ``units.py`` from one process and one
thread, checks its outputs, prints every metric by name with its unit and
ends with one JSON result line. ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer ledger of ``ledger.py``. See
``README.md`` beside this file for the protocol and the other modes
(``--smoke``, ``--selfcheck``, ``--profile``).
"""

import time

#: set-up time is counted from here: before any import of the program.
T0 = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from reference import NOMINAL_S, reference  # noqa: E402  (stdlib only)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("allvsall_table1", "burst_plane", "durable_recovery",
                  "operator_reads")
MIN_UNITS = 3


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess), or ``unknown``."""
    git_dir = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def timed_unit(workload):
    """One unit under one ``perf_counter`` pair, then its check."""
    gc.collect()
    start = time.perf_counter()
    state = workload.run()
    wall = time.perf_counter() - start
    check = workload.check(state)
    del state
    return wall, check


def compare(check, warm, label: str, problems: list) -> None:
    """A unit must repeat the warm-up: same digest, same op count."""
    problems.extend(f"{label}: {problem}" for problem in check.problems)
    if check.digest != warm.digest:
        problems.append(f"{label}: digest {check.digest} differs from the "
                        f"warm-up's {warm.digest}")
    if check.ops != warm.ops:
        problems.append(f"{label}: {check.ops} ops, warm-up had {warm.ops}")


def unit_row(wall: float, check, **extra) -> dict:
    """One unit's raw figures for the envelope."""
    return {"wall_s": wall, "ops": check.ops, "digest": check.digest,
            "attempted": check.attempted, "failed": check.failed, **extra}


def run_untraced(workload, warm, seconds: float, first_reference: float,
                 problems: list):
    """Timed units until ``seconds`` have been measured and at least
    ``MIN_UNITS`` are done, a host-speed reference between them.

    A unit's wall time is divided by its slowness: the mean of the
    references run just before and just after it, over ``NOMINAL_S``.
    Set-up time is divided by the slowness of the references at its two
    ends. Returns the metrics, the per-unit rows and the raw set-up time.
    """
    references = [reference()]
    setup_raw = time.perf_counter() - T0
    setup_slowness = (first_reference + references[0]) / 2 / NOMINAL_S
    units = []
    region = 0.0
    while region < seconds or len(units) < MIN_UNITS:
        wall, check = timed_unit(workload)
        compare(check, warm, f"unit {len(units)}", problems)
        references.append(reference())
        units.append(unit_row(
            wall, check, reference_after_s=references[-1],
            slowness=(references[-2] + references[-1]) / 2 / NOMINAL_S))
        region += wall
    metrics = {
        "setup_s": (setup_raw / setup_slowness, "s"),
        "wall_us_per_op": (statistics.median(
            1e6 * unit["wall_s"] / unit["ops"] / unit["slowness"]
            for unit in units), "us"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    raw = {"setup_raw_s": setup_raw, "setup_slowness": setup_slowness,
           "reference_first_s": first_reference,
           "reference_before_units_s": references[0]}
    return metrics, units, raw


def run_traced(workload, warm, seed: int, problems: list):
    """Two untraced units, then one with the ledger's wrappers installed."""
    import ledger

    units = []
    switches = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
    for index in range(2):
        wall, check = timed_unit(workload)
        compare(check, warm, f"unit {index}", problems)
        units.append(unit_row(wall, check))
    tracer = ledger.Tracer()
    fsyncs_before = workload.fsync_calls()
    reference_before = reference()
    state = tracer.trace(workload.run)
    fsync_calls = workload.fsync_calls() - fsyncs_before
    check = workload.check(state)
    del state
    reference_after = reference()
    compare(check, warm, "traced unit", problems)
    book = ledger.Ledger(tracer)
    units.append(unit_row(book.wall_s, check, traced=True))
    os.makedirs(WORK, exist_ok=True)
    trace_path = os.path.join(
        WORK, f"trace-{workload.name}-seed{seed}.json")
    tracer.write_chrome_trace(trace_path)
    untraced = [unit["wall_s"] for unit in units[:2]]
    metrics = ledger.layer_metrics(book, check, fsync_calls, {
        "harness.units": 2,
        "harness.unit_spread": ((max(untraced) - min(untraced))
                                / statistics.median(untraced)),
        "harness.trace_overhead_ratio": (book.wall_s
                                         / statistics.median(untraced)),
        "harness.nivcsw": (resource.getrusage(
            resource.RUSAGE_SELF).ru_nivcsw - switches),
        "harness.loadavg1": os.getloadavg()[0],
        "harness.host_slowness": ((reference_before + reference_after)
                                  / 2 / NOMINAL_S),
    })
    ledger.print_ledger(book)
    print(f"chrome trace: {os.path.relpath(trace_path, REPO)}")
    return metrics, units, {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region to measure (default 15; 0, "
                             "which means three units, with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes: a functional check, not a "
                             "measurement")
    parser.add_argument("--selfcheck", action="store_true",
                        help="replay the driver's two sets of ten seeds "
                             "per workload and gate on the bounds")
    parser.add_argument("--profile", choices=WORKLOAD_NAMES, default=None,
                        metavar="WORKLOAD",
                        help="one unit under cProfile beside one traced "
                             "unit, shares per layer compared")
    args = parser.parse_args(argv)
    if not (args.selfcheck or args.profile or args.workload):
        parser.error("one of --workload, --selfcheck, --profile is needed")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 15.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"run.py: {os.path.join(REPO, 'src', 'repro')} is not there; "
              f"the benchmark measures that package", file=sys.stderr)
        return 2
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(args.smoke)
    # Before the program is imported: one end of set-up's host-speed pair.
    first_reference = reference()
    sys.path.insert(0, os.path.join(REPO, "src"))
    import units as workloads
    if args.profile:
        import profile_check
        return profile_check.main(args.profile, args.seed, args.smoke)

    work_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work_dir)
    atexit.register(shutil.rmtree, work_dir, ignore_errors=True)
    load_start = os.getloadavg()[0]
    problems = []
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                  work_dir)
    try:
        workload.setup()
        warm = workload.warm_up()
        problems.extend(f"warm-up: {problem}" for problem in warm.problems)
        if args.trace:
            metrics, units, raw = run_traced(workload, warm, args.seed,
                                             problems)
        else:
            metrics, units, raw = run_untraced(
                workload, warm, args.seconds, first_reference, problems)
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    envelope = {
        "workload": args.workload, "op": workload.op, "seed": args.seed,
        "smoke": args.smoke, "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg1_start": load_start, "loadavg1_end": os.getloadavg()[0],
        "work_fs": filesystem_type(HERE), "units_timed": len(units),
        "timed_region_s": sum(unit["wall_s"] for unit in units),
        "warm_up": {"ops": warm.ops, "digest": warm.digest},
        "units": units, "sim": warm.sim, **raw, **workload.notes,
    }
    print("envelope: " + json.dumps(envelope, sort_keys=True))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": warm.attempted + sum(u["attempted"] for u in units),
        "failed": warm.failed + sum(u["failed"] for u in units),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
