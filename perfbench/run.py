"""dfrcwave benchmark: time to a converged, checked waveform design.

    python3 perfbench/run.py --workload desk-dfrc --seed 0 --seconds 50 --trace 0

Each workload solves a fixed pool of instances, one at a time in one
process (a closed loop with one client), with BLAS pinned to one thread.
``--trace 0`` times set-up and solve with no instrumentation, repeats the
pool until ``--seconds`` would be exceeded, and reports the end-to-end
metrics; the memory pass runs before the timed passes, under tracemalloc.
``--trace 1`` alternates plain solves and solves under span wrappers for
each instance of the pool and reports the per-layer metrics. Every solve is checked. The last line
of standard output is one JSON object; a human-readable table and the
environment precede it, and the full record (with spans when traced)
goes to ``perfbench/out/``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import sys

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="desk-dfrc, compare-radar, n64-dfrc or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the driver; the instance pool is fixed by --base-seed")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first instance seed of each workload's pool")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.base_seed < 0 or args.seed < 0 or not args.seconds > 0:
        parser.error("seeds must be nonnegative and --seconds positive")

    error = bootstrap.prepare()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import measure  # imports numpy, so only after the thread pins

    workloads = measure.harness.WORKLOADS
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads)} or all")
    error = measure.check_declared(bool(args.trace))
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3

    records = []
    for name in names:
        record = measure.measure(name, args.seed, args.base_seed, args.seconds, bool(args.trace))
        measure.write_record(record)
        measure.print_table(record)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
