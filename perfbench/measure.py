"""Runs one workload in either mode and builds its result record.

Import only after ``bootstrap.prepare()``: it imports numpy and the library.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import traceback

import bootstrap
import harness
import traced

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("final_objective", "cost"),
    ("peak_mem_mb", "MB"),
)


def run_plain(workload, base_seed: int, seconds: float):
    """Memory pass, then timed passes over the pool.

    ``solve_s`` and ``setup_s`` sum over the pool each instance's time at
    the baseline host's speed (``harness.at_reference_speed``). The shared
    host's speed swings by up to 1.6x from second to second and over
    minutes, so a raw fastest or median repeat differs from run to run by
    more than the bound; dividing each sample by a reference kernel timed
    just before it cancels most of that. The raw wall times go to the record.
    """
    runs = [harness.InstanceRun(cfg) for cfg in harness.instance_configs(workload, base_seed)]
    peak = 0.0
    for run in runs:
        try:
            peak = max(peak, harness.peak_memory_mb(run.cfg))
        except Exception:
            traceback.print_exc()
            run.failures.append("exception in memory pass")
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for run in runs:
            harness.timed_solve(run)
        passes += 1
        now = time.perf_counter()
        # start another pass only if it should end within the budget
        if now - start + (now - t_pass) > seconds:
            break
    solved = [r for r in runs if r.solve_s and r.state is not None]
    metrics = {
        "solve_s": sum(harness.at_reference_speed(r.solve_s, r.ref_s) for r in solved),
        "setup_s": sum(harness.at_reference_speed(r.setup_s, r.ref_s) for r in runs if r.setup_s),
        "final_objective": (
            sum(harness.weighted_objective(r.problem.weights, r.state.final_terms) for r in solved)
            / max(len(solved), 1)
        ),
        "peak_mem_mb": peak,
    }
    refs = [t for r in runs for t in r.ref_s]
    return runs, metrics, {
        "passes": passes,
        "reference_median_s": statistics.median(refs) if refs else math.nan,
        "wall_fastest_solve_s": sum(min(r.solve_s) for r in solved),
        "wall_median_solve_s": sum(statistics.median(r.solve_s) for r in solved),
        "wall_median_setup_s": sum(statistics.median(r.setup_s) for r in runs if r.setup_s),
    }


def run_traced(workload, base_seed: int):
    """Each instance solved plainly and under span wrappers, alternately."""
    runs = [harness.InstanceRun(cfg) for cfg in harness.instance_configs(workload, base_seed)]
    results = [traced.trace_instance(run) for run in runs]
    metrics, problems = traced.layer_metrics(runs, results)
    missing_layers = set().union(*(tracer.missing for tracer, *_ in results))
    missing = [m for m, _, name in traced.PER_LAYER if name in missing_layers]
    extra = {"spans": {tracer.instance: tracer.spans for tracer, *_ in results},
             "missing_layers": sorted(missing_layers),
             "missing_metrics": missing, "trace_problems": problems}
    return runs, metrics, extra


def measure(name: str, seed: int, base_seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result record."""
    workload = harness.WORKLOADS[name]
    if trace:
        runs, metrics, extra = run_traced(workload, base_seed)
        units = {m: unit for m, unit, _ in traced.PER_LAYER}
    else:
        runs, metrics, extra = run_plain(workload, base_seed, seconds)
        units = dict(END_TO_END)
    harness.check_pairs(runs)
    attempted = sum(run.solves for run in runs)
    failed = sum(run.failed for run in runs)
    problems = extra.get("trace_problems", [])
    return {
        "workload": name,
        "seed": seed,
        "base_seed": base_seed,
        "trace": int(trace),
        "correct": attempted > 0 and not problems and not any(r.failures for r in runs),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "reference_s": harness.REFERENCE_S,
        "instances": [_instance_record(run) for run in runs],
        "environment": harness.environment(),
        **extra,
    }


def _instance_record(run) -> dict:
    state = run.state
    rec = {"id": harness.instance_id(run.cfg), "solves": run.solves, "failed": run.failed,
           "setup_s": run.setup_s, "solve_s": run.solve_s, "reference_s": run.ref_s,
           "failures": run.failures}
    if state is not None:
        rec.update(
            termination=state.termination.value,
            max_iter_exit=harness.is_max_iter_exit(state, run.cfg),
            outer_iterations=state.outer_iterations,
            dual_sweeps=state.dual_sweeps,
            bisection_evals=state.bisection_steps,
            polish_steps=state.polish_steps,
            rejected_steps=state.rejected_steps,
            final_objective=harness.weighted_objective(run.problem.weights, state.final_terms),
            warnings=list(state.warnings),
        )
    return rec


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} (seed {record['seed']}, pool from {record['base_seed']}, "
          f"trace {record['trace']})")
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, cpu {env['cpu']}")
    for name, m in record["metrics"].items():
        flag = "  (missing: wrapped name not found)" if name in record.get("missing_metrics", ()) else ""
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}{flag}")
    print(f"{'failed_share':36s} {record['failed_share']:>16.6g} ratio "
          f"({record['failed']}/{record['attempted']} solves)")
    if "reference_median_s" in record:
        print(f"# wall: median solve {record['wall_median_solve_s']:.4f} s, fastest solve "
              f"{record['wall_fastest_solve_s']:.4f} s, median set-up "
              f"{record['wall_median_setup_s']:.4f} s, median reference "
              f"{record['reference_median_s']:.4f} s (baseline host {record['reference_s']} s)")
    for inst in record["instances"]:
        if inst["failures"]:
            print(f"FAILED {inst['id']}: {'; '.join(inst['failures'])}", file=sys.stderr)
    for problem in record.get("trace_problems", ()):
        print(f"TRACE CHECK FAILED: {problem}", file=sys.stderr)


def write_record(record: dict) -> None:
    out = bootstrap.ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def check_declared(trace: bool) -> str | None:
    """The metric names and units must match BENCHMARK.json."""
    path = bootstrap.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    produced = {m: unit for m, unit, *_ in (traced.PER_LAYER if trace else END_TO_END)}
    if declared != produced:
        return f"metrics disagree with BENCHMARK.json: declared {declared}, produced {produced}"
    return None
