"""One-off dfrc seed sweep at N=32 and N=64, recorded beside the baseline.

    python3 perfbench/seed_sweep.py [--out perfbench/seed_sweep.json]

Each instance is set up once and solved twice, outside the benchmark's
repeat loop: from ``problem.x0`` (the path of ``run_experiment`` and the
benchmark) and from ``mm_solve``'s default x0, which follows a different
trajectory, so a bad exit can be traced to the start or to the instance.
Nothing is dropped: every seed appears whatever its termination.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import bootstrap

SIZES = (("N=32", 4), ("N=64", 8))
SEEDS = range(5)


def _record(problem, cfg, state, solve_s: float) -> dict:
    import harness  # imports numpy, so only after the thread pins

    return {
        "termination": state.termination.value,
        "max_iter_exit": harness.is_max_iter_exit(state, cfg),
        "outer_iterations": state.outer_iterations,
        "polish_steps": state.polish_steps,
        "rejected_steps": state.rejected_steps,
        "dual_sweeps": state.dual_sweeps,
        "bisection_evals": state.bisection_steps,
        "solve_s": solve_s,
        "final_objective": harness.weighted_objective(problem.weights, state.final_terms),
        "warnings": list(state.warnings),
        "failures": harness.check_state(problem, state),
    }


def _flagged(rows, pred) -> list[str]:
    return [
        f"{r['size']} seed {r['seed']} {key}"
        for r in rows
        for key in ("from_problem_x0", "from_default_x0")
        if pred(r[key])
    ]


def sweep() -> dict:
    import harness  # imports numpy, so only after the thread pins

    rows = []
    base = harness.config.config_from_file(bootstrap.ROOT / "configs" / "desk.cfg")
    for label, n_tx in SIZES:
        for seed in SEEDS:
            cfg = dataclasses.replace(base, n_tx=n_tx, seed=seed)
            problem, ctx = harness.set_up(cfg)
            row = {"size": label, "seed": seed}
            for key, x0 in (("from_problem_x0", problem.x0), ("from_default_x0", None)):
                t0 = time.perf_counter()
                state = harness.solver.mm_solve(
                    problem.scene, problem.comm, problem.weights, problem.solver,
                    x0=x0, p_total=problem.p_total, ctx=ctx,
                )
                row[key] = _record(problem, cfg, state, time.perf_counter() - t0)
            print(json.dumps(row), flush=True)
            rows.append(row)
    return {
        "config": "configs/desk.cfg, dfrc mode, diagonal majorizer",
        "rows": rows,
        "max_iter_exits": _flagged(rows, lambda rec: rec["max_iter_exit"]),
        "failed_checks": _flagged(rows, lambda rec: rec["failures"]),
        "environment": harness.environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(bootstrap.ROOT / "perfbench" / "seed_sweep.json"))
    args = parser.parse_args(argv)
    error = bootstrap.prepare()
    if error:
        print(f"seed_sweep: {error}", file=sys.stderr)
        return 2
    result = sweep()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
