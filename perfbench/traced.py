"""The traced run: per-layer spans and counters around the library's public functions.

It wraps the names ``mm_solve`` reaches through the ``dfrcwave.solver``
module globals, plus ``build_scene`` as ``build_problem`` sees it, and
times ``build_problem``, ``build_majorizer_context`` and ``mm_solve`` from
here. Nothing under ``src/`` is changed; the originals are restored after
each traced solve.
"""

from __future__ import annotations

import math
import traceback
from collections import defaultdict

import harness
from dfrcwave import config, majorize, solver
from dfrcwave.experiment import iterations_to_within
from dfrcwave.model import SolveMode
from spans import Tracer

#: (metric, unit, wrapped name it rests on or None), in report order. A metric
#: whose wrapped name is gone is reported as missing.
PER_LAYER = (
    ("solver.dual_ascent_s", "s", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.dual_ascent_calls", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.dual_sweeps", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.bisection_evals", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.evals_per_sweep", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.restore_calls", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.restore_ratio", "ratio", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.restore_s", "s", "dfrcwave.solver._restore_feasibility"),
    ("solver.polish_s", "s", "dfrcwave.solver.polish_feasible"),
    ("solver.polish_calls", "count", "dfrcwave.solver.polish_feasible"),
    ("solver.polish_steps", "count", None),
    ("solver.rejected_steps", "count", None),
    ("solver.sweep_cap_hits", "count", "dfrcwave.solver.dual_ascent_sweep"),
    ("solver.max_iter_exits", "count", None),
    ("solver.outer_iters", "count", None),
    ("solver.iter_ms", "ms", None),
    ("solver.mm_self_s", "s", None),
    ("majorize.build_phi_s", "s", "dfrcwave.solver.build_phi"),
    ("majorize.build_phi_calls", "count", "dfrcwave.solver.build_phi"),
    ("majorize.phi_bytes_per_call", "B", "dfrcwave.solver.build_phi"),
    ("majorize.build_d_s", "s", "dfrcwave.solver.build_d"),
    ("majorize.context_s", "s", None),
    ("majorize.iters_to_5pct_diagonal", "count", None),
    ("majorize.iters_to_5pct_max_eigen", "count", None),
    ("radar.objective_terms_s", "s", "dfrcwave.solver.objective_terms"),
    ("radar.objective_terms_calls", "count", "dfrcwave.solver.objective_terms"),
    ("radar.build_scene_s", "s", "dfrcwave.config.build_scene"),
    ("radar.dense_mb", "MB", None),
    ("config.build_problem_s", "s", None),
    ("comm.build_ci_constraints_s", "s", "dfrcwave.solver.build_ci_constraints"),
    ("trace.overhead_s", "s", None),
)

#: Plain and traced solves alternate this many times per instance; each side
#: keeps its fastest.
TRACE_REPEATS = 5

_REACHED_BY_ALL = (
    "dfrcwave.config.build_scene",
    "dfrcwave.solver.build_phi",
    "dfrcwave.solver.build_d",
    "dfrcwave.solver.objective_terms",
)
#: Wrapped names every solve of a mode must reach. A wrapper that exists but
#: records no span (say, the library calls around it) fails the run; a name
#: the library no longer has is reported as missing instead.
REQUIRED = {
    SolveMode.RADAR_ONLY: _REACHED_BY_ALL,
    SolveMode.DFRC: _REACHED_BY_ALL + (
        "dfrcwave.solver.build_ci_constraints",
        "dfrcwave.solver.dual_ascent_sweep",
    ),
}


def _count(tracer: Tracer, key: str, amount=1) -> None:
    tracer.counters[key] += amount


def _on_dual(tracer, args, kwargs, res) -> None:
    _count(tracer, "dual_sweeps", res.sweeps)
    _count(tracer, "bisection_evals", res.bisection_evals)
    _count(tracer, "restored", int(res.restored))
    _count(tracer, "sweep_cap_hits", int(not res.converged))


def _stack_bytes(ctx) -> int:
    """Computed bytes of the dense B/AC/CC stacks one build_phi call reads.

    Each active stack is read twice: once for the quadratic coefficients
    x^H M x and once for the weighted sum that forms Phi.
    """
    w = ctx.weights
    total = 0
    for weight, attr in ((w.w_bp, "b_mats"), (w.w_ac, "ac_mats"), (w.w_cc, "cc_mats")):
        stack = getattr(ctx, attr, None)
        if weight > 0 and stack is not None:
            total += 2 * stack.nbytes
    return total


def _on_phi(tracer, args, kwargs, result) -> None:
    ctx = kwargs.get("ctx", args[1] if len(args) > 1 else None)
    _count(tracer, "phi_bytes", _stack_bytes(ctx))


def _install(tracer: Tracer) -> None:
    for attr, hook in (
        ("build_majorizer_context", None),
        ("build_ci_constraints", None),
        ("build_phi", _on_phi),
        ("build_d", None),
        ("dual_ascent_sweep", _on_dual),
        ("_restore_feasibility", None),
        ("polish_feasible", None),
        ("objective_terms", None),
    ):
        tracer.wrap(solver, attr, hook)
    tracer.wrap(config, "build_scene")


def traced_solve(cfg) -> tuple:
    """Set up and solve one config under fresh wrappers.

    Returns (tracer, problem, state, failure reasons); problem and state
    are None when a call raised.
    """
    tracer = Tracer()
    tracer.instance = harness.instance_id(cfg)
    _install(tracer)
    try:
        with tracer.span("setup"):
            with tracer.span("build_problem"):
                problem = config.build_problem(cfg)
            with tracer.span("build_majorizer_context"):
                ctx = majorize.build_majorizer_context(
                    problem.scene, problem.weights, problem.solver.majorizer_kind
                )
        with tracer.span("mm_solve"):
            state = harness.solve(problem, ctx)
    except Exception:
        traceback.print_exc()
        return tracer, None, None, ["exception in traced solve"]
    finally:
        tracer.restore()
    return tracer, problem, state, harness.check_state(problem, state)


def _mm_solve_s(tracer: Tracer) -> float:
    return tracer.totals().get("mm_solve", (math.inf, 0))[0]


def trace_instance(run: harness.InstanceRun) -> tuple:
    """Alternate plain and traced solves of one instance TRACE_REPEATS times.

    The plain solves are recorded in ``run``; the traced solve with the
    fastest ``mm_solve`` span is returned, as ``traced_solve`` gives it.
    Alternating keeps drift in machine speed from favouring either side.
    """
    best = None
    for _ in range(TRACE_REPEATS):
        harness.timed_solve(run)
        result = traced_solve(run.cfg)
        run.solves += 1
        run.record(result[3])
        if best is None or _mm_solve_s(result[0]) < _mm_solve_s(best[0]):
            best = result
    return best


def _dense_mb(problem) -> float:
    scene = problem.scene
    arrays = (getattr(scene, "b_mats", None), getattr(scene, "d_mats", None))
    return sum(a.nbytes for a in arrays if a is not None) / 1e6


def _consistency(run, tracer, problem, state) -> list:
    """Failures of one instance's trace checks: every required wrapper fired,
    counters match SolverState, and the traced solve took the plain path."""
    iid = tracer.instance
    problems = []
    totals = tracer.totals()
    for name in REQUIRED[problem.solver.mode]:
        short = name.rsplit(".", 1)[1]
        if name not in tracer.missing and short not in totals:
            problems.append(f"{iid}: wrapped {short} recorded no span")
    if "dfrcwave.solver.dual_ascent_sweep" not in tracer.missing:
        for key, expect in (("dual_sweeps", state.dual_sweeps),
                            ("bisection_evals", state.bisection_steps)):
            if tracer.counters[key] != expect:
                problems.append(f"{iid}: traced {key} {tracer.counters[key]} "
                                f"!= SolverState {expect}")
    if run.state is not None and run.state.outer_iterations != state.outer_iterations:
        problems.append(f"{iid}: traced run took {state.outer_iterations} outer "
                        f"iterations, untraced {run.state.outer_iterations}")
    return problems


def layer_metrics(runs: list, traced: list) -> tuple[dict, list]:
    """Per-layer metric values plus the failures of the consistency checks.

    ``runs`` holds the InstanceRuns with the plain solves; ``traced`` holds
    the chosen ``traced_solve`` result of each, in the same order.
    """
    problems = []
    totals = defaultdict(lambda: [0.0, 0])
    counters = defaultdict(int)
    self_total = 0.0
    t5 = {"diagonal": 0, "max_eigen": 0}
    states = []
    for run, (tracer, problem, state, _) in zip(runs, traced):
        for name, (secs, n) in tracer.totals().items():
            totals[name][0] += secs
            totals[name][1] += n
        for key, value in tracer.counters.items():
            counters[key] += value
        self_total += tracer.self_time("mm_solve")
        if state is not None:
            states.append((run.cfg, state))
            t5[run.cfg.majorizer_kind] += iterations_to_within(state.objective_trace, 0.05)
            problems += _consistency(run, tracer, problem, state)

    def secs(name):
        return totals[name][0] if name in totals else 0.0

    def calls(name):
        return totals[name][1] if name in totals else 0

    plain_solve = sum(min(r.solve_s) for r in runs if r.solve_s)
    outer = sum(s.outer_iterations for _, s in states)
    sweeps, evals = counters["dual_sweeps"], counters["bisection_evals"]
    values = {
        "solver.dual_ascent_s": secs("dual_ascent_sweep"),
        "solver.dual_ascent_calls": calls("dual_ascent_sweep"),
        "solver.dual_sweeps": sweeps,
        "solver.bisection_evals": evals,
        "solver.evals_per_sweep": evals / sweeps if sweeps else 0.0,
        "solver.restore_calls": counters["restored"],
        "solver.restore_ratio": (
            counters["restored"] / calls("dual_ascent_sweep")
            if calls("dual_ascent_sweep") else 0.0
        ),
        "solver.restore_s": secs("_restore_feasibility"),
        "solver.polish_s": secs("polish_feasible"),
        "solver.polish_calls": calls("polish_feasible"),
        "solver.polish_steps": sum(s.polish_steps for _, s in states),
        "solver.rejected_steps": sum(s.rejected_steps for _, s in states),
        "solver.sweep_cap_hits": counters["sweep_cap_hits"],
        "solver.max_iter_exits": sum(harness.is_max_iter_exit(s, c) for c, s in states),
        "solver.outer_iters": outer,
        "solver.iter_ms": 1000.0 * plain_solve / outer if outer else 0.0,
        "solver.mm_self_s": self_total,
        "majorize.build_phi_s": secs("build_phi"),
        "majorize.build_phi_calls": calls("build_phi"),
        "majorize.phi_bytes_per_call": (
            counters["phi_bytes"] / calls("build_phi") if calls("build_phi") else 0.0
        ),
        "majorize.build_d_s": secs("build_d"),
        "majorize.context_s": secs("build_majorizer_context"),
        "majorize.iters_to_5pct_diagonal": t5["diagonal"],
        "majorize.iters_to_5pct_max_eigen": t5["max_eigen"],
        "radar.objective_terms_s": secs("objective_terms"),
        "radar.objective_terms_calls": calls("objective_terms"),
        "radar.build_scene_s": secs("build_scene"),
        "radar.dense_mb": max((_dense_mb(p) for _, p, _, _ in traced if p is not None),
                              default=0.0),
        "config.build_problem_s": secs("build_problem"),
        "comm.build_ci_constraints_s": secs("build_ci_constraints"),
        "trace.overhead_s": secs("mm_solve") - plain_solve,
    }
    return values, problems
