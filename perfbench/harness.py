"""Workloads, timed solves, correctness checks and the memory pass.

Every instance runs the path of ``run_experiment`` and the CLI:
``config.build_problem`` -> ``majorize.build_majorizer_context`` ->
``solver.mm_solve(..., x0=problem.x0, ctx=ctx)``. The functions are looked
up through their modules at call time, so the traced run's wrappers apply.
Import this module only after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from bootstrap import ROOT
from dfrcwave import config, majorize, oracle, solver
from dfrcwave.experiment import iterations_to_within
from dfrcwave.model import MODULUS_TOL, SolveMode

#: Relative ascent allowed between consecutive trace values (criterion 6).
MONOTONE_TOL = 1e-9
#: Most negative CI margin accepted at exit (criterion 6).
MARGIN_TOL = -1e-6
#: Largest KKT residual accepted at exit (criterion 6).
KKT_TOL = 1e-4
#: Relative gap allowed between the reported objective and the oracle recompute.
OBJECTIVE_RTOL = 1e-9
#: Outer iterations the memory pass runs after set-up. tracemalloc slows the
#: solve about 4x (desk seed 0: 17.1 s against 4.2 s), so a full traced solve
#: at N = 64 would not fit a run; every iteration allocates the same arrays,
#: and the peak at this commit is reached in set-up.
MEMORY_ITERS = 20
#: Work of the reference kernel timed before every timed solve: steps of
#: its small-product loop and of its stack contraction, about equal in time.
REFERENCE_STEPS = (6_000, 80)
#: A mid-range time of one reference kernel call on the host the baseline
#: was recorded on (2 vCPUs of a shared Intel Xeon at 2.0 GHz, where a call
#: took 0.10 to 0.17 s). Timings are reported at the speed this stands for:
#: see ``at_reference_speed``.
REFERENCE_S = 0.12

_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((32, 32)) + 1j * _REF_RNG.standard_normal((32, 32))
_REF_X = np.exp(2j * np.pi * _REF_RNG.uniform(size=32))
#: The size of one dense beam-pattern stack at N = 32 (181 angles), 3 MB.
_REF_STACK = (_REF_RNG.standard_normal((181, 32, 32))
              + 1j * _REF_RNG.standard_normal((181, 32, 32)))


def reference_s() -> float:
    """Wall time of a fixed kernel that uses no library code.

    It has the solver's two kinds of work at N = 32: a Python loop of small
    complex products and phase projections (as in the dual ascent), and
    contractions over a 3 MB matrix stack (as in ``build_phi`` and the
    objective). The shared host's speed swings by up to 1.6x, from one
    second to the next and over minutes, for every program on it; this
    kernel, timed just before each solve, measures that speed.
    """
    small, stack = REFERENCE_STEPS
    t0 = time.perf_counter()
    x = _REF_X
    for _ in range(small):
        y = _REF_A @ x
        x = np.exp(1j * np.angle(y + np.vdot(x, y).real * x))
    for _ in range(stack):
        q = np.einsum("i,kij,j->k", x.conj(), _REF_STACK, x).real
        x = np.exp(1j * np.angle(np.tensordot(q, _REF_STACK, axes=1) @ x))
    return time.perf_counter() - t0


def at_reference_speed(samples, refs) -> float:
    """One instance's time at the baseline host's speed.

    The median over passes of each sample over the reference call timed
    just before it, times REFERENCE_S. Pairing each sample with its own
    reference call cancels the host's speed at that moment; the median
    discards the passes a burst hit on one side only.
    """
    return REFERENCE_S * statistics.median(t / r for t, r in zip(samples, refs))


@dataclass(frozen=True)
class Workload:
    """A fixed pool of instance seeds, each solved once per majorizer kind."""

    name: str
    config_file: str
    overrides: tuple = ()
    kinds: tuple = ("diagonal",)
    pool: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-dfrc", "desk.cfg"),
        Workload("compare-radar", "convergence_compare.cfg", kinds=("diagonal", "max_eigen")),
        # not declared in BENCHMARK.json: one ~30 s solve per run is a single
        # sample, too few to be steady on a shared host (see README.md)
        Workload("n64-dfrc", "desk.cfg", overrides=(("n_tx", 8),), pool=1),
    )
}


def instance_configs(workload: Workload, base_seed: int) -> list:
    """Configs of one pass: seeds base_seed .. base_seed+pool-1, each per kind.

    The benchmark's --seed does not change this pool. Solve time varies
    3.5x across instance seeds (desk seeds 0-11: 1.3 s to 4.5 s), which a
    pool small enough for one run cannot average out, so changing the pool
    with the seed would swamp any code change.
    """
    base = config.config_from_file(ROOT / "configs" / workload.config_file)
    base = dataclasses.replace(base, **dict(workload.overrides))
    seeds = range(base_seed, base_seed + workload.pool)
    return [
        dataclasses.replace(base, seed=s, majorizer_kind=kind)
        for s in seeds
        for kind in workload.kinds
    ]


def instance_id(cfg) -> str:
    return f"seed{cfg.seed}-{cfg.majorizer_kind}"


def set_up(cfg):
    """build_problem + build_majorizer_context; returns (problem, ctx)."""
    problem = config.build_problem(cfg)
    ctx = majorize.build_majorizer_context(
        problem.scene, problem.weights, problem.solver.majorizer_kind
    )
    return problem, ctx


def solve(problem, ctx):
    return solver.mm_solve(
        problem.scene, problem.comm, problem.weights, problem.solver,
        x0=problem.x0, p_total=problem.p_total, ctx=ctx,
    )


def weighted_objective(weights, terms) -> float:
    return weights.w_bp * terms[0] + weights.w_ac * terms[1] + weights.w_cc * terms[2]


def is_max_iter_exit(state, cfg) -> bool:
    """A run that used every outer iteration. Warnings can relabel its
    termination, so the iteration count decides."""
    return state.termination == solver.Termination.MAX_ITERS or (
        state.outer_iterations >= cfg.max_outer_iters
    )


def _closed_form_alpha(x, scene) -> float:
    """Pattern scale minimizing the MSE, from steering vectors built here."""
    geo = scene.geometry
    theta = np.deg2rad(scene.grid.angles_deg)
    steer = np.exp(2j * np.pi * geo.spacing * np.outer(np.sin(theta), np.arange(geo.n_tx)))
    block = np.asarray(x).reshape((geo.n_tx, -1), order="F")
    achieved = np.sum(np.abs(steer.conj() @ block) ** 2, axis=1)
    gd = scene.desired.values
    return float(achieved @ gd / (gd @ gd))


def check_state(problem, state) -> list[str]:
    """Failure reasons for one finished solve (empty when it passes).

    A max_iters exit is not a failure: the design is feasible.
    """
    bad = []
    amp = math.sqrt(problem.p_total / problem.scene.geometry.n_tx)
    if np.abs(np.abs(state.x) - amp).max() > MODULUS_TOL * max(1.0, amp):
        bad.append("modulus")
    trace = np.asarray(state.objective_trace)
    if trace.size and np.any(np.diff(trace) > MONOTONE_TOL * np.abs(trace[:-1])):
        bad.append("non-monotone trace")
    if problem.solver.mode == SolveMode.DFRC:
        if state.final_margins.min() < MARGIN_TOL:
            bad.append(f"min CI margin {state.final_margins.min():.3e}")
        if state.kkt_residual > KKT_TOL:
            bad.append(f"KKT residual {state.kkt_residual:.3e}")
    scene, w = problem.scene, problem.weights
    g_ac, g_cc = oracle.direct_isls(state.x, scene)
    g_bp = oracle.beampattern_mse(state.x, scene, _closed_form_alpha(state.x, scene))
    reference = float(weighted_objective(w, (g_bp, g_ac, g_cc)))
    reported = weighted_objective(w, state.final_terms)
    if abs(reported - reference) > OBJECTIVE_RTOL * abs(reference):
        bad.append(f"objective {reported!r} vs oracle {reference!r}")
    return bad


def check_pairs(runs) -> None:
    """Criterion 7 per seed: diagonal reaches 5% of its final value strictly
    sooner than max-eigen. A failing seed fails every solve of both kinds."""
    t5 = {}
    for run in runs:
        if run.state is not None:
            t5.setdefault(run.cfg.seed, {})[run.cfg.majorizer_kind] = (
                iterations_to_within(run.state.objective_trace, 0.05)
            )
    for run in runs:
        by_kind = t5.get(run.cfg.seed, {})
        if len(by_kind) == 2 and not by_kind["diagonal"] < by_kind["max_eigen"]:
            run.failures.append(
                f"criterion 7: diagonal {by_kind['diagonal']} >= max_eigen {by_kind['max_eigen']}"
            )
            run.failed = run.solves


@dataclass
class InstanceRun:
    """One instance's samples across a run."""

    cfg: object
    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    state: Optional[object] = None
    problem: Optional[object] = None
    failures: list = field(default_factory=list)
    solves: int = 0
    failed: int = 0

    def record(self, reasons) -> None:
        """Count one solve as failed when it has reasons; keep each reason once."""
        if reasons:
            self.failed += 1
            self.failures.extend(r for r in reasons if r not in self.failures)


def timed_solve(run: InstanceRun) -> None:
    """Time the reference kernel, then set up and solve once, recording the
    three wall times and checking the result."""
    run.solves += 1
    ref = reference_s()
    try:
        t0 = time.perf_counter()
        problem, ctx = set_up(run.cfg)
        t1 = time.perf_counter()
        state = solve(problem, ctx)
        t2 = time.perf_counter()
    except Exception:
        traceback.print_exc()
        run.record(["exception"])
        return
    run.ref_s.append(ref)
    run.setup_s.append(t1 - t0)
    run.solve_s.append(t2 - t1)
    reasons = check_state(problem, state)
    if run.state is not None and state.outer_iterations != run.state.outer_iterations:
        reasons.append("repeat solves disagree")
    run.state, run.problem = state, problem
    run.record(reasons)


def short_solve(cfg):
    """Set up and run the first MEMORY_ITERS outer iterations (untimed)."""
    return solve(*set_up(dataclasses.replace(cfg, max_outer_iters=MEMORY_ITERS)))


def peak_memory_mb(cfg) -> float:
    """tracemalloc peak over set-up plus the first MEMORY_ITERS outer iterations."""
    tracemalloc.start()
    try:
        short_solve(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "argv": sys.argv[1:],
    }
