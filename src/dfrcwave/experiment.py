"""Batch experiment front-end: runs the solver and writes plot-ready artifacts.

Artifacts are plain CSV/JSON text with shortest-round-trip float formatting,
so a given (config, seed) regenerates every file byte-identically. The dB
columns in the correlation CSVs are normalized to the zero-lag
autocorrelation of the row's first target, which pins autocorrelation
curves to 0 dB at tau = 0.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from dfrcwave.config import ExperimentConfig, Problem, build_problem
from dfrcwave.model import WaveformMatrix, mat, save_waveform
from dfrcwave.radar import achieved_pattern, correlation_values, optimal_alpha
from dfrcwave.solver import IterationRecord, SolverState, mm_solve

#: Environment variable overriding the artifact output root.
OUTPUT_ROOT_ENV = "DFRCWAVE_OUTPUT_ROOT"


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(cells) for cells in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_outdir(config: ExperimentConfig, base_dir) -> Path:
    """Create and return the artifact directory; called after ``build_problem``,
    so a rejected config leaves no directory behind."""
    if base_dir is None:
        base_dir = os.environ.get(OUTPUT_ROOT_ENV, ".")
    out = Path(base_dir) / config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _level_db(chi: np.ndarray, ref: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * np.log10(chi / ref)


@dataclass
class ExperimentResult:
    """Where the artifacts went, the solver state and summary, and the warnings.

    ``warnings`` holds every run's warnings; a comparison tags each with
    its majorizer kind, while ``state`` is the diagonal run's.
    """

    artifact_dir: Path
    state: SolverState
    summary: dict
    warnings: tuple[str, ...]


def _summarize(config: ExperimentConfig, state: SolverState) -> dict:
    margins = state.final_margins
    return {
        "final_objective": float(state.objective_trace[-1]),
        "terms": {
            "beampattern": state.final_terms[0],
            "autocorrelation_isl": state.final_terms[1],
            "crosscorrelation_isl": state.final_terms[2],
        },
        "iterations": {
            "outer": state.outer_iterations,
            "dual_sweeps": state.dual_sweeps,
            "bisection_steps": state.bisection_steps,
            "rejected_steps": state.rejected_steps,
            "polish_steps": state.polish_steps,
            "restorations": state.restorations,
            "restore_failures": state.restore_failures,
            "sweep_cap_hits": state.sweep_cap_hits,
        },
        "min_ci_margin": None if margins is None else float(margins.min()),
        "kkt_residual": state.kkt_residual,
        "termination": state.termination.value,
        "warnings": list(state.warnings),
        "seed": config.seed,
        "config": dataclasses.asdict(config),
    }


def _run_solver(problem: Problem) -> SolverState:
    return mm_solve(
        problem.scene,
        problem.comm,
        problem.weights,
        problem.solver,
        x0=problem.x0,
        p_total=problem.p_total,
    )


def _write_artifacts(
    outdir: Path,
    config: ExperimentConfig,
    problem: Problem,
    state: SolverState,
) -> dict:
    scene = problem.scene
    waveform = WaveformMatrix(
        mat(state.x, config.n_tx), p_total=config.p_total, constant_modulus=True
    )
    save_waveform(waveform, outdir / "waveform.txt")

    alpha = optimal_alpha(state.x, scene)
    pattern = achieved_pattern(state.x, scene)
    _write_csv(
        outdir / "beampattern.csv",
        "theta_deg,achieved,desired_scaled",
        (
            (_fmt(theta), _fmt(p), _fmt(alpha * g))
            for theta, p, g in zip(scene.grid.angles_deg, pattern, scene.desired.values)
        ),
    )

    chi = np.abs(correlation_values(state.x, scene)) ** 2
    p = scene.targets.max_lag
    taus = range(-p + 1, p)
    for q in range(scene.targets.n_targets):
        ref = chi[p - 1, q, q]
        _write_csv(
            outdir / f"autocorr_q{q + 1}.csv",
            "tau,level_db",
            (
                (str(tau), _fmt(level))
                for tau, level in zip(taus, _level_db(chi[:, q, q], ref))
            ),
        )
        for qp in range(scene.targets.n_targets):
            if qp == q:
                continue
            _write_csv(
                outdir / f"crosscorr_q{q + 1}_q{qp + 1}.csv",
                "tau,level_db",
                (
                    (str(tau), _fmt(level))
                    for tau, level in zip(taus, _level_db(chi[:, q, qp], ref))
                ),
            )

    _write_csv(
        outdir / "convergence.csv",
        "iteration,objective",
        ((str(i + 1), _fmt(g)) for i, g in enumerate(state.objective_trace)),
    )
    # one row per outer iteration: the objective, then counts and 0/1 flags
    _write_csv(
        outdir / "iterations.csv",
        ",".join(("iteration",) + IterationRecord._fields),
        (
            [str(i + 1), _fmt(r.objective)] + [str(int(v)) for v in r[1:]]
            for i, r in enumerate(state.iterations)
        ),
    )

    summary = _summarize(config, state)
    (outdir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def run_experiment(config: ExperimentConfig, base_dir=None) -> ExperimentResult:
    """Solve one configured instance and write all artifacts.

    A failed strict-feasibility pre-check downgrades the run to a warning
    recorded in summary.json; it does not abort.
    """
    problem = build_problem(config)
    outdir = _resolve_outdir(config, base_dir)
    state = _run_solver(problem)
    summary = _write_artifacts(outdir, config, problem, state)
    return ExperimentResult(
        artifact_dir=outdir, state=state, summary=summary, warnings=state.warnings
    )


def iterations_to_within(
    trace: np.ndarray, frac: float = 0.05, reference: Optional[float] = None
) -> Optional[int]:
    """First 1-based iteration whose objective is within frac of a reference value.

    The reference defaults to the trace's own final value, which the trace
    always reaches. A given reference, such as the better final objective
    of two runs, may never be reached: then the result is None. An empty
    trace gives 0.
    """
    trace = np.asarray(trace)
    if trace.size == 0:
        return 0
    ref = trace[-1] if reference is None else reference
    hits = np.flatnonzero(trace <= ref + frac * abs(ref))
    return int(hits[0]) + 1 if hits.size else None


def compare_majorizers(config: ExperimentConfig, base_dir=None) -> ExperimentResult:
    """Run both majorizer kinds on the identical instance and seed.

    The problem is built once; the runs differ only in the solver's
    majorizer kind. Writes convergence_diagonal.csv /
    convergence_max_eigen.csv plus a side-by-side summary. Per kind, the
    summary gives the iterations to within 5% of the run's own final
    objective and of the better final of the two runs (null when the run
    never gets there), and the termination, which marks a capped run. The
    returned state is the diagonal run's, and the returned warnings are
    both runs', each tagged with its kind.
    """
    problem = build_problem(config)
    outdir = _resolve_outdir(config, base_dir)
    states: dict[str, SolverState] = {}
    comparison: dict[str, dict] = {}
    for kind in ("diagonal", "max_eigen"):
        solver = dataclasses.replace(problem.solver, majorizer_kind=kind)
        state = _run_solver(dataclasses.replace(problem, solver=solver))
        states[kind] = state
        _write_csv(
            outdir / f"convergence_{kind}.csv",
            "iteration,objective",
            ((str(i + 1), _fmt(g)) for i, g in enumerate(state.objective_trace)),
        )
        comparison[kind] = {
            "final_objective": float(state.objective_trace[-1]),
            "outer_iterations": state.outer_iterations,
            "iterations_to_within_5pct": iterations_to_within(state.objective_trace),
            "termination": state.termination.value,
            "warnings": list(state.warnings),
        }
    # against a common reference, so a capped run far from the better final
    # does not read as close to its own
    best = min(c["final_objective"] for c in comparison.values())
    for kind, state in states.items():
        comparison[kind]["iterations_to_within_5pct_of_best"] = iterations_to_within(
            state.objective_trace, 0.05, best
        )
    summary = {
        "comparison": comparison,
        "seed": config.seed,
        "config": dataclasses.asdict(config),
    }
    (outdir / "summary_compare.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    warnings = tuple(
        f"{kind}: {line}" for kind, state in states.items() for line in state.warnings
    )
    return ExperimentResult(
        artifact_dir=outdir, state=states["diagonal"], summary=summary, warnings=warnings
    )
