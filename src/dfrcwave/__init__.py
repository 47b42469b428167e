"""Constant-modulus DFRC waveform design via majorization-minimization.

Designs N_T x L constant-modulus transmit blocks that jointly shape a
spatial beam pattern and suppress space-time auto/cross-correlation
sidelobes, subject to per-symbol constructive-interference constraints
for PSK downlink users.
"""

from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    DesiredBeamPattern,
    MajorizerKind,
    SolveMode,
    SolverConfig,
    TargetSet,
    WaveformFormatError,
    WaveformMatrix,
    Weights,
    load_waveform,
    mat,
    save_waveform,
    vec,
)
from dfrcwave.radar import (
    RadarScene,
    build_scene,
    objective_terms,
    optimal_alpha,
    rectangular_pattern,
)
from dfrcwave.comm import (
    CIConstraintSet,
    CommSetup,
    build_ci_constraints,
    ci_margin,
    draw_channels,
    draw_symbols,
)
from dfrcwave.majorize import (
    MajorizerContext,
    build_d,
    build_majorizer_context,
    build_phi,
)
from dfrcwave.solver import (
    IterationRecord,
    SolverState,
    Termination,
    dual_ascent_sweep,
    mm_solve,
    solve_inner,
)
from dfrcwave.config import ExperimentConfig, build_problem, config_from_file, validate_config
from dfrcwave.experiment import compare_majorizers, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
