"""Constant-modulus DFRC waveform design via majorization-minimization.

Designs N_T x L constant-modulus transmit blocks that jointly shape a
spatial beam pattern and suppress space-time auto/cross-correlation
sidelobes, subject to per-symbol constructive-interference constraints
for PSK downlink users.
"""

from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    CapacityError,
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
    autocorr_isl,
    beam_pattern,
    beampattern_cost,
    build_scene,
    correlation,
    crosscorr_isl,
    objective_terms,
    optimal_alpha,
    rectangular_pattern,
    shift_matrix,
    steering_vector,
    total_objective,
)
from dfrcwave.comm import (
    CIConstraintSet,
    CommSetup,
    build_ci_constraints,
    ci_margin,
    draw_channels,
    draw_symbols,
    geometric_ci_check,
)
from dfrcwave.majorize import (
    MajorizerContext,
    SurrogateLinear,
    build_d,
    build_majorizer_context,
    build_phi,
    diagonal_upper_bound,
    lambda_psi,
    precompute_E,
)
from dfrcwave.solver import (
    IterationRecord,
    SolverState,
    Termination,
    bisect_multiplier,
    dual_ascent_sweep,
    mm_solve,
    solve_inner,
)
from dfrcwave.config import ExperimentConfig, build_problem, config_from_file, validate_config
from dfrcwave.experiment import compare_majorizers, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
