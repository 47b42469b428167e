"""Experiment configuration: flat key = value files, validation, problem assembly.

Config grammar: one ``key = value`` pair per line, ``#`` starts a comment,
arrays are bracketed comma lists (``gamma_db = [6, 6]``). Defaults mirror
the full-scale simulation setup; ``ExperimentConfig.desk_preset`` gives the
small instance used by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from dfrcwave.comm import CommSetup, draw_channels, draw_symbols
from dfrcwave.majorize import lag_weights
from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    MajorizerKind,
    SolveMode,
    SolverConfig,
    TargetSet,
    Weights,
)
from dfrcwave.radar import RadarScene, build_scene, rectangular_pattern


class ConfigError(ValueError):
    """Config file could not be parsed or failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    n_tx: int = 10
    block_len: int = 64
    k_users: int = 3
    max_lag: int = 16
    p_total: float = 1.0
    sigma2: float = 0.01
    gamma_db: tuple = (6.0,)
    m_psk: int = 4
    target_angles_deg: tuple = (-30.0, 40.0)
    beam_width_deg: float = 20.0
    grid_start_deg: float = -90.0
    grid_stop_deg: float = 90.0
    grid_step_deg: float = 1.0
    spacing: float = 0.5
    w_bp: float = 1.0
    w_ac: float = 2.0
    w_cc: float = 2.0
    eps1: float = SolverConfig.eps1
    eps2: float = SolverConfig.eps2
    eps3: float = SolverConfig.eps3
    max_outer_iters: int = SolverConfig.max_outer_iters
    max_bisect_iters: int = SolverConfig.max_bisect_iters
    majorizer_kind: str = SolverConfig.majorizer_kind.value
    mode: str = SolverConfig.mode.value
    seed: int = SolverConfig.seed
    output_dir: str = "results"

    @classmethod
    def desk_preset(cls, **overrides) -> "ExperimentConfig":
        """Small instance (N = 32) that every solver path can run quickly."""
        base = cls(n_tx=4, block_len=8, k_users=2, max_lag=4)
        return replace(base, **overrides) if overrides else base

    @property
    def gamma_db_per_user(self) -> tuple:
        """Per-user QoS targets in dB; a single value broadcasts to all users."""
        if len(self.gamma_db) == 1:
            return self.gamma_db * self.k_users
        return self.gamma_db


def _parse_scalar(token: str, kind: type, key: str):
    token = token.strip()
    try:
        if kind is int:
            return int(token)
        if kind is float:
            return float(token)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {token!r}") from None
    return token


def _parse_value(raw: str, kind: type, key: str):
    raw = raw.strip()
    if kind is tuple:
        if not (raw.startswith("[") and raw.endswith("]")):
            raise ConfigError(f"key {key!r}: expected a bracketed list, got {raw!r}")
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(tok, float, key) for tok in inner.split(","))
    if kind is str:
        return raw
    return _parse_scalar(raw, kind, key)


_FIELD_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}
_SOLVER_FIELDS = tuple(f.name for f in fields(SolverConfig))  # once, not a tuple per call
_KIND_MAP = {"int": int, "float": float, "str": str, "tuple": tuple}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the documented key = value grammar into an ExperimentConfig."""
    values = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} is already set on line {first_line[key]}"
            )
        first_line[key] = lineno
        kind = _KIND_MAP[_FIELD_KINDS[key]]
        values[key] = _parse_value(raw, kind, key)
    return ExperimentConfig(**values)


def config_from_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def validate_config(config: ExperimentConfig) -> list[str]:
    """All precondition violations, each as one human-readable line.

    Once every field is valid, the scene and weights are built as
    ``build_problem`` builds them, so a config that they reject (no grid
    angle inside a beam, no active cost term) is reported here too.
    """
    bad = _field_violations(config)
    if not bad:
        try:
            _scene_and_weights(config)
        except ValueError as exc:
            bad.append(str(exc))
    return bad


def _field_violations(config: ExperimentConfig) -> list[str]:
    """Violations of the rules on single fields and field pairs."""
    bad: list[str] = []
    c = config
    for name, kind in _FIELD_KINDS.items():
        value = getattr(c, name)
        if kind == "float" and not math.isfinite(value):
            bad.append(f"{name} must be finite (got {value})")
        elif kind == "tuple" and not all(map(math.isfinite, value)):
            bad.append(f"{name} entries must be finite (got {list(value)})")
    if c.n_tx < 1:
        bad.append(f"n_tx must be >= 1 (got {c.n_tx})")
    if c.block_len < 1:
        bad.append(f"block_len must be >= 1 (got {c.block_len})")
    if c.k_users < 1:
        bad.append(f"k_users must be >= 1 (got {c.k_users})")
    elif c.k_users > c.n_tx:
        bad.append(f"k_users must be <= n_tx (got K={c.k_users}, n_tx={c.n_tx})")
    if c.max_lag < 1:
        bad.append(f"max_lag must be >= 1 (got {c.max_lag})")
    elif c.max_lag - 1 > c.block_len:
        bad.append(
            f"max_lag - 1 must be <= block_len (got P={c.max_lag}, L={c.block_len})"
        )
    if not c.p_total > 0:
        bad.append(f"p_total must be > 0 (got {c.p_total})")
    if not c.sigma2 > 0:
        bad.append(f"sigma2 must be > 0 (got {c.sigma2})")
    if c.m_psk < 2:
        bad.append(f"m_psk must be >= 2 (got {c.m_psk})")
    if len(c.gamma_db) not in (1, c.k_users):
        bad.append(
            f"gamma_db needs 1 or k_users={c.k_users} entries (got {len(c.gamma_db)})"
        )
    if not c.target_angles_deg:
        bad.append("target_angles_deg must list at least one angle")
    if not c.beam_width_deg > 0:
        bad.append(f"beam_width_deg must be > 0 (got {c.beam_width_deg})")
    if not c.grid_step_deg > 0 or c.grid_stop_deg < c.grid_start_deg:
        bad.append(
            f"bad angle grid [{c.grid_start_deg}, {c.grid_stop_deg}] "
            f"step {c.grid_step_deg}"
        )
    if not c.spacing > 0:
        bad.append(f"spacing must be > 0 (got {c.spacing})")
    if any(w < 0 for w in (c.w_bp, c.w_ac, c.w_cc)):
        bad.append(f"weights must be nonnegative (got {(c.w_bp, c.w_ac, c.w_cc)})")
    elif c.w_bp == c.w_ac == c.w_cc == 0:
        bad.append("weights must not all be zero")
    for name in ("eps1", "eps2", "eps3"):
        if not getattr(c, name) > 0:
            bad.append(f"{name} must be > 0 (got {getattr(c, name)})")
    for name in ("max_outer_iters", "max_bisect_iters"):
        if getattr(c, name) < 1:
            bad.append(f"{name} must be >= 1 (got {getattr(c, name)})")
    if c.majorizer_kind not in tuple(k.value for k in MajorizerKind):
        bad.append(f"majorizer_kind must be diagonal or max_eigen (got {c.majorizer_kind!r})")
    if c.mode not in tuple(m.value for m in SolveMode):
        bad.append(f"mode must be dfrc or radar_only (got {c.mode!r})")
    if c.seed < 0:
        bad.append(f"seed must be nonnegative (got {c.seed})")
    return bad


def _scene_and_weights(config: ExperimentConfig) -> tuple[RadarScene, Weights]:
    """Radar scene and cost weights of a config whose fields are valid.

    Raises ValueError when the desired pattern has no positive value or
    no cost term is active (``lag_weights``).
    """
    geometry = ArrayGeometry(n_tx=config.n_tx, spacing=config.spacing)
    grid = AngleGrid.uniform(config.grid_start_deg, config.grid_stop_deg, config.grid_step_deg)
    desired = rectangular_pattern(grid, config.target_angles_deg, config.beam_width_deg)
    targets = TargetSet(np.asarray(config.target_angles_deg, dtype=float), config.max_lag)
    scene = build_scene(geometry, grid, desired, targets, config.block_len)
    weights = Weights(config.w_bp, config.w_ac, config.w_cc)
    lag_weights(scene, weights)
    return scene, weights


@dataclass(frozen=True)
class Problem:
    """Everything mm_solve needs, built deterministically from one config."""

    scene: RadarScene
    comm: Optional[CommSetup]
    weights: Weights
    solver: SolverConfig
    p_total: float
    x0: np.ndarray


def build_problem(config: ExperimentConfig) -> Problem:
    """Construct scene, channels, codewords, and the starting point from a config.

    Child seeds for the channel draw, the symbol draw, and the phase
    initialization are spawned from the master seed, so one config + seed
    pins the whole trajectory.
    """
    violations = _field_violations(config)
    if violations:
        raise ConfigError("; ".join(violations))
    try:
        scene, weights = _scene_and_weights(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    solver = SolverConfig(**{name: getattr(config, name) for name in _SOLVER_FIELDS})
    chan_seed, sym_seed, x0_seed = np.random.SeedSequence(config.seed).spawn(3)
    gamma_lin = 10.0 ** (np.asarray(config.gamma_db_per_user, dtype=float) / 10.0)
    comm = CommSetup(
        channels=draw_channels(config.k_users, config.n_tx, chan_seed),
        symbols=draw_symbols(config.k_users, config.block_len, config.m_psk, sym_seed),
        gamma=gamma_lin,
        sigma2=config.sigma2,
        m_points=config.m_psk,
    )
    amp = np.sqrt(config.p_total / config.n_tx)
    rng = np.random.default_rng(x0_seed)
    x0 = amp * np.exp(2j * np.pi * rng.random(scene.n))
    return Problem(
        scene=scene, comm=comm, weights=weights, solver=solver,
        p_total=config.p_total, x0=x0,
    )
