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
    _INTEGER,
    AngleGrid,
    ArrayGeometry,
    SolverConfig,
    TargetSet,
    Weights,
    amplitude,
    random_start,
    read_utf8,
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
        return kind(token)  # int or float
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {token!r}") from None


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
    """Parse the config file at ``path``; text that is not UTF-8 raises ConfigError."""
    return parse_config_text(read_utf8(path, ConfigError))


def validate_config(config: ExperimentConfig) -> list[str]:
    """Every rule the config breaks, one line each: a dry run of ``build_problem``.

    Returns [] exactly when ``build_problem(config)`` succeeds.
    """
    try:
        build_problem(config)
    except ConfigError as exc:
        return str(exc).splitlines()
    return []


def _own_violations(config: ExperimentConfig) -> list[tuple[str, str]]:
    """(key, message) for each of the config's own rules that a key breaks.

    Every int value must be an integer, every float and tuple value finite,
    and ``gamma_db`` must hold 1 or ``k_users`` entries. Every other rule
    belongs to the part it builds.
    """
    bad = []
    for name, kind in _FIELD_KINDS.items():
        value = getattr(config, name)
        if kind == "int" and not isinstance(value, _INTEGER):
            bad.append((name, f"{name} must be an integer, got {value!r}"))
        elif kind == "float" and not math.isfinite(value):
            bad.append((name, f"{name} must be finite (got {value})"))
        elif kind == "tuple" and not all(map(math.isfinite, value)):
            bad.append((name, f"{name} entries must be finite (got {list(value)})"))
    if len(config.gamma_db) not in (1, config.k_users):
        bad.append(("gamma_db", f"gamma_db needs 1 or k_users={config.k_users} entries "
                                f"(got {len(config.gamma_db)})"))
    return bad


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

    Each part is built by the type or function that owns its rules, and
    every rule each part breaks is collected; a part is skipped only when a
    value it reads already failed, a part or a key that broke the config's
    own rules. Raises one ConfigError listing every violation, one per line.

    Child seeds for the channel draw, the symbol draw, and the phase
    initialization are spawned from the master seed, so one config + seed
    pins the whole trajectory.
    """
    own = _own_violations(config)
    bad = [line for _, line in own]
    # a key that broke the config's own rules reads None
    c = replace(config, **{key: None for key, _ in own}) if own else config

    def part(build, *args):
        """build(*args), or None when an argument is None or a rule breaks.

        A rule two owners share (n_tx: the geometry and the channel draw)
        is listed once.
        """
        for arg in args:
            if arg is None:
                return None
        try:
            return build(*args)
        except ValueError as exc:
            bad.extend(line for line in str(exc).splitlines() if line not in bad)
            return None

    geometry = part(ArrayGeometry, c.n_tx, c.spacing)
    grid = part(AngleGrid.uniform, c.grid_start_deg, c.grid_stop_deg, c.grid_step_deg)
    targets = part(TargetSet, c.target_angles_deg, c.max_lag)
    # the pattern reads the checked target set: no pattern from angles that failed
    desired = part(
        lambda g, t, width: rectangular_pattern(g, t.angles_deg, width),
        grid, targets, c.beam_width_deg,
    )
    scene = part(build_scene, geometry, grid, desired, targets, c.block_len)
    weights = part(Weights, c.w_bp, c.w_ac, c.w_cc)
    part(lag_weights, scene, weights)
    solver = part(SolverConfig, *(getattr(c, name) for name in _SOLVER_FIELDS))
    amp = part(lambda geo, p_total: amplitude(p_total, geo.n_tx), geometry, c.p_total)
    # the draws read only the seed, whose rule the solver config owns: when
    # another solver setting fails, the seed is checked alone (same message)
    seeded = solver or part(lambda seed: SolverConfig(seed=seed), c.seed)
    chan_seed, sym_seed, x0_seed = (
        (None,) * 3 if seeded is None else np.random.SeedSequence(seeded.seed).spawn(3)
    )
    with np.errstate(over="ignore"):  # an infinite target is CommSetup's to report
        gamma = None if c.gamma_db is None or c.k_users is None else 10.0 ** (
            np.asarray(config.gamma_db_per_user, dtype=float) / 10.0
        )
    comm = part(
        CommSetup,
        part(draw_channels, c.k_users, c.n_tx, chan_seed),
        part(draw_symbols, c.k_users, c.block_len, c.m_psk, sym_seed),
        gamma,
        c.sigma2,
        c.m_psk,
    )
    x0 = part(lambda sc, a, seed: random_start(sc.n, a, seed), scene, amp, x0_seed)
    if bad:
        raise ConfigError("\n".join(bad))
    return Problem(
        scene=scene, comm=comm, weights=weights, solver=solver,
        p_total=config.p_total, x0=x0,
    )
