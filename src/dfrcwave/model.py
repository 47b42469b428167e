"""Shared domain types, vectorization helpers, and waveform file I/O.

All types are immutable value objects: arrays are copied on construction
and marked read-only, so instances can be shared across threads.
Vectorization is column-major throughout the package (``vec`` stacks the
columns of the transmit block).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Relative tolerance for the constant-modulus check on stored waveforms.
MODULUS_TOL = 1e-12
#: The types a count or seed field accepts: Python's and numpy's integers.
_INTEGER = (int, np.integer)


class WaveformFormatError(ValueError):
    """A waveform file could not be parsed; message names line and field."""


class MajorizerKind(str, enum.Enum):
    """Which bound is used at the quartic majorization stage."""

    DIAGONAL = "diagonal"
    MAX_EIGEN = "max_eigen"


class SolveMode(str, enum.Enum):
    """Whether communication constraints are enforced."""

    DFRC = "dfrc"
    RADAR_ONLY = "radar_only"


def check_rules(*rules) -> None:
    """Raise one ValueError that lists every broken rule, one per line.

    Each rule is ``(holds, template, *args)``; a broken rule's message is
    ``template.format(*args)``, formatted only then, so rules that hold cost
    no formatting.
    """
    broken = [rule[1].format(*rule[2:]) for rule in rules if not rule[0]]
    if broken:
        raise ValueError("\n".join(broken))


def amplitude(p_total: float, n_tx: int) -> float:
    """Per-sample magnitude sqrt(p_total / n_tx) of a constant-modulus design.

    Raises ValueError unless p_total is finite and > 0.
    """
    check_rules((math.isfinite(p_total) and p_total > 0,
                 "p_total must be finite and > 0, got {!r}", p_total))
    return math.sqrt(p_total / n_tx)


def random_start(n: int, amp: float, seed) -> np.ndarray:
    """Length-n constant-modulus start of magnitude amp, phases uniform from ``seed``."""
    rng = np.random.default_rng(seed)
    return amp * np.exp(2j * np.pi * rng.random(n))


def _frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def vec(x) -> np.ndarray:
    """Column-major vectorization: stacks the columns of a matrix.

    Accepts a 2-D array or a :class:`WaveformMatrix`.
    """
    if isinstance(x, WaveformMatrix):
        x = x.entries
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"vec expects a 2-D array, got ndim={x.ndim}")
    return x.ravel(order="F")


def mat(v, n_rows: int) -> np.ndarray:
    """Inverse of :func:`vec`: reshape a vector into n_rows rows, column-major."""
    v = np.asarray(v)
    if v.ndim != 1 or n_rows < 1 or v.size % n_rows:
        raise ValueError(f"cannot reshape length-{v.size} vector into {n_rows} rows")
    return v.reshape((n_rows, v.size // n_rows), order="F")


@dataclass(frozen=True)
class ArrayGeometry:
    """Transmit ULA: element count and spacing in wavelengths."""

    n_tx: int
    spacing: float = 0.5

    def __post_init__(self):
        check_rules(
            (isinstance(self.n_tx, _INTEGER), "n_tx must be an integer, got {!r}", self.n_tx),
            (self.n_tx >= 1, "n_tx must be >= 1, got {}", self.n_tx),
            (self.spacing > 0, "spacing must be > 0, got {}", self.spacing),
        )


@dataclass(frozen=True)
class WaveformMatrix:
    """Complex transmit block: one row per antenna, one column per subpulse.

    When ``constant_modulus`` is set, every entry must have magnitude
    sqrt(p_total / n_tx) to within :data:`MODULUS_TOL` (relative), so a
    non-finite entry fails. This is the one constant-modulus rule, which
    ``mm_solve`` also applies to its x0.
    """

    entries: np.ndarray
    p_total: float = 1.0
    constant_modulus: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"entries must be a non-empty 2-D array, got shape {arr.shape}")
        amp = amplitude(self.p_total, arr.shape[0])
        object.__setattr__(self, "entries", arr)
        if self.constant_modulus:
            err = np.abs(np.abs(arr) - amp).max()
            if not err <= MODULUS_TOL * max(1.0, amp):  # NaN fails
                raise ValueError(
                    f"constant-modulus violation: max |entry| deviation {err:.3e} "
                    f"from amplitude {amp!r}"
                )

    @property
    def n_tx(self) -> int:
        return self.entries.shape[0]

    @property
    def block_len(self) -> int:
        return self.entries.shape[1]

    @property
    def vector(self) -> np.ndarray:
        """Column-major vectorization of the block."""
        return vec(self.entries)


@dataclass(frozen=True)
class AngleGrid:
    """Finite, strictly increasing angle grid, in degrees."""

    angles_deg: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.angles_deg, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("angle grid must be a non-empty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("angle grid angles must be finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("angle grid must be strictly increasing")
        object.__setattr__(self, "angles_deg", arr)

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "AngleGrid":
        span = (stop_deg - start_deg) / step_deg if step_deg > 0 else -1.0
        check_rules((0 <= span < math.inf,  # NaN fails
                     "bad angle grid [{}, {}] step {}: need grid_step_deg > 0, grid_stop_deg >= "
                     "grid_start_deg and a finite point count", start_deg, stop_deg, step_deg))
        # epsilon keeps exactly-divisible spans inclusive of the stop angle
        n = int(math.floor(span + 1e-9)) + 1
        return cls(start_deg + step_deg * np.arange(n))

    def __len__(self) -> int:
        return self.angles_deg.size


@dataclass(frozen=True)
class DesiredBeamPattern:
    """Finite, nonnegative beam-pattern levels on an angle grid; at least one must be > 0."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("desired pattern must be a non-empty 1-D array")
        if not (np.isfinite(arr).all() and (arr >= 0).all()):
            raise ValueError("desired pattern values must be finite and nonnegative")
        if not np.any(arr > 0):
            raise ValueError("desired pattern must have at least one positive value")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class TargetSet:
    """Finite radar target angles plus the largest range bin of interest."""

    angles_deg: np.ndarray
    max_lag: int

    def __post_init__(self):
        arr = _frozen_array(self.angles_deg, dtype=float)
        check_rules(
            (arr.ndim == 1 and arr.size >= 1, "target_angles_deg must list at least one angle"),
            (np.isfinite(arr).all(), "target_angles_deg must be finite, got {}", arr),
            (isinstance(self.max_lag, _INTEGER), "max_lag must be an integer, got {!r}",
             self.max_lag),
            (self.max_lag >= 1, "max_lag must be >= 1, got {}", self.max_lag),
        )
        object.__setattr__(self, "angles_deg", arr)

    @property
    def n_targets(self) -> int:
        return self.angles_deg.size


@dataclass(frozen=True)
class Weights:
    """Nonnegative weights for beam-pattern, autocorrelation, cross-correlation costs."""

    w_bp: float
    w_ac: float
    w_cc: float

    def __post_init__(self):
        trio = (self.w_bp, self.w_ac, self.w_cc)
        check_rules(
            (all(0 <= w < math.inf for w in trio),  # NaN fails
             "weights w_bp, w_ac, w_cc must be finite and nonnegative, got {}", trio),
            (not all(w == 0 for w in trio), "weights w_bp, w_ac, w_cc must not all be zero"),
        )

    def cost(self, terms) -> float:
        """Weighted radar cost w_bp g_bp + w_ac g_ac + w_cc g_cc of (g_bp, g_ac, g_cc)."""
        return self.w_bp * terms[0] + self.w_ac * terms[1] + self.w_cc * terms[2]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap, majorizer kind, mode, and seed.

    The stop rules are not settings but the solver's constants: ``EPS1`` (a
    dual ascent's relative change of its dual value), ``EPS2`` (a multiplier
    update's stop band (-EPS2, 0] on its row's residual), ``EPS3`` (the MM
    loop's relative change of the objective) and ``MAX_BISECT_ITERS`` (the
    budget of one multiplier update).
    """

    max_outer_iters: int = 5000
    majorizer_kind: MajorizerKind = MajorizerKind.DIAGONAL
    mode: SolveMode = SolveMode.DFRC
    seed: int = 0

    def __post_init__(self):
        check_rules(
            (isinstance(self.max_outer_iters, _INTEGER),
             "max_outer_iters must be an integer, got {!r}", self.max_outer_iters),
            (isinstance(self.seed, _INTEGER), "seed must be an integer, got {!r}", self.seed),
            (self.max_outer_iters >= 1, "max_outer_iters must be >= 1, got {}",
             self.max_outer_iters),
            (self.majorizer_kind in tuple(MajorizerKind),
             "majorizer_kind must be diagonal or max_eigen, got {!r}", self.majorizer_kind),
            (self.mode in tuple(SolveMode), "mode must be dfrc or radar_only, got {!r}",
             self.mode),
            (self.seed >= 0, "seed must be nonnegative, got {}", self.seed),
        )
        object.__setattr__(self, "majorizer_kind", MajorizerKind(self.majorizer_kind))
        object.__setattr__(self, "mode", SolveMode(self.mode))


# --------------------------------------------------------------------------
# Waveform file format: UTF-8 text, header "n_tx,block_len,p_total[,constant_modulus]",
# then one line per antenna of comma-separated "re:im" pairs. Floats are written
# with shortest round-trip decimals, so a save/load cycle is bit-exact.
# --------------------------------------------------------------------------

_CM_FLAG = "constant_modulus"


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal of ``v``, the float format of every artifact."""
    return repr(float(v))


def read_utf8(path, error: type[ValueError]) -> str:
    """The text of the UTF-8 file at ``path``, less a leading byte-order mark.

    A byte that is not UTF-8 raises ``error``, naming its line and value.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"line {line}: not UTF-8 text (byte {raw[exc.start]:#04x})") from None


def save_waveform(waveform: WaveformMatrix, path) -> None:
    """Write a waveform block to ``path`` in the documented text format."""
    header = f"{waveform.n_tx},{waveform.block_len},{fmt_float(waveform.p_total)}"
    if waveform.constant_modulus:
        header += "," + _CM_FLAG
    rows = [
        ",".join(f"{fmt_float(z.real)}:{fmt_float(z.imag)}" for z in row)
        for row in waveform.entries
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")


def _parse_int(token: str, line: int, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise WaveformFormatError(
            f"line {line}: field '{field}': expected integer, got {token!r}"
        ) from None


def _parse_float(token: str, line: int, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise WaveformFormatError(
            f"line {line}: field '{field}': expected float, got {token!r}"
        ) from None


def load_waveform(path) -> WaveformMatrix:
    """Read a waveform block written by :func:`save_waveform`.

    Raises :class:`WaveformFormatError` naming the offending line and field
    on malformed input. A constant-modulus flag in the header re-enables the
    modulus check on load.
    """
    lines = read_utf8(path, WaveformFormatError).splitlines()
    if not lines:
        raise WaveformFormatError("line 1: empty file")
    head = [tok.strip() for tok in lines[0].split(",")]
    if len(head) not in (3, 4):
        raise WaveformFormatError(
            f"line 1: header must have 3 or 4 comma-separated fields, got {len(head)}"
        )
    n_tx = _parse_int(head[0], 1, "n_tx")
    block_len = _parse_int(head[1], 1, "block_len")
    for field, value in (("n_tx", n_tx), ("block_len", block_len)):
        if value < 1:
            raise WaveformFormatError(f"line 1: field '{field}': must be >= 1, got {value}")
    p_total = _parse_float(head[2], 1, "p_total")
    constant_modulus = False
    if len(head) == 4:
        if head[3] != _CM_FLAG:
            raise WaveformFormatError(
                f"line 1: field 4: expected {_CM_FLAG!r}, got {head[3]!r}"
            )
        constant_modulus = True
    body = lines[1:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) != n_tx:
        raise WaveformFormatError(
            f"line {len(lines)}: expected {n_tx} antenna rows, found {len(body)}"
        )
    entries = []  # built from the checked rows: the header alone allocates nothing
    for i, row in enumerate(body):
        lineno = i + 2
        cells = row.split(",")
        if len(cells) != block_len:
            raise WaveformFormatError(
                f"line {lineno}: expected {block_len} columns, found {len(cells)}"
            )
        values = []
        for j, cell in enumerate(cells):
            parts = cell.split(":")
            if len(parts) != 2:
                raise WaveformFormatError(
                    f"line {lineno}: field {j + 1}: expected 're:im' pair, got {cell!r}"
                )
            re = _parse_float(parts[0], lineno, f"{j + 1} (re)")
            im = _parse_float(parts[1], lineno, f"{j + 1} (im)")
            values.append(complex(re, im))
        entries.append(values)
    try:
        return WaveformMatrix(
            np.array(entries, dtype=complex), p_total=p_total, constant_modulus=constant_modulus
        )
    except ValueError as exc:
        raise WaveformFormatError(f"line 1: {exc}") from None
