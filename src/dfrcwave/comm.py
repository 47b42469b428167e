"""Downlink model: Rayleigh channels, M-PSK codewords, and CI constraints.

The per-symbol constructive-interference condition for user k, symbol l is
turned into the pair of half-space rows

    Re{h~_m^H x} >= Gamma_m,   m = (2l-2)K + k  and  (2l-1)K + k,

where the two rows differ only in the sign of the j*cos(Lambda) term and
Lambda = pi / M is the half-angle of the PSK decision cone.
Row m couples only the n_tx entries of symbol block l, so the constraint set
keeps just those entries; the dense 2KL x N matrix is a reference in the oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from dfrcwave.model import _frozen_array, check_rules

#: Tolerance for the unit-modulus / constellation-lattice symbol checks.
SYMBOL_TOL = 1e-9
_EPS = np.finfo(float).eps


def draw_channels(k_users: int, n_tx: int, seed) -> np.ndarray:
    """Uncorrelated Rayleigh channels: i.i.d. CN(0, 1) entries, shape (K, n_tx)."""
    check_rules(
        (k_users >= 1, "k_users must be >= 1, got {}", k_users),
        (n_tx >= 1, "n_tx must be >= 1, got {}", n_tx),
    )
    rng = np.random.default_rng(seed)
    shape = (k_users, n_tx)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def draw_symbols(k_users: int, block_len: int, m_points: int, seed) -> np.ndarray:
    """Uniform i.i.d. M-PSK codewords with phases 2 pi i / M, shape (K, block_len)."""
    check_rules(
        (k_users >= 1, "k_users must be >= 1, got {}", k_users),
        (block_len >= 1, "block_len must be >= 1, got {}", block_len),
        (m_points >= 2, "m_psk, the constellation size, must be >= 2, got {}", m_points),
    )
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, m_points, size=(k_users, block_len))
    return np.exp(2j * np.pi * idx / m_points)


@dataclass(frozen=True)
class CommSetup:
    """Channels, codewords, and QoS levels for the K downlink users.

    ``gamma`` holds linear SNR targets (dB-to-linear conversion happens at
    the config surface). ``sigma2`` is the receiver noise variance.
    """

    channels: np.ndarray
    symbols: np.ndarray
    gamma: np.ndarray
    sigma2: float
    m_points: int

    def __post_init__(self):
        ch = _frozen_array(self.channels, dtype=complex)
        sym = _frozen_array(self.symbols, dtype=complex)
        gam = _frozen_array(self.gamma, dtype=float)
        if ch.ndim != 2:
            raise ValueError("channels must be a K x n_tx matrix")
        k_users, n_tx = ch.shape
        if sym.ndim != 2 or sym.shape[0] != k_users:
            raise ValueError(f"symbols must be K x L with K={k_users}, got {sym.shape}")
        if k_users < 1 or sym.shape[1] < 1:
            raise ValueError(f"need K >= 1 users and L >= 1 symbols, got K x L = {sym.shape}")
        if gam.shape != (k_users,):
            raise ValueError(f"gamma must have one entry per user, got shape {gam.shape}")
        # phases must sit on the M-PSK lattice (base or pi/M-rotated)
        steps = np.angle(sym) * self.m_points / (2 * np.pi)
        check_rules(
            (k_users <= n_tx, "k_users must be <= n_tx (need K <= n_tx, got K={}, n_tx={})",
             k_users, n_tx),
            (np.isfinite(gam).all() and (gam >= 0).all(),
             "gamma must be finite and nonnegative, got {} (gamma_db = 10 log10 gamma)", gam),
            (self.sigma2 > 0, "sigma2 must be > 0, got {}", self.sigma2),
            (self.m_points >= 2, "m_points must be >= 2, got {}", self.m_points),
            (np.abs(np.abs(sym) - 1.0).max() <= SYMBOL_TOL, "symbols must be unit modulus"),
            (np.abs(steps - np.round(steps * 2) / 2).max() <= SYMBOL_TOL,
             "symbol phases are not multiples of pi/M"),
        )
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "gamma", gam)

    @property
    def k_users(self) -> int:
        return self.channels.shape[0]

    @property
    def n_tx(self) -> int:
        return self.channels.shape[1]

    @property
    def block_len(self) -> int:
        return self.symbols.shape[1]


@dataclass(frozen=True)
class CIConstraintSet:
    """Half-space rows Re{h~_m^H x} >= Gamma_m, stored per symbol block.

    ``rows[l, r]`` (shape (L, 2K, n_tx)) holds the block-l entries of h~_m^H
    and ``thresholds[l, r]`` (shape (L, 2K)) Gamma_m, for r = half*K + k and
    m = (2l + half) K + k: flattening (l, r) gives the canonical row order
    of margins and multipliers. ``row_scalars``, ``row_abs_sums`` and each
    amplitude's ``clear_by`` are built once per set. No conjugated copy of
    ``rows`` is kept, since it would raise the solve's peak memory.
    """

    rows: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_array(self.rows, dtype=complex))
        object.__setattr__(self, "thresholds", _frozen_array(self.thresholds, dtype=float))

    @property
    def n_tx(self) -> int:
        return self.rows.shape[2]

    @property
    def n_rows(self) -> int:
        return self.thresholds.size

    @property
    def n(self) -> int:
        return self.rows.shape[0] * self.n_tx

    @functools.cached_property
    def row_abs_sums(self) -> np.ndarray:
        """sum_n |h~_{m,n}| of each row, shape (L, 2K), read-only.

        amp times it is a row's margin at full phase alignment (the nu_m -> inf
        limit) and bounds the rounding of its residuals.
        """
        return _frozen_array(np.abs(self.rows).sum(axis=2), dtype=float)

    @functools.cached_property
    def _clear_by(self) -> dict:
        return {}

    def clear_by(self, amp: float) -> np.ndarray:
        """Margin above which an inactive row is slack beyond rounding, at amplitude ``amp``.

        Twice 16 n_tx eps times the row's scale |Gamma_m| + amp sum_n |h~_{m,n}|:
        a row's numpy margin at x(nu) and its scalar residual r(0) each round
        within half of it. Shape (n_rows,), read-only, built once per amplitude.
        """
        cache = self._clear_by
        if amp not in cache:
            scale = (np.abs(self.thresholds) + amp * self.row_abs_sums).ravel()
            cache[amp] = _frozen_array(2.0 * 16 * self.n_tx * _EPS * scale, dtype=float)
        return cache[amp]

    @functools.cached_property
    def row_scalars(self) -> tuple[list, list]:
        """Per-row Python scalars for the solver's scalar probe loop, built once per set.

        Returns (terms, gamma): terms[m] is a tuple of (i, conj(h), h) for
        each of row m's n_tx block entries, i being the entry's index in x
        (tuples, so the set holds them at their exact size), and gamma[m] is
        row m's threshold. Treat as read-only.
        """
        per_block, n_tx = self.rows.shape[1:]
        terms = []
        for m, r in enumerate(self.rows.reshape(-1, n_tx)):
            start = m // per_block * n_tx
            terms.append(tuple(zip(range(start, start + n_tx), r.conj().tolist(), r.tolist())))
        return terms, self.thresholds.ravel().tolist()


def build_ci_constraints(setup: CommSetup) -> CIConstraintSet:
    """Build the 2KL constraint rows from channels, codewords, and QoS levels."""
    k_users, n_tx = setup.channels.shape
    length = setup.block_len
    lam = np.pi / setup.m_points
    sin_l, cos_l = np.sin(lam), np.cos(lam)

    factors = np.array([sin_l - 1j * cos_l, sin_l + 1j * cos_l])
    thresholds = setup.sigma2**0.5 * np.sqrt(setup.gamma) * sin_l
    # rows[l, half, k] = conj(h_k) conj(s_kl) factor[half]; e^{-j angle(s)} == conj(s)
    # for the unit-modulus symbols
    rows = (
        setup.channels.conj()[None, None]
        * np.conj(setup.symbols).T[:, None, :, None]
        * factors[:, None, None]
    ).reshape(length, 2 * k_users, n_tx)
    return CIConstraintSet(rows=rows, thresholds=np.tile(thresholds, (length, 2)))


def block_margins(xb: np.ndarray, rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Margins Re{h~^H x_l} - Gamma of a stack of blocks: (B, n_tx), (B, R, n_tx) -> (B, R)."""
    return np.matmul(rows, xb[:, :, None])[:, :, 0].real - thresholds


def ci_margin(x, constraints: CIConstraintSet) -> np.ndarray:
    """Signed margins Re{h~_m^H x} - Gamma_m in canonical row order; feasible iff all >= 0."""
    x = np.asarray(x)
    if x.shape != (constraints.n,):
        raise ValueError(f"expected vector of length {constraints.n}, got shape {x.shape}")
    rows = constraints.rows
    return block_margins(x.reshape(-1, rows.shape[2]), rows, constraints.thresholds).reshape(-1)
