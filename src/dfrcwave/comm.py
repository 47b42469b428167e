"""Downlink model: Rayleigh channels, M-PSK codewords, and CI constraints.

The per-symbol constructive-interference condition for user k, symbol l is
turned into the pair of half-space rows

    Re{h~_m^H x} >= Gamma_m,   m = (2l-2)K + k  and  (2l-1)K + k,

where the two rows differ only in the sign of the j*cos(Lambda) term and
Lambda = pi / M is the half-angle of the PSK decision cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from dfrcwave.model import _frozen_array

#: Tolerance for the unit-modulus / constellation-lattice symbol checks.
SYMBOL_TOL = 1e-9


def draw_channels(k_users: int, n_tx: int, seed) -> np.ndarray:
    """Uncorrelated Rayleigh channels: i.i.d. CN(0, 1) entries, shape (K, n_tx)."""
    if k_users < 1 or n_tx < 1:
        raise ValueError("k_users and n_tx must be >= 1")
    rng = np.random.default_rng(seed)
    shape = (k_users, n_tx)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def draw_symbols(k_users: int, block_len: int, m_points: int, seed) -> np.ndarray:
    """Uniform i.i.d. M-PSK codewords with phases 2 pi i / M, shape (K, block_len)."""
    if m_points < 2:
        raise ValueError(f"constellation size must be >= 2, got {m_points}")
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
        if k_users > n_tx:
            raise ValueError(f"need K <= n_tx, got K={k_users}, n_tx={n_tx}")
        if sym.ndim != 2 or sym.shape[0] != k_users:
            raise ValueError(f"symbols must be K x L with K={k_users}, got {sym.shape}")
        if gam.shape != (k_users,):
            raise ValueError(f"gamma must have one entry per user, got shape {gam.shape}")
        if np.any(gam < 0):
            raise ValueError("gamma must be nonnegative")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if self.m_points < 2:
            raise ValueError(f"m_points must be >= 2, got {self.m_points}")
        if np.abs(np.abs(sym) - 1.0).max() > SYMBOL_TOL:
            raise ValueError("symbols must be unit modulus")
        # phases must sit on the M-PSK lattice (base or pi/M-rotated)
        steps = np.angle(sym) * self.m_points / (2 * np.pi)
        off = np.abs(steps - np.round(steps * 2) / 2).max()
        if off > SYMBOL_TOL:
            raise ValueError("symbol phases are not multiples of pi/M")
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
    """Half-space rows Re{h~_m^H x} >= Gamma_m in the canonical index order.

    ``h_tilde`` stores row m = h~_m^H (shape 2KL x N). Each row is zero
    outside the n_tx entries of its symbol block; ``ell_of_row`` and
    ``block_rows`` expose that sparsity for the solver, and ``blocks`` and
    ``row_scalars`` are views of it built once per set.
    """

    h_tilde: np.ndarray
    gamma_vec: np.ndarray
    ell_of_row: np.ndarray
    block_rows: np.ndarray
    n_tx: int
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "h_tilde", _frozen_array(self.h_tilde, dtype=complex))
        object.__setattr__(self, "gamma_vec", _frozen_array(self.gamma_vec, dtype=float))
        object.__setattr__(self, "ell_of_row", _frozen_array(self.ell_of_row, dtype=int))
        object.__setattr__(self, "block_rows", _frozen_array(self.block_rows, dtype=complex))

    @property
    def n_rows(self) -> int:
        return self.h_tilde.shape[0]

    @property
    def n(self) -> int:
        return self.h_tilde.shape[1]

    @functools.cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows and thresholds grouped by symbol block: shapes (L, 2K, n_tx), (L, 2K).

        Block l's rows are m = (2l + half) K + k, contiguous in the canonical
        order, so the grouping is a reshape.
        """
        n_blocks = self.n // self.n_tx
        per_block = self.n_rows // n_blocks
        if not np.array_equal(self.ell_of_row, np.repeat(np.arange(n_blocks), per_block)):
            raise ValueError("constraint rows are not in canonical block order")
        return (
            self.block_rows.reshape(n_blocks, per_block, self.n_tx),
            self.gamma_vec.reshape(n_blocks, per_block),
        )

    @functools.cached_property
    def row_scalars(self) -> tuple[list, list, list]:
        """Per-row Python scalars for the solver's scalar probe loop.

        Returns (pairs, starts, gamma): pairs[m] lists (conj(h), h) for each
        of row m's n_tx block entries, starts[m] is the index of its block's
        first entry in x, gamma[m] its threshold. Treat as read-only.
        """
        pairs = [list(zip(row.conj().tolist(), row.tolist())) for row in self.block_rows]
        return pairs, (self.ell_of_row * self.n_tx).tolist(), self.gamma_vec.tolist()


def build_ci_constraints(setup: CommSetup, block_len: Optional[int] = None) -> CIConstraintSet:
    """Build the 2KL constraint rows from channels, codewords, and QoS levels.

    A user with a zero channel but a positive QoS target makes its rows
    structurally infeasible; this is reported through ``warnings`` on the
    returned set rather than raised.
    """
    if block_len is not None and block_len != setup.block_len:
        raise ValueError(
            f"block_len {block_len} disagrees with symbols shape {setup.symbols.shape}"
        )
    k_users, n_tx = setup.channels.shape
    length = setup.block_len
    lam = np.pi / setup.m_points
    sin_l, cos_l = np.sin(lam), np.cos(lam)
    n_total = length * n_tx
    n_rows = 2 * k_users * length

    h_tilde = np.zeros((n_rows, n_total), dtype=complex)
    gamma_vec = np.empty(n_rows)
    ell_of_row = np.empty(n_rows, dtype=int)
    block_rows = np.empty((n_rows, n_tx), dtype=complex)
    warnings: list[str] = []

    thresholds = setup.sigma2**0.5 * np.sqrt(setup.gamma) * sin_l
    for ell in range(length):
        for k in range(k_users):
            # e^{-j angle(s)} == conj(s) for the unit-modulus symbols
            rot = np.conj(setup.symbols[k, ell])
            base = setup.channels[k].conj() * rot
            for half, factor in enumerate((sin_l - 1j * cos_l, sin_l + 1j * cos_l)):
                m = (2 * ell + half) * k_users + k
                row = base * factor
                h_tilde[m, ell * n_tx : (ell + 1) * n_tx] = row
                gamma_vec[m] = thresholds[k]
                ell_of_row[m] = ell
                block_rows[m] = row
            if thresholds[k] > 0 and not np.any(setup.channels[k]):
                warnings.append(
                    f"user {k}, symbol {ell}: zero channel with positive QoS target "
                    "makes rows infeasible"
                )
    return CIConstraintSet(
        h_tilde=h_tilde,
        gamma_vec=gamma_vec,
        ell_of_row=ell_of_row,
        block_rows=block_rows,
        n_tx=n_tx,
        warnings=tuple(warnings),
    )


def ci_margin(x, constraints: CIConstraintSet) -> np.ndarray:
    """Signed margins Re{h~_m^H x} - Gamma_m; feasible iff all entries >= 0."""
    x = np.asarray(x)
    if x.shape != (constraints.n,):
        raise ValueError(f"expected vector of length {constraints.n}, got shape {x.shape}")
    return (constraints.h_tilde @ x).real - constraints.gamma_vec


def geometric_ci_check(
    x_ell,
    h_k,
    s,
    gamma_k: float,
    sigma: float,
    m_points: int,
    tol: float = 0.0,
) -> bool:
    """Decision-region form of the CI condition for one user/symbol.

    Evaluates (Re{v} - sigma*sqrt(gamma)) tan(Lambda) - |Im{v}| >= -tol with
    v = h^H x_l e^{-j angle(s)}. For BPSK (Lambda = pi/2) the tangent
    diverges and the condition reduces to Re{v} >= sigma*sqrt(gamma).
    """
    v = np.vdot(np.asarray(h_k), np.asarray(x_ell)) * np.exp(-1j * np.angle(s))
    need = sigma * np.sqrt(gamma_k)
    if m_points == 2:
        return bool(v.real - need >= -tol)
    lam = np.pi / m_points
    return bool((v.real - need) * np.tan(lam) - abs(v.imag) >= -tol)
