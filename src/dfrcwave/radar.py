"""Radar metrics: beam patterns and space-time correlation ISLs.

Every cost is a quadratic form of x = vec(X), the N_T x L block X stacked
column by column, through the per-angle matrices B_u = I_L (x) C_u and the
lag/angle family D_{tau,q,q'} = J_{-tau} (x) a(theta_q') a^H(theta_q).
Each quantity has one path. The N x N matrices are never formed:
``objective_terms`` evaluates every quadratic form from the N_T x N_T
Kronecker factors (the C_u and the target steering vectors), with no size
cap, and returns the three costs with the forms they were reduced from. The
beam-pattern forms cost O(N_T^2 L + U N_T^2) through the Gram X X^H, and
the correlations O(Q N_T L + P Q^2 L) through one batched product over the
lags tau >= 0. Those lags are all that ``objective_terms`` evaluates and
keeps: a negative lag is the conjugate transpose of its mirror, so the
ISLs read it off the positive one, and only ``correlation_values``
returns the full (2P-1, Q, Q) stack. (``dfrcwave.oracle`` builds the
dense forms to certify these paths.)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    DesiredBeamPattern,
    TargetSet,
    check_rules,
)


def steering_matrix(geometry: ArrayGeometry, angles_deg) -> np.ndarray:
    """Transmit steering vectors a(theta) as rows, shape (U, n_tx): entry n of
    row u is exp(j 2 pi d n sin theta_u), n = 0 .. n_tx - 1."""
    theta = np.deg2rad(np.asarray(angles_deg, dtype=float))
    n = np.arange(geometry.n_tx)
    return np.exp(2j * np.pi * geometry.spacing * np.outer(np.sin(theta), n))


def rectangular_pattern(
    grid: AngleGrid, target_angles_deg, width_deg: float
) -> DesiredBeamPattern:
    """Rectangular desired pattern: 1 within width/2 of any target angle, else 0."""
    check_rules((width_deg > 0, "beam_width_deg must be > 0, got {}", width_deg))
    angles = grid.angles_deg[:, None]
    targets = np.asarray(target_angles_deg, dtype=float)[None, :]
    hit = np.abs(angles - targets) <= width_deg / 2 + 1e-12
    return DesiredBeamPattern(hit.any(axis=1).astype(float))


@dataclass(frozen=True)
class RadarScene:
    """Precomputed geometry/grid/target data for the radar cost terms.

    The scene holds only the Kronecker factors of the cost matrices:
    ``c_factors[u]`` is the N_T x N_T factor C_u of B_u = I_L (x) C_u, and
    row q of ``steer_targets`` is a(theta_q), giving the factor
    a(theta_q') a^H(theta_q) of D_{tau,q,q'} = J_{-tau} (x) a(theta_q') a^H(theta_q).
    Its size is O(U N_T^2), independent of the block length L.

    The operands the MM step reads in place of these fields are built once
    per scene, on first use, and are read-only: ``c_flat`` (the C_u
    flattened to shape (U, N_T^2)), ``steer_targets_conj`` (the
    conjugated target steering vectors) and ``isl_index`` (where each ISL's
    terms sit among the correlations at the lags tau >= 0).
    """

    geometry: ArrayGeometry
    grid: AngleGrid
    desired: DesiredBeamPattern
    targets: TargetSet
    block_len: int
    steer_grid: np.ndarray
    steer_targets: np.ndarray
    c_factors: np.ndarray

    @property
    def n(self) -> int:
        return self.block_len * self.geometry.n_tx

    @functools.cached_property
    def c_flat(self) -> np.ndarray:
        """``c_factors`` as a (U, N_T^2) matrix, row u the row-major C_u."""
        flat = self.c_factors.reshape(self.c_factors.shape[0], -1)
        flat.setflags(write=False)
        return flat

    @functools.cached_property
    def steer_targets_conj(self) -> np.ndarray:
        """conj(``steer_targets``): row q is a^H(theta_q) as a row."""
        conj = self.steer_targets.conj()
        conj.setflags(write=False)
        return conj

    @functools.cached_property
    def _lag_index(self) -> np.ndarray:
        """Gather index of the lag windows, shape (P, L), built once per scene.

        Entry [tau, l] is l + tau, or L (a zero pad appended after the L
        block columns) when that runs past the block, so lags tau >= L
        gather only zeros.
        """
        length = self.block_len
        idx = np.arange(self.targets.max_lag)[:, None] + np.arange(length)
        idx = np.minimum(idx, length)
        idx.setflags(write=False)
        return idx

    @functools.cached_property
    def isl_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean masks over the (2P-1, Q, Q) correlation stack, built once per scene.

        The first selects the autocorrelation sidelobes (q = q', tau != 0),
        the second the cross-correlations (q != q', every lag): the one
        account of which correlation terms each ISL weight covers.
        """
        p, q_n = self.targets.max_lag, self.targets.n_targets
        own = np.eye(q_n, dtype=bool)
        nonzero_lag = (np.arange(2 * p - 1) != p - 1)[:, None, None]
        ac = own & nonzero_lag
        cc = np.broadcast_to(~own, (2 * p - 1, q_n, q_n)).copy()
        for mask in (ac, cc):
            mask.setflags(write=False)
        return ac, cc

    @functools.cached_property
    def isl_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices into the (P, Q, Q) stack of the lags tau >= 0 of the
        terms each of ``isl_masks`` selects, built once per scene, read-only.

        Entry [tau + P - 1, q, q'] of the full stack is entry [tau, q, q']
        at tau >= 0 and [-tau, q', q] below, where the moduli agree; the
        indices list the selected entries in the full stack's element order,
        so a sum over them adds the same values in the same order as the
        masked sum over the full stack.
        """
        p, q_n = self.targets.max_lag, self.targets.n_targets
        flat = np.arange(p * q_n * q_n).reshape(p, q_n, q_n)
        full = np.concatenate([flat[:0:-1].transpose(0, 2, 1), flat])
        index = tuple(full[mask] for mask in self.isl_masks)
        for idx in index:
            idx.setflags(write=False)
        return index


def build_scene(
    geometry: ArrayGeometry,
    grid: AngleGrid,
    desired: DesiredBeamPattern,
    targets: TargetSet,
    block_len: int,
) -> RadarScene:
    """Assemble a :class:`RadarScene`: steering vectors and the factors C_u."""
    check_rules(
        (desired.values.size == len(grid),
         "desired pattern has {} values for a {}-point grid", desired.values.size, len(grid)),
        (block_len >= 1, "block_len must be >= 1, got {}", block_len),
        (targets.max_lag - 1 <= block_len,
         "max_lag - 1 must be <= block_len (got P={}, block length L={})",
         targets.max_lag, block_len),
    )
    a_grid = steering_matrix(geometry, grid.angles_deg)
    a_tgt = steering_matrix(geometry, targets.angles_deg)
    gd = desired.values
    denom = float(np.sum(gd**2))
    # S = sum_u' G_d(theta_u') a_u' a_u'^H, shared by every B_u
    s_mat = np.einsum("u,ui,uj->ij", gd, a_grid, a_grid.conj())
    c_factors = (gd[:, None, None] / denom) * s_mat[None, :, :] - np.einsum(
        "ui,uj->uij", a_grid, a_grid.conj()
    )
    for arr in (a_grid, a_tgt, c_factors):
        arr.setflags(write=False)
    return RadarScene(
        geometry=geometry,
        grid=grid,
        desired=desired,
        targets=targets,
        block_len=block_len,
        steer_grid=a_grid,
        steer_targets=a_tgt,
        c_factors=c_factors,
    )


def _as_block(x, scene: RadarScene) -> np.ndarray:
    """Normalize a block matrix / vec'd vector to N_T x L."""
    x = np.asarray(x)
    n_tx = scene.geometry.n_tx
    if x.ndim == 1:
        if x.size != scene.n:
            raise ValueError(f"expected vector of length {scene.n}, got {x.size}")
        return x.reshape((n_tx, scene.block_len), order="F")
    if x.shape != (n_tx, scene.block_len):
        raise ValueError(
            f"expected block of shape {(n_tx, scene.block_len)}, got {x.shape}"
        )
    return x


def achieved_pattern(x, scene: RadarScene) -> np.ndarray:
    """Beam pattern evaluated on the whole scene grid, shape (U,)."""
    X = _as_block(x, scene)
    return np.sum(np.abs(scene.steer_grid.conj() @ X) ** 2, axis=1)


def optimal_alpha(x, scene: RadarScene) -> float:
    """Closed-form scale minimizing the pattern-matching MSE for fixed x.

    ``DesiredBeamPattern`` holds a positive value, so the divisor is positive.
    """
    gd = scene.desired.values
    denom = float(np.sum(gd**2))
    return float(np.dot(achieved_pattern(x, scene), gd) / denom)


def _gram_forms(X: np.ndarray, scene: RadarScene) -> np.ndarray:
    """x^H B_u x = tr(C_u X X^H) for every grid angle, shape (U,), from the
    N_T x L block X, which it does not check.

    The N_T x N_T Gram X X^H is formed once, in O(N_T^2 L), and then each
    form is an inner product with C_u: one (U, N_T^2) @ (N_T^2,) product.
    Real, since each C_u and the Gram are Hermitian.
    """
    gram_t = X.conj() @ X.T  # (X X^H)^T, so that tr(C R) = sum_ij C_ij R^T_ij
    return (scene.c_flat @ gram_t.reshape(-1)).real


def _lag_correlations(X: np.ndarray, scene: RadarScene) -> np.ndarray:
    """Correlations at the lags tau >= 0 from the N_T x L block X, which it
    does not check: shape (P, Q, Q), indexed [tau, q, q'].

    With v = A^H X (row q is a_q^H X), lag tau is v W_tau^H for the window
    W_tau of v shifted left by tau columns and zero-padded; all P windows
    are gathered at once and multiplied in one batched product,
    O(P Q^2 L). Lags tau >= L come out as exact zeros.
    """
    v = scene.steer_targets_conj @ X
    padded = np.zeros((scene.block_len + 1, v.shape[0]), dtype=complex)
    padded[:-1] = v.T.conj()
    # windows[tau, l, q'] = conj(v[q', l + tau]), zero past the block
    return v @ padded[scene._lag_index]


def correlation_values(x, scene: RadarScene) -> np.ndarray:
    """Complex correlations a_q^H X J_tau X^H a_q' for all (tau, q, q').

    Returns shape (2P-1, Q, Q) indexed [tau + P - 1, q, q']; entry
    [tau + P - 1, q, q'] equals the quadratic form x^H D_{tau,q,q'} x.
    The lags tau >= 0 come from ``_lag_correlations``, in O(P Q^2 L); a
    negative lag is the conjugate transpose of its mirror, and lags
    |tau| >= L come out as exact zeros.
    """
    nonneg = _lag_correlations(_as_block(x, scene), scene)
    mirrored = nonneg[:0:-1].conj().transpose(0, 2, 1)
    return np.concatenate([mirrored, nonneg])


class ObjectiveTerms(tuple):
    """(g_bp, g_ac, g_cc), carrying the quadratic forms of x they came from.

    ``beta`` holds the beam-pattern forms x^H B_u x per grid angle and
    ``corr`` the correlations x^H D_{tau,q,q'} x at the lags tau >= 0,
    shape (P, Q, Q) indexed [tau, q, q'] (the lags tau >= 0 of
    ``correlation_values``; each negative lag is the conjugate transpose
    of its mirror), or None when they were not evaluated.
    """

    beta: np.ndarray
    corr: Optional[np.ndarray]

    def __new__(cls, terms, beta: np.ndarray, corr: Optional[np.ndarray] = None):
        self = super().__new__(cls, terms)
        self.beta, self.corr = beta, corr
        return self


def objective_terms(x, scene: RadarScene, correlations: bool = True) -> ObjectiveTerms:
    """(beam-pattern cost, autocorrelation ISL, cross-correlation ISL) for x.

    g_bp = sum_u (x^H B_u x)^2. The ISLs sum |x^H D_{tau,q,q'} x|^2 over
    only the index sets that belong to each term (no subtraction of the
    lag-0 peak): targets and nonzero lags for the autocorrelation, ordered
    target pairs q != q' and every lag for the cross-correlation. x is
    checked and viewed as its N_T x L block once, which the beam-pattern
    forms read directly. The correlations are evaluated at the lags
    tau >= 0 only: |x^H D_{-tau,q',q} x|^2 = |x^H D_{tau,q,q'} x|^2, so
    each ISL gathers its squared moduli from those lags through
    ``RadarScene.isl_index``, in the order of the masked sum over the full
    (2P-1, Q, Q) stack, and adds them with no concatenate and no boolean
    mask per call: the same values in the same order, so the same bits.
    The quadratic forms are computed once and ride along as ``.beta`` and
    ``.corr``, so the MM loop builds the next Phi at an accepted x without
    re-evaluating them.

    With ``correlations`` false no correlation is evaluated and both ISLs
    read 0.0: for an MM loop whose correlation weights are all zero (or
    whose masks are empty), the weighted cost is then the same to the bit.
    """
    X = _as_block(x, scene)
    beta = _gram_forms(X, scene)
    g_bp = float(np.add.reduce(beta**2))  # ndarray.sum's wrapper, skipped
    if not correlations:
        return ObjectiveTerms((g_bp, 0.0, 0.0), beta)
    corr = _lag_correlations(X, scene)
    chi = (np.abs(corr) ** 2).reshape(-1)
    ac, cc = scene.isl_index
    g_ac, g_cc = np.add.reduce(chi.take(ac)), np.add.reduce(chi.take(cc))
    return ObjectiveTerms((g_bp, float(g_ac), float(g_cc)), beta, corr)
