"""Two-stage majorization of the quartic radar cost.

Stage one bounds the quartic form vec^H(xx^H) Psi vec(xx^H) by a quadratic
x^H Phi x using either the row-sum diagonal bound diag(|Psi| 1) (tight) or
the classical lambda_max(Psi) I bound (baseline). Stage two bounds the
quadratic by a linear form Re{x^H d} using the same device on Phi. Under
the constant-modulus constraint both discarded terms are constants, so MM
descent only needs d.

Psi = sum_k c_k vec(M_k) vec^H(M_k) is never formed. Every cost matrix is
M_k = J_delta (x) F_k: a block-lag matrix (delta = l2 - l1 between the
column blocks it couples) times an N_T x N_T factor, with B_u = I_L (x) C_u
at lag 0 and D_{tau,q,q'} = J_{-tau} (x) a_q' a_q^H at lag -tau. Psi
therefore splits by lag: up to a permutation, its part at lag delta is
1 1^T (x) G_delta, with an all-ones vector over the L - |delta| block pairs
at that lag and the N_T^2 x N_T^2 Gram G_delta = sum_k c_k vec(F_k) vec^H(F_k).
So E = mat(|Psi| 1) is block-Toeplitz with block (L - |delta|) mat(|G_delta| 1),
zero for |delta| >= P, and lambda_max(Psi) is the largest
(L - |delta|) lambda_max(G_delta). Set-up costs O((U + P Q^2) N_T^4),
independent of L. Phi is block-banded the same way and is assembled from P
small blocks per iteration, with no cap on N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dfrcwave.model import MajorizerKind, Weights
from dfrcwave.radar import RadarKernels, RadarScene, radar_kernels


def lag_weights(scene: RadarScene, weights: Weights) -> np.ndarray:
    """Psi weight of each D_{tau,q,q'} for tau = 0 .. P-1, shape (P, Q, Q).

    The scene's ISL masks at tau >= 0, weighted by w_ac and w_cc.
    D_{tau,q,q'} sits at lag -tau. The terms at lag +tau are its Hermitian
    transposes D_{-tau,q',q} with the same weights, so this lower half of
    the lags determines Psi. Raises ValueError when no cost term is active:
    w_bp is zero, and so is every weight at a lag below the block length
    (lags tau >= L have no room).
    """
    p = scene.targets.max_lag
    ac, cc = scene.isl_masks
    w = weights.w_ac * ac[p - 1 :] + weights.w_cc * cc[p - 1 :]
    if not (weights.w_bp > 0 or w[: scene.block_len].any()):
        raise ValueError("no active cost terms: all usable weights are zero")
    return w


@functools.lru_cache(maxsize=32)
def _band_index(n_lags: int, n_tx: int, block_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Scatter index of ``_lower_band``: (destination, source) flat positions.

    Destination entries index the N x N result, source entries the
    (n_lags, N_T, N_T) block stack; only lags below the block length have
    room. Built once per (n_lags, N_T, L) and kept read-only.
    """
    n = n_tx * block_len
    rows, cols = np.tril_indices(block_len)
    lag = rows - cols
    keep = lag < n_lags
    rows, cols, lag = (a[keep, None, None] for a in (rows, cols, lag))
    i = np.arange(n_tx)[:, None]
    j = np.arange(n_tx)
    dest = ((rows * n_tx + i) * n + cols * n_tx + j).reshape(-1)
    src = (lag * n_tx * n_tx + i * n_tx + j).reshape(-1)
    for a in (dest, src):
        a.setflags(write=False)
    return dest, src


def _lower_band(blocks: np.ndarray, block_len: int) -> np.ndarray:
    """Dense sum_tau J_{-tau} (x) blocks[tau]: block tau sits tau block rows
    below the diagonal (lags |tau| >= L have no room and are dropped)."""
    n_tx = blocks.shape[1]
    dest, src = _band_index(blocks.shape[0], n_tx, block_len)
    n = n_tx * block_len
    out = np.zeros(n * n, dtype=blocks.dtype)
    out[dest] = blocks.reshape(-1)[src]
    return out.reshape(n, n)


def _lag_grams(scene: RadarScene, w_bp: float, lag_w: np.ndarray) -> np.ndarray:
    """(L - tau) G_{-tau} for the lags -tau, tau = 0 .. min(P, L) - 1.

    ``lag_w`` holds the correlation-term weights of ``lag_weights``.
    Returns shape (T, N_T^2, N_T^2), with factors vectorized row-major. Lag
    -tau holds the D_{tau,q,q'} (and, at lag 0, the B_u); lag +tau mirrors
    it with the same spectrum and transposed row sums.
    """
    n_tx = scene.geometry.n_tx
    length = scene.block_len
    a = scene.steer_targets
    # row (q, q') is the factor a_q' a_q^H of D_{tau,q,q'}
    pair = np.einsum("pi,qj->qpij", a, a.conj()).reshape(-1, n_tx * n_tx)
    lag_w = lag_w.reshape(scene.targets.max_lag, -1)
    bp = scene.c_factors.reshape(-1, n_tx * n_tx)
    bp_w = np.full(bp.shape[0], float(w_bp))
    grams = []
    for tau in range(min(scene.targets.max_lag, length)):
        vecs, coeffs = pair, lag_w[tau]
        if tau == 0:
            vecs, coeffs = np.concatenate([bp, pair]), np.concatenate([bp_w, coeffs])
        grams.append((length - tau) * ((vecs.T * coeffs) @ vecs.conj()))
    return np.array(grams)


@dataclass(frozen=True)
class MajorizerContext:
    """Per-problem majorizer data: E (diagonal kind) or lambda_Psi (eigen kind).

    ``kind``, ``weights`` and ``scene`` are what the context was built
    from; ``mm_solve`` rejects a context whose three differ from its own
    (the scene compared by identity). Phi is rebuilt every iteration from
    the scene's Kronecker factors and the correlation-term weights
    ``lag_weights`` (shape (P, Q, Q), from the function of that name), so
    those are the only other things kept.
    """

    kind: MajorizerKind
    weights: Weights
    scene: RadarScene
    lag_weights: np.ndarray
    e_mat: Optional[np.ndarray] = None
    lambda_quartic: Optional[float] = None


def build_majorizer_context(
    scene: RadarScene, weights: Weights, kind
) -> MajorizerContext:
    """Precompute everything x_t-independent for the requested majorizer kind.

    Diagonal kind: E = mat(|Psi| 1) is block-Toeplitz, with the block
    (L - |delta|) mat(|G_delta| 1) at lag delta, assembled as E_low + E_low^T
    from its lower band. Eigen kind: lambda_Psi is the largest
    (L - |delta|) lambda_max(G_delta), clipped at zero. ``kind`` is a
    ``MajorizerKind`` or its value; any other raises ValueError.
    """
    kind = MajorizerKind(kind)
    lag_w = lag_weights(scene, weights)
    lag_w.setflags(write=False)
    grams = _lag_grams(scene, weights.w_bp, lag_w)
    e_mat = lam = None
    if kind == MajorizerKind.DIAGONAL:
        n_tx = scene.geometry.n_tx
        blocks = np.abs(grams).sum(axis=2).reshape(-1, n_tx, n_tx)
        blocks[0] *= 0.5  # lag 0 is its own mirror image
        lower = _lower_band(blocks, scene.block_len)
        e_mat = lower + lower.T
        e_mat.setflags(write=False)
    else:
        top = max(float(np.linalg.eigvalsh(g)[-1]) for g in grams)
        lam = max(top, 0.0)
    return MajorizerContext(
        kind=kind, weights=weights, scene=scene, lag_weights=lag_w,
        e_mat=e_mat, lambda_quartic=lam,
    )


def build_phi(
    x_t: np.ndarray, ctx: MajorizerContext, kernels: Optional[RadarKernels] = None
) -> np.ndarray:
    """Quadratic-stage majorizer matrix Phi at the expansion point x_t.

    Phi = 2 (w_bp Phi1 + w_ac Phi2 + w_cc Phi3 - E (.) x_t x_t^H) for the
    diagonal kind; the eigen kind replaces the subtracted term with
    lambda_Psi x_t x_t^H. The cost part sum_k c_k conj(x_t^H M_k x_t) M_k
    is block-banded: its blocks below the diagonal come from the
    correlations and the C_u, and the blocks above are their Hermitian
    transposes. The P lag blocks cost O(P Q^2 N_T^2 + U N_T^2), and the
    dense assembly O(N^2). Phi is returned as 2 (H + H^H) for one half H,
    which makes it exactly Hermitian.

    The coefficients x_t^H M_k x_t are read from ``kernels``, the
    :class:`~dfrcwave.radar.RadarKernels` of x_t; the MM loop passes the
    ones its ``objective_terms`` call already computed at the accepted
    iterate. Without them they are evaluated here, by the same path.
    """
    x_t = np.asarray(x_t)
    scene = ctx.scene
    w = ctx.weights
    if kernels is None:
        kernels = radar_kernels(x_t, scene)
    p = scene.targets.max_lag
    coef = ctx.lag_weights * kernels.corr[p - 1 :].conj()
    a = scene.steer_targets
    blocks = a.T @ coef.transpose(0, 2, 1) @ a.conj()  # sum coef[q,q'] a_q' a_q^H
    if w.w_bp > 0:
        n_tx = scene.geometry.n_tx
        beta = kernels.beta
        c_flat = scene.c_factors.reshape(beta.size, -1)
        blocks[0] += w.w_bp * (beta @ c_flat).reshape(n_tx, n_tx)
    blocks[0] *= 0.5  # lag 0 is its own mirror image
    sub = x_t[:, None] * (0.5 * x_t.conj())  # the outer product x_t (x_t/2)^H
    sub *= ctx.e_mat if ctx.kind == MajorizerKind.DIAGONAL else ctx.lambda_quartic
    half = _lower_band(blocks, scene.block_len)
    half -= sub
    phi = half + half.conj().T
    phi *= 2.0
    return phi


def build_d(x_t: np.ndarray, phi: np.ndarray, ctx: MajorizerContext) -> np.ndarray:
    """Linear-stage majorizer direction d at x_t.

    Diagonal kind: d = 2 (Phi - diag(|Phi| 1)) x_t. Eigen kind:
    d = 2 (Phi - lambda_max(Phi) I) x_t. Over constant-modulus x, Re{x^H d}
    plus a constant majorizes x^H Phi x, tangent at x_t; MM descent never
    needs the constant, since it compares only Re{x^H d}.
    Requires a constant-modulus x_t and a Phi from ``build_phi``, which is
    exactly Hermitian by construction, so the row sums need no Hermitian
    check.
    """
    x_t = np.asarray(x_t)
    if ctx.kind == MajorizerKind.DIAGONAL:
        bound = np.abs(phi).sum(axis=1)
    else:
        bound = float(np.linalg.eigvalsh(phi)[-1])
    return 2.0 * (phi @ x_t - bound * x_t)
