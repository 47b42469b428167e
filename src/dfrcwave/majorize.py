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
independent of L. Phi is block-banded the same way and is assembled from
one small block per lag of its band, with no cap on N. The band ends at the
last lag with a nonzero correlation weight.

Each MM step is two calls. ``build_phi`` returns the lag blocks K_tau,
tau = 0 .. band - 1, of the lower half K = sum_tau J_{-tau} (x) K_tau of
Phi's cost part 2 mat(Psi vec(x_t x_t^H)) = K + K^H: one (band, N_T, N_T)
stack for every band and kind. ``build_d`` alone turns it into d. It
subtracts 2 E (.) x_t x_t^H (diagonal kind) or 2 lambda_Psi x_t x_t^H
(eigen kind) and takes the bound on Phi's diagonal blocks. With a wider
band that is the one N x N Phi = K + K^H - 2 E (.) x_t x_t^H. With none
beyond lag 0 (beam pattern only, or P = 1) the band is one lag wide, and
no N x N matrix is formed: Phi = I_L (x) S - 2 E (.) x_t x_t^H (or
- 2 lambda_Psi x_t x_t^H) for S = K_0 + K_0^H, and E = I_L (x) E_0 is
block-diagonal, so the context keeps only E_0. The diagonal kind's blocks
are then the L blocks S - 2 E_0 (.) x_l x_l^H, and one batched expression
gives Phi x_t and the row sums of |Phi| for either band. The eigen kind
takes Phi x_t from S and the rank-one term, and lambda_max(Phi) from S
alone (interlacing, for L >= 2), in O(L N_T^2) per iteration.

Every top eigenvalue (each lambda_max(G_delta) of the context, and
lambda_max(Phi) or lambda_max(S) in the eigen ``build_d``) is read from
``numpy.linalg._umath_linalg.eigvalsh_lo``, the LAPACK gufunc (``zheevd``
on the lower triangle) that ``np.linalg.eigvalsh`` calls with its default
UPLO 'L': the same bits, without the public wrapper's per-call checks,
which at N_T = 4 cost more than the LAPACK call itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dfrcwave.model import MajorizerKind, Weights
from dfrcwave.radar import ObjectiveTerms, RadarScene, objective_terms


#: The LAPACK gufunc np.linalg.eigvalsh dispatches to for UPLO 'L'.
_EIGVALSH_LO = np.linalg._umath_linalg.eigvalsh_lo


def _top_eigenvalue(s: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian ``s`` (its lower triangle read).

    Bit for bit ``float(np.linalg.eigvalsh(s)[-1])`` for a complex128 ``s``:
    the same kernel, ``eigvalsh_lo``, which type resolution sends to the
    'D->d' loop ``eigvalsh`` names, at less cost than parsing a signature.
    Where LAPACK fails (most matrices with a non-finite entry) the kernel
    returns NaN; this raises ``np.linalg.LinAlgError`` there, as ``eigvalsh``
    does, and on any other NaN top (a 1 x 1 NaN), with no floating-point warning.
    """
    with np.errstate(all="ignore"):
        top = float(_EIGVALSH_LO(s)[-1])
    if math.isnan(top):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return top


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


def _band_width(lag_w: np.ndarray, block_len: int) -> int:
    """Number of block lags in Phi's band: lag 0, then up to the last lag
    tau < min(P, L) whose correlation weights in ``lag_w`` are not all zero."""
    active = np.flatnonzero(lag_w[:block_len].any(axis=(1, 2)))
    return int(active[-1]) + 1 if active.size else 1


def _lag_grams(scene: RadarScene, w_bp: float, lag_w: np.ndarray, band: int) -> np.ndarray:
    """(L - tau) G_{-tau} for the lags -tau, tau = 0 .. band - 1.

    ``lag_w`` holds the correlation-term weights of ``lag_weights``, and
    ``band`` is at most min(P, L). Returns shape (band, N_T^2, N_T^2), with
    factors vectorized row-major. Lag -tau holds the D_{tau,q,q'} (and, at
    lag 0, the B_u); lag +tau mirrors it with the same spectrum and
    transposed row sums.
    """
    n_tx = scene.geometry.n_tx
    length = scene.block_len
    a = scene.steer_targets
    # row (q, q') is the factor a_q' a_q^H of D_{tau,q,q'}
    pair = np.einsum("pi,qj->qpij", a, a.conj()).reshape(-1, n_tx * n_tx)
    lag_w = lag_w.reshape(scene.targets.max_lag, -1)
    bp = scene.c_flat
    bp_w = np.full(bp.shape[0], float(w_bp))
    grams = []
    for tau in range(band):
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
    the scene's Kronecker factors and ``band_weights``, so those are the
    only other things kept, with ``band``, the number of block lags Phi
    spans (1 <= band <= min(P, L)): lag 0 and every lag up to the last one
    with a nonzero correlation weight. ``band_weights`` (shape
    (band, Q, Q)) holds the correlation-term weights of ``lag_weights``
    over those lags, doubled at the lags tau >= 1: the weights of
    ``build_phi``'s blocks K_tau (Phi's cost part is 2 C for
    C = mat(Psi vec(x_t x_t^H)); K_0 + K_0^H doubles C's lag-0 block, and
    the weights double its blocks below the diagonal). ``correlations`` is
    false when every correlation weight is zero; the MM step then
    evaluates no correlations. ``e_mat`` is the N x N E, or its N_T x N_T
    lag-0 block E_0 when the band is one lag wide (E = I_L (x) E_0); it
    stays float64. ``build_phi`` reads no kind, E or lambda_Psi: only
    ``build_d`` does. Every array held is read-only, and so is
    ``e0_twice``, built from ``e_mat`` on first read.
    """

    kind: MajorizerKind
    weights: Weights
    scene: RadarScene
    band_weights: np.ndarray
    band: int
    correlations: bool
    e_mat: Optional[np.ndarray] = None
    lambda_quartic: Optional[float] = None

    @functools.cached_property
    def e0_twice(self) -> np.ndarray:
        """2 ``e_mat`` (diagonal kind): 2 E_0, the operand the one-lag diagonal ``build_d`` reads."""
        twice = 2.0 * self.e_mat
        twice.setflags(write=False)
        return twice


def build_majorizer_context(
    scene: RadarScene, weights: Weights, kind
) -> MajorizerContext:
    """Precompute everything x_t-independent for the requested majorizer kind.

    Diagonal kind: E = mat(|Psi| 1) is block-Toeplitz, with the block
    (L - |delta|) mat(|G_delta| 1) at lag delta, assembled as E_low + E_low^T
    from its lower band (only the lag-0 block for a one-lag band). Eigen
    kind: lambda_Psi is the largest (L - |delta|) lambda_max(G_delta),
    clipped at zero. ``kind`` is a
    ``MajorizerKind`` or its value; any other raises ValueError.
    """
    kind = MajorizerKind(kind)
    lag_w = lag_weights(scene, weights)
    band = _band_width(lag_w, scene.block_len)
    grams = _lag_grams(scene, weights.w_bp, lag_w, band)
    band_w = np.concatenate([lag_w[:1], 2.0 * lag_w[1:band]])
    band_w.setflags(write=False)
    e_mat = lam = None
    if kind == MajorizerKind.DIAGONAL:
        n_tx = scene.geometry.n_tx
        blocks = np.abs(grams).sum(axis=2).reshape(-1, n_tx, n_tx)
        blocks[0] *= 0.5  # lag 0 is its own mirror image
        lower = blocks[0] if band == 1 else _lower_band(blocks, scene.block_len)
        e_mat = lower + lower.T
        e_mat.setflags(write=False)
    else:
        top = max(_top_eigenvalue(g) for g in grams)
        lam = max(top, 0.0)
    return MajorizerContext(
        kind=kind, weights=weights, scene=scene, band_weights=band_w, band=band,
        correlations=bool(lag_w.any()), e_mat=e_mat, lambda_quartic=lam,
    )


def build_phi(
    x_t: np.ndarray, ctx: MajorizerContext, terms: Optional[ObjectiveTerms] = None
) -> np.ndarray:
    """Lag blocks of the quadratic-stage majorizer Phi's cost part at x_t.

    Phi = 2 (w_bp Phi1 + w_ac Phi2 + w_cc Phi3 - E (.) x_t x_t^H) for the
    diagonal kind; the eigen kind replaces the subtracted term with
    lambda_Psi x_t x_t^H. The cost part 2 sum_k c_k conj(x_t^H M_k x_t) M_k
    is block-banded, K + K^H for K = sum_tau J_{-tau} (x) K_tau, and this
    returns the stack of the K_tau, shape (ctx.band, N_T, N_T), for every
    band and kind. K_tau for tau >= 1 is the cost part's block tau block
    rows below the diagonal, from the correlations at lag -tau. The lag-0
    block K_0, from the C_u and the lag-0 correlations, is kept whole: the
    cost part has K_0 + K_0^H there. The blocks cost O(band Q^2 N_T^2 + U N_T^2).
    No kind, E or lambda_Psi is read; ``build_d`` subtracts the term that
    needs them.

    The coefficients x_t^H M_k x_t are read from ``terms.beta`` and
    ``terms.corr``, for the :class:`~dfrcwave.radar.ObjectiveTerms` of x_t;
    the MM loop passes the ones it already evaluated at the accepted
    iterate. Without them they are evaluated here, by
    ``objective_terms(x_t, ctx.scene, ctx.correlations)``. The correlations
    are read only when ``ctx.correlations`` is set, and only at the lags
    tau = 0 .. band - 1 of ``terms.corr``, which must then hold the scene's
    lags tau >= 0, shape (P, Q, Q); terms evaluated without correlations,
    terms of another scene and a (2P-1, Q, Q) stack raise ValueError.
    With w_bp > 0, ``terms.beta`` must hold one form per grid angle of the
    scene, shape (G,): a beta that the product with the scene's C_u does not
    turn into one N_T x N_T block raises ValueError.
    """
    scene, w_bp = ctx.scene, ctx.weights.w_bp
    if terms is None:
        terms = objective_terms(x_t, scene, ctx.correlations)
    if w_bp > 0:
        n_tx = scene.geometry.n_tx
        try:  # numpy's own shape checks, free on the valid path, name no expected shape
            bp = w_bp * (terms.beta @ scene.c_flat).reshape(1, n_tx, n_tx)
        except ValueError:
            raise ValueError(
                f"build_phi needs the beam-pattern forms x^H B_u x of the scene's grid, "
                f"shape {scene.grid.angles_deg.shape}; got shape {np.shape(terms.beta)}"
            ) from None
    if not ctx.correlations:
        return bp  # w_bp > 0: lag_weights rejects weights with no active term
    corr, q_n = terms.corr, scene.targets.n_targets
    want = (scene.targets.max_lag, q_n, q_n)
    if corr is None or corr.shape != want:
        got = "none" if corr is None else f"shape {corr.shape}"
        raise ValueError(
            f"build_phi needs the correlations at lags tau >= 0, shape {want}; got {got}"
        )
    coef = ctx.band_weights * corr[: ctx.band].conj()
    # sum coef[q,q'] a_q' a_q^H
    blocks = scene.steer_targets.T @ coef.transpose(0, 2, 1) @ scene.steer_targets_conj
    if w_bp > 0:
        blocks[:1] += bp
    return blocks


def _dense_phi(x_t: np.ndarray, blocks: np.ndarray, ctx: MajorizerContext) -> np.ndarray:
    """The N x N Phi = K + K^H - 2 E (.) x_t x_t^H (diagonal kind) or
    K + K^H - 2 lambda_Psi x_t x_t^H (eigen kind) for a band wider than one
    lag, from ``build_phi``'s blocks K_tau. Formed as H + H^H for
    H = K - E (.) x_t x_t^H, so it is exactly Hermitian."""
    sub = x_t[:, None] * x_t.conj()  # the outer product x_t x_t^H
    sub *= ctx.e_mat if ctx.kind == MajorizerKind.DIAGONAL else ctx.lambda_quartic
    half = _lower_band(blocks, ctx.scene.block_len)
    half -= sub
    return half + half.conj().T


def build_d(x_t: np.ndarray, blocks: np.ndarray, ctx: MajorizerContext) -> np.ndarray:
    """Linear-stage majorizer direction d at x_t, from ``build_phi``'s blocks.

    Diagonal kind: d = 2 (Phi - diag(|Phi| 1)) x_t. Eigen kind:
    d = 2 (Phi - lambda_max(Phi) I) x_t, with lambda_max read by
    ``_top_eigenvalue`` from ``eigvalsh_lo``, the LAPACK kernel of
    ``np.linalg.eigvalsh``, to the same bits. Over constant-modulus x, Re{x^H d}
    plus a constant majorizes x^H Phi x, tangent at x_t; MM descent never
    needs the constant, since it compares only Re{x^H d}.
    Requires a constant-modulus x_t and the (ctx.band, N_T, N_T) stack
    ``build_phi`` returns for ``ctx``; any other shape raises ValueError.
    ``blocks`` is never written to. Phi is exactly Hermitian by
    construction, so the row sums need no Hermitian check.

    This is the one place the subtracted term and the bound are read. The
    diagonal kind takes Phi x_t and the row sums of |Phi| in one batched
    pass over Phi's diagonal blocks: the one N x N Phi of a wider band, or,
    with a one-lag band, the L blocks S - 2 E_0 (.) x_l x_l^H for
    S = K_0 + K_0^H and the N_T-entry blocks x_l of x_t. The eigen kind of
    a wider band reads Phi x_t from the same pass and lambda_max from the
    N x N Phi. With a one-lag band it takes Phi x_t = (I_L (x) S) x_t -
    2 lambda_Psi ||x_t||^2 x_t. For L >= 2 every eigenvalue of I_L (x) S
    repeats L times and the rank-one PSD downdate lowers at most one copy
    (interlacing), so lambda_max(Phi) is lambda_max(S); for L = 1, Phi is
    S - 2 lambda_Psi x_t x_t^H itself.
    """
    x_t = np.asarray(x_t)
    n_tx = ctx.scene.geometry.n_tx
    want = (ctx.band, n_tx, n_tx)
    if blocks.shape != want:
        raise ValueError(f"build_d needs build_phi's {want} lag blocks, got shape {blocks.shape}")
    diagonal = ctx.kind == MajorizerKind.DIAGONAL
    if ctx.band == 1:
        xs = x_t.reshape(-1, n_tx)  # row l is x_l
        h0 = blocks[0]
        s = h0 + h0.conj().T
        if not diagonal:
            lam2 = 2.0 * ctx.lambda_quartic
            phi_x = xs @ s.T - (lam2 * np.vdot(x_t, x_t).real) * xs
            top = _top_eigenvalue(s if xs.shape[0] > 1 else s - lam2 * np.outer(x_t, x_t.conj()))
            phi_x -= top * xs
            phi_x *= 2.0
            return phi_x.reshape(-1)
        phis = xs[:, :, None] * xs[:, None, :].conj()
        phis *= ctx.e0_twice
        np.subtract(s, phis, out=phis)  # S - 2 E_0 (.) x_l x_l^H
    else:
        xs = x_t[None]
        phis = _dense_phi(x_t, blocks, ctx)[None]  # one diagonal block: the N x N Phi
    phi_x = (phis @ xs[:, :, None])[:, :, 0]
    # .sum(axis=2) without its wrapper
    bound = np.add.reduce(np.abs(phis), 2) if diagonal else _top_eigenvalue(phis[0])
    phi_x -= bound * xs
    phi_x *= 2.0
    return phi_x.reshape(-1)
