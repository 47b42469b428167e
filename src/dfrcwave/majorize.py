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

With none beyond lag 0 (beam pattern only, or P = 1) the band is one lag
wide and no N x N matrix is formed. Phi = I_L (x) S - 2 E (.) x_t x_t^H
(diagonal kind) or I_L (x) S - 2 lambda_Psi x_t x_t^H (eigen kind), and
E = I_L (x) E_0 is block-diagonal, so ``build_phi`` returns only the
N_T x N_T block S and the context keeps only E_0. The diagonal ``build_d``
works on the L diagonal blocks S - 2 E_0 (.) x_l x_l^H of Phi, and the
eigen one takes Phi x_t from S and the rank-one term and lambda_max(Phi)
from S alone (interlacing, for L >= 2), in O(L N_T^2) per iteration.

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
    the scene's Kronecker factors and the correlation-term weights
    ``lag_weights`` (shape (P, Q, Q), from the function of that name), so
    those are the only other things kept, with ``band``, the number of
    block lags Phi spans (1 <= band <= min(P, L)): lag 0 and every lag up
    to the last one with a nonzero correlation weight. ``correlations`` is
    false when every correlation weight is zero; the MM step then
    evaluates no correlations. ``e_mat`` is the N x N E, or its N_T x N_T
    lag-0 block E_0 when the band is one lag wide (E = I_L (x) E_0); it
    stays float64. Every array held is read-only, and so is ``e0_twice``,
    built from ``e_mat`` on first read.
    """

    kind: MajorizerKind
    weights: Weights
    scene: RadarScene
    lag_weights: np.ndarray
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
    lag_w.setflags(write=False)
    band = _band_width(lag_w, scene.block_len)
    grams = _lag_grams(scene, weights.w_bp, lag_w, band)
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
        kind=kind, weights=weights, scene=scene, lag_weights=lag_w, band=band,
        correlations=bool(lag_w.any()), e_mat=e_mat, lambda_quartic=lam,
    )


def build_phi(
    x_t: np.ndarray, ctx: MajorizerContext, terms: Optional[ObjectiveTerms] = None
) -> np.ndarray:
    """Quadratic-stage majorizer matrix Phi at the expansion point x_t.

    Phi = 2 (w_bp Phi1 + w_ac Phi2 + w_cc Phi3 - E (.) x_t x_t^H) for the
    diagonal kind; the eigen kind replaces the subtracted term with
    lambda_Psi x_t x_t^H. The cost part sum_k c_k conj(x_t^H M_k x_t) M_k
    is block-banded: its blocks below the diagonal come from the
    correlations and the C_u, and the blocks above are their Hermitian
    transposes. The ``ctx.band`` lag blocks cost O(band Q^2 N_T^2 +
    U N_T^2), and the dense assembly O(N^2). Phi is returned as
    2 (H + H^H) for one half H, which makes it exactly Hermitian.

    With a one-lag band only the N_T x N_T block S of Phi = I_L (x) S -
    2 E (.) x_t x_t^H (or - 2 lambda_Psi x_t x_t^H) is returned, as
    h0 + h0^H for the lag-0 block h0, also exactly Hermitian; ``build_d``
    adds the subtracted term itself.

    The coefficients x_t^H M_k x_t are read from ``terms.beta`` and
    ``terms.corr``, for the :class:`~dfrcwave.radar.ObjectiveTerms` of x_t;
    the MM loop passes the ones it already evaluated at the accepted
    iterate. Without them they are evaluated here, by
    ``objective_terms(x_t, ctx.scene, ctx.correlations)``. The correlations
    are read only when ``ctx.correlations`` is set.
    """
    x_t = np.asarray(x_t)
    scene = ctx.scene
    w = ctx.weights
    if terms is None:
        terms = objective_terms(x_t, scene, ctx.correlations)
    n_tx, band = scene.geometry.n_tx, ctx.band
    if w.w_bp > 0:
        bp = w.w_bp * (terms.beta @ scene.c_flat).reshape(n_tx, n_tx)
    if ctx.correlations:
        p = scene.targets.max_lag
        coef = ctx.lag_weights[:band] * terms.corr[p - 1 : p - 1 + band].conj()
        # sum coef[q,q'] a_q' a_q^H
        blocks = scene.steer_targets.T @ coef.transpose(0, 2, 1) @ scene.steer_targets_conj
        if w.w_bp > 0:
            blocks[0] += bp
        h0 = blocks[0]
    else:
        h0 = bp  # w_bp > 0: lag_weights rejects weights with no active term
    if band == 1:
        # 2 (h0/2 + (h0/2)^H) of the banded form (halving and doubling are exact)
        return h0 + h0.conj().T
    h0 *= 0.5  # lag 0 is its own mirror image
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
    d = 2 (Phi - lambda_max(Phi) I) x_t, with lambda_max read by
    ``_top_eigenvalue`` from ``eigvalsh_lo``, the LAPACK kernel of
    ``np.linalg.eigvalsh``, to the same bits. Over constant-modulus x, Re{x^H d}
    plus a constant majorizes x^H Phi x, tangent at x_t; MM descent never
    needs the constant, since it compares only Re{x^H d}.
    Requires a constant-modulus x_t and a ``phi`` from ``build_phi`` for
    ``ctx``, which is exactly Hermitian by construction, so the row sums
    need no Hermitian check.

    With a one-lag band ``phi`` is the block S. Diagonal kind: Phi is
    block-diagonal, with the L blocks S - 2 E_0 (.) x_l x_l^H for the
    N_T-entry blocks x_l of x_t, which give Phi x_t and the row sums in
    one batched pass. Eigen kind: Phi x_t = (I_L (x) S) x_t -
    2 lambda_Psi ||x_t||^2 x_t. For L >= 2 every eigenvalue of I_L (x) S
    repeats L times and the rank-one PSD downdate lowers at most one copy
    (interlacing), so lambda_max(Phi) is lambda_max(S); for L = 1, Phi is
    S - 2 lambda_Psi x_t x_t^H itself.
    """
    x_t = np.asarray(x_t)
    diagonal = ctx.kind == MajorizerKind.DIAGONAL
    xs = x_t if ctx.band > 1 else x_t.reshape(-1, phi.shape[0])  # one lag: row l is x_l
    if ctx.band > 1:
        bound = np.abs(phi).sum(axis=1) if diagonal else _top_eigenvalue(phi)
        phi_x = phi @ x_t
    elif diagonal:
        blocks = xs[:, :, None] * xs[:, None, :].conj()
        blocks *= ctx.e0_twice
        np.subtract(phi, blocks, out=blocks)  # S - 2 E_0 (.) x_l x_l^H
        phi_x = (blocks @ xs[:, :, None])[:, :, 0]
        bound = np.add.reduce(np.abs(blocks), 2)  # .sum(axis=2) without its wrapper
    else:
        lam2 = 2.0 * ctx.lambda_quartic
        phi_x = xs @ phi.T - (lam2 * np.vdot(x_t, x_t).real) * xs
        s = phi if xs.shape[0] > 1 else phi - lam2 * np.outer(x_t, x_t.conj())
        bound = _top_eigenvalue(s)
    phi_x -= bound * xs
    phi_x *= 2.0
    return phi_x.reshape(-1)
