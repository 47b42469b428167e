"""Brute-force reference implementations used by tests and acceptance runs.

Everything here is deliberately naive and shares no code with the library
paths it certifies: steering vectors, shift matrices, and the quadratic
cost matrices are rebuilt from their definitions with explicit loops, the
CI constraint matrix is built dense (``dense_h_tilde``), and the quartic
kernel Psi is materialized densely (capped at N <= PSI_CAP, else
``CapacityError``). Above that cap, ``psi_row_sums``,
``psi_top_eigenvalue`` and ``dense_phi`` reach Psi through its rank-one
terms instead, which stays practical up to about N = 100; ``phi_from_blocks``
expands the lag blocks that stand for Phi in the library, for any band.
The reference checks live here too: ``diagonal_upper_bound`` (the row-sum
bound on a checked Hermitian matrix), ``geometric_ci_check`` (the
decision-region form of the CI condition) and ``monte_carlo_ser`` (symbol error rates
simulated over the noisy downlink, a physical check of the CI rows that
reads neither them nor their thresholds).

``reference_dual_ascent`` keeps an earlier probe formulation of the dual
coordinate ascent (multipliers in a numpy vector, per-probe indexing and
``float()`` conversion) and runs the plain bisection listing
(``_bisect_root``) on every row, with no skipped rows or blocks: the
paper's algorithm, which ``solver.dual_ascent_sweep`` must be no worse
than. The solver's root step is not the listing, so the tests hold each
update to the listing's contract and each sweep's dual value to the
listing's, not bit for bit. It shares only the closed form x(nu) with the
solver, and reads the modulus from the constraint set's ``amp`` as the
solver does. ``_best_phase`` is the plain listing of the repairs' phase search,
which ``solver._best_phase`` must match bit for bit; it shares only the
solver's phase grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dfrcwave import solver
from dfrcwave.comm import CIConstraintSet, CommSetup, ci_margin
from dfrcwave.model import Weights
from dfrcwave.radar import RadarScene


class CapacityError(RuntimeError):
    """A dense computation was requested above its documented size cap."""


#: Largest N = L * n_tx for which the dense N^2 x N^2 kernel is assembled.
PSI_CAP = 16

#: Rows of Psi formed at a time by the streamed row-sum pass.
_ROW_CHUNK = 256


def _steer(n_tx: int, spacing: float, theta_deg: float) -> np.ndarray:
    theta = theta_deg * np.pi / 180.0
    return np.array(
        [np.exp(2j * np.pi * spacing * k * np.sin(theta)) for k in range(n_tx)]
    )


def _shift(tau: int, length: int) -> np.ndarray:
    j = np.zeros((length, length))
    for i in range(length):
        for k in range(length):
            if k - i == tau:
                j[i, k] = 1.0
    return j


def _vec(m: np.ndarray) -> np.ndarray:
    n_rows, n_cols = m.shape
    out = np.empty(n_rows * n_cols, dtype=complex)
    for c in range(n_cols):
        out[c * n_rows : (c + 1) * n_rows] = m[:, c]
    return out


def _a_mats(scene: RadarScene) -> list[np.ndarray]:
    """A_u = I_L kron a(theta_u) a^H(theta_u) for every grid angle."""
    geo = scene.geometry
    eye = np.eye(scene.block_len)
    out = []
    for theta in scene.grid.angles_deg:
        a = _steer(geo.n_tx, geo.spacing, theta)
        out.append(np.kron(eye, np.outer(a, a.conj())))
    return out


def _b_mats(scene: RadarScene) -> list[np.ndarray]:
    """B_u from the closed-form alpha elimination, built from the A_u."""
    a_mats = _a_mats(scene)
    gd = scene.desired.values
    denom = sum(g * g for g in gd)
    s = sum(g * a for g, a in zip(gd, a_mats))
    return [gd[u] * s / denom - a_mats[u] for u in range(len(a_mats))]


def _d_mats(scene: RadarScene) -> dict[tuple[int, int, int], np.ndarray]:
    """D_{tau,q,q'} = J_{-tau} kron a(theta_q') a^H(theta_q), keyed (tau, q, q')."""
    geo = scene.geometry
    steers = [_steer(geo.n_tx, geo.spacing, th) for th in scene.targets.angles_deg]
    p = scene.targets.max_lag
    out = {}
    for tau in range(-p + 1, p):
        j_neg = _shift(-tau, scene.block_len)
        for q, a_q in enumerate(steers):
            for qp, a_qp in enumerate(steers):
                out[(tau, q, qp)] = np.kron(j_neg, np.outer(a_qp, a_q.conj()))
    return out


@dataclass(frozen=True)
class DenseQuartic:
    """Dense quartic kernel: g(x) = vec^H(x x^H) Psi vec(x x^H)."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi)
        if np.abs(psi - psi.conj().T).max(initial=0.0) > 1e-10 * max(
            1.0, np.abs(psi).max(initial=0.0)
        ):
            raise ValueError("Psi must be Hermitian")
        object.__setattr__(self, "psi", psi)

    def evaluate(self, x: np.ndarray) -> float:
        v = _vec(np.outer(np.asarray(x), np.asarray(x).conj()))
        return float((v.conj() @ self.psi @ v).real)


def _psi_terms(scene: RadarScene, weights: Weights) -> list[tuple[float, np.ndarray]]:
    """(c_k, M_k) for every cost term with a positive weight."""
    terms = []
    if weights.w_bp > 0:
        terms += [(weights.w_bp, b) for b in _b_mats(scene)]
    for (tau, q, qp), d in _d_mats(scene).items():
        if q == qp and tau != 0 and weights.w_ac > 0:
            terms.append((weights.w_ac, d))
        if q != qp and weights.w_cc > 0:
            terms.append((weights.w_cc, d))
    return terms


def assemble_psi(scene: RadarScene, weights: Weights) -> DenseQuartic:
    """Materialize Psi = sum_k c_k vec(M_k) vec^H(M_k) over all cost terms."""
    n = scene.n
    if n > PSI_CAP:
        raise CapacityError(f"dense Psi assembly is capped at N <= {PSI_CAP}, got {n}")
    psi = np.zeros((n * n, n * n), dtype=complex)
    for c, m in _psi_terms(scene, weights):
        v = _vec(m)
        psi += c * np.outer(v, v.conj())
    return DenseQuartic(psi=psi)


def _scaled_term_vectors(scene: RadarScene, weights: Weights) -> np.ndarray:
    """Rows sqrt(c_k) vec(M_k), so that Psi = A^T conj(A) for this A."""
    terms = _psi_terms(scene, weights)
    out = np.zeros((len(terms), scene.n * scene.n), dtype=complex)
    for k, (c, m) in enumerate(terms):
        out[k] = np.sqrt(c) * _vec(m)
    return out


def psi_row_sums(scene: RadarScene, weights: Weights) -> np.ndarray:
    """Row sums |Psi| 1 (length N^2), streamed in row chunks without storing Psi."""
    a = _scaled_term_vectors(scene, weights)
    n2 = a.shape[1]
    out = np.empty(n2)
    for start in range(0, n2, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, n2)
        rows = a[:, start:stop].T @ a.conj()
        out[start:stop] = np.abs(rows).sum(axis=1)
    return out


def psi_top_eigenvalue(scene: RadarScene, weights: Weights) -> float:
    """lambda_max(Psi) from the T x T Gram matrix of the term vectors.

    Psi = A^T conj(A) and conj(A) A^T share their nonzero spectrum.
    """
    a = _scaled_term_vectors(scene, weights)
    return float(np.linalg.eigvalsh(a.conj() @ a.T)[-1])


def dense_phi(x_t, scene: RadarScene, weights: Weights, kind: str) -> np.ndarray:
    """Quadratic-stage majorizer Phi at x_t, from the dense term matrices.

    Phi = 2 (mat(Psi vec(x_t x_t^H)) - S), where mat(Psi vec(x x^H)) =
    sum_k c_k conj(x^H M_k x) M_k, and S is mat(|Psi| 1) (.) x_t x_t^H for
    the diagonal kind or lambda_max(Psi) x_t x_t^H for the eigen kind.
    """
    x = np.asarray(x_t)
    n = scene.n
    quad = np.zeros((n, n), dtype=complex)
    for c, m in _psi_terms(scene, weights):
        quad += c * np.conj(x.conj() @ m @ x) * m
    outer = np.outer(x, x.conj())
    if kind == "diagonal":
        sub = psi_row_sums(scene, weights).reshape((n, n), order="F") * outer
    else:
        sub = psi_top_eigenvalue(scene, weights) * outer
    return 2.0 * (quad - sub)


def phi_from_blocks(blocks, x_t, ctx) -> np.ndarray:
    """Dense Phi from the lag blocks K_tau that ``build_phi`` returns, for
    any band: K + K^H - 2 E (.) x_t x_t^H with K = sum_tau J_{-tau} (x) K_tau
    for the diagonal kind (a one-lag context holds E_0, and E = I_L (x) E_0),
    K + K^H - 2 lambda_Psi x_t x_t^H for the eigen kind."""
    x = np.asarray(x_t)
    length = ctx.scene.block_len
    k = sum(np.kron(np.eye(length, k=-tau), block) for tau, block in enumerate(blocks))
    if ctx.kind == "diagonal":
        weight = np.kron(np.eye(length), ctx.e_mat) if ctx.band == 1 else ctx.e_mat
    else:
        weight = ctx.lambda_quartic
    return k + k.conj().T - 2.0 * weight * np.outer(x, x.conj())


def beampattern_mse(x, scene: RadarScene, alpha: float) -> float:
    """Direct pattern-matching MSE sum_u |alpha G_d(theta_u) - G(x, theta_u)|^2."""
    x = np.asarray(x)
    if x.ndim == 2:
        x = _vec(x)
    total = 0.0
    for a_u, g_d in zip(_a_mats(scene), scene.desired.values):
        achieved = (x.conj() @ a_u @ x).real
        total += abs(alpha * g_d - achieved) ** 2
    return total


def grid_alpha(x, scene: RadarScene, n_grid: int = 10_000) -> float:
    """Best scale on a dense grid over [0, 2 * max achieved pattern]."""
    if n_grid < 1000:
        raise ValueError("grid search needs at least 1000 candidates")
    x = np.asarray(x)
    if x.ndim == 2:
        x = _vec(x)
    achieved = np.array(
        [(x.conj() @ a_u @ x).real for a_u in _a_mats(scene)]
    )
    gd = scene.desired.values
    candidates = np.linspace(0.0, 2.0 * max(achieved.max(), 0.0), n_grid)
    mse = ((candidates[:, None] * gd[None, :] - achieved[None, :]) ** 2).sum(axis=1)
    return float(candidates[np.argmin(mse)])


def direct_correlation(x, scene: RadarScene, tau: int, q: int, q_prime: int) -> float:
    """chi_{tau,q,q'} from the definition, with explicitly built J and steering."""
    x = np.asarray(x)
    X = x if x.ndim == 2 else x.reshape((scene.geometry.n_tx, -1), order="F")
    geo = scene.geometry
    a_q = _steer(geo.n_tx, geo.spacing, scene.targets.angles_deg[q])
    a_qp = _steer(geo.n_tx, geo.spacing, scene.targets.angles_deg[q_prime])
    val = a_q.conj() @ X @ _shift(tau, X.shape[1]) @ X.conj().T @ a_qp
    return float(abs(val) ** 2)


def direct_isls(x, scene: RadarScene) -> tuple[float, float]:
    """(autocorrelation ISL, cross-correlation ISL) by direct triple loops."""
    p = scene.targets.max_lag
    q_n = scene.targets.n_targets
    g_ac = 0.0
    for q in range(q_n):
        for tau in range(-p + 1, p):
            if tau != 0:
                g_ac += direct_correlation(x, scene, tau, q, q)
    g_cc = 0.0
    for q in range(q_n):
        for qp in range(q_n):
            if q == qp:
                continue
            for tau in range(-p + 1, p):
                g_cc += direct_correlation(x, scene, tau, q, qp)
    return g_ac, g_cc


def dense_h_tilde(setup: CommSetup) -> np.ndarray:
    """The dense CI matrix, row m = h~_m^H (shape 2KL x N), row by row.

    Row m = (2l + half) K + k is conj(s_kl) h_k^H (sin(pi/M) -+ j cos(pi/M))
    on the entries of symbol block l (minus for half = 0), zero elsewhere.
    """
    k_users, n_tx = setup.channels.shape
    length = setup.symbols.shape[1]
    lam = np.pi / setup.m_points
    factors = (np.sin(lam) - 1j * np.cos(lam), np.sin(lam) + 1j * np.cos(lam))
    out = np.zeros((2 * k_users * length, n_tx * length), dtype=complex)
    for ell in range(length):
        for half, factor in enumerate(factors):
            for k in range(k_users):
                row = np.conj(setup.channels[k]) * np.conj(setup.symbols[k, ell]) * factor
                out[(2 * ell + half) * k_users + k, ell * n_tx : (ell + 1) * n_tx] = row
    return out


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


def monte_carlo_ser(x, setup: CommSetup, trials: int, seed) -> np.ndarray:
    """Per-user symbol error rate of design x over the noisy downlink, simulated.

    Symbol l of user k is sent ``trials`` times: the user receives
    y = h_k^H x_l + n with n ~ CN(0, sigma^2), x_l being the n_tx entries of
    symbol block l, and detects the nearest point of the M-PSK
    constellation that holds its symbol s_kl. Returns the fraction of
    wrong detections per user, shape (K,).
    """
    k_users, n_tx = setup.channels.shape
    blocks = np.asarray(x).reshape(-1, n_tx)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(setup.sigma2 / 2.0)  # per real dimension
    turns = np.exp(2j * np.pi * np.arange(setup.m_points) / setup.m_points)
    errors = np.zeros(k_users)
    for k in range(k_users):
        for ell, s in enumerate(setup.symbols[k]):
            noise = scale * (rng.standard_normal(trials) + 1j * rng.standard_normal(trials))
            y = np.vdot(setup.channels[k], blocks[ell]) + noise
            nearest = np.abs(y[:, None] - s * turns).argmin(axis=1)  # 0 is s itself
            errors[k] += np.count_nonzero(nearest)
    return errors / (trials * setup.block_len)


def phase_bruteforce(
    d: np.ndarray,
    h_tilde_weighted: np.ndarray,
    n_phases: int = 10_000,
) -> np.ndarray:
    """Per-entry grid argmin of the inner Lagrangian Re{x^H (d - sum nu_m h~_m)}.

    The Lagrangian separates across entries under the modulus constraint, so
    each phase is searched independently on ``n_phases`` equispaced points.
    Returns the phase vector.
    """
    coef = np.asarray(d) - np.asarray(h_tilde_weighted)
    grid = 2 * np.pi * np.arange(n_phases) / n_phases
    # Re{e^{-j phi} c} for all candidate phases and entries
    scores = np.cos(grid)[:, None] * coef.real[None, :] + np.sin(grid)[:, None] * coef.imag[None, :]
    return grid[np.argmin(scores, axis=0)]


def diagonal_upper_bound(q_mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Row sums of |Q| for Hermitian Q; diag of the result dominates Q in the PSD order.

    Raises ValueError when Q is not Hermitian to within ``tol`` (relative,
    |a - b| <= tol * max(1, |a|, |b|)).
    """
    q_mat = np.asarray(q_mat)
    if q_mat.ndim != 2 or q_mat.shape[0] != q_mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q_mat.shape}")
    scale = max(1.0, float(np.abs(q_mat).max(initial=0.0)))
    asym = float(np.abs(q_mat - q_mat.conj().T).max(initial=0.0))
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} vs scale {scale:.3e}")
    return np.abs(q_mat).sum(axis=1)


def power_iteration(mat: np.ndarray, seed: int = 0, tol: float = 1e-12, max_iters: int = 200_000) -> float:
    """Largest eigenvalue of a Hermitian PSD matrix by plain power iteration."""
    rng = np.random.default_rng(seed)
    n = mat.shape[0]
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        lam_new = float((v.conj() @ mat @ v).real)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def _bisect_root(residual, eps2: float, max_iters: int):
    """One multiplier update exactly as in the bisection listing.

    Returns (value, bracketed, predicate_met). On a bracketing failure the
    value is the last doubled upper bound; on a predicate failure it is the
    feasible (residual <= 0) side of the final interval.
    """
    if residual(0.0) <= 0:
        return 0.0, True, True
    lo, hi = 0.0, 1.0
    r_hi = residual(hi)
    if r_hi > 0:
        doubles = 0
        while r_hi > 0:
            if doubles >= max_iters:
                return hi, False, False
            hi *= 2.0
            r_hi = residual(hi)
            doubles += 1
        lo = hi / 2.0
    half_eps = eps2 / 2.0
    steps = 0
    while steps < max_iters:
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        steps += 1
        if r > 0:
            lo = mid
        else:
            hi = mid
        # the listing's stop rule plus the exact-root boundary it excludes
        if r == 0.0 or abs(r + half_eps) < half_eps:
            return mid, True, True
    return hi, True, False


def _best_phase(
    base: np.ndarray,
    col: np.ndarray,
    d_n: np.ndarray,
    amp: float,
    phi_now: np.ndarray,
) -> np.ndarray:
    """Phase for entry n of each block in a batch, on a coarse grid with refinement.

    The plain listing of ``solver._best_phase``, on the solver's grid
    (``_COARSE_PHIS``, ``_COARSE_UNITS``, ``_GRID_OFFSETS``): each level
    joins its candidates and the current phase with ``np.concatenate`` and
    picks with ``np.where`` over both the argmin and the argmax.

    ``base`` (B, R) holds each block's margins with entry n removed; a
    candidate phase adds amp * Re{col e^{j phi}} to them. The current
    phase ``phi_now`` competes at every level. Feasible candidates are
    ranked by Re{x_n^* d_n}, so a block that is feasible stays feasible
    and its objective contribution never increases; with none feasible,
    the phase of largest minimum margin wins.
    """
    n_batch = base.shape[0]
    batch = np.arange(n_batch)
    now_phi = phi_now[:, None]
    now_unit = np.exp(1j * now_phi)
    grid = np.broadcast_to(solver._COARSE_PHIS, (n_batch, solver._COARSE_PHIS.size))
    grid_units = np.broadcast_to(solver._COARSE_UNITS, grid.shape)
    for level, offsets in enumerate(solver._GRID_OFFSETS):
        if level:
            grid = best[:, None] + offsets
            grid_units = np.exp(1j * grid)
        phis = np.concatenate([grid, now_phi], axis=1)
        units = np.concatenate([grid_units, now_unit], axis=1)
        # (B, R, C): the minimum over rows runs along a contiguous candidate axis
        margins = base[:, :, None] + amp * np.real(col[:, :, None] * units[:, None, :])
        min_margin = margins.min(axis=1)
        feasible = min_margin >= 0
        score = amp * np.real(units.conj() * d_n[:, None])
        score[~feasible] = np.inf
        pick = np.where(
            feasible.any(axis=1), np.argmin(score, axis=1), np.argmax(min_margin, axis=1)
        )
        best = phis[batch, pick]
    return best


def reference_dual_ascent(
    nu: np.ndarray,
    d: np.ndarray,
    constraints: CIConstraintSet,
) -> solver.DualAscentResult:
    """``solver.dual_ascent_sweep`` with the probe loop it had over a numpy ``nu``.

    Each probe indexes the multiplier out of the numpy vector, converts the
    step with ``float()`` and walks row m's (conj h, h) pairs from its
    block start; sweeps and stopping rules are as in the solver, read from
    its constants at call time, and x is x(nu), unrepaired.
    """
    n_tx, amp = constraints.n_tx, constraints.amp
    d = np.asarray(d)
    nu = np.array(nu, dtype=float, copy=True)
    per_block = constraints.rows.shape[1]
    pairs = [list(zip(r.conj().tolist(), r.tolist())) for r in constraints.rows.reshape(-1, n_tx)]
    starts = [m // per_block * n_tx for m in range(len(pairs))]
    gamma = constraints.thresholds.ravel().tolist()
    coef = (solver._weighted_rows(constraints, nu) - d).tolist()

    def residual(m: int, nu_trial: float) -> float:
        nonlocal evals_total
        evals_total += 1
        delta = float(nu_trial - nu[m])
        start = starts[m]
        acc = 0.0
        for i, (col_i, row_i) in enumerate(pairs[m]):
            c = coef[start + i] + delta * col_i
            mag = abs(c)
            unit = c / mag if mag != 0.0 else 1.0 + 0.0j
            acc += (row_i * unit).real
        return gamma[m] - amp * acc

    bracket_bad: set[int] = set()
    evals_total = 0
    prev = math.inf
    converged = False
    sweeps = 0
    while sweeps < solver.MAX_SWEEPS:
        nu_before = nu.copy()
        for m in range(constraints.n_rows):
            value, bracketed, _ = _bisect_root(
                lambda v: residual(m, v), solver.EPS2, solver.MAX_BISECT_ITERS
            )
            delta = float(value - nu[m])
            if delta != 0.0:
                for i, (col_i, _) in enumerate(pairs[m]):
                    coef[starts[m] + i] += delta * col_i
                nu[m] = value
            if not bracketed:
                bracket_bad.add(m)
        sweeps += 1
        coef = (solver._weighted_rows(constraints, nu) - d).tolist()
        x = solver.solve_inner(nu, d, constraints)
        resid = -ci_margin(x, constraints)
        g_hat = float((x.conj() @ d).real + nu @ resid)
        if not np.any(nu != nu_before):
            converged = True
            break
        if math.isfinite(prev):
            denom = abs(prev) if prev != 0 else 1.0
            if abs(g_hat - prev) / denom < solver.EPS1:
                converged = True
                break
        prev = g_hat
    return solver.DualAscentResult(
        nu=nu,
        x=x,
        sweeps=sweeps,
        bisection_evals=evals_total,
        converged=converged,
        bracket_failures=tuple(sorted(bracket_bad)),
        restored=bool(resid.max() > 0),
    )
