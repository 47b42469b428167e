"""Lagrange-dual inner solver and the outer MM loop.

Each MM iteration linearizes the radar cost to Re{x^H d} and solves

    min_x Re{x^H d}  s.t.  Re{h~_m^H x} >= Gamma_m,  |x_n| = sqrt(P_T/N_T)

through its dual: for fixed multipliers the minimizer is the closed form
x(nu) = sqrt(P_T/N_T) exp(j angle(sum_m nu_m h~_m - d)). The modulus
sqrt(P_T/N_T) is the constraint set's ``amp``, which the closed form, the
dual and the repairs all read. The multipliers are driven by coordinate
ascent in ``dual_ascent_sweep``, one root step per constraint, each run
inline by ``_update_multiplier``, a safeguarded regula falsi step held to
the contract of the bisection listing (``oracle._bisect_root``); its
docstring has the step's rules.
Residuals are re-evaluated from the closed form (only the touched block's
n_tx entries change), never from a stale x, by ``_row_residual``: Python
complex arithmetic over Python lists (the running coefficient vector and
the row's (index, conj h, h) triples that ``CIConstraintSet.row_scalars``
caches). A numpy tail rebuilds the coefficients, x(nu) and the margins
from nu up front and after every sweep that moved a multiplier; a sweep
that moved none ends the call on the tail before it, which a rebuild would
repeat bit for bit. While a row's block is unchanged since that tail, the
tail's margin is -r(nu_m) to within a rounding bound
(``CIConstraintSet.clear_by``), and it settles the row with at most one
evaluation: a row at 0 whose margin clears the bound stays at 0 unprobed,
and a warm row whose margin lies inside the stop band by more than twice
the bound (``CIConstraintSet.stop_band``) keeps nu_m or drops to 0 on its r(0)
alone, the value ``_update_multiplier`` would return after probing
r(nu_m) too. A block whose multipliers all kept their values skips the
next sweep.

Every CI row touches one symbol block, and ``CIConstraintSet`` stores the
rows as an (L, 2K, n_tx) stack, so products with the rows and feasibility
repairs work block by block. The sweep stops on a global rule, so a block
can end violated by a tolerance; the block finish then repeats that
block's row updates, a bounded number of passes, until every row holds.
What the finish leaves violated, usually a block on an infeasible kink,
is repaired by ``_dfrc_step``, the MM loop's linear step, which owns both
repairs of x(nu): it is restored one violated block at a time, trying
starts lazily in a fixed order (``_restore_feasibility``), and
``polish_feasible`` is the monotone fallback of the MM loop: coordinate
rounds over the n_tx entries, each one phase search batched over all L
blocks, that never increase Re{x^H d} and never leave the feasible set.
Both repairs stop their rounds at a fixed point: a round that leaves every
entry bit-identical would repeat itself. The phase search (``_best_phase``)
writes each grid level's candidates into one (B, C+1) buffer per quantity,
the current phase in the last column, and at the coarse level forms the
candidate products one CI row at a time, so that it holds one (B, C)
complex slab and the float margins rather than a (B, R, C) complex product.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from dfrcwave.comm import (
    CIConstraintSet,
    CommSetup,
    block_margins,
    build_ci_constraints,
    ci_margin,
)
from dfrcwave.majorize import MajorizerContext, build_d, build_majorizer_context, build_phi
from dfrcwave.model import (
    SolveMode, SolverConfig, WaveformMatrix, Weights, amplitude, mat, random_start,
)
from dfrcwave.radar import RadarScene, objective_terms

#: Relative change of the dual value g^ that ends a dual ascent call (the paper's eps1).
EPS1 = 1e-4
#: Width of a multiplier update's stop band (-EPS2, 0] on its row's residual (the paper's eps2).
EPS2 = 1e-4
#: Relative change of the objective that ends the MM loop (the paper's eps3).
EPS3 = 3e-5
#: Cap on coordinate-ascent sweeps within one MM iteration.
MAX_SWEEPS = 200
#: Cap on one multiplier update's bracket doublings and, separately, its root
#: steps. In [32, 1000]: with fewer, the listing's dual value turns on where its
#: starved steps stop, and 2**MAX_BISECT_ITERS and its reciprocal must stay normal.
MAX_BISECT_ITERS = 200
#: Relative step of a warm multiplier's local bracket, v (1 -/+ step).
_BRACKET_STEP = 0.1
#: Regula falsi steps that must halve the bracket, else a bisection step follows.
_STALL_STEPS = 3
#: Cap on the block finish's passes over one violated block's rows.
_FINISH_PASSES = 10


class Termination(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


def _closed_form(coef: np.ndarray, amp: float) -> np.ndarray:
    """amp * exp(j angle(coef)) entrywise, with phase 0 where coef vanishes (-0.0 too)."""
    phase = np.arctan2(coef.imag, coef.real)
    if np.count_nonzero(coef) < coef.size:
        phase[coef == 0] = 0.0
    return amp * np.exp(1j * phase)


def _weighted_rows(constraints: CIConstraintSet, nu: np.ndarray) -> np.ndarray:
    """sum_m nu_m h~_m as a length-N vector: one (1, 2K) x (2K, n_tx) product per
    block, with the set's ``rows_conj``. The vector is a fresh array."""
    rows_conj = constraints.rows_conj
    return (nu.reshape(rows_conj.shape[0], 1, -1) @ rows_conj).reshape(-1)


def _dual_inputs(nu, d, constraints: CIConstraintSet) -> tuple[np.ndarray, np.ndarray]:
    """``nu`` as a float array and ``d`` as an array, checked.

    Raises ValueError unless nu has shape (n_rows,), d has shape (n,), both
    are finite and nu >= 0; numpy would broadcast a wrong-shaped d silently.
    """
    nu, d = np.asarray(nu, dtype=float), np.asarray(d)
    if nu.shape != (constraints.n_rows,) or d.shape != (constraints.n,):
        raise ValueError(
            f"expected nu of shape ({constraints.n_rows},) and d of shape ({constraints.n},), "
            f"got {nu.shape} and {d.shape}"
        )
    # nu.min(), nu.max() and np.isfinite(d).all() without their wrappers; a NaN fails
    low, high = np.minimum.reduce(nu), np.maximum.reduce(nu)
    if not (np.logical_and.reduce(np.isfinite(d)) and 0.0 <= low and high < math.inf):
        raise ValueError("multipliers must be finite and nonnegative, d finite")
    return nu, d


def solve_inner(nu: np.ndarray, d: np.ndarray, constraints: CIConstraintSet) -> np.ndarray:
    """Closed-form minimizer of the inner Lagrangian over constant-modulus x.

    Returns amp * exp(j angle(sum_m nu_m h~_m - d)), amp = sqrt(P_T/N_T)
    being the constraint set's ``amp``; entries where the coefficient vector
    vanishes get phase 0. ``nu`` must have shape (n_rows,) and ``d`` (n,).
    """
    nu, d = _dual_inputs(nu, d, constraints)
    return _closed_form(_weighted_rows(constraints, nu) - d, constraints.amp)


def _row_residual(coef: list, terms: list, delta: float, gamma: float, amp: float) -> float:
    """gbar_m at x(nu) with nu_m moved by ``delta``, the other multipliers held.

    ``coef`` is the running coefficient list sum_m nu_m h~_m - d and
    ``terms`` row m's (index, conj h, h) triples. Only the n_tx entries of
    row m's block are recomputed, on Python complex scalars: x(nu) there is
    amp * c / |c| entry by entry, with phase 0 for a vanishing coefficient,
    as in the closed form. At ``delta`` 0 the coefficients are read as they
    stand (adding 0 * conj h could change only the sign of a zero part,
    which leaves the residual as it is).
    """
    acc = 0.0
    for i, col, row in terms:
        c = coef[i] + delta * col if delta else coef[i]
        mag = abs(c)
        unit = c / mag if mag != 0.0 else 1.0 + 0.0j
        acc += (row * unit).real
    return gamma - amp * acc


def _update_multiplier(coef, terms, nu_m, gamma, amp, eps2, max_iters, r0=None):
    """One multiplier update: a safeguarded regula falsi root step on r(t) = gbar_m.

    r is non-increasing in t (a partial supergradient of the concave dual).
    The step returns only what the bisection listing ``oracle._bisect_root``
    returns: 0.0 exactly when r(0) <= 0; a t where r == 0 or -eps2 < r < 0
    (the listing's stop rule: the row's margin in [0, eps2)); 2**max_iters
    with ``bracketed`` False when r is still positive there; or the upper
    end of a bracket, where r <= -eps2 (the listing's predicate-failure
    value), once the root steps run out or the bracket cannot shrink: its
    ends are adjacent floats, or 0 and 2**-max_iters, and r jumps across the
    band between them. No positive value is below 2**-max_iters, the
    listing's smallest: nearer 0, the products of a multiplier with its row
    go subnormal and x(nu) loses its phases to rounding.

    A warm multiplier v >= 2**-max_iters (clipped to 2**max_iters, the top
    of the listing's range) is probed first. Above the band, the bracket is
    found at v (1 + 0.1) and then by doubling, capped at 2**max_iters. In or
    below it, v (1 - 0.1) is tried, then 0, and a t in the band is returned
    only once some probe has shown r > 0, so that r(0) > 0. A cold row tests
    r(0), then brackets up from 1.0 as the listing does. Inside the bracket
    an Illinois step (Dowell & Jarratt, BIT 11, 1971) aims at the middle of
    the band, r = -eps2/2, and a bisection step follows whenever three of
    its steps fail to halve the bracket. ``max_iters`` caps the doublings
    and, separately, the root steps, so an update makes at most
    2 max_iters + 2 residual evaluations, the listing's own worst case.
    Each evaluation is a direct call of the module's ``_row_residual`` at
    t - nu_m, counted where it is made; the stop rule, with the exact root
    it excludes, is written out at each probe as
    ``r == 0.0 or abs(r + eps2/2) < eps2/2``. A caller that has already
    evaluated r(0), as ``_row_residual(coef, terms, -nu_m, gamma, amp)``,
    passes it as ``r0``; the step then neither repeats nor counts it.
    Returns (value, bracketed, evaluations made).
    """
    half_eps = eps2 / 2.0
    cap = 2.0**max_iters
    floor = 1.0 / cap
    evals = 0
    # the bracket: r(lo) > 0 and r(hi) <= -eps2
    lo = hi = None
    hi_stops = False
    if nu_m >= floor:
        v = min(nu_m, cap)  # the listing searches [0, 2**max_iters]
        down = v * (1.0 - _BRACKET_STEP)
        for t in (v, down) if down >= floor else (v,):
            r = _row_residual(coef, terms, t - nu_m, gamma, amp)
            evals += 1
            if r > 0:
                lo, r_lo = t, r
                break
            hi, r_hi = t, r
            hi_stops = r == 0.0 or abs(r + half_eps) < half_eps
            if hi_stops:
                break
    if lo is None:
        # r(0) >= r(hi): 0.0 where the listing returns it, else the lower end
        r = r0
        if r is None:
            r = _row_residual(coef, terms, -nu_m, gamma, amp)
            evals += 1
        if r <= 0:
            return 0.0, True, evals
        if hi_stops:
            return hi, True, evals
        lo, r_lo, t = 0.0, r, 1.0
    else:
        t = lo * (1.0 + _BRACKET_STEP)
    if hi is None:
        if lo >= cap:
            return cap, False, evals
        for doublings in range(max_iters + 1):
            t = cap if doublings == max_iters else min(t, cap)
            r = _row_residual(coef, terms, t - nu_m, gamma, amp)
            evals += 1
            if r == 0.0 or abs(r + half_eps) < half_eps:
                return t, True, evals
            if not r > 0:
                hi, r_hi = t, r
                break
            if t == cap:
                return cap, False, evals
            lo, r_lo, t = t, r, 2.0 * t
    # regula falsi on r + eps2/2, f(lo) > 0 > f(hi); Illinois halves the f of an
    # end kept twice in a row
    f_lo, f_hi = r_lo + half_eps, r_hi + half_eps
    kept = 0  # +1 when the last step moved lo (kept hi), -1 when it moved hi
    width, secants = hi - lo, 0
    for _ in range(max_iters):
        # bisect when a run of three secant steps has not halved the bracket
        stalled = secants == _STALL_STEPS and hi - lo > 0.5 * width
        if secants == _STALL_STEPS:
            width, secants = hi - lo, 0
        t = 0.5 * (lo + hi)
        if stalled:
            kept = 0
        else:
            secant = lo + f_lo * (hi - lo) / (f_lo - f_hi)
            if lo < secant < hi:
                t = secant
            secants += 1
        if t < floor:  # the listing's positive values are all >= 2**-max_iters
            if hi <= floor:
                return hi, True, evals
            t = floor
        if not lo < t < hi:
            return hi, True, evals  # lo and hi are adjacent floats: r jumps here
        r = _row_residual(coef, terms, t - nu_m, gamma, amp)
        evals += 1
        if r == 0.0 or abs(r + half_eps) < half_eps:
            return t, True, evals
        if r > 0:
            lo, f_lo = t, r + half_eps
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = t, r + half_eps
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        if stalled:
            width = hi - lo
    return hi, True, evals


_RESTORE_GRID = 512
_REFINE_GRID = 65
_RESTORE_REFINES = 2
_RESTORE_ROUNDS = 8
_RESTORE_BANK = 8192
_RESTORE_BANK_SEED = 0x5EED
#: Finishing rounds of a polish step, and of a block that restoration rescued.
_POLISH_ROUNDS = 2


def _grid_offsets() -> tuple[np.ndarray, ...]:
    """Phase offsets of the coarse grid and of each refinement level.

    Level 0 spans [-pi, pi) in _RESTORE_GRID steps; each refinement spans
    two steps of the level before it, in _REFINE_GRID steps.
    """
    levels = []
    width, count = np.pi, _RESTORE_GRID
    for _ in range(_RESTORE_REFINES + 1):
        levels.append(np.linspace(-width, width, count, endpoint=False))
        width, count = width / count * 2.0, _REFINE_GRID
    return tuple(levels)


_GRID_OFFSETS = _grid_offsets()
#: The coarse level is centred on pi in every call, so its phasors are fixed.
_COARSE_PHIS = np.pi + _GRID_OFFSETS[0]
_COARSE_UNITS = np.exp(1j * _COARSE_PHIS)


def _min_margins(base, col, units, amp, rows_first):
    """Smallest margin over the rows of each candidate phase, shape (B, C).

    ``base`` (B, R, 1) and ``col`` (B, R) are ``_best_phase``'s, ``units``
    (B, C) the candidates' e^{j phi}. The margins, a (B, R, C) float array,
    are freed on return. ``rows_first`` forms them a row at a time: row r's
    products col[:, r] e^{j phi} fill one complex (B, C) slab through
    ``np.multiply(col_r, units, slab)``, the kernel and operand order of the
    broadcast product, and amp times the slab's real part goes straight
    into row r of the margins. The broadcast product ``col * units``, the
    listing's form, allocates the (B, R, C) complex product and the buffers
    numpy's iterator takes for the broadcast, two more of that size at
    B = 1; it costs fewer numpy calls, so stacks as small as a refinement
    level's keep it.
    """
    if rows_first:
        margins = np.empty((units.shape[0], col.shape[1], units.shape[1]))
        slab = np.empty(units.shape, dtype=complex)
        real = slab.real
        for col_r, row in zip(col.T[:, :, None], margins.transpose(1, 0, 2)):
            np.multiply(col_r, units, slab)
            np.multiply(real, amp, row)
    else:
        margins = (col[:, :, None] * units[:, None, :]).real * amp
    margins += base
    # the minimum over rows runs along a contiguous candidate axis
    return np.minimum.reduce(margins, axis=1)


def _best_phase(
    base: np.ndarray,
    col: np.ndarray,
    d_n: np.ndarray,
    amp: float,
    phi_now: np.ndarray,
) -> np.ndarray:
    """Phase for entry n of each block in a batch, on a coarse grid with refinement.

    ``base`` (B, R) holds each block's margins with entry n removed; a
    candidate phase adds amp * Re{col e^{j phi}} to them. The current
    phase ``phi_now`` competes at every level. Feasible candidates are
    ranked by Re{x_n^* d_n}, so a block that is feasible stays feasible
    and its objective contribution never increases; with none feasible,
    the phase of largest minimum margin wins. ``oracle._best_phase`` is
    the plain listing, which this matches bit for bit.

    At the coarse level, whose candidate stack is 8 times a refinement
    level's and sets the search's memory peak, the candidate products are
    formed rows first, one (B, C) complex slab per CI row, in place of the
    listing's broadcast product (``_min_margins``), and the margins are
    freed once their minimum over rows is taken, before the scores
    Re{x_n^* d_n} are formed.
    """
    n_batch = base.shape[0]
    batch = np.arange(n_batch)
    base, d_conj = base[:, :, None], d_n.conj()[:, None]
    # one (B, C+1) candidate buffer per quantity, the current phase in the last
    # column; each refinement writes its C candidates just before that column
    phis = np.empty((n_batch, _COARSE_PHIS.size + 1))
    units = np.empty(phis.shape, dtype=complex)
    phis[:, :-1], units[:, :-1] = _COARSE_PHIS, _COARSE_UNITS
    phis[:, -1], units[:, -1] = phi_now, np.exp(1j * phi_now)
    for level, offsets in enumerate(_GRID_OFFSETS):
        if level:
            phis, units = phis[:, -offsets.size - 1 :], units[:, -offsets.size - 1 :]
            np.add(best[:, None], offsets, out=phis[:, :-1])
            np.exp(1j * phis, out=units)
        min_margin = _min_margins(base, col, units, amp, rows_first=not level)
        feasible = min_margin >= 0
        pick = np.where(feasible, (units * d_conj).real * amp, np.inf).argmin(axis=1)
        # the argmin lands on an infeasible candidate only in a block with none feasible
        found = feasible[batch, pick]
        if np.count_nonzero(found) < n_batch:
            stuck = ~found
            pick[stuck] = min_margin[stuck].argmax(axis=1)
        best = phis[batch, pick]
    return best


def _block_rounds(
    xb: np.ndarray,
    rows: np.ndarray,
    gam: np.ndarray,
    db: np.ndarray,
    amp: float,
    rounds: int,
    until_feasible: bool = False,
) -> np.ndarray:
    """At most ``rounds`` coordinate rounds over the n_tx entries of a batch
    of blocks, in place.

    ``xb``/``db`` are (B, n_tx), ``rows`` (B, R, n_tx), ``gam`` (B, R).
    With ``until_feasible`` the rounds stop once every block in the batch
    is feasible. A round is a function of the batch alone, so once one
    leaves every entry bit-identical (each new column compared with the
    one it replaces), every later round would repeat it, and the rounds
    stop there.
    """
    for _ in range(rounds):
        if until_feasible and block_margins(xb, rows, gam).min() >= 0:
            break
        fixed = True
        for n in range(xb.shape[1]):
            col, x_n = rows[:, :, n], xb[:, n]
            base = block_margins(xb, rows, gam) - (col * x_n[:, None]).real
            new = amp * np.exp(
                1j * _best_phase(base, col, db[:, n], amp, np.arctan2(x_n.imag, x_n.real))
            )
            fixed = fixed and new.tobytes() == x_n.tobytes()  # x_n still holds the old column
            xb[:, n] = new
        if fixed:
            break
    return xb


@functools.lru_cache(maxsize=None)
def _bank_units(n_tx: int) -> np.ndarray:
    """Unit-modulus random phases of the start bank (fixed internal seed).

    Drawn once per n_tx and kept for the life of the process, read-only.
    """
    rng = np.random.default_rng(_RESTORE_BANK_SEED)
    units = np.exp(2j * np.pi * rng.random((_RESTORE_BANK, n_tx)))
    units.setflags(write=False)
    return units


def _bank_start(rows: np.ndarray, gam: np.ndarray, amp: float) -> np.ndarray:
    """Best-of-bank random phase start for a stuck block: max-min margin."""
    cands = amp * _bank_units(rows.shape[1])
    min_margin = ((cands @ rows.T).real - gam).min(axis=1)
    return cands[int(np.argmax(min_margin))]


def _restore_starts(xb, xb_ref, rows, gam, amp):
    """Starts for one block, each built only when reached."""
    yield xb
    if xb_ref is not None:
        yield xb_ref
    yield _closed_form(np.conj(rows).sum(axis=0), amp)
    yield _bank_start(rows, gam, amp)


def _restore_feasibility(
    x: np.ndarray,
    d: np.ndarray,
    constraints: CIConstraintSet,
    x_ref: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, bool]:
    """Feasible selection among near-minimizers of the inner Lagrangian.

    The closed-form recovery is ambiguous wherever its coefficient vector
    nearly vanishes, and the dual optimum can sit exactly on such a kink
    with the arbitrary phase landing on the infeasible side. Violated
    blocks get their phases re-picked entry by entry, trying starts in
    order of objective friendliness: the recovery itself, a reference
    iterate (the previous feasible one, when available), a matched-filter
    start, and the best of a fixed random bank. Each start gets at most
    ``_RESTORE_ROUNDS`` coordinate rounds, which end early once the block
    is feasible or a round leaves it bit-identical, and a rescued block at
    most ``_POLISH_ROUNDS`` finishing rounds (``_block_rounds``). A start
    is built only if every earlier one failed (no max-min-margin rounds:
    the rounds already take the max-min phase while no candidate is
    feasible). A block that no start fixes is returned unchanged. Returns
    (x, feasible). Every entry is set at the set's ``amp``.
    """
    x = x.copy()
    rows_all, gam_all, amp = constraints.rows, constraints.thresholds, constraints.amp
    xb_all = x.reshape(-1, constraints.n_tx)  # a view: writing a block writes x
    db_all = np.asarray(d).reshape(xb_all.shape)
    ref_all = None if x_ref is None else np.asarray(x_ref).reshape(xb_all.shape)
    all_good = True
    for ell in np.flatnonzero(block_margins(xb_all, rows_all, gam_all).min(axis=1) < 0):
        one = slice(ell, ell + 1)
        rows, gam, db = rows_all[one], gam_all[one], db_all[one]
        ref = None if ref_all is None else ref_all[ell]
        for start in _restore_starts(xb_all[ell], ref, rows[0], gam[0], amp):
            xb = _block_rounds(
                start[None].copy(), rows, gam, db, amp, _RESTORE_ROUNDS, until_feasible=True
            )
            if block_margins(xb, rows, gam).min() >= 0:
                # cut objective damage while keeping the block feasible
                xb_all[ell] = _block_rounds(xb, rows, gam, db, amp, _POLISH_ROUNDS)[0]
                break
        else:
            all_good = False
    return x, all_good


def polish_feasible(x: np.ndarray, d: np.ndarray, constraints: CIConstraintSet) -> np.ndarray:
    """Feasibility-preserving coordinate descent on Re{x^H d} from a feasible x.

    Runs at most ``_POLISH_ROUNDS`` coordinate rounds, the finishing rounds
    that restoration also gives a rescued block; they end early once a
    round leaves every entry bit-identical, since the next would repeat
    it (``_block_rounds``). Every accepted phase competes
    against the current one, so the result never increases Re{x^H d} and
    never leaves the feasible set.
    Used as the monotone fallback when the dual recovery fails to descend.
    The blocks are independent and are polished together, one batched
    phase search per entry, at the set's ``amp``.
    """
    rows, gam = constraints.rows, constraints.thresholds
    shape = (rows.shape[0], rows.shape[2])
    xb = np.array(x, dtype=complex).reshape(shape)
    db = np.asarray(d).reshape(shape)
    return _block_rounds(xb, rows, gam, db, constraints.amp, _POLISH_ROUNDS).reshape(-1)


@dataclass
class DualAscentResult:
    nu: np.ndarray
    x: np.ndarray
    sweeps: int
    bisection_evals: int
    converged: bool
    bracket_failures: tuple[int, ...]
    restored: bool


def dual_ascent_sweep(
    nu: np.ndarray,
    d: np.ndarray,
    constraints: CIConstraintSet,
) -> DualAscentResult:
    """Coordinate ascent over all 2KL multipliers for one fixed d.

    Sweeps in index order until the relative change of the dual value
    g^ = gbar(x(nu)) + sum_m nu_m gbar_m(x(nu)) drops below ``EPS1``, a
    sweep leaves every multiplier unchanged, or ``MAX_SWEEPS`` is hit; a
    row update stops in the band (-``EPS2``, 0] of its row's residual. The
    constants are read at call time. A row update folds its step into its
    block's coefficients. One tail, run up front and after every sweep that
    moved a multiplier, rebuilds sum_m nu_m h~_m - d from nu (no rounding
    drift) and reads from it x(nu), the margins that settle rows in the
    next sweep, and g^. While
    no earlier row of its block has moved in the sweep, a row's margin is
    -r(nu_m) to within ``CIConstraintSet.clear_by``: a row at 0 whose
    margin exceeds that bound keeps 0 unprobed, and a row at nu_m in
    [2**-MAX_BISECT_ITERS, 2**MAX_BISECT_ITERS] whose margin lies in
    ``CIConstraintSet.stop_band`` has r(nu_m) in the stop band, so it
    takes 0.0 if r(0) <= 0 and keeps nu_m otherwise, from that one
    evaluation. A row at 0 that its margin does not clear probes r(0)
    before ``_update_multiplier`` runs, and the update runs only if
    r(0) > 0. Each of these settles a row on the value the update would
    return, with no more evaluations.
    A sweep that moved no multiplier left nu bit for bit as the tail before
    it read it, so the call ends on that tail's x(nu) and margins. A block
    whose multipliers all kept their values skips the next sweep, which
    would repeat it exactly.

    The stopping rule is global, so x(nu) may still violate a block whose
    rows each stopped in [0, EPS2) before a later row of the block moved
    its shared entries. The block finish then repeats each such block's
    row updates, settling no row from a margin (its passes move the
    coefficients the margins were read at), until every row's residual
    r(0) is <= 0, a pass changes no multiplier, or ``_FINISH_PASSES``
    passes ran; one more tail rebuilds x(nu) and the margins. Finish steps
    are coordinate ascent steps like the sweep's, and their residual
    evaluations, the stop checks' included, count in ``bisection_evals``.

    Rejects a ``nu`` or ``d`` of the wrong shape or not finite and a
    negative ``nu``, as ``solve_inner`` does. Returns x(nu) unrepaired,
    bitwise ``solve_inner(res.nu, ...)``; ``restored`` flags that it
    violates a CI row, which happens only in a block the finish left
    violated.
    """
    nu_arr, d = _dual_inputs(nu, d, constraints)
    rows, thresholds = constraints.rows, constraints.thresholds
    n_blocks, per_block, n_tx = rows.shape
    amp = constraints.amp
    terms, gamma = constraints.row_scalars
    eps2, max_iters = EPS2, MAX_BISECT_ITERS
    cap = 2.0**max_iters
    floor = 1.0 / cap
    # a row's numpy margin at x(nu) is -r(nu_m) to within clear_by while its block is
    # as the tail read it: above clear_by it settles a row at 0 unprobed, and inside
    # (low, high) it puts r(nu_m) in the stop band
    clear_by = constraints.clear_by
    low, high = constraints.stop_band(eps2)
    nu = nu_arr.tolist()
    bracket_bad: set[int] = set()
    evals = 0

    flat_thresholds = thresholds.reshape(-1)

    def tail():
        """(coefficient list, x(nu), margins), all rebuilt from ``nu_arr``; the
        margins are ``block_margins`` in the canonical row order."""
        coef_arr = _weighted_rows(constraints, nu_arr)
        coef_arr -= d
        x = _closed_form(coef_arr, amp)
        products = np.matmul(rows, x.reshape(n_blocks, n_tx)[:, :, None])
        return coef_arr.tolist(), x, products.real.reshape(-1) - flat_thresholds

    def visit(blocks, margins):
        """Root step of every row of ``blocks`` in index order, each folded into
        ``coef``; returns the blocks where a multiplier moved. ``margins`` come
        from the last tail and settle rows as stated above, while no earlier
        row of their block has moved; ``margins`` None settles no row."""
        nonlocal evals
        moved = -1  # the last block whose coefficients a row update changed
        changed = []
        for ell in blocks:
            for m in range(ell * per_block, (ell + 1) * per_block):
                nu_m = nu[m]
                if nu_m == 0.0:
                    if margins is not None and ell != moved and margins.item(m) > clear_by:
                        continue  # r(0) <= 0 for certain: the update returns 0.0
                    r0 = _row_residual(coef, terms[m], 0.0, gamma[m], amp)
                    evals += 1
                    if r0 <= 0:
                        continue  # the update returns 0.0
                    value, bracketed, made = _update_multiplier(
                        coef, terms[m], nu_m, gamma[m], amp, eps2, max_iters, r0
                    )
                elif (
                    margins is not None and ell != moved and floor <= nu_m <= cap
                    and low < margins.item(m) < high
                ):
                    evals += 1
                    if _row_residual(coef, terms[m], -nu_m, gamma[m], amp) > 0:
                        continue  # the update keeps nu_m
                    value, bracketed, made = 0.0, True, 0
                else:
                    value, bracketed, made = _update_multiplier(
                        coef, terms[m], nu_m, gamma[m], amp, eps2, max_iters
                    )
                evals += made
                if not bracketed:
                    bracket_bad.add(m)
                if value != nu_m:
                    delta = value - nu_m
                    for i, col, _ in terms[m]:
                        coef[i] += delta * col
                    nu[m] = value
                    if ell != moved:
                        moved = ell
                        changed.append(ell)
        return changed

    def dual_value():
        """g^ at the last tail: Re{x(nu)^H d} - nu . margins."""
        return float(np.vdot(x, d).real - nu_arr @ margins)

    moving = range(n_blocks)  # the blocks whose rows the next sweep visits
    prev = None  # g^ of the last tail after a sweep, taken when the next tail reads it
    converged = False
    sweeps = 0
    coef, x, margins = tail()
    while sweeps < MAX_SWEEPS:
        # a settled block's rows would repeat their results in the next sweep
        moving = visit(moving, margins)
        sweeps += 1
        if not moving:
            # nu is bitwise what the last tail read, so its x(nu), margins and
            # coefficients stand, and the next sweep would repeat this one
            converged = True
            break
        if sweeps == 2:
            prev = dual_value()  # the first sweep's g^, from its tail's arrays
        nu_arr = np.array(nu, dtype=float)
        coef, x, margins = tail()
        if sweeps == 1:
            continue  # g^'s change from no earlier value is NaN, which stops nothing
        g_hat = dual_value()
        change = abs(g_hat - prev) / (abs(prev) or 1.0)
        prev = g_hat
        if change < EPS1:
            converged = True
            break

    restored = bool(np.minimum.reduce(margins) < 0)
    if restored:
        blocks = margins.reshape(n_blocks, per_block).min(axis=1)
        for ell in np.flatnonzero(blocks < 0).tolist():
            block = range(ell * per_block, (ell + 1) * per_block)
            for _ in range(_FINISH_PASSES):
                # the finish settles no row from a margin
                if not visit((ell,), None):
                    break  # a pass that moved no multiplier would repeat exactly
                # the finish stops once every row of the block has r(0) <= 0 at coef
                for m in block:
                    evals += 1
                    if _row_residual(coef, terms[m], 0.0, gamma[m], amp) > 0:
                        break
                else:
                    break
        nu_arr = np.array(nu, dtype=float)
        _, x, margins = tail()
        restored = bool(np.minimum.reduce(margins) < 0)
    return DualAscentResult(
        nu=nu_arr,
        x=x,
        sweeps=sweeps,
        bisection_evals=evals,
        converged=converged,
        bracket_failures=tuple(sorted(bracket_bad)),
        restored=restored,
    )


class IterationRecord(NamedTuple):
    """What one outer iteration did, from values the MM loop already has.

    ``objective`` is the true cost of the candidate (the trace value when
    the step was accepted); ``dual_sweeps`` and ``bisection_evals`` are the
    dual ascent's work (0 in radar-only mode) and ``sweep_cap_hit`` marks a
    dual ascent stopped by the sweep cap; ``restored`` says that its
    x(nu) still violated a block after the block finish and so needed
    restoration, ``feasible_exit`` whether that left every block feasible;
    ``polish_step`` marks a step taken by the polish fallback, ``rejected``
    the candidate rejected for ascent, which ends the run.
    """

    objective: float
    dual_sweeps: int
    bisection_evals: int
    sweep_cap_hit: bool
    restored: bool
    feasible_exit: bool
    polish_step: bool
    rejected: bool


#: The work fields of a radar-only step: no dual ascent, no repair, nothing infeasible.
_RADAR_WORK = (0, 0, False, False, True, False)


def _dfrc_step(x, d, nu, cset, x_feasible):
    """The CI-constrained linear step of one MM iteration, from the iterate x,
    at the amplitude ``cset.amp``.

    Runs ``dual_ascent_sweep`` from the multipliers ``nu``, restores its
    x(nu) when that violates a CI row (``_restore_feasibility``, with x as
    the reference start when ``x_feasible``), and, once x is feasible,
    applies the monotone safeguard: a candidate that is infeasible or raises
    Re{x^H d} above x's, as the dual recovery can on kink iterations, is
    replaced by ``polish_feasible(x)``, which descends by construction and
    stays feasible. Returns (candidate, dual result, the ``IterationRecord``
    fields ``dual_sweeps`` .. ``polish_step``).
    """
    res = dual_ascent_sweep(nu, d, cset)
    x_new, feasible, polish = res.x, True, False
    if res.restored:
        x_new, feasible = _restore_feasibility(x_new, d, cset, x if x_feasible else None)
    if x_feasible:
        gbar_prev = float(np.vdot(x, d).real)
        gbar_new = float(np.vdot(x_new, d).real)
        if not (feasible and gbar_new <= gbar_prev):
            x_new, polish = polish_feasible(x, d, cset), True
    work = (res.sweeps, res.bisection_evals, not res.converged, res.restored, feasible, polish)
    return x_new, res, work


def _column_total(column: str) -> property:
    """A read-only SolverState counter: one IterationRecord column summed."""
    return property(lambda self: sum(getattr(r, column) for r in self.iterations))


@dataclass
class SolverState:
    """Final iterate plus traces and termination diagnostics.

    ``iterations`` holds one :class:`IterationRecord` per outer iteration
    and is the only account of the run: ``objective_trace`` is its accepted
    rows' objectives and the counters below are its column sums.
    ``restorations`` counts dual recoveries whose x(nu) needed restoration,
    ``restore_failures`` those whose restoration left a block infeasible
    (including ones the polish fallback then replaced),
    ``sweep_cap_hits`` dual ascents that stopped at the sweep cap,
    ``polish_steps`` steps taken by the polish fallback and
    ``rejected_steps`` steps rejected for ascent. ``final_terms`` are the
    radar terms of the last accepted iterate ``x``, so their weighted sum
    is ``objective_trace[-1]``.
    """

    x: np.ndarray
    nu: Optional[np.ndarray]
    termination: Termination
    warnings: tuple[str, ...]
    final_terms: tuple[float, float, float]
    final_margins: Optional[np.ndarray]
    kkt_residual: Optional[float]
    iterations: tuple[IterationRecord, ...]

    objective_trace = property(
        lambda self: np.array([r.objective for r in self.iterations if not r.rejected])
    )
    outer_iterations = property(lambda self: len(self.iterations))
    dual_sweeps = _column_total("dual_sweeps")
    bisection_steps = _column_total("bisection_evals")
    sweep_cap_hits = _column_total("sweep_cap_hit")
    restorations = _column_total("restored")
    restore_failures = property(lambda self: sum(not r.feasible_exit for r in self.iterations))
    polish_steps = _column_total("polish_step")
    rejected_steps = _column_total("rejected")


def mm_solve(
    scene: RadarScene,
    comm: Optional[CommSetup],
    weights: Weights,
    cfg: SolverConfig,
    x0: Optional[np.ndarray] = None,
    p_total: float = 1.0,
    ctx: Optional[MajorizerContext] = None,
) -> SolverState:
    """Run the outer MM loop in dfrc or radar-only mode.

    Each iteration majorizes the true cost at the current iterate, solves
    the linearized subproblem (dual coordinate ascent in dfrc mode, the
    unconstrained closed form in radar-only mode), and re-evaluates the
    true objective for the trace and the stopping rule. With no weight on
    any correlation term the loop evaluates no correlations; the final
    terms are then evaluated in full once, at exit.

    A passed ``ctx`` must have been built from this scene object, equal
    weights and ``cfg.majorizer_kind``, else ValueError, as for a
    non-finite or non-positive ``p_total`` and for an x0 that breaks
    ``WaveformMatrix``'s constant-modulus rule.

    The loop is a driver over one linear step, picked by mode, and records
    each iteration from the step's work fields. The dfrc step is
    ``_dfrc_step``: the dual ascent, restoration of an x(nu) that violates
    a CI row, and a safeguard that keeps the trace monotone once the
    iterate is feasible (the inner solve is tolerance-limited). ``nu`` is
    the last accepted step's dual result; convergence is declared only on
    dual-accepted steps, when the objective's relative change is at most
    ``EPS3``, so it belongs to the final iterate.
    ``termination`` says how the loop ended; what went wrong is in ``warnings``.

    With no ``x0`` the loop starts from ``random_start(n, amp, cfg.seed)``,
    not from ``build_problem``'s ``problem.x0``, which is drawn from a
    child of the config's seed; the two starts follow different
    trajectories (desk seed 0: 538 iterations to 5174.63 from this start,
    557 to 5117.98 from ``problem.x0``). ``run_experiment`` and the
    benchmark pass ``problem.x0``. From N = 64 up the design also depends
    on the BLAS thread count, which orders the reductions of the large
    matrix products.
    """
    n_tx = scene.geometry.n_tx
    n = scene.n
    amp = amplitude(p_total, n_tx)
    warnings: list[str] = []

    dfrc = cfg.mode == SolveMode.DFRC
    cset = nu = None
    if dfrc:
        if comm is None:
            raise ValueError("dfrc mode requires a CommSetup")
        comm_shape = (comm.n_tx, comm.block_len)
        scene_shape = (n_tx, scene.block_len)
        if comm_shape != scene_shape:
            raise ValueError(
                f"CommSetup (n_tx, block_len) = {comm_shape} does not match "
                f"the scene's {scene_shape}"
            )
        cset = build_ci_constraints(comm, p_total)
        # strict-feasibility pre-check: the nu_m -> inf limit of gbar_m must be < 0
        limit_margin = amp * cset.row_abs_sums - cset.thresholds
        for m in np.flatnonzero(limit_margin.ravel() <= 0):
            warnings.append(
                f"constraint {m}: not strictly feasible even at full phase alignment"
            )
        nu = np.zeros(cset.n_rows)

    if ctx is None:
        ctx = build_majorizer_context(scene, weights, cfg.majorizer_kind)
    elif not (ctx.scene is scene and (ctx.weights, ctx.kind) == (weights, cfg.majorizer_kind)):
        raise ValueError("ctx was built from another scene, other weights or another kind")

    if x0 is None:
        x = random_start(n, amp, cfg.seed)
    else:
        x = np.asarray(x0, dtype=complex).copy()
        if x.shape != (n,):
            raise ValueError(f"x0 must have length {n}, got shape {x.shape}")
        WaveformMatrix(mat(x, n_tx), p_total=p_total, constant_modulus=True)

    records: list[IterationRecord] = []
    bracket_bad: set[int] = set()
    g_prev = math.inf
    prev_feasible = not dfrc
    termination = Termination.MAX_ITERS
    final_terms = None  # the radar terms of the accepted x, with their quadratic forms

    for t in range(1, cfg.max_outer_iters + 1):
        d = build_d(x, build_phi(x, ctx, final_terms), ctx)
        if dfrc:
            x_new, res, work = _dfrc_step(x, d, nu, cset, prev_feasible)
            bracket_bad.update(res.bracket_failures)
            nu_new = res.nu
        else:
            x_new, nu_new, work = _closed_form(-d, amp), None, _RADAR_WORK
        terms = objective_terms(x_new, scene, ctx.correlations)
        g_new = weights.cost(terms)
        if not math.isfinite(g_new):
            raise RuntimeError(f"non-finite objective {g_new!r} at outer iteration {t}")
        record = IterationRecord(g_new, *work, g_new > g_prev and prev_feasible)
        records.append(record)
        if record.rejected:
            # descent from a feasible iterate is guaranteed up to inner-solve
            # tolerance; treat the slop-level ascent as converged and keep
            # the better previous iterate (ascent from a still-infeasible
            # iterate is legitimate feasibility acquisition and is accepted)
            termination = Termination.CONVERGED
            break
        x, nu, final_terms = x_new, nu_new, terms
        prev_feasible = record.feasible_exit or record.polish_step  # polish keeps feasibility
        # declare convergence only on dual-accepted steps so the reported
        # multipliers describe the final iterate (polish steps are rescues)
        if math.isfinite(g_prev) and g_new <= g_prev and not record.polish_step:
            denom = abs(g_prev) if g_prev != 0 else 1.0
            if abs(g_new - g_prev) / denom <= EPS3:
                termination = Termination.CONVERGED
                break
        g_prev = g_new

    if not ctx.correlations:
        final_terms = objective_terms(x, scene)  # with the ISLs the loop skipped
    state = SolverState(
        x=x,
        nu=nu,
        termination=termination,
        warnings=(),
        final_terms=tuple(float(v) for v in final_terms),
        final_margins=None,
        kkt_residual=None,
        iterations=tuple(records),
    )
    if dfrc:
        state.final_margins = margins = ci_margin(x, cset)
        state.kkt_residual = float(np.max(np.minimum(nu, margins)))
        for m in sorted(bracket_bad):
            warnings.append(f"constraint {m}: bisection bracket not found in some sweep")
        if state.sweep_cap_hits:
            warnings.append(f"dual ascent hit the sweep cap in {state.sweep_cap_hits} iteration(s)")
        if margins.min() < 0:
            warnings.append(
                f"feasibility restoration failed in {state.restore_failures} iteration(s); "
                f"the returned design violates {int((margins < 0).sum())} CI constraint(s)"
            )
    state.warnings = tuple(warnings)
    return state
