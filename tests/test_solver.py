"""Inner dual solver, bisection, coordinate ascent, and the MM loop."""

import contextlib
import dataclasses
import functools
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, seed, settings
from hypothesis import strategies as st

from conftest import make_scene, random_cm
from dfrcwave import oracle, radar, solver
from dfrcwave.comm import (
    CIConstraintSet,
    CommSetup,
    block_margins,
    build_ci_constraints,
    ci_margin,
    draw_channels,
    draw_symbols,
)
from dfrcwave.config import ExperimentConfig, build_problem, config_from_file
from dfrcwave.majorize import build_majorizer_context
from dfrcwave.model import (
    MODULUS_TOL,
    AngleGrid,
    ArrayGeometry,
    DesiredBeamPattern,
    SolverConfig,
    TargetSet,
    Weights,
)
from dfrcwave.radar import build_scene
from dfrcwave.solver import (
    _COARSE_PHIS,
    _COARSE_UNITS,
    Termination,
    _best_phase,
    _closed_form,
    _bank_units,
    _restore_feasibility,
    _row_residual,
    _update_multiplier,
    _weighted_rows,
    dual_ascent_sweep,
    mm_solve,
    polish_feasible,
    solve_inner,
)


def make_cset(rng, k_users=2, n_tx=3, block_len=2, gamma=2.0, sigma2=0.01, p_total=1.0):
    setup = CommSetup(
        channels=draw_channels(k_users, n_tx, rng.integers(2**31)),
        symbols=draw_symbols(k_users, block_len, 4, rng.integers(2**31)),
        gamma=np.full(k_users, gamma),
        sigma2=sigma2,
        m_points=4,
    )
    return setup, build_ci_constraints(setup, p_total)


@contextlib.contextmanager
def counted_evaluations():
    """Log the symbol block of every residual evaluation the dual ascent makes."""
    blocks = []

    def counting(coef, terms, delta, gamma, amp):
        blocks.append(terms[0][0] // len(terms))
        return _row_residual(coef, terms, delta, gamma, amp)

    with mock.patch("dfrcwave.solver._row_residual", counting):
        yield blocks


def repaired_dual_exit(cset, d):
    """x(nu) of a dual ascent from nu = 0 at the set's amp, repaired as mm_solve
    repairs it before a feasible iterate exists. Returns (x, feasible)."""
    res = dual_ascent_sweep(np.zeros(cset.n_rows), d, cset)
    if not res.restored:
        return res.x, True
    return _restore_feasibility(res.x, d, cset)


class TestSolveInner:
    def test_zero_multipliers_align_against_d(self, rng):
        _, cset = make_cset(rng)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        x = solve_inner(np.zeros(cset.n_rows), d, cset)
        amp = math.sqrt(1.0 / 3.0)
        assert np.allclose(x, amp * np.exp(1j * np.angle(-d)), atol=1e-14)

    def test_single_active_multiplier_aligns_with_row(self, rng):
        setup, cset = make_cset(rng)
        h_tilde = oracle.dense_h_tilde(setup)
        nu = np.zeros(cset.n_rows)
        nu[0] = 2.0
        x = solve_inner(nu, np.zeros(cset.n), cset)
        # maximizes Re{h~_0^H x}: inner product equals amp * ||h~_0||_1
        amp = math.sqrt(1.0 / 3.0)
        attained = float((h_tilde[0] @ x).real)
        assert abs(attained - amp * np.abs(h_tilde[0]).sum()) < 1e-12

    def test_zero_coefficient_gets_zero_phase(self, rng):
        _, cset = make_cset(rng)
        d = np.zeros(cset.n, dtype=complex)
        x = solve_inner(np.zeros(cset.n_rows), d, cset)
        amp = math.sqrt(1.0 / 3.0)
        assert np.allclose(x, amp, atol=1e-15)

    def test_negative_multiplier_rejected(self, rng):
        _, cset = make_cset(rng)
        with pytest.raises(ValueError):
            solve_inner(np.full(cset.n_rows, -1.0), np.zeros(cset.n), cset)

    @pytest.mark.parametrize("solve", ["solve_inner", "dual_ascent_sweep"])
    @pytest.mark.parametrize("bad", ["nu nan", "nu inf", "d nan", "d inf"])
    def test_non_finite_input_rejected(self, rng, solve, bad):
        _, cset = make_cset(rng)
        nu = np.zeros(cset.n_rows)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        name, value = bad.split()
        (nu if name == "nu" else d)[1] = float(value)
        with pytest.raises(ValueError, match="finite"):
            if solve == "solve_inner":
                solve_inner(nu, d, cset)
            else:
                dual_ascent_sweep(nu, d, cset)

    @pytest.mark.parametrize("solve", ["solve_inner", "dual_ascent_sweep"])
    @pytest.mark.parametrize("bad", ["d length 1", "d column", "d short", "nu column"])
    def test_wrong_shape_rejected(self, rng, solve, bad):
        # numpy would broadcast these: a length-1 d gave a length-n x, a column
        # d an n x n array, and a column nu reshapes to the row stack's blocks
        _, cset = make_cset(rng)
        nu = np.zeros(cset.n_rows)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        if bad == "d length 1":
            d = d[:1]
        elif bad == "d column":
            d = d[:, None]
        elif bad == "d short":
            d = d[:-1]
        else:
            nu = nu[:, None]
        with pytest.raises(ValueError, match=r"expected nu of shape .* and d of shape"):
            if solve == "solve_inner":
                solve_inner(nu, d, cset)
            else:
                dual_ascent_sweep(nu, d, cset)

    #: Real and imaginary parts at the edges of the closed form's phase: signed
    #: zeros (angle 0, pi or -pi on the real axis), the smallest subnormal, and
    #: magnitudes near overflow.
    EDGE_PARTS = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        coef=st.lists(
            st.builds(
                complex,
                st.sampled_from(EDGE_PARTS) | st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(EDGE_PARTS) | st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=12,
        ),
        amp=st.sampled_from([1.0, 0.5, math.sqrt(1.0 / 3.0)]),
    )
    def test_closed_form_matches_angle_listing(self, coef, amp):
        # _closed_form takes the phase with arctan2 on the parts; it must be
        # bitwise the np.angle listing, zeros, signed zeros and +/-pi included
        edges = [complex(a, b) for a in self.EDGE_PARTS for b in self.EDGE_PARTS]
        coef = np.array(coef + edges)
        listing = amp * np.exp(1j * np.where(coef == 0, 0.0, np.angle(coef)))
        assert _closed_form(coef, amp).tobytes() == listing.tobytes()

    def test_no_small_phase_perturbation_improves(self, rng):
        # closed form is a per-entry argmin: +-1e-3 rad never lowers the Lagrangian
        setup, cset = make_cset(rng)
        nu = rng.uniform(0.0, 2.0, cset.n_rows)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        x = solve_inner(nu, d, cset)
        coef = d - oracle.dense_h_tilde(setup).conj().T @ nu
        base = float(np.real(x.conj() @ coef))
        for n in range(cset.n):
            for delta in (-1e-3, 1e-3):
                x_pert = x.copy()
                x_pert[n] *= np.exp(1j * delta)
                assert float(np.real(x_pert.conj() @ coef)) >= base - 1e-12

    def test_brute_force_certificate(self, rng):
        # no per-entry phase from a dense grid improves the Lagrangian
        setup, cset = make_cset(rng)
        h_tilde = oracle.dense_h_tilde(setup)
        amp = math.sqrt(1.0 / 3.0)
        for _ in range(20):
            nu = rng.uniform(0.0, 3.0, cset.n_rows)
            d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
            x = solve_inner(nu, d, cset)
            coef = d - h_tilde.conj().T @ nu
            best = oracle.phase_bruteforce(d, h_tilde.conj().T @ nu)
            lag_x = float(np.real(x.conj() @ coef))
            lag_grid = float(np.real((amp * np.exp(1j * best)).conj() @ coef))
            assert lag_x <= lag_grid + 1e-8


class TestBisectRoot:
    """The plain listing in the oracle, the reference of every multiplier update."""

    def test_slack_constraint_returns_zero(self):
        calls = []
        value, bracketed, predicate = oracle._bisect_root(
            lambda v: calls.append(v) or -1.0, 1e-4, 100
        )
        assert value == 0.0 and bracketed and predicate and calls == [0.0]

    def test_affine_residual_lands_in_tolerance_band(self):
        eps2 = 1e-4
        for a, b in ((0.7, 0.9), (3.0, 0.004), (0.2, 40.0)):
            value, bracketed, predicate = oracle._bisect_root(
                lambda v: a - b * v, eps2, 200
            )
            assert bracketed and predicate
            resid = a - b * value
            assert -eps2 < resid <= 0.0
            assert abs(value - a / b) <= eps2 / b + 1e-12  # within the bracket slack

    def test_bracket_failure_flagged(self):
        value, bracketed, predicate = oracle._bisect_root(lambda v: 1.0, 1e-4, 16)
        assert not bracketed and not predicate
        assert value == 2.0**16

    def test_jump_discontinuity_returns_feasible_side(self):
        # residual jumps from +1 straight to -1: the predicate can never hold
        value, bracketed, predicate = oracle._bisect_root(
            lambda v: 1.0 if v < 0.37 else -1.0, 1e-4, 60
        )
        assert bracketed and not predicate
        assert (1.0 if value < 0.37 else -1.0) <= 0.0


def scalar_instance():
    """(setup, cset, d) with K = 1, L = 1, N_T = 1: one phasor against two
    half-space constraints, the second of them active at the dual's exit."""
    setup = CommSetup(
        channels=np.array([[1.2 - 0.4j]]),
        symbols=np.array([[1j]]),
        gamma=np.array([1.5]),
        sigma2=0.04,
        m_points=4,
    )
    return setup, build_ci_constraints(setup, 1.0), np.array([0.8 + 0.5j])


class TestDualAscent:
    def test_all_slack_terminates_in_one_sweep(self):
        # channel [1, 0], symbol 1: x = amp * ones satisfies both rows with
        # margin amp*sin(pi/4); steering d against -ones makes nu = 0 optimal
        setup = CommSetup(
            channels=np.array([[1.0 + 0.0j, 0.0 + 0.0j]]),
            symbols=np.ones((1, 2), dtype=complex),
            gamma=np.array([0.25]),
            sigma2=0.01,
            m_points=4,
        )
        cset = build_ci_constraints(setup, 1.0)
        d = -np.ones(cset.n, dtype=complex)
        res = dual_ascent_sweep(np.zeros(cset.n_rows), d, cset)
        assert res.sweeps == 1 and res.converged and not res.restored
        assert not res.nu.any()
        amp = math.sqrt(1.0 / 2.0)
        assert np.allclose(res.x, amp * np.exp(1j * np.angle(-d)), atol=1e-14)

    def test_scalar_instance_matches_exhaustive_search(self, rng):
        setup, cset, d = scalar_instance()
        res = dual_ascent_sweep(np.zeros(2), d, cset)
        margins = ci_margin(res.x, cset)
        assert margins.min() >= -1e-9
        # exhaustive феasible optimum over 1e5 phases
        phases = 2 * np.pi * np.arange(100_000) / 100_000
        cands = np.exp(1j * phases)
        feas = (
            (
                np.outer(cands, oracle.dense_h_tilde(setup)[:, 0]).real
                - cset.thresholds.ravel()[None, :]
            ).min(axis=1)
            >= 0
        )
        lagr = (cands.conj() * d[0]).real
        best = lagr[feas].min()
        attained = float((res.x.conj() @ d).real)
        assert attained <= best + 1e-4 * max(1.0, abs(best))

    def test_complementary_slackness_at_exit(self, rng):
        for _ in range(5):
            _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=3)
            d = 2.0 * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
            res = dual_ascent_sweep(np.zeros(cset.n_rows), d, cset)
            margins = ci_margin(res.x, cset)
            if res.restored:
                continue  # complementarity is checked on clean dual recoveries
            kkt = np.minimum(res.nu, -(-margins)).max()
            assert kkt <= 1e-4 + 1e-9

    def test_post_certificate_per_multiplier(self, rng):
        _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=2)
        d = 0.5 * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
        # one sweep of row updates as the solver makes them, each checked once committed
        terms, gamma = cset.row_scalars
        nu = [0.0] * cset.n_rows
        coef = (-d).tolist()
        for m in range(cset.n_rows):
            value, bracketed, _ = _update_multiplier(
                coef, terms[m], nu[m], gamma[m], 0.5, solver.EPS2, solver.MAX_BISECT_ITERS
            )
            for i, col, _ in terms[m]:
                coef[i] += (value - nu[m]) * col
            nu[m] = value
            resid = _row_residual(coef, terms[m], 0.0, gamma[m], 0.5)
            assert bracketed
            if nu[m] == 0.0:
                assert resid <= 0.0
            else:
                assert -solver.EPS2 < resid <= 0.0

    def test_dual_step_returns_unrepaired_closed_form(self, rng):
        # x(nu) violates a CI row here; restoration belongs to mm_solve, so
        # neither the dual ascent nor its reference may reach it
        _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=3)
        d = 2.0 * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
        nu0 = np.zeros(cset.n_rows)
        with mock.patch(
            "dfrcwave.solver._restore_feasibility",
            side_effect=AssertionError("the dual step ran restoration"),
        ):
            res = dual_ascent_sweep(nu0, d, cset)
            ref = oracle.reference_dual_ascent(nu0, d, cset)
        assert res.restored and ref.restored
        assert ci_margin(res.x, cset).min() < 0
        assert res.x.tobytes() == solve_inner(res.nu, d, cset).tobytes()
        assert ref.x.tobytes() == solve_inner(ref.nu, d, cset).tobytes()

    @staticmethod
    def _slack_and_moving_blocks():
        """Block 0 slack by 0.46 at x(0), as in test_all_slack_terminates_in_one_sweep;
        d turns block 1 against its rows, so its multipliers move and a second
        sweep runs. Returns (cset, d)."""
        setup = CommSetup(
            channels=np.array([[1.0 + 0.0j, 0.0 + 0.0j]]),
            symbols=np.ones((1, 2), dtype=complex),
            gamma=np.array([0.25]),
            sigma2=0.01,
            m_points=4,
        )
        return build_ci_constraints(setup, 1.0), np.array([-1.0, -1.0, 1.0, 1.0], dtype=complex)

    def test_settled_block_is_not_probed_again(self):
        # block 0 moved onto its thresholds at x(0) (margin 0, so the margins
        # clear none of its rows): the second sweep must not evaluate it again
        cset, d = self._slack_and_moving_blocks()
        x0 = solve_inner(np.zeros(cset.n_rows), d, cset)
        thresholds = cset.thresholds.copy()
        thresholds[0] = ci_margin(x0, CIConstraintSet(cset.rows, 0.0 * thresholds, cset.amp))[:2]
        cset = CIConstraintSet(cset.rows, thresholds, cset.amp)
        assert not ci_margin(x0, cset)[:2].any()
        with counted_evaluations() as blocks:
            res = dual_ascent_sweep(np.zeros(cset.n_rows), d, cset)
        assert res.sweeps >= 2 and res.nu[2:].any() and not res.nu[:2].any()
        assert blocks.count(0) == 2  # one residual(0) per row, first sweep only
        assert res.bisection_evals == len(blocks)

    def test_inactive_rows_cleared_by_margins_are_not_probed(self):
        # block 0's margins clear its rows, which keep nu = 0 without a
        # residual evaluation, as the listing's r(0) <= 0 would keep them
        cset, d = self._slack_and_moving_blocks()
        nu0 = np.zeros(cset.n_rows)
        with counted_evaluations() as blocks:
            res = dual_ascent_sweep(nu0, d, cset)
        assert blocks.count(0) == 0 and blocks.count(1) > 0
        assert res.sweeps >= 2 and not res.nu[:2].any() and res.nu[2:].any()
        ref = oracle.reference_dual_ascent(nu0, d, cset)
        assert not ref.nu[:2].any()

    def test_negative_multiplier_rejected(self, rng):
        # the root step, like the listing, searches t >= 0
        _, cset = make_cset(rng)
        nu0 = np.zeros(cset.n_rows)
        nu0[1] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            dual_ascent_sweep(nu0, np.ones(cset.n, dtype=complex), cset)

    def test_leaves_nu0_untouched_and_keeps_modulus(self, rng):
        # the amplitude is the set's amp, sqrt(p_total / n_tx) of its n_tx
        _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=2, p_total=2.0)
        d = 0.1 * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
        nu0 = rng.uniform(0.0, 1.0, cset.n_rows)
        before = nu0.copy()
        res = dual_ascent_sweep(nu0, d, cset)
        assert np.array_equal(nu0, before)
        assert np.all(res.nu >= 0.0)
        assert np.abs(np.abs(res.x) - math.sqrt(2.0 / cset.n_tx)).max() <= MODULUS_TOL


class TestStopConstants:
    """EPS1, EPS2 and EPS3 are solver constants, read when a solve runs."""

    @pytest.mark.parametrize("ascent", [dual_ascent_sweep, oracle.reference_dual_ascent])
    def test_dual_reads_eps1_at_call_time(self, ascent):
        # with EPS1 infinite, any change stops the call on the second sweep's g^
        rng = np.random.default_rng(2)
        _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=3)
        d = 2.0 * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
        nu0 = np.zeros(cset.n_rows)
        assert ascent(nu0, d, cset).sweeps > 2
        with mock.patch("dfrcwave.solver.EPS1", math.inf):
            res = ascent(nu0, d, cset)
        assert res.sweeps == 2 and res.converged

    @pytest.mark.parametrize("ascent", [dual_ascent_sweep, oracle.reference_dual_ascent])
    def test_dual_reads_eps2_at_call_time(self, ascent):
        # the active row's last update stops with its residual in (-EPS2, 0]:
        # inside 1e-4 at the default band, past it in a band patched wider
        _, cset, d = scalar_instance()
        res = ascent(np.zeros(2), d, cset)
        assert res.converged and -1e-4 < -ci_margin(res.x, cset)[1] <= 0.0
        with mock.patch("dfrcwave.solver.EPS2", 0.1):
            wide = ascent(np.zeros(2), d, cset)
        assert wide.converged and -0.1 < -ci_margin(wide.x, cset)[1] <= -1e-4

    def test_mm_loop_reads_eps3_at_call_time(self):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        cfg = SolverConfig(mode="radar_only", seed=3, max_outer_iters=400)
        weights = Weights(1.0, 2.0, 2.0)
        full = mm_solve(scene, None, weights, cfg)
        with mock.patch("dfrcwave.solver.EPS3", 1e-2):
            loose = mm_solve(scene, None, weights, cfg)
        for state in (full, loose):
            assert state.termination == Termination.CONVERGED
        assert loose.outer_iterations < full.outer_iterations
        # the loose run is the full run's prefix: only the stop rule moved
        assert np.array_equal(loose.objective_trace,
                              full.objective_trace[:loose.outer_iterations])


class TestPolish:
    def test_preserves_feasibility_and_descends(self, rng):
        _, cset = make_cset(rng, k_users=2, n_tx=4, block_len=3)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        # start from a feasible point found by the dual machinery
        x, _ = repaired_dual_exit(cset, d)
        assert ci_margin(x, cset).min() >= 0.0
        polished = polish_feasible(x, d, cset)
        assert ci_margin(polished, cset).min() >= 0.0
        assert (polished.conj() @ d).real <= (x.conj() @ d).real + 1e-12


#: Slack for margins recomputed from the final x after a block-level repair:
#: the repair scores a phase as (margins without entry n) + that entry's
#: term, which rounds differently from the full block product.
MARGIN_ROUNDING = 1e-12


@st.composite
def ci_instances(draw):
    """Small random CI problems: (setup, constraint set, d, amp, rng)."""
    n_tx = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6))
    k_users = draw(st.integers(1, min(2, n_tx)))
    m_points = draw(st.sampled_from([2, 4, 8]))
    gamma_db = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    setup = CommSetup(
        channels=draw_channels(k_users, n_tx, rng.integers(2**31)),
        symbols=draw_symbols(k_users, length, m_points, rng.integers(2**31)),
        gamma=np.full(k_users, 10.0 ** (gamma_db / 10.0)),
        sigma2=0.01,
        m_points=m_points,
    )
    cset = build_ci_constraints(setup, 1.0)
    d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
    return setup, cset, d, math.sqrt(1.0 / n_tx), rng


@pytest.mark.parity
class TestWeightedRows:
    # sum_m nu_m h~_m reads the set's cached rows_conj; it keeps the bytes of
    # the product with rows.conj(), zero multipliers included (a block whose
    # multipliers are all 0 gives exact zeros, whose signs x(nu) reads)
    @settings(deadline=None, derandomize=True)
    @given(inst=ci_instances(), zeros=st.sampled_from([0.0, 0.5, 1.0]))
    def test_matches_conjugating_the_rows(self, inst, zeros):
        _, cset, _, _, rng = inst
        nu = rng.exponential(1.0, cset.n_rows)
        nu[rng.random(cset.n_rows) < zeros] = 0.0
        rows = cset.rows
        ref = (nu.reshape(rows.shape[0], 1, -1) @ rows.conj()).reshape(-1)
        assert _weighted_rows(cset, nu).tobytes() == ref.tobytes()


def _feasible_start(cset, d):
    x, feasible = repaired_dual_exit(cset, d)
    assume(feasible and ci_margin(x, cset).min() >= 0.0)
    return x


class TestFeasibilityProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=ci_instances())
    def test_polish_descends_and_stays_feasible(self, inst):
        _, cset, d, amp, _ = inst
        x = _feasible_start(cset, d)
        polished = polish_feasible(x, d, cset)
        before = float((x.conj() @ d).real)
        assert float((polished.conj() @ d).real) <= before + 1e-12 * max(1.0, abs(before))
        assert ci_margin(polished, cset).min() >= -MARGIN_ROUNDING
        assert np.abs(np.abs(polished) - amp).max() <= MODULUS_TOL * amp

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inst=ci_instances())
    def test_batched_polish_matches_per_block(self, inst):
        setup, cset, d, amp, rng = inst
        x = random_cm(rng, cset.n, amp)
        together = polish_feasible(x, d, cset)
        n_tx = cset.n_tx
        for ell in range(setup.block_len):
            sl = slice(ell * n_tx, (ell + 1) * n_tx)
            one = build_ci_constraints(
                dataclasses.replace(setup, symbols=setup.symbols[:, ell : ell + 1]), 1.0
            )
            assert np.array_equal(polish_feasible(x[sl], d[sl], one), together[sl])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(inst=ci_instances())
    def test_restore_reports_feasibility_honestly(self, inst):
        _, cset, d, amp, rng = inst
        x0 = random_cm(rng, cset.n, amp)
        _bank_units.cache_clear()
        x, ok = _restore_feasibility(x0, d, cset)
        again, ok_again = _restore_feasibility(x0, d, cset)
        assert ok == ok_again and np.array_equal(x, again)
        assert np.abs(np.abs(x) - amp).max() <= MODULUS_TOL * amp
        if ok:
            assert ci_margin(x, cset).min() >= -MARGIN_ROUNDING
        # blocks that were feasible on entry are left alone
        rows, gam = cset.rows, cset.thresholds
        blocks0 = x0.reshape(-1, cset.n_tx)
        good = block_margins(blocks0, rows, gam).min(axis=1) >= 0
        blocks = x.reshape(-1, cset.n_tx)
        assert np.array_equal(blocks[good], blocks0[good])
        # a block still infeasible on exit is returned bitwise unchanged, and
        # failure is reported exactly when such a block remains
        exit_min = block_margins(blocks, rows, gam).min(axis=1)
        unchanged = (blocks == blocks0).all(axis=1)
        assert np.all(unchanged | (exit_min >= -MARGIN_ROUNDING))
        assert ok == bool((exit_min[unchanged] >= 0).all())


@st.composite
def dual_instances(draw):
    """Dual-ascent inputs (setup, cset, d, nu0, budget) over n_tx 1-4, L 1-6, K 1-2,
    M 2/4/8, with ``budget`` for ``solver.MAX_BISECT_ITERS`` its smallest sound
    value or its own (``bisect_budget`` patches it in).

    d always has exact zeros, so from nu0 = 0 the probes meet vanishing
    coefficients (the phase-0 branch); a drawn "dead" user has a zero
    channel and a positive QoS target, so its rows cannot be bracketed.
    An inactive row at the edge pins the rounding bound of the inactive-row
    skip: a skip on its margin alone can contradict the listing's r(0).
    """
    n_tx = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6))
    k_users = draw(st.integers(1, min(2, n_tx)))
    m_points = draw(st.sampled_from([2, 4, 8]))
    gamma_db = draw(st.lists(st.floats(0.0, 16.0), min_size=k_users, max_size=k_users))
    dead_user = draw(st.booleans())
    warm = draw(st.booleans())
    scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    budget = draw(st.sampled_from([32, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw_channels(k_users, n_tx, rng.integers(2**31))
    if dead_user:
        channels[-1] = 0.0
    setup = CommSetup(
        channels=channels,
        symbols=draw_symbols(k_users, length, m_points, rng.integers(2**31)),
        gamma=10.0 ** (np.array(gamma_db) / 10.0),
        sigma2=0.01,
        m_points=m_points,
    )
    cset = build_ci_constraints(setup, 1.0)
    d = scale * (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n))
    d[rng.random(cset.n) < 0.3] = 0.0
    d[rng.integers(cset.n)] = 0.0
    nu0 = np.zeros(cset.n_rows)
    if warm:
        nu0 = rng.uniform(0.0, 3.0, cset.n_rows) * (rng.random(cset.n_rows) < 0.6)
    if draw(st.booleans()) and channels[0].any():
        # an inactive row at the edge: the first row of a block gets the threshold
        # halfway between its numpy margin at x(nu0) and its residual r(0), which
        # round differently, so its margin sits within the rounding bound; the
        # block where numpy's side exceeds the residual's most is taken, so a skip
        # without the bound would clear a row that the listing moves
        firsts = np.arange(length) * cset.rows.shape[1]
        nu0[firsts] = 0.0
        aligned = ci_margin(
            solve_inner(nu0, d, cset), CIConstraintSet(cset.rows, 0.0 * cset.thresholds, cset.amp)
        )[firsts]
        terms = cset.row_scalars[0]
        coef = (_weighted_rows(cset, nu0) - d).tolist()
        residual_side = np.array(
            [-_row_residual(coef, terms[m], 0.0, 0.0, math.sqrt(1.0 / n_tx)) for m in firsts]
        )
        pick = int(np.argmax(aligned - residual_side))
        thresholds = cset.thresholds.copy().ravel()
        thresholds[firsts[pick]] = 0.5 * (aligned[pick] + residual_side[pick])
        cset = CIConstraintSet(cset.rows, thresholds.reshape(cset.thresholds.shape), cset.amp)
    return setup, cset, d, nu0, budget


def bisect_budget(budget):
    """``solver.MAX_BISECT_ITERS`` patched to ``budget`` for the duration."""
    return mock.patch("dfrcwave.solver.MAX_BISECT_ITERS", budget)


# Hypothesis seeds a derandomize=True property's examples from its source text,
# decorators included, so an edit to the text replaces them and can hide or move
# a failure the CI parity step shows. The four properties that run at the drawn
# update budget are pinned to the seeds their earlier text gave (hypothesis's
# int_from_bytes(function_digest(test)), a sha384 digest read as an integer) and
# draw the examples they drew then, the parity step's failing one too.
LISTING_SEED = 0xb72629b9cf11a55d0b24f0cdabac2117a313a2e5a5b77d253588969f74875dabd4895d2a4d19aa5e1f004812f6d5adf8
FINISH_SEED = 0x2e9ab982361aa6db4410d75f414ac56209fb7a0f36dc40662b0fbe12e08716d7b17b7da89f8bf8373c0933b83e68864d
TAIL_SEED = 0x8bb7e9fb1a5790bbcbc3e427fbc6bcd162e4f17ba15b7180e0664ff30a52fd8575d246fc4feebe4426b69b9c6d9fac0c
CERTIFICATE_SEED = 0x66d064d0b424766a3e8754fe0a7c186aa57dbea5df987d577e79052d5edc7c33ea9afb36d06bdaaea82a8dd74197785f


@st.composite
def probe_rows(draw):
    """One row's probe inputs (coef, terms, nu_m, gamma, amp, eps2, max_iters).

    n_tx runs 1-8 with some zero row entries. Most coefficient lines
    c_i(nu) = coef_i + (nu - nu_m) conj(h_i) pass through or near 0 at a
    drawn nu >= 0; gamma puts the root at a drawn point, and nu_m sits at,
    just off, within the local bracket nu_m (1 -/+ 0.1) of or far from it
    (or at 0). Some rows are slack at 0 and some cannot be bracketed.

    A "warm" row starts from the listing's own output on a nudged copy of
    the row, from a power of two >= 1 (a point the listing probes), or at a
    jump of r, where r crosses the stop band between two adjacent floats
    and a bracket around nu_m closes in on it to the last bit.

    A "flat" row has every line cross 0 below 0.9 nu_m, so from there on
    x(nu) is aligned with the row and r is flat, at exactly -eps2 or 0 in
    exact arithmetic: rounding scatters r across that edge of the stop band
    from probe to probe, and a step that trusts r to be monotone there
    meets a sign its last probe contradicts.
    """
    n_tx = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = draw(st.sampled_from([0.3, 1.0]))
    eps2 = draw(st.sampled_from([1e-4, 1e-8]))
    max_iters = draw(st.sampled_from([8, 200]))
    h = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    h[rng.random(n_tx) < 0.15] = 0.0
    root = draw(st.sampled_from([0.0, 1e-6, 0.3, 1.0, 7.5, 1e3]))
    nu_m = root * draw(
        st.sampled_from([0.0, 0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-3, 1.1, 2.0, 30.0])
    )
    crossing = rng.uniform(0.0, 2.0 * max(root, 1.0), n_tx)
    nudge = draw(st.sampled_from([0.0, 1e-14, 1e-9, 1e-3]))
    coef = (nu_m - crossing) * h.conj() + nudge * (
        rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    )
    free = rng.random(n_tx) < 0.25
    coef[free] = rng.standard_normal(free.sum()) + 1j * rng.standard_normal(free.sum())
    terms = [(i, hi.conjugate(), hi) for i, hi in enumerate(h.tolist())]
    coef = coef.tolist()
    kind = draw(
        st.sampled_from(["root", "root", "root", "slack", "unbracketable", "flat", "warm", "warm"])
    )
    if kind == "warm":
        gamma = -_row_residual(coef, terms, root - nu_m, 0.0, amp)
        start = draw(st.sampled_from(["listing", "listing", "power of two", "jump"]))
        if start == "jump":
            # every line vanishes at nu_m, where r jumps across the stop band and
            # r(nu_m) sits inside it or just above it: the listing closes in on
            # nu_m to the last bit
            nu_m = nu_m or 0.3
            coef = [0j] * n_tx
            level = draw(st.sampled_from([-0.5, 0.5])) * eps2
            gamma = level - _row_residual(coef, terms, 0.0, 0.0, amp)
        else:
            # nu_m moves to the listing's own output on the row with gamma nudged,
            # or to a power of two >= 1, and coef with it as the solver moves it
            nudged = gamma + draw(st.sampled_from([0.0, 1e-12, -1e-7, 1e-3]))
            value = oracle._bisect_root(
                lambda t: _row_residual(coef, terms, t - nu_m, nudged, amp), eps2, max_iters
            )[0]
            if start == "power of two":
                value = draw(st.sampled_from([1.0, 4.0]))
            coef = [c + (value - nu_m) * col for c, (_, col, _) in zip(coef, terms)]
            nu_m = value
    elif kind == "flat":
        nu_m = draw(st.sampled_from([0.3, 1.0, 7.5]))
        below = 0.9 * nu_m
        coef = ((nu_m - below * rng.uniform(0.0, 1.0, n_tx)) * h.conj()).tolist()
        level = draw(st.sampled_from([-eps2, 0.0]))
        # r(below) lands on the threshold, or one rounding unit below it
        gamma = level - _row_residual(coef, terms, below - nu_m, 0.0, amp)
        if _row_residual(coef, terms, below - nu_m, gamma, amp) > level:
            gamma = math.nextafter(gamma, -math.inf)
    elif kind == "root":
        gamma = -_row_residual(coef, terms, root - nu_m, 0.0, amp)
    elif kind == "slack":
        gamma = -amp * float(np.abs(h).sum()) - 1.0
    else:
        gamma = amp * float(np.abs(h).sum()) + draw(st.sampled_from([0.0, 1e-3]))
    return coef, terms, nu_m, gamma, amp, eps2, max_iters


class TestDualAscentParity:
    """The dual ascent held to the contract of the plain bisection listing.

    The root step is not the listing's: it may end anywhere in the stop band
    and makes fewer evaluations, so the sweep's trajectory differs from
    ``oracle.reference_dual_ascent``. What the listing guarantees per update,
    and the dual value it reaches per sweep, the fast path must match.
    """

    # the example budget comes from the hypothesis profile (conftest.py)
    @pytest.mark.parity
    @settings(deadline=None, derandomize=True)
    @given(row=probe_rows())
    def test_update_meets_the_listing_contract(self, row):
        coef, terms, nu_m, gamma, amp, eps2, max_iters = row
        probes = []  # (t - nu_m, r(t)) of every evaluation the step makes

        def counted(coef, terms, delta, gamma, amp):
            probes.append((delta, _row_residual(coef, terms, delta, gamma, amp)))
            return probes[-1][1]

        with mock.patch("dfrcwave.solver._row_residual", counted):
            value, bracketed, evals = _update_multiplier(
                coef, terms, nu_m, gamma, amp, eps2, max_iters
            )

        def residual(t):
            return _row_residual(coef, terms, t - nu_m, gamma, amp)

        ref_value, ref_bracketed, _ = oracle._bisect_root(residual, eps2, max_iters)
        # no more evaluations than the listing's worst case
        assert evals == len(probes) <= 2 * max_iters + 2
        assert math.copysign(1.0, value) == 1.0
        # the listing's decisions on the sign of r, except on a row flat within
        # rounding of r = 0, whose probes rounding alone puts on either side
        row_abs = sum(abs(h) for _, _, h in terms)
        rounding = 16 * len(terms) * np.finfo(float).eps * (abs(gamma) + amp * row_abs)
        cap = 2.0**max_iters
        # a bracket failure, with the listing's value, where r(2**max_iters) > 0
        if bracketed != ref_bracketed:
            assert abs(residual(cap)) <= rounding
        if not bracketed:
            assert value == cap and residual(cap) > 0.0
            return
        # 0.0 exactly where r(0) <= 0 made the listing return it, and otherwise
        # no positive value below the listing's smallest, 2**-max_iters
        r = residual(value)
        met = r == 0.0 or abs(r + eps2 / 2.0) < eps2 / 2.0
        if (value == 0.0) != (ref_value == 0.0):
            assert abs(residual(0.0)) <= rounding and abs(r) <= rounding
        if value == 0.0:
            assert r <= 0.0
        else:
            assert value >= 1.0 / cap
        if not (value == 0.0 or met):
            # the listing's predicate-failure value: the feasible upper end of a
            # bracket whose lower end the step saw above the band, left when the
            # root steps ran out or, with the full budget, where r jumps across
            # the band between two adjacent floats or below 2**-max_iters
            assert r <= -eps2
            assert any(r_t > 0.0 and d_t < value - nu_m for d_t, r_t in probes)
            if max_iters == solver.MAX_BISECT_ITERS and value > 1.0 / cap:
                assert residual(math.nextafter(value, 0.0)) > 0.0

    # the example budget comes from the hypothesis profile (conftest.py)
    @pytest.mark.parity
    @seed(LISTING_SEED)
    @settings(deadline=None, derandomize=True)
    @given(inst=dual_instances())
    def test_sweep_is_no_worse_than_the_listing(self, inst):
        setup, cset, d, nu0, budget = inst
        with bisect_budget(budget):
            with counted_evaluations() as blocks:
                res = dual_ascent_sweep(nu0, d, cset)
            ref = oracle.reference_dual_ascent(nu0, d, cset)

        def dual_value(nu):
            x = solve_inner(nu, d, cset)
            return float((x.conj() @ d).real - nu @ ci_margin(x, cset))

        # the dual value g^ wherever the listing stops on its own rule; where it
        # runs to the sweep cap its multipliers diverge (the dual is unbounded)
        # and its g^ there says only how fast. Where d = 0 both round to a few
        # ulps around 0.
        if ref.converged:
            g_hat, g_ref = dual_value(res.nu), dual_value(ref.nu)
            assert g_hat >= g_ref - 1e-3 * abs(g_ref) - 1e-12
        # the dual step returns the closed form x(nu), unrepaired
        assert res.x.tobytes() == solve_inner(res.nu, d, cset).tobytes()
        assert res.restored == bool(ci_margin(res.x, cset).min() < 0)
        assert res.bisection_evals == len(blocks)
        if setup.gamma[-1] > 0 and not setup.channels[-1].any():
            # the dead user's rows (r = half*K + K - 1 in every block) never bracket
            k_users = setup.k_users
            dead = [m for m in range(cset.n_rows) if m % k_users == k_users - 1]
            assert set(dead) <= set(res.bracket_failures)

    @pytest.mark.xfail(
        strict=True,
        reason="coordinate ascent stalls on a kink of the dual below the listing "
        "(ROADMAP item 20, an exact block dual)",
    )
    def test_sweep_is_no_worse_than_the_listing_on_coinciding_rows(self):
        # the dual_instances example on which the property fails at 2,000 examples:
        # BPSK at n_tx = 1, so the two rows of a symbol coincide, the first row on
        # the edge-row branch. The sweep ends at nu_0 = 4.4 with g^ -0.0027184,
        # the listing at 3.0 with -0.0027129, at budgets 32 and 200 alike
        setup = CommSetup(
            channels=np.array([[1.32646085 + 1.21475236j]]),
            symbols=np.array([[1.0, -1.0]]),
            gamma=np.array([1.0]),
            sigma2=0.01,
            m_points=2,
        )
        base = build_ci_constraints(setup, 1.0)
        cset = CIConstraintSet(base.rows, np.array([[1.79863461, 0.1], [0.1, 0.1]]), base.amp)
        d = np.array([-0.01321049 + 0.01049001j, 0.0])
        nu0 = np.array([0.0, 2.80521727, 0.0, 0.0082155])
        with bisect_budget(32):
            res = dual_ascent_sweep(nu0, d, cset)
            ref = oracle.reference_dual_ascent(nu0, d, cset)

        def dual_value(nu):
            x = solve_inner(nu, d, cset)
            return float((x.conj() @ d).real - nu @ ci_margin(x, cset))

        assert ref.converged
        g_hat, g_ref = dual_value(res.nu), dual_value(ref.nu)
        assert g_hat >= g_ref - 1e-3 * abs(g_ref) - 1e-12

    # the example budget comes from the hypothesis profile (conftest.py)
    @settings(deadline=None, derandomize=True)
    @given(inst=dual_instances())
    def test_inactive_row_bound_covers_margin_rounding(self, inst):
        # dual_ascent_sweep skips a row with nu_m = 0 whose numpy margin at x(nu)
        # exceeds the rounding bound clear_by, and settles a warm row whose margin
        # lies inside CIConstraintSet.stop_band with r(0) alone; both need the
        # margin to match -r(nu_m), the update's first probe, to within clear_by
        _, cset, d, nu0, _ = inst
        amp = math.sqrt(1.0 / cset.n_tx)
        margins = ci_margin(solve_inner(nu0, d, cset), cset)
        bound = np.abs(cset.thresholds) + amp * cset.row_abs_sums
        clear_by = 2.0 * 16 * cset.n_tx * np.finfo(float).eps * bound.ravel()
        # the set's one bound is the largest row's, so each row's below holds for it
        assert cset.amp == amp and cset.clear_by == clear_by.max()
        terms, gamma = cset.row_scalars
        coef = (_weighted_rows(cset, nu0) - d).tolist()
        for m in range(cset.n_rows):
            r0 = _row_residual(coef, terms[m], 0.0, gamma[m], amp)
            assert abs(r0 + margins[m]) <= clear_by[m]


def unfinished_sweep(*args):
    """``dual_ascent_sweep`` with no finishing pass: the sweep alone."""
    with mock.patch("dfrcwave.solver._FINISH_PASSES", 0):
        return dual_ascent_sweep(*args)


def violated_blocks(x, cset):
    """The symbol blocks in which x violates a CI row."""
    margins = ci_margin(x, cset).reshape(cset.rows.shape[0], -1)
    return set(np.flatnonzero(margins.min(axis=1) < 0).tolist())


def desk_dual_call(iteration, **overrides):
    """Arguments (nu, d, cset) of a desk solve's dual ascent at
    outer ``iteration`` (counted from 1)."""
    calls = []

    def recording(*args):
        calls.append(args)
        return dual_ascent_sweep(*args)

    with mock.patch("dfrcwave.solver.dual_ascent_sweep", recording):
        desk_solve(max_outer_iters=iteration, **overrides)
    return calls[-1]


@pytest.mark.parity
class TestBlockFinish:
    """The block finish: the dual ascent's last passes over the blocks x(nu) violates."""

    def test_finish_clears_the_one_block_the_sweep_left_violated(self):
        # desk seed 0, second iteration: the sweep alone stops with block 6
        # violated, which restoration would have repaired
        args = desk_dual_call(2, seed=0)
        _, d, cset = args
        with counted_evaluations() as swept:
            unfinished = unfinished_sweep(*args)
        assert unfinished.restored and violated_blocks(unfinished.x, cset) == {6}
        with counted_evaluations() as blocks:
            res = dual_ascent_sweep(*args)
        assert not res.restored
        assert res.bisection_evals == len(blocks)
        # the same sweep, then evaluations of block 6 only, the stop checks' included
        assert blocks[: len(swept)] == swept and set(blocks[len(swept) :]) == {6}
        per_block = cset.rows.shape[1]
        assert set(np.flatnonzero(res.nu != unfinished.nu) // per_block) == {6}
        assert res.x.tobytes() == solve_inner(res.nu, d, cset).tobytes()

    def test_desk_solves_rarely_restore(self):
        # without the finish, desk seeds 0 and 1 restored x(nu) 40 and 58 times
        assert desk_solve(seed=0).restorations <= 40 // 5
        assert desk_solve(seed=1).restorations <= 58 // 5

    # the example budget comes from the hypothesis profile (conftest.py)
    @seed(FINISH_SEED)
    @settings(deadline=None, derandomize=True)
    @given(inst=dual_instances())
    def test_finish_moves_only_violated_blocks(self, inst):
        _, cset, d, nu0, budget = inst
        with bisect_budget(budget):
            with counted_evaluations() as swept:
                unfinished = unfinished_sweep(nu0, d, cset)
            with counted_evaluations() as blocks:
                res = dual_ascent_sweep(nu0, d, cset)
        before = violated_blocks(unfinished.x, cset)
        # the sweep is unchanged; the finish evaluates and moves violated blocks
        # only, and leaves no block violated that the sweep left feasible
        assert blocks[: len(swept)] == swept and set(blocks[len(swept) :]) <= before
        assert res.bisection_evals == len(blocks)
        assert set(np.flatnonzero(res.nu != unfinished.nu) // cset.rows.shape[1]) <= before
        assert violated_blocks(res.x, cset) <= before
        assert res.restored == bool(violated_blocks(res.x, cset))

        def dual_value(nu):
            x = solve_inner(nu, d, cset)
            return float((x.conj() @ d).real - nu @ ci_margin(x, cset))

        # coordinate-ascent steps: g^ no lower, but for a root step that ends
        # past a jump of r (seen down to -1.8e-9 relative)
        g_sweep = dual_value(unfinished.nu)
        assert dual_value(res.nu) >= g_sweep - 1e-8 * abs(g_sweep) - 1e-12


@pytest.mark.parity
class TestNoMoveExit:
    """A sweep that moved no multiplier ends the dual call on the last tail's x(nu)."""

    # the example budget comes from the hypothesis profile (conftest.py)
    @seed(TAIL_SEED)
    @settings(deadline=None, derandomize=True)
    @given(inst=dual_instances())
    def test_tail_follows_only_sweeps_that_moved(self, inst):
        _, cset, d, nu0, budget = inst
        args = (nu0, d, cset)
        with bisect_budget(budget):
            with mock.patch("dfrcwave.solver._closed_form", wraps=_closed_form) as closed_form:
                res = dual_ascent_sweep(*args)
            # every sweep before the last moved a multiplier, or the call would have
            # ended there; the last moved one when it changed nu from the sweep
            # before it, which the sweep cap one lower returns. With no finishing
            # pass, the sweeps alone: the finish runs when they leave a block violated.
            swept = unfinished_sweep(*args)
            with mock.patch("dfrcwave.solver.MAX_SWEEPS", res.sweeps - 1):
                before_last = unfinished_sweep(*args)
        assert swept.sweeps == res.sweeps
        last_moved = before_last.nu.tobytes() != swept.nu.tobytes()
        assert res.converged or last_moved  # the cap stops only a moving call
        moved_sweeps = res.sweeps - 1 + last_moved
        # one tail up front, one after every sweep that moved, one after the finish
        assert closed_form.call_count == 1 + moved_sweeps + swept.restored
        assert res.x.tobytes() == solve_inner(res.nu, d, cset).tobytes()
        assert res.restored == bool(ci_margin(res.x, cset).min() < 0)


def certificate_off():
    """An empty stop band: ``dual_ascent_sweep`` settles no warm row from its margin."""
    return mock.patch.object(
        CIConstraintSet, "stop_band", lambda self, eps2: (math.inf, -math.inf)
    )


@pytest.mark.parity
class TestStopBandCertificate:
    """A warm row whose tail margin puts r(nu_m) in the stop band is settled with r(0)."""

    # the example budget comes from the hypothesis profile (conftest.py)
    @seed(CERTIFICATE_SEED)
    @settings(deadline=None, derandomize=True)
    @given(inst=dual_instances())
    def test_certificate_changes_only_the_count(self, inst):
        _, cset, d, nu0, budget = inst
        args = (nu0, d, cset)
        in_update = []  # non-empty while _update_multiplier runs
        certified = []  # (the update's result, the certificate's) per certified row

        def updating(*update_args):
            in_update.append(True)
            try:
                return _update_multiplier(*update_args)
            finally:
                in_update.pop()

        def checking(coef, terms, delta, gamma, amp):
            r = _row_residual(coef, terms, delta, gamma, amp)
            if delta and not in_update:
                # the certificate's probe r(0) of a row at nu_m = -delta: the update
                # would probe r(nu_m), in the band, then r(0), and return the same
                nu_m = -delta
                update = updating(
                    coef, terms, nu_m, gamma, amp, solver.EPS2, solver.MAX_BISECT_ITERS
                )
                certified.append((update, (0.0 if r <= 0 else nu_m, True, 2)))
            return r

        with bisect_budget(budget):
            with mock.patch("dfrcwave.solver._update_multiplier", updating), \
                    mock.patch("dfrcwave.solver._row_residual", checking):
                res = dual_ascent_sweep(*args)
            with certificate_off():
                ref = dual_ascent_sweep(*args)
        for update, shortcut in certified:
            assert update == shortcut
        assert res.nu.tobytes() == ref.nu.tobytes()
        assert res.x.tobytes() == ref.x.tobytes()
        assert (res.sweeps, res.converged, res.restored, res.bracket_failures) == (
            ref.sweeps, ref.converged, ref.restored, ref.bracket_failures
        )
        # one evaluation saved per certified row, the update's probe of r(nu_m)
        assert res.bisection_evals == ref.bisection_evals - len(certified) <= ref.bisection_evals

    @staticmethod
    def _first_sweep_updates(margin, nu_first):
        """Row 0 of one block (K = 1, n_tx = 2) warm at ``nu_first``, its threshold
        set so that its margin at x(nu0) is ``margin`` in units (clear_by, eps2),
        with the update budget 32. Returns (the margin reached, (the set's
        clear_by, the stop band's low and high), the first sweep's
        ``_update_multiplier`` calls on row 0)."""
        rng = np.random.default_rng(7)
        _, cset = make_cset(rng, k_users=1, n_tx=2, block_len=1)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        nu0 = np.array([nu_first, 0.0])
        clear_by = cset.clear_by
        x0 = solve_inner(nu0, d, cset)
        aligned = ci_margin(x0, CIConstraintSet(cset.rows, 0.0 * cset.thresholds, cset.amp))[0]
        thresholds = cset.thresholds.copy()
        thresholds[0, 0] = aligned - (margin[0] * clear_by + margin[1] * solver.EPS2)
        cset = CIConstraintSet(cset.rows, thresholds, cset.amp)
        row0 = cset.row_scalars[0][0]
        with mock.patch("dfrcwave.solver._update_multiplier", wraps=_update_multiplier) as update, \
                bisect_budget(32), \
                mock.patch("dfrcwave.solver.MAX_SWEEPS", 1), \
                mock.patch("dfrcwave.solver._FINISH_PASSES", 0):
            dual_ascent_sweep(nu0, d, cset)
        calls = [c for c in update.call_args_list if c.args[1] is row0]
        return ci_margin(x0, cset)[0], (clear_by, *cset.stop_band(solver.EPS2)), calls

    @pytest.mark.parametrize(
        "margin, nu_first",
        [
            ((1.5, 0.0), 1.0),  # within 2 clear_by of 0
            ((-1.5, 1.0), 1.0),  # within 2 clear_by of eps2
            ((0.0, 0.5), 2.0**-33),  # below 2**-max_iters
            ((0.0, 0.5), 2.0**33),  # above 2**max_iters
        ],
    )
    def test_edge_rows_go_through_the_update(self, margin, nu_first):
        reached, (clear_by, low, high), calls = self._first_sweep_updates(margin, nu_first)
        if margin[1] == 0.5:
            assert low < reached < high
        else:
            assert clear_by < reached and not low < reached < high
        assert len(calls) == 1 and calls[0].args[2] == nu_first

    def test_row_inside_the_band_is_certified(self):
        reached, (_, low, high), calls = self._first_sweep_updates((0.0, 0.5), 1.0)
        assert low < reached < high and not calls

    def test_desk_seed_0_takes_a_quarter_fewer_evaluations(self):
        # bit for bit the run without the certificate, which makes the 28,789
        # evaluations the solve made before the certificate existed
        state = desk_solve(seed=0)
        with certificate_off():
            ref = desk_solve(seed=0)
        assert state.outer_iterations == ref.outer_iterations == 557
        assert state.objective_trace.tobytes() == ref.objective_trace.tobytes()
        assert state.x.tobytes() == ref.x.tobytes() and state.nu.tobytes() == ref.nu.tobytes()
        assert [r._replace(bisection_evals=0) for r in state.iterations] == [
            r._replace(bisection_evals=0) for r in ref.iterations
        ]
        assert all(a.bisection_evals <= b.bisection_evals
                   for a, b in zip(state.iterations, ref.iterations))
        assert (state.bisection_steps, ref.bisection_steps) == (21_755, 28_789)


@st.composite
def phase_searches(draw):
    """Inputs (base, col, d_n, amp, phi_now) of one batched phase search.

    B and R run 1-8. Each block is "loose" (feasible at most phases),
    "tight" (every row needs its column nearly aligned, so few or no
    phases are feasible), "infeasible" (one row falls short of its
    threshold even at full alignment) or "edge": d_n favours a coarse
    candidate at which one row's margin is exactly 0 as the listing rounds
    it, so a margin that rounds differently moves the pick. A batch can be
    all infeasible, or mix the kinds. phi_now sits anywhere, exactly on a
    coarse grid phase (a tie with that grid column), or exactly pi, and
    d_n can vanish in some or all blocks, where every score ties at zero.
    """
    n_batch = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # amp = sqrt(1 / n_tx); a power of two scales exactly, the others round
    amp = draw(st.sampled_from([0.5, 1.0, math.sqrt(1.0 / 3.0), math.sqrt(0.2)]))
    col = rng.standard_normal((n_batch, n_rows)) + 1j * rng.standard_normal((n_batch, n_rows))
    col[rng.random(col.shape) < 0.1] = 0.0
    reach = amp * np.abs(col)  # a row's margin gain at full alignment
    if draw(st.booleans()):
        kinds = ["infeasible"] * n_batch
    else:
        kinds = draw(
            st.lists(
                st.sampled_from(["loose", "tight", "infeasible", "edge"]),
                min_size=n_batch,
                max_size=n_batch,
            )
        )
    d_n = rng.standard_normal(n_batch) + 1j * rng.standard_normal(n_batch)
    zero_d = draw(st.sampled_from(["none", "some", "all"]))
    if zero_d == "all":
        d_n[:] = 0.0
    elif zero_d == "some":
        d_n[rng.random(n_batch) < 0.5] = 0.0
    # each row's margin gain at each coarse candidate, as the listing computes it
    gains = amp * np.real(col[:, :, None] * _COARSE_UNITS[None, None, :])
    base = np.empty((n_batch, n_rows))
    for b, kind in enumerate(kinds):
        if kind == "edge":
            base[b] = reach[b]  # the other rows hold at every phase
            k, r = rng.integers(_COARSE_PHIS.size), rng.integers(n_rows)
            base[b, r] = -gains[b, r, k]
            d_n[b] = -rng.uniform(0.5, 2.0) * np.exp(1j * _COARSE_PHIS[k])
        elif kind == "loose":
            base[b] = rng.uniform(-0.3, 1.0, n_rows) * reach[b]
        elif kind == "tight":
            base[b] = -rng.uniform(0.8, 1.0, n_rows) * reach[b]
        else:
            base[b] = rng.uniform(-1.0, 1.0, n_rows) * reach[b]
            short = rng.integers(n_rows)
            base[b, short] = -reach[b, short] - rng.uniform(1e-9, 1.0)
    phi_now = rng.uniform(-np.pi, np.pi, n_batch)
    on_grid = draw(st.sampled_from(["off", "coarse", "pi"]))
    if on_grid == "coarse":
        phi_now = _COARSE_PHIS[rng.integers(_COARSE_PHIS.size, size=n_batch)]
    elif on_grid == "pi":
        phi_now[:] = np.pi
    return base, col, d_n, amp, phi_now


@pytest.mark.parity
class TestPhaseSearchParity:
    # the example budget comes from the hypothesis profile (conftest.py)
    @settings(deadline=None, derandomize=True)
    @given(search=phase_searches())
    def test_matches_listing_bitwise(self, search):
        base, col, d_n, amp, phi_now = search
        inputs = [np.copy(a) for a in (base, col, d_n)] + [amp, np.copy(phi_now)]
        got = _best_phase(base, col, d_n, amp, phi_now)
        ref = oracle._best_phase(*inputs)
        assert got.shape == (base.shape[0],)
        assert got.tobytes() == ref.tobytes()
        # the inputs are left as they were
        for before, after in zip(inputs, (base, col, d_n, amp, phi_now)):
            assert np.asarray(before).tobytes() == np.asarray(after).tobytes()

    def test_mm_solve_matches_phase_search_listing_end_to_end(self):
        # a full desk solve (seed 1, 15 dB, 8-PSK) with both repairs, restoration
        # (29 times) and the polish fallback (9 steps), run on the phase-search
        # listing: every iteration, multiplier and waveform bit is the same
        overrides = dict(seed=1, gamma_db=(15.0,), m_psk=8)
        state = desk_solve(**overrides)
        with mock.patch("dfrcwave.solver._best_phase", oracle._best_phase):
            ref = desk_solve(**overrides)
        assert (state.outer_iterations, state.restorations, state.polish_steps) == (421, 29, 9)
        assert state.x.tobytes() == ref.x.tobytes()
        assert state.nu.tobytes() == ref.nu.tobytes()
        assert state.objective_trace.tobytes() == ref.objective_trace.tobytes()
        assert state.iterations == ref.iterations


@contextlib.contextmanager
def traced_memory():
    """tracemalloc on for the block, its peak reset (left on if it already was)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        yield
    finally:
        if not tracing:
            tracemalloc.stop()


def traced_transient(fn, *args):
    """Bytes that ``fn(*args)`` allocates above what is live when it starts, at
    its peak, as tracemalloc sees them. One untraced call comes first, so that
    lazy imports and caches are not counted."""
    fn(*args)
    with traced_memory():
        start, _ = tracemalloc.get_traced_memory()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    return peak - start


def desk_phase_search(n_batch):
    """Inputs of entry 0's phase search over the first ``n_batch`` blocks of
    desk seed 1 at x0: R = 2K = 4 rows, with d random."""
    problem = build_problem(ExperimentConfig.desk_preset(seed=1))
    cset = build_ci_constraints(problem.comm, problem.p_total)
    rows, gam = cset.rows[:n_batch], cset.thresholds[:n_batch]
    xb = problem.x0.reshape(-1, cset.n_tx)[:n_batch]
    col, x_n = rows[:, :, 0], xb[:, 0]
    base = block_margins(xb, rows, gam) - (col * x_n[:, None]).real
    d_n = np.random.default_rng(n_batch).standard_normal(n_batch) + 0j
    return base, col, d_n, cset.amp, np.arctan2(x_n.imag, x_n.real)


class TestMemoryRoom:
    # the solve holds read-only operands (the conjugated rows, the ISL index)
    # in room that the phase search left: it forms its candidate products one
    # row slab at a time, so restoration no longer sets the memory peak
    @pytest.mark.parametrize("n_batch", [1, 8])
    def test_phase_search_allocates_at_most_four_fifths_of_the_listing(self, n_batch):
        # B = 1 is restoration's search, B = L = 8 the polish's, on the desk
        # preset's R = 4 rows
        search = desk_phase_search(n_batch)
        got = traced_transient(_best_phase, *search)
        ref = traced_transient(oracle._best_phase, *search)
        assert got <= 0.8 * ref, (got, ref)

    def test_warm_desk_solve_peaks_below_its_set_up(self):
        # 20 outer iterations of desk seed 1, whose repairs run, after one
        # untraced run of the same: the solve's peak, what set-up left live
        # included, stays below set-up's own peak
        cfg = ExperimentConfig.desk_preset(seed=1, max_outer_iters=20)

        def set_up():
            problem = build_problem(cfg)
            ctx = build_majorizer_context(
                problem.scene, problem.weights, problem.solver.majorizer_kind
            )
            return problem, ctx

        def solve(problem, ctx):
            return mm_solve(
                problem.scene, problem.comm, problem.weights, problem.solver,
                x0=problem.x0, p_total=problem.p_total, ctx=ctx,
            )

        solve(*set_up())
        with traced_memory():
            problem, ctx = set_up()
            _, set_up_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            state = solve(problem, ctx)
            _, solve_peak = tracemalloc.get_traced_memory()
        assert state.restorations > 0
        assert solve_peak < set_up_peak, (solve_peak, set_up_peak)


#: The ``dfrcwave.solver`` names that perfbench's traced mode wraps
#: (``perfbench/traced.py``, ``_install``); ``mm_solve`` must reach each
#: through the module's globals, or the traced benchmark run fails.
TRACED_SOLVER_NAMES = (
    "build_majorizer_context",
    "build_ci_constraints",
    "build_phi",
    "build_d",
    "dual_ascent_sweep",
    "_restore_feasibility",
    "polish_feasible",
    "objective_terms",
)


class TestTracedNames:
    def test_mm_loop_reaches_every_wrapped_name(self):
        # desk seed 1 at 15 dB, 8-PSK restores and polishes: counting wrappers
        # on every wrapped name are each called, the step's four once per
        # outer iteration and the repairs once per event
        counts = dict.fromkeys(TRACED_SOLVER_NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with contextlib.ExitStack() as stack:
            for name in TRACED_SOLVER_NAMES:
                wrapper = counting(name, getattr(solver, name))
                stack.enter_context(mock.patch.object(solver, name, wrapper))
            state = desk_solve(seed=1, gamma_db=(15.0,), m_psk=8)
        assert (state.outer_iterations, state.restorations, state.polish_steps) == (421, 29, 9)
        assert all(counts.values()), counts
        per_iteration = ("build_phi", "build_d", "objective_terms", "dual_ascent_sweep")
        assert [counts[name] for name in per_iteration] == [state.outer_iterations] * 4
        assert (counts["_restore_feasibility"], counts["polish_feasible"]) == (29, 9)
        assert (counts["build_ci_constraints"], counts["build_majorizer_context"]) == (1, 1)


def _restoration_miss():
    """One QPSK block (n_tx = 2, K = 2, about 5.4 dB) that restoration misses.

    Found by a search over random single-block instances: every start of
    the restoration cascade fails on it, while a phase grid finds feasible
    points. Returns (constraint set, d, x0, amp).
    """
    rng = np.random.default_rng(1968)
    gamma_db = rng.uniform(4.5, 5.5)
    setup = CommSetup(
        channels=draw_channels(2, 2, rng.integers(2**31)),
        symbols=draw_symbols(2, 1, 4, rng.integers(2**31)),
        gamma=np.full(2, 10.0 ** (gamma_db / 10.0)),
        sigma2=0.01,
        m_points=4,
    )
    amp = math.sqrt(0.5)
    d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x0 = amp * np.exp(2j * np.pi * rng.random(2))
    return build_ci_constraints(setup, 1.0), d, x0, amp


class TestRestorationMiss:
    def test_block_is_feasible_on_a_phase_grid(self):
        cset, _, _, amp = _restoration_miss()
        units = np.exp(2j * np.pi * np.arange(512) / 512)
        rows, gam = cset.rows, cset.thresholds
        pair = rows[0][:, 0, None, None] * units[:, None] + rows[0][:, 1, None, None] * units
        margins = amp * pair.real - gam[0][:, None, None]
        assert margins.min(axis=0).max() > 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="the heuristic restoration starts miss this narrow feasible region; "
        "a principled per-block fallback (ROADMAP item 6) should find it",
    )
    def test_restoration_finds_the_feasible_point(self):
        cset, d, x0, amp = _restoration_miss()
        x, feasible = _restore_feasibility(x0, d, cset)
        assert feasible
        assert ci_margin(x, cset).min() >= -MARGIN_ROUNDING


def every_round(xb, rows, gam, db, amp, rounds, until_feasible=False):
    """``_block_rounds`` with no fixed-point exit: every one of the
    ``rounds`` rounds runs (with ``until_feasible``, until the batch is
    feasible). The phase search is looked up on the solver module."""
    for _ in range(rounds):
        if until_feasible and block_margins(xb, rows, gam).min() >= 0:
            break
        for n in range(xb.shape[1]):
            col, x_n = rows[:, :, n], xb[:, n]
            base = block_margins(xb, rows, gam) - (col * x_n[:, None]).real
            phi = solver._best_phase(base, col, db[:, n], amp, np.arctan2(x_n.imag, x_n.real))
            xb[:, n] = amp * np.exp(1j * phi)
    return xb


@pytest.mark.parity
class TestFixedPointRounds:
    # a round is a function of the batch alone, so _block_rounds may stop at
    # the first round that leaves every entry bit-identical; it must return
    # the bytes of running every round
    @settings(deadline=None, derandomize=True)
    @given(inst=ci_instances(), rounds=st.integers(1, 8), data=st.data())
    def test_one_block_until_feasible_matches_every_round(self, inst, rounds, data):
        # restoration's use: one violated block from a start, then its
        # finishing rounds
        setup, cset, d, amp, rng = inst
        ell = data.draw(st.integers(0, setup.block_len - 1))
        one = slice(ell, ell + 1)
        rows, gam = cset.rows[one], cset.thresholds[one]
        db = d.reshape(-1, cset.n_tx)[one]
        start = random_cm(rng, cset.n_tx, amp)[None]
        got = solver._block_rounds(start.copy(), rows, gam, db, amp, rounds, until_feasible=True)
        ref = every_round(start.copy(), rows, gam, db, amp, rounds, until_feasible=True)
        assert got.tobytes() == ref.tobytes()
        finish = solver._block_rounds(got, rows, gam, db, amp, rounds)
        assert finish.tobytes() == every_round(ref, rows, gam, db, amp, rounds).tobytes()

    @settings(deadline=None, derandomize=True)
    @given(inst=ci_instances(), rounds=st.integers(1, 8))
    def test_all_blocks_match_every_round(self, inst, rounds):
        # the polish's use: every block of the design in one batch
        _, cset, d, amp, rng = inst
        shape = (cset.rows.shape[0], cset.n_tx)
        xb = random_cm(rng, cset.n, amp).reshape(shape)
        rows, gam, db = cset.rows, cset.thresholds, d.reshape(shape)
        got = solver._block_rounds(xb.copy(), rows, gam, db, amp, rounds)
        assert got.tobytes() == every_round(xb.copy(), rows, gam, db, amp, rounds).tobytes()

    def test_desk_seed_1_searches_less_and_ends_the_same(self):
        # desk seed 1 restores and polishes; stopping at the fixed point
        # saves 44 of its 184 phase searches and changes no bit of the run
        runs = {}
        for name, rounds in (("exit", solver._block_rounds), ("every", every_round)):
            with mock.patch("dfrcwave.solver._block_rounds", rounds), mock.patch(
                "dfrcwave.solver._best_phase", wraps=solver._best_phase
            ) as search:
                state = desk_solve(seed=1)
            runs[name] = (search.call_count, state)
        (exit_calls, state), (every_calls, ref) = runs["exit"], runs["every"]
        assert (exit_calls, every_calls) == (140, 184)
        assert state.x.tobytes() == ref.x.tobytes()
        assert state.nu.tobytes() == ref.nu.tobytes()
        assert state.iterations == ref.iterations


@pytest.mark.parity
class TestVdot:
    # Re{x^H d} is read as np.vdot(x, d).real in the dfrc step and the dual's
    # g^; it must be x.conj() @ d to the bit, or a parity break would show
    # with no cause
    @settings(deadline=None, derandomize=True)
    @given(n=st.integers(1, 640), seed=st.integers(0, 2**32 - 1), unit=st.booleans())
    def test_matches_conjugated_matmul(self, n, seed, unit):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = random_cm(rng, n, 0.5) if unit else rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.vdot(x, d).tobytes() == (x.conj() @ d).tobytes()

    def test_every_size_to_640(self):
        rng = np.random.default_rng(640)
        for n in range(1, 641):
            x = random_cm(rng, n, 0.5)
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.vdot(x, d).tobytes() == (x.conj() @ d).tobytes(), n


def scalar_scene():
    geometry = ArrayGeometry(1)
    grid = AngleGrid.uniform(-90.0, 90.0, 30.0)
    targets = TargetSet(np.array([0.0]), 1)
    desired = DesiredBeamPattern(np.ones(len(grid)))
    return build_scene(geometry, grid, desired, targets, block_len=4)


class TestMMSolve:
    def test_degenerate_scalar_radar_only(self):
        scene = scalar_scene()
        cfg = SolverConfig(mode="radar_only", seed=0)
        state = mm_solve(scene, None, Weights(1.0, 0.0, 0.0), cfg)
        assert state.termination == Termination.CONVERGED
        assert state.outer_iterations <= 2
        assert np.allclose(state.objective_trace, 0.0, atol=1e-20)

    def test_dfrc_requires_comm(self):
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        with pytest.raises(ValueError):
            mm_solve(scene, None, Weights(1.0, 1.0, 1.0), SolverConfig())

    def test_comm_shape_must_match_scene(self):
        # same N = 32 as the desk scene (n_tx = 4, L = 8), split differently
        scene = make_scene(n_tx=4, block_len=8, max_lag=3)
        comm = CommSetup(
            channels=draw_channels(2, 2, 1),
            symbols=draw_symbols(2, 16, 4, 2),
            gamma=np.full(2, 4.0),
            sigma2=0.01,
            m_points=4,
        )
        cfg = SolverConfig(max_outer_iters=3)
        with pytest.raises(ValueError, match=r"\(2, 16\).*\(4, 8\)"):
            mm_solve(scene, comm, Weights(1.0, 1.0, 1.0), cfg)

    @pytest.mark.parametrize(
        "entry, p_total",
        [pytest.param(entry, p, id=str(p) if entry == "mm_solve" else f"{entry}-{p}")
         for entry in ("mm_solve", "solve_inner", "dual_ascent_sweep")
         for p in (0.0, -1.0, math.nan, math.inf)],
    )
    def test_p_total_must_be_finite_and_positive(self, rng, entry, p_total):
        # 0 once gave the dual entry points an all-zero x, -1 a "math domain error".
        # They read the amplitude from the constraint set, so p_total reaches them
        # through build_ci_constraints, which rejects it before they can run
        with pytest.raises(ValueError, match="p_total"):
            if entry == "mm_solve":
                scene = make_scene(n_tx=2, block_len=3, max_lag=2)
                cfg = SolverConfig(mode="radar_only", max_outer_iters=3)
                mm_solve(scene, None, Weights(1.0, 0.0, 0.0), cfg, p_total=p_total)
            else:
                _, cset = make_cset(rng, p_total=p_total)
                nu, d = np.zeros(cset.n_rows), np.ones(cset.n)
                if entry == "solve_inner":
                    solve_inner(nu, d, cset)
                else:
                    dual_ascent_sweep(nu, d, cset)

    @pytest.mark.parametrize(
        "kind, weights, same_scene",
        [("max_eigen", (1.0, 2.0, 2.0), True), ("diagonal", (1.0, 5.0, 5.0), True),
         ("diagonal", (1.0, 2.0, 2.0), False)],
        ids=["kind", "weights", "scene-object"],
    )
    def test_context_must_match_the_solve(self, kind, weights, same_scene):
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        built_on = scene if same_scene else make_scene(n_tx=2, block_len=3, max_lag=2)
        ctx = build_majorizer_context(built_on, Weights(*weights), kind)
        cfg = SolverConfig(mode="radar_only", max_outer_iters=3)
        with pytest.raises(ValueError, match="ctx was built from"):
            mm_solve(scene, None, Weights(1.0, 2.0, 2.0), cfg, ctx=ctx)

    def test_matching_context_is_used_as_is(self):
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        w = Weights(1.0, 2.0, 2.0)
        cfg = SolverConfig(mode="radar_only", majorizer_kind="max_eigen", max_outer_iters=20)
        ctx = build_majorizer_context(scene, Weights(1.0, 2.0, 2.0), "max_eigen")
        passed = mm_solve(scene, None, w, cfg, ctx=ctx)
        built = mm_solve(scene, None, w, cfg)
        assert passed.x.tobytes() == built.x.tobytes()
        assert passed.iterations == built.iterations

    def test_x0_must_be_constant_modulus(self, rng):
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        cfg = SolverConfig(mode="radar_only")
        bad = rng.standard_normal(scene.n) + 1j * rng.standard_normal(scene.n)
        with pytest.raises(ValueError, match="constant-modulus"):
            mm_solve(scene, None, Weights(1.0, 0.0, 0.0), cfg, x0=bad)
        # a NaN entry fails the check too (the others are on the circle)
        bad = np.full(scene.n, math.sqrt(0.5), dtype=complex)
        bad[1] = np.nan
        with pytest.raises(ValueError, match="constant-modulus"):
            mm_solve(scene, None, Weights(1.0, 0.0, 0.0), cfg, x0=bad)
        # an x0 on the circle but of the wrong length fails on its length
        short = np.full(scene.n - 1, math.sqrt(0.5), dtype=complex)
        message = rf"x0 must have length {scene.n}, got shape \({scene.n - 1},\)"
        with pytest.raises(ValueError, match=message):
            mm_solve(scene, None, Weights(1.0, 0.0, 0.0), cfg, x0=short)

    def test_radar_only_descends_and_stays_unimodular(self, rng):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        cfg = SolverConfig(mode="radar_only", seed=7, max_outer_iters=60)
        state = mm_solve(scene, None, Weights(1.0, 2.0, 2.0), cfg, p_total=2.0)
        trace = state.objective_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
        amp = math.sqrt(2.0 / 2.0)
        assert np.abs(np.abs(state.x) - amp).max() < 1e-12

    def test_dfrc_small_instance_full_contract(self, rng):
        geometry = ArrayGeometry(3)
        grid = AngleGrid.uniform(-90.0, 90.0, 15.0)
        targets = TargetSet(np.array([-30.0, 40.0]), 3)
        from dfrcwave.radar import rectangular_pattern

        desired = rectangular_pattern(grid, targets.angles_deg, 20.0)
        scene = build_scene(geometry, grid, desired, targets, block_len=4)
        setup = CommSetup(
            channels=draw_channels(2, 3, 5),
            symbols=draw_symbols(2, 4, 4, 6),
            gamma=np.full(2, 10.0 ** 0.6),
            sigma2=0.01,
            m_points=4,
        )
        cfg = SolverConfig(seed=1, max_outer_iters=400)
        state = mm_solve(scene, setup, Weights(1.0, 2.0, 2.0), cfg)
        trace = state.objective_trace
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
        assert state.final_margins.min() >= -1e-6
        assert np.abs(np.abs(state.x) - math.sqrt(1.0 / 3.0)).max() < 1e-12
        assert state.nu.shape == (2 * 2 * 4,)
        assert state.nu.min() >= 0.0
        # the reported terms are those of the returned iterate, not a re-evaluation
        w = Weights(1.0, 2.0, 2.0)
        g_bp, g_ac, g_cc = state.final_terms
        assert w.w_bp * g_bp + w.w_ac * g_ac + w.w_cc * g_cc == trace[-1]

    def test_max_eigen_dfrc_also_descends(self, rng):
        geometry = ArrayGeometry(3)
        grid = AngleGrid.uniform(-90.0, 90.0, 15.0)
        targets = TargetSet(np.array([-30.0, 40.0]), 3)
        from dfrcwave.radar import rectangular_pattern

        desired = rectangular_pattern(grid, targets.angles_deg, 20.0)
        scene = build_scene(geometry, grid, desired, targets, block_len=4)
        setup = CommSetup(
            channels=draw_channels(2, 3, 15),
            symbols=draw_symbols(2, 4, 4, 16),
            gamma=np.full(2, 10.0 ** 0.6),
            sigma2=0.01,
            m_points=4,
        )
        cfg = SolverConfig(seed=2, max_outer_iters=300, majorizer_kind="max_eigen")
        state = mm_solve(scene, setup, Weights(1.0, 2.0, 2.0), cfg)
        trace = state.objective_trace
        assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, trace[:-1]))
        assert state.final_margins.min() >= -1e-6

    def test_same_seed_same_trajectory(self):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        cfg = SolverConfig(mode="radar_only", seed=3, max_outer_iters=40)
        a = mm_solve(scene, None, Weights(1.0, 2.0, 2.0), cfg)
        b = mm_solve(scene, None, Weights(1.0, 2.0, 2.0), cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.objective_trace, b.objective_trace)

    def test_zero_channel_warns_for_its_rows(self):
        # user 1 has a zero channel and a positive QoS target; the
        # strict-feasibility pre-check flags exactly its rows, m % K == 1
        setup = CommSetup(
            channels=np.array([[1.0, 0.5j, -0.3], [0.0, 0.0, 0.0]]),
            symbols=draw_symbols(2, 4, 4, 6),
            gamma=np.full(2, 2.0),
            sigma2=0.01,
            m_points=4,
        )
        scene = make_scene(n_tx=3, block_len=4, max_lag=2)
        cfg = SolverConfig(seed=1, max_outer_iters=3)
        state = mm_solve(scene, setup, Weights(1.0, 2.0, 2.0), cfg)
        flagged = [
            int(w.split(":")[0].split()[1]) for w in state.warnings if "not strictly feasible" in w
        ]
        assert flagged == list(range(1, 2 * 2 * 4, 2))

    def test_infeasible_qos_downgrades_to_warning(self, rng):
        # gigantic QoS target: the strict-feasibility pre-check must fail
        setup = CommSetup(
            channels=draw_channels(2, 3, 5),
            symbols=draw_symbols(2, 4, 4, 6),
            gamma=np.full(2, 1e8),
            sigma2=1.0,
            m_points=4,
        )
        scene = make_scene(n_tx=3, block_len=4, max_lag=2)
        cfg = SolverConfig(seed=1, max_outer_iters=5)
        state = mm_solve(scene, setup, Weights(1.0, 2.0, 2.0), cfg)
        # the warnings leave the end reason alone: the flat trace converges at
        # iteration 2, and a run cut at 1 iteration says max_iters
        assert state.termination == Termination.CONVERGED
        assert state.outer_iterations == 2
        cut = mm_solve(
            scene, setup, Weights(1.0, 2.0, 2.0), dataclasses.replace(cfg, max_outer_iters=1)
        )
        assert cut.termination == Termination.MAX_ITERS and cut.warnings
        assert any("strictly feasible" in w for w in state.warnings)
        # no iterate is ever feasible, so every dual recovery fails restoration
        assert state.restore_failures == state.restorations == state.outer_iterations
        assert all(r.restored and not r.feasible_exit for r in state.iterations)
        assert any(
            w.startswith(f"feasibility restoration failed in {state.restore_failures} ")
            for w in state.warnings
        )


def desk_solve(**overrides):
    """Solve a desk-preset instance from problem.x0, as run_experiment does."""
    problem = build_problem(ExperimentConfig.desk_preset(**overrides))
    return mm_solve(
        problem.scene, problem.comm, problem.weights, problem.solver,
        x0=problem.x0, p_total=problem.p_total,
    )


def compare_solve(seed, kind):
    """Solve a compare-radar instance: configs/convergence_compare.cfg, which
    weights only the beam pattern, from problem.x0."""
    base = config_from_file(Path(__file__).parents[1] / "configs" / "convergence_compare.cfg")
    problem = build_problem(dataclasses.replace(base, seed=seed, majorizer_kind=kind))
    state = mm_solve(
        problem.scene, None, problem.weights, problem.solver,
        x0=problem.x0, p_total=problem.p_total,
    )
    return problem, state


class TestUnweightedCorrelations:
    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_skipping_them_changes_no_bit(self, seed, kind):
        # with w_ac = w_cc = 0 the loop evaluates no correlations; the exit
        # evaluates the final terms once in full, and the trajectory is that
        # of a run whose objective_terms always evaluates them.
        # _lag_correlations is the one evaluation of the correlations, which
        # objective_terms and correlation_values both call
        with mock.patch("dfrcwave.radar._lag_correlations",
                        wraps=radar._lag_correlations) as corr:
            problem, state = compare_solve(seed, kind)
        assert corr.call_count == 1
        assert state.final_terms == radar.objective_terms(state.x, problem.scene)
        assert min(state.final_terms) > 0.0

        def always_full(x, scene, correlations=True):
            return radar.objective_terms(x, scene)

        with mock.patch("dfrcwave.solver.objective_terms", always_full):
            _, ref = compare_solve(seed, kind)
        assert state.x.tobytes() == ref.x.tobytes()
        assert state.objective_trace.tobytes() == ref.objective_trace.tobytes()
        assert state.iterations == ref.iterations
        assert state.final_terms == ref.final_terms


class TestTermination:
    def test_restoration_failures_before_feasibility_do_not_warn(self):
        # two restorations fail while the iterate is still infeasible; the
        # run then converges to a feasible design (min margin 6.4e-6)
        state = desk_solve(seed=1, gamma_db=(15.0,), m_psk=8)
        assert state.termination == Termination.CONVERGED
        assert state.outer_iterations == 421
        assert state.final_margins.min() > 0.0
        assert state.restore_failures == 2
        # no iterate before the last failure was feasible
        failed = [t for t, r in enumerate(state.iterations) if not r.feasible_exit]
        assert not any(r.feasible_exit or r.polish_step for r in state.iterations[: failed[-1]])
        assert not any("feasibility restoration failed" in w for w in state.warnings)

    @pytest.mark.xfail(
        strict=True,
        reason="convergence is declared only on dual-accepted steps, so a run "
        "that continues on polish steps alone ends at max_iters (ROADMAP item 4a)",
    )
    def test_polish_only_tail_converges(self):
        # the last dual step is iteration 352; left to 5,000 the run ends there
        state = desk_solve(seed=2, gamma_db=(10.0,), m_psk=8, max_outer_iters=500)
        # the defect: a max_iters exit whose last 50 steps are all polish steps
        polish_tail = all(r.polish_step for r in state.iterations[-50:])
        assert state.termination == Termination.CONVERGED or not polish_tail

    def test_converged_run_meets_the_kkt_bound(self):
        # ended at KKT 1.018e-4 before the block finish (ROADMAP item 4c)
        state = desk_solve(seed=2, gamma_db=(15.0,), m_psk=8)
        assert state.termination == Termination.CONVERGED
        assert state.kkt_residual <= 1e-4


def scaled_terms_at(call, factor):
    """objective_terms whose terms are multiplied by ``factor`` at its
    ``call``-th call (1-based) and returned unchanged otherwise."""
    calls = itertools.count(1)

    def wrapped(x, scene, correlations=True):
        terms = radar.objective_terms(x, scene, correlations)
        if next(calls) != call:
            return terms
        return radar.ObjectiveTerms([factor * v for v in terms], terms.beta, terms.corr)

    return wrapped


def full_weights_radar_solve(max_outer_iters):
    """Radar-only solve with every weight nonzero: one objective_terms call
    per outer iteration and none at exit."""
    scene = make_scene(n_tx=2, block_len=4, max_lag=3)
    cfg = SolverConfig(mode="radar_only", seed=7, max_outer_iters=max_outer_iters)
    return mm_solve(scene, None, Weights(1.0, 2.0, 2.0), cfg)


class TestRareExits:
    """The mm_solve exits that ordinary solves never reach, forced by a
    wrapped objective or a lowered sweep cap."""

    def test_ascent_from_a_feasible_iterate_is_rejected(self):
        # a cost raised at iteration 6 reads as ascent: the run ends converged
        # on iteration 5's iterate, and the rejected step is recorded
        with mock.patch("dfrcwave.solver.objective_terms", scaled_terms_at(6, 2.0)):
            state = full_weights_radar_solve(100)
        capped = full_weights_radar_solve(5)
        assert capped.termination == Termination.MAX_ITERS
        assert state.termination == Termination.CONVERGED
        assert state.rejected_steps == 1
        assert len(state.iterations) == 6 and state.iterations[-1].rejected
        assert state.iterations[:-1] == capped.iterations
        assert state.objective_trace.tobytes() == capped.objective_trace.tobytes()
        assert state.x.tobytes() == capped.x.tobytes()
        assert state.final_terms == capped.final_terms

    def test_non_finite_objective_raises(self):
        with mock.patch("dfrcwave.solver.objective_terms", scaled_terms_at(1, math.nan)):
            with pytest.raises(RuntimeError, match="non-finite objective nan at outer iteration 1"):
                full_weights_radar_solve(100)

    def test_sweep_cap_hits_are_counted_and_warned(self):
        # one sweep per dual call: every call that moves a multiplier hits the cap
        with mock.patch("dfrcwave.solver.MAX_SWEEPS", 1):
            state = desk_solve(max_outer_iters=10)
        hits = sum(r.sweep_cap_hit for r in state.iterations)
        assert hits > 0
        assert state.sweep_cap_hits == hits
        assert f"dual ascent hit the sweep cap in {hits} iteration(s)" in state.warnings


@st.composite
def small_configs(draw):
    """Small valid desk-style configs: n_tx 1-4, L 2-8, K 1-min(3, n_tx), P 1-L,
    M in {2, 4, 8}, gamma -5..15 dB, a 2-degree grid and at most 100 iterations."""
    n_tx = draw(st.integers(1, 4))
    block_len = draw(st.integers(2, 8))
    return ExperimentConfig.desk_preset(
        n_tx=n_tx,
        block_len=block_len,
        k_users=draw(st.integers(1, min(3, n_tx))),
        max_lag=draw(st.integers(1, block_len)),
        m_psk=draw(st.sampled_from([2, 4, 8])),
        gamma_db=(draw(st.floats(-5.0, 15.0)),),
        grid_step_deg=2.0,
        max_outer_iters=100,
        seed=draw(st.integers(0, 2**16)),
    )


@functools.lru_cache(maxsize=None)
def contract_solve(config):
    """(problem, state) of one small config, solved once for every clause."""
    problem = build_problem(config)
    state = mm_solve(
        problem.scene, problem.comm, problem.weights, problem.solver,
        x0=problem.x0, p_total=problem.p_total,
    )
    return problem, state


def _feasible_flags(state):
    """Per accepted iterate: feasible (restored or polished) or not."""
    return [r.feasible_exit or r.polish_step for r in state.iterations if not r.rejected]


def over_small_configs(test):
    """Run ``test`` on 20 small configs, the same for every clause of the contract.

    One seed draws them, so each is solved once (``contract_solve``), and
    nothing is shrunk: a broken clause reports the first instance it fails.
    """
    examples = settings(
        max_examples=20, deadline=None, database=None, phases=(Phase.explicit, Phase.generate)
    )
    return seed(1)(examples(given(config=small_configs())(test)))


class TestSolveContract:
    """The solve's contract (ROADMAP item 11) over random small instances."""

    @over_small_configs
    def test_constant_modulus(self, config):
        problem, state = contract_solve(config)
        amp = math.sqrt(problem.p_total / problem.scene.geometry.n_tx)
        assert np.abs(np.abs(state.x) - amp).max() <= MODULUS_TOL * max(1.0, amp)

    @over_small_configs
    def test_trace_is_monotone_once_feasible(self, config):
        _, state = contract_solve(config)
        trace, feasible = state.objective_trace, _feasible_flags(state)
        if any(feasible):
            tail = trace[feasible.index(True):]
            assert np.all(np.diff(tail) <= 1e-9 * np.abs(tail[:-1]))

    @over_small_configs
    def test_feasible_exit_or_a_warning(self, config):
        _, state = contract_solve(config)
        assert state.final_margins.min() >= 0.0 or state.warnings

    @over_small_configs
    def test_termination_says_how_the_run_ended(self, config):
        _, state = contract_solve(config)
        assert state.termination in (Termination.CONVERGED, Termination.MAX_ITERS)
        if state.termination == Termination.MAX_ITERS:
            assert state.outer_iterations == config.max_outer_iters

    @pytest.mark.xfail(
        strict=True,
        reason="the KKT residual pairs the last dual step's multipliers with the "
        "returned, possibly restored design and checks complementarity only "
        "(ROADMAP item 4)",
    )
    @over_small_configs
    def test_converged_run_meets_the_kkt_bound(self, config):
        _, state = contract_solve(config)
        if state.termination == Termination.CONVERGED:
            assert state.kkt_residual <= 1e-4

    @pytest.mark.xfail(
        strict=True,
        reason="a run whose iterates are never feasible still stops on eps3 as "
        "converged, with a warning (ROADMAP item 4)",
    )
    @over_small_configs
    def test_never_feasible_run_does_not_converge(self, config):
        _, state = contract_solve(config)
        if not any(_feasible_flags(state)):
            assert state.termination != Termination.CONVERGED
