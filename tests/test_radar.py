"""Radar metrics: the factor paths against their definitions and the oracle's dense forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scene, random_cm
from dfrcwave import oracle
from dfrcwave.model import ArrayGeometry, Weights, vec
from dfrcwave.radar import (
    achieved_pattern,
    correlation_values,
    objective_terms,
    optimal_alpha,
    steering_matrix,
)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def steering(geometry, theta_deg):
    return steering_matrix(geometry, [theta_deg])[0]


class TestSteering:
    def test_broadside(self):
        a = steering(ArrayGeometry(2), 0.0)
        assert np.allclose(a, [1.0, 1.0], atol=1e-15)

    def test_endfire(self):
        a = steering(ArrayGeometry(2), 90.0)
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_thirty_degrees(self):
        a = steering(ArrayGeometry(2), 30.0)
        assert np.allclose(a, [1.0, 1j], atol=1e-12)

    def test_unit_modulus(self, rng):
        a = steering(ArrayGeometry(7, spacing=0.4), 17.3)
        assert np.allclose(np.abs(a), 1.0, atol=1e-15)


class TestBeamPattern:
    def test_single_antenna_is_power(self, rng):
        scene = make_scene(n_tx=1, block_len=6)
        x = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        for value in achieved_pattern(x, scene):
            assert rel_err(value, np.sum(np.abs(x) ** 2)) < 1e-12

    def test_identity_block_broadside(self):
        scene = make_scene(n_tx=2, block_len=2, max_lag=2)
        broadside = int(np.flatnonzero(scene.grid.angles_deg == 0.0)[0])
        assert abs(achieved_pattern(np.eye(2), scene)[broadside] - 2.0) < 1e-12

    def test_matches_quadratic_form(self, rng):
        scene = make_scene(n_tx=3, block_len=4)
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        xv = vec(x)
        pattern = achieved_pattern(x, scene)
        for u, a_u in enumerate(oracle._a_mats(scene)):
            quad = (xv.conj() @ a_u @ xv).real
            assert rel_err(pattern[u], quad) < 1e-10


class TestOptimalAlpha:
    def test_exact_match_recovers_scale(self, rng):
        scene = make_scene(n_tx=2, block_len=3, grid_step=30.0)
        # plant: desired pattern equal to the achieved pattern of some x
        from dfrcwave.model import AngleGrid, DesiredBeamPattern, TargetSet
        from dfrcwave.radar import achieved_pattern, build_scene

        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        achieved = achieved_pattern(x, scene)
        planted = build_scene(
            scene.geometry, scene.grid, DesiredBeamPattern(achieved / 2.0),
            scene.targets, scene.block_len,
        )
        assert abs(optimal_alpha(x, planted) - 2.0) < 1e-9

    def test_flat_desired_gives_mean(self, rng):
        from dfrcwave.model import DesiredBeamPattern
        from dfrcwave.radar import achieved_pattern, build_scene

        scene = make_scene(n_tx=2, block_len=3, grid_step=30.0)
        flat = build_scene(
            scene.geometry, scene.grid,
            DesiredBeamPattern(np.ones(len(scene.grid))),
            scene.targets, scene.block_len,
        )
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert rel_err(
            optimal_alpha(x, flat), achieved_pattern(x, flat).mean()
        ) < 1e-12

    def test_beats_dense_grid(self, rng):
        scene = make_scene(n_tx=2, block_len=4, grid_step=20.0)
        from dfrcwave.radar import achieved_pattern

        for _ in range(5):
            x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            alpha = optimal_alpha(x, scene)
            achieved = achieved_pattern(x, scene)
            gd = scene.desired.values
            mse_star = np.sum((alpha * gd - achieved) ** 2)
            grid = np.linspace(0.0, 2.0 * achieved.max(), 10_000)
            mses = ((grid[:, None] * gd[None, :] - achieved[None, :]) ** 2).sum(axis=1)
            assert mse_star <= mses.min() + 1e-9 * max(1.0, mses.min())


class TestBeampatternCost:
    def test_flat_pattern_single_antenna_costs_zero(self, rng):
        from dfrcwave.model import DesiredBeamPattern
        from dfrcwave.radar import build_scene

        base = make_scene(n_tx=1, block_len=4, target_angles=(0.0,), max_lag=2)
        flat = build_scene(
            base.geometry, base.grid, DesiredBeamPattern(np.ones(len(base.grid))),
            base.targets, base.block_len,
        )
        x = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        assert objective_terms(x, flat)[0] < 1e-18

    def test_nonnegative(self, rng):
        scene = make_scene()
        x = random_cm(rng, scene.n, 0.7)
        assert objective_terms(x, scene)[0] >= 0.0

    def test_equals_alpha_minimized_mse(self, rng):
        scene = make_scene(n_tx=2, block_len=4, grid_step=20.0)
        for _ in range(5):
            x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            cost = objective_terms(x, scene)[0]
            alpha = oracle.grid_alpha(x, scene, n_grid=200_000)
            mse = oracle.beampattern_mse(x, scene, alpha)
            assert rel_err(cost, mse) < 1e-6
        # and exactly at the closed-form alpha
        mse_star = oracle.beampattern_mse(x, scene, optimal_alpha(x, scene))
        assert rel_err(cost, mse_star) < 1e-8


class TestCorrelation:
    def test_zero_lag_diagonal_is_pattern_squared(self, rng):
        scene = make_scene(n_tx=3, block_len=5, max_lag=3, grid_step=10.0)
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        chi = np.abs(correlation_values(x, scene)) ** 2
        pattern = achieved_pattern(x, scene)
        p = scene.targets.max_lag
        for q, theta in enumerate(scene.targets.angles_deg):
            bp = pattern[int(np.flatnonzero(scene.grid.angles_deg == theta)[0])]
            assert rel_err(chi[p - 1, q, q], bp**2) < 1e-12

    def test_lag_angle_symmetry(self, rng):
        scene = make_scene(n_tx=2, block_len=6, max_lag=4)
        x = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        chi = np.abs(correlation_values(x, scene)) ** 2
        p = scene.targets.max_lag
        for tau in range(-3, 4):
            for q in range(2):
                for qp in range(2):
                    a = chi[tau + p - 1, q, qp]
                    b = chi[-tau + p - 1, qp, q]
                    assert rel_err(a, b) < 1e-12

    def test_correlation_values_match_factor_path(self, rng):
        """The Kronecker-factor slicing equals x^H D_{tau,q,q'} x on the dense D."""
        scene = make_scene(n_tx=2, block_len=5, max_lag=4)
        x = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        xv = vec(x)
        p = scene.targets.max_lag
        dense = np.empty((2 * p - 1, 2, 2), dtype=complex)
        for (tau, q, qp), d in oracle._d_mats(scene).items():
            dense[tau + p - 1, q, qp] = xv.conj() @ d @ xv
        sliced = correlation_values(x, scene)
        assert np.abs(dense - sliced).max() < 1e-10 * max(1.0, np.abs(dense).max())

    def test_objective_terms_match_factor_path(self, rng):
        """Costs from the factors equal the quadratic forms on the dense B/D."""
        scene = make_scene(n_tx=2, block_len=5, max_lag=4)
        x = random_cm(rng, scene.n, 1 / np.sqrt(2))
        g_bp = sum((x.conj() @ b @ x).real ** 2 for b in oracle._b_mats(scene))
        g_ac = g_cc = 0.0
        for (tau, q, qp), d in oracle._d_mats(scene).items():
            chi = abs(x.conj() @ d @ x) ** 2
            if q != qp:
                g_cc += chi
            elif tau != 0:
                g_ac += chi
        for a, b in zip(objective_terms(x, scene), (g_bp, g_ac, g_cc)):
            assert rel_err(a, b) < 1e-10


class TestISL:
    def test_unit_max_lag_kills_autocorr(self, rng):
        scene = make_scene(max_lag=1)
        x = random_cm(rng, scene.n, 0.7)
        assert objective_terms(x, scene)[1] == 0.0

    def test_single_target_kills_crosscorr(self, rng):
        scene = make_scene(target_angles=(10.0,), max_lag=3)
        x = random_cm(rng, scene.n, 0.7)
        assert objective_terms(x, scene)[2] == 0.0

    def test_matches_direct_sums(self, rng):
        scene = make_scene(n_tx=2, block_len=5, max_lag=3)
        x = random_cm(rng, scene.n, 1.0 / np.sqrt(2))
        g_ac, g_cc = oracle.direct_isls(x, scene)
        _, ac, cc = objective_terms(x, scene)
        assert rel_err(ac, g_ac) < 1e-9
        assert rel_err(cc, g_cc) < 1e-9


class TestInputChecks:
    @pytest.mark.parametrize(
        ("shape", "message"),
        [
            ((7,), r"expected vector of length 8, got 7"),
            ((4, 2), r"expected block of shape \(2, 4\), got \(4, 2\)"),
        ],
    )
    def test_waveform_must_fit_the_scene(self, shape, message):
        # a vec'd vector of length N or an N_T x L block, nothing else
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        with pytest.raises(ValueError, match=message):
            achieved_pattern(np.ones(shape, dtype=complex), scene)


class TestSceneInvariants:
    def test_b_mats_hermitian(self):
        scene = make_scene(n_tx=3, block_len=3, max_lag=2)
        for c in scene.c_factors:
            scale = max(1.0, np.abs(c).max())
            assert np.abs(c - c.conj().T).max() <= 1e-12 * scale
        # the factors are those of the dense B_u = I_L (x) C_u
        for b, c in zip(oracle._b_mats(scene), scene.c_factors):
            assert np.abs(b - np.kron(np.eye(3), c)).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_d_family_conjugation_symmetry(self, rng):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        d_mats = oracle._d_mats(scene)
        p = scene.targets.max_lag
        x = random_cm(rng, scene.n, 1 / np.sqrt(2))
        r = correlation_values(x, scene)
        for tau in range(-p + 1, p):
            for q in range(2):
                for qp in range(2):
                    lhs = d_mats[(tau, q, qp)].conj().T
                    assert np.abs(lhs - d_mats[(-tau, qp, q)]).max() < 1e-14
                    # hence x^H D_{-tau,q',q} x = conj(x^H D_{tau,q,q'} x)
                    gap = abs(r[-tau + p - 1, qp, q] - np.conj(r[tau + p - 1, q, qp]))
                    assert gap < 1e-12 * max(1.0, abs(r[tau + p - 1, q, qp]))

    def test_desired_length_must_match_grid(self):
        from dfrcwave.model import AngleGrid, ArrayGeometry, DesiredBeamPattern, TargetSet
        from dfrcwave.radar import build_scene

        grid = AngleGrid.uniform(-90.0, 90.0, 30.0)
        with pytest.raises(ValueError, match="grid"):
            build_scene(
                ArrayGeometry(2), grid, DesiredBeamPattern(np.ones(3)),
                TargetSet(np.array([0.0]), 2), block_len=4,
            )

    def test_lag_cap_enforced(self):
        with pytest.raises(ValueError, match="block length"):
            make_scene(block_len=2, max_lag=4)


class TestTotalObjective:
    def test_degenerate_weights(self, rng):
        scene = make_scene()
        x = random_cm(rng, scene.n, 0.7)
        w = Weights(1.0, 0.0, 0.0)
        assert rel_err(w.cost(objective_terms(x, scene)), objective_terms(x, scene)[0]) < 1e-12

    def test_weighted_sum_of_oracle_terms(self, rng, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        x = random_cm(rng, scene.n, 1.0 / np.sqrt(2))
        g_ac, g_cc = oracle.direct_isls(x, scene)
        alpha = optimal_alpha(x, scene)
        g_bp = oracle.beampattern_mse(x, scene, alpha)
        expect = 1.0 * g_bp + 2.0 * g_ac + 2.0 * g_cc
        assert rel_err(weights_full.cost(objective_terms(x, scene)), expect) < 1e-8

    def test_global_phase_invariance(self, rng, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        x = random_cm(rng, scene.n, 0.5)
        rotated = x * np.exp(1j * 1.2345)
        a = objective_terms(x, scene)
        b = objective_terms(rotated, scene)
        for u, v in zip(a, b):
            assert rel_err(u, v) < 1e-10


@st.composite
def scenes_and_waveforms(draw):
    """Small scenes (P up to L + 1, so lag tau = L is drawn) and a random x,
    constant-modulus or not."""
    n_tx = draw(st.integers(1, 4))
    block_len = draw(st.integers(1, 8))
    max_lag = draw(st.integers(1, block_len + 1))
    q_n = draw(st.integers(1, 3))
    angles = draw(st.lists(st.integers(-80, 80), min_size=q_n, max_size=q_n, unique=True))
    scene = make_scene(
        n_tx=n_tx, block_len=block_len, grid_step=30.0, width=30.0,
        target_angles=tuple(angles), max_lag=max_lag,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = random_cm(rng, scene.n, draw(st.sampled_from([0.5, 1.0, 2.0])))
    else:
        x = rng.standard_normal(scene.n) + 1j * rng.standard_normal(scene.n)
    return scene, x


def _dense_correlations(x, scene):
    p = scene.targets.max_lag
    q_n = scene.targets.n_targets
    out = np.empty((2 * p - 1, q_n, q_n), dtype=complex)
    for (tau, q, qp), d in oracle._d_mats(scene).items():
        out[tau + p - 1, q, qp] = x.conj() @ d @ x
    return out


@pytest.mark.parity
class TestKernelProperties:
    """The structured kernels equal the oracle's dense forms to 1e-12 relative."""

    @settings(deadline=None, derandomize=True)
    @given(case=scenes_and_waveforms())
    def test_bp_quadratic_forms_match_dense(self, case):
        # the forms x^H B_u x that objective_terms carries as .beta, with x
        # as the vector or as its N_T x L block
        scene, x = case
        dense = np.array([(x.conj() @ b @ x).real for b in oracle._b_mats(scene)])
        block = x.reshape((scene.geometry.n_tx, scene.block_len), order="F")
        for arg in (x, block):
            fast = objective_terms(arg, scene, False).beta
            assert np.abs(fast - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    @settings(deadline=None, derandomize=True)
    @given(case=scenes_and_waveforms())
    def test_correlation_values_match_dense(self, case):
        scene, x = case
        dense = _dense_correlations(x, scene)
        fast = correlation_values(x, scene)
        assert fast.shape == dense.shape
        assert np.abs(fast - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())
        # a lag with no room in the block is exactly zero, not rounding noise
        p = scene.targets.max_lag
        taus = np.arange(-p + 1, p)
        assert not fast[np.abs(taus) >= scene.block_len].any()

    @settings(deadline=None, derandomize=True)
    @given(case=scenes_and_waveforms())
    def test_objective_terms_match_oracle(self, case):
        scene, x = case
        g_bp = sum((x.conj() @ b @ x).real ** 2 for b in oracle._b_mats(scene))
        g_ac, g_cc = oracle.direct_isls(x, scene)
        terms = objective_terms(x, scene)
        for fast, dense in zip(terms, (g_bp, g_ac, g_cc)):
            assert rel_err(fast, dense) <= 1e-12
        # the forms the sums came from ride along, bit for bit: the
        # correlations at the lags tau >= 0 of the full stack
        p, q_n = scene.targets.max_lag, scene.targets.n_targets
        assert terms.corr.shape == (p, q_n, q_n)
        assert terms.corr.tobytes() == correlation_values(x, scene)[p - 1 :].tobytes()
        beam_only = objective_terms(x, scene, correlations=False)
        assert beam_only.corr is None and beam_only.beta.tobytes() == terms.beta.tobytes()
        assert tuple(beam_only) == (terms[0], 0.0, 0.0)

    @settings(deadline=None, derandomize=True)
    @given(case=scenes_and_waveforms())
    def test_beta_is_bp_quadratic_forms_of_vector_and_block(self, case):
        # objective_terms reads the block once and hands it to the one owner
        # of the beta formula: its .beta is the same to the bit whether x
        # arrives as the vector or as its N_T x L block, with or without the
        # correlations, and g_bp is its sum of squares
        scene, x = case
        beta = objective_terms(x, scene, False).beta
        block = x.reshape((scene.geometry.n_tx, scene.block_len), order="F")
        for arg in (x, block):
            for correlations in (True, False):
                terms = objective_terms(arg, scene, correlations)
                assert terms.beta.tobytes() == beta.tobytes()
                assert terms[0] == float(np.sum(beta**2))


@pytest.mark.parity
class TestCorrelationLayout:
    @settings(deadline=None, derandomize=True)
    @given(case=scenes_and_waveforms())
    def test_isls_from_nonnegative_lags_match_the_full_stack(self, case):
        # objective_terms evaluates only the lags tau >= 0 and mirrors their
        # squared moduli to the negative lags; its ISLs are the masked sums
        # over the full (2P-1, Q, Q) stack of correlation_values, byte for
        # byte, and each negative lag of that stack is the conjugate
        # transpose of its mirror
        scene, x = case
        full = correlation_values(x, scene)
        chi = np.abs(full) ** 2
        ac, cc = scene.isl_masks
        terms = objective_terms(x, scene)
        assert np.float64(terms[1]).tobytes() == np.float64(chi[ac].sum()).tobytes()
        assert np.float64(terms[2]).tobytes() == np.float64(chi[cc].sum()).tobytes()
        p = scene.targets.max_lag
        mirrored = full[p - 1 :][:0:-1].conj().transpose(0, 2, 1)
        assert full[: p - 1].tobytes() == mirrored.tobytes()
