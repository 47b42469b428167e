"""Channels, PSK codewords, and the CI constraint construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfrcwave import oracle
from dfrcwave.comm import (
    CIConstraintSet,
    CommSetup,
    build_ci_constraints,
    ci_margin,
    draw_channels,
    draw_symbols,
)
from dfrcwave.config import ExperimentConfig, build_problem
from dfrcwave.solver import Termination, _weighted_rows, mm_solve, solve_inner


def make_setup(rng, k_users=2, n_tx=4, block_len=3, m_points=4, gamma=2.0, sigma2=0.01):
    return CommSetup(
        channels=draw_channels(k_users, n_tx, rng.integers(2**31)),
        symbols=draw_symbols(k_users, block_len, m_points, rng.integers(2**31)),
        gamma=np.full(k_users, gamma),
        sigma2=sigma2,
        m_points=m_points,
    )


class TestDraws:
    def test_channels_deterministic_per_seed(self):
        a = draw_channels(3, 5, 42)
        b = draw_channels(3, 5, 42)
        c = draw_channels(3, 5, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_channel_power_moment(self):
        h = draw_channels(200, 500, 7)
        mean_power = np.mean(np.abs(h) ** 2)
        # |h|^2 is Exp(1); the mean of 1e5 draws has std 1/sqrt(1e5)
        assert abs(mean_power - 1.0) < 3.0 / np.sqrt(h.size)

    def test_bpsk_alphabet(self):
        s = draw_symbols(4, 50, 2, 0)
        assert set(np.round(s.ravel().real).astype(int)) <= {-1, 1}
        assert np.abs(s.imag).max() < 1e-12

    def test_qpsk_alphabet(self):
        s = draw_symbols(4, 50, 4, 0)
        phases = np.sort(np.unique(np.round(np.angle(s) / (np.pi / 2)).astype(int)))
        assert np.abs(np.abs(s) - 1.0).max() < 1e-12
        assert set(phases) <= {-2, -1, 0, 1, 2}

    def test_symbol_histogram_uniform(self):
        m = 4
        s = draw_symbols(100, 1000, m, 11)
        idx = np.round(np.angle(s) / (2 * np.pi / m)).astype(int) % m
        counts = np.bincount(idx.ravel(), minlength=m)
        expected = s.size / m
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 11.345  # chi-square critical value, df=3, alpha=0.01

    def test_small_constellation_rejected(self):
        with pytest.raises(ValueError):
            draw_symbols(1, 1, 1, 0)


class TestCommSetup:
    def test_k_exceeding_antennas_rejected(self, rng):
        with pytest.raises(ValueError, match="K <= n_tx"):
            make_setup(rng, k_users=5, n_tx=4)

    def test_non_unit_symbols_rejected(self, rng):
        with pytest.raises(ValueError, match="unit modulus"):
            CommSetup(
                channels=draw_channels(1, 2, 0),
                symbols=np.array([[0.5 + 0.0j]]),
                gamma=np.array([1.0]),
                sigma2=0.01,
                m_points=4,
            )

    def test_off_lattice_symbols_rejected(self, rng):
        with pytest.raises(ValueError, match="pi/M"):
            CommSetup(
                channels=draw_channels(1, 2, 0),
                symbols=np.array([[np.exp(0.3j)]]),
                gamma=np.array([1.0]),
                sigma2=0.01,
                m_points=4,
            )

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            CommSetup(
                channels=draw_channels(1, 2, 0),
                symbols=np.array([[1.0 + 0.0j]]),
                gamma=np.array([gamma]),
                sigma2=0.01,
                m_points=4,
            )

    def test_rotated_constellation_accepted(self, rng):
        # pi/M-offset QPSK is a legal constellation choice
        CommSetup(
            channels=draw_channels(1, 2, 0),
            symbols=np.array([[np.exp(1j * np.pi / 4)]]),
            gamma=np.array([1.0]),
            sigma2=0.01,
            m_points=4,
        )

    @pytest.mark.parametrize(
        ("channels", "symbols", "gamma", "message"),
        [
            ((2,), (1, 3), (1,), r"channels must be a K x n_tx matrix"),
            ((1, 2), (3,), (1,), r"symbols must be K x L with K=1, got \(3,\)"),
            ((1, 2), (2, 3), (1,), r"symbols must be K x L with K=1, got \(2, 3\)"),
            ((1, 2), (1, 3), (2,), r"gamma must have one entry per user, got shape \(2,\)"),
            # no user or no symbol: a named rule, not numpy's empty reduction
            ((0, 2), (0, 3), (0,), r"need K >= 1 users and L >= 1 symbols, got K x L = \(0, 3\)"),
            ((1, 2), (1, 0), (1,), r"need K >= 1 users and L >= 1 symbols, got K x L = \(1, 0\)"),
        ],
    )
    def test_shapes_must_agree(self, channels, symbols, gamma, message):
        # K users: channels K x n_tx, codewords K x L and one QoS level each
        with pytest.raises(ValueError, match=message):
            CommSetup(
                channels=np.ones(channels, dtype=complex),
                symbols=np.ones(symbols, dtype=complex),
                gamma=np.ones(gamma),
                sigma2=0.01,
                m_points=4,
            )


class TestBuildConstraints:
    def test_hand_worked_scalar_case(self):
        # N_T=1, K=1, L=1, h=1, s=e^{j pi/4}, M=4
        sigma2, gamma = 0.04, 3.0
        setup = CommSetup(
            channels=np.array([[1.0 + 0.0j]]),
            symbols=np.array([[np.exp(1j * np.pi / 4)]]),
            gamma=np.array([gamma]),
            sigma2=sigma2,
            m_points=4,
        )
        cset = build_ci_constraints(setup, 1.0)
        lam = np.pi / 4
        rot = np.exp(-1j * np.pi / 4)
        expect0 = rot * (np.sin(lam) - 1j * np.cos(lam))
        expect1 = rot * (np.sin(lam) + 1j * np.cos(lam))
        for h_tilde in (oracle.dense_h_tilde(setup), cset.rows.reshape(2, 1)):
            assert h_tilde.shape == (2, 1)
            assert abs(h_tilde[0, 0] - expect0) < 1e-14
            assert abs(h_tilde[1, 0] - expect1) < 1e-14
        gam = np.sqrt(sigma2) * np.sqrt(gamma) * np.sin(lam)
        assert np.allclose(cset.thresholds.ravel(), [gam, gam], atol=1e-15)

    def test_on_ray_symbol_margins(self):
        # x_1 = c*s with c real positive: both margins equal (c - sigma sqrt(gamma)) sin(lam)
        sigma2, gamma, c = 0.01, 4.0, 0.9
        s = 1j  # a QPSK point
        setup = CommSetup(
            channels=np.array([[1.0 + 0.0j]]),
            symbols=np.array([[s]]),
            gamma=np.array([gamma]),
            sigma2=sigma2,
            m_points=4,
        )
        cset = build_ci_constraints(setup, 1.0)
        margins = ci_margin(np.array([c * s]), cset)
        lam = np.pi / 4
        expect = (c - np.sqrt(sigma2) * np.sqrt(gamma)) * np.sin(lam)
        assert np.allclose(margins, expect, atol=1e-12)

    def test_pair_rows_differ_by_cos_sign(self, rng):
        setup = make_setup(rng)
        h_tilde = oracle.dense_h_tilde(setup)
        k_users = setup.k_users
        lam = np.pi / setup.m_points
        for ell in range(setup.block_len):
            for k in range(k_users):
                row_a = h_tilde[(2 * ell) * k_users + k]
                row_b = h_tilde[(2 * ell + 1) * k_users + k]
                # common part has the sin factor; the difference isolates -2j cos
                common = (row_a + row_b) / 2
                diff = (row_b - row_a) / 2
                assert np.allclose(diff, 1j * common / np.tan(lam), atol=1e-12)

    def test_row_count_and_sparsity(self, rng):
        setup = make_setup(rng, k_users=2, n_tx=4, block_len=3)
        cset = build_ci_constraints(setup, 1.0)
        h_tilde = oracle.dense_h_tilde(setup)
        assert cset.n_rows == 2 * 2 * 3
        for m in range(cset.n_rows):
            ell = m // (2 * 2)
            row = h_tilde[m].copy()
            block = row[ell * 4 : (ell + 1) * 4]
            assert np.array_equal(block, cset.rows.reshape(-1, 4)[m])
            row[ell * 4 : (ell + 1) * 4] = 0.0
            assert not row.any()

    def test_row_norm_equals_channel_norm(self, rng):
        setup = make_setup(rng)
        h_tilde = oracle.dense_h_tilde(setup)
        k_users = setup.k_users
        for m in range(h_tilde.shape[0]):
            k = m % k_users
            assert abs(
                np.linalg.norm(h_tilde[m]) - np.linalg.norm(setup.channels[k])
            ) < 1e-9

    def test_co_rotation_invariance(self, rng):
        base = make_setup(rng, k_users=1, n_tx=3, block_len=2)
        phi = 2 * np.pi / 4  # rotate by one constellation step to stay on-lattice
        rotated = CommSetup(
            channels=base.channels,
            symbols=base.symbols * np.exp(1j * phi),
            gamma=base.gamma,
            sigma2=base.sigma2,
            m_points=base.m_points,
        )
        x = np.asarray(
            np.random.default_rng(5).standard_normal(6)
            + 1j * np.random.default_rng(6).standard_normal(6)
        )
        x_rot = x * np.exp(1j * phi)
        m_a = ci_margin(x, build_ci_constraints(base, 1.0))
        m_b = ci_margin(x_rot, build_ci_constraints(rotated, 1.0))
        assert np.allclose(m_a, m_b, atol=1e-10)

    def test_set_carries_the_amplitude(self, rng):
        # amp is sqrt(p_total / n_tx) bit for bit; clear_by and the stop band are
        # read off it, each bit for bit its formula (clear_by the largest row's
        # bound, one float), and clear_by is built once
        cset = build_ci_constraints(make_setup(rng, n_tx=4), 2.0)
        assert cset.amp == math.sqrt(2.0 / 4)
        eps = np.finfo(float).eps
        scale = np.abs(cset.thresholds) + cset.amp * cset.row_abs_sums
        c, eps2 = float((2.0 * 16 * cset.n_tx * eps * scale).max()), 1e-4
        assert type(cset.clear_by) is float and cset.clear_by == c
        assert cset.clear_by is cset.clear_by
        low, high = cset.stop_band(eps2)
        assert (low, high) == (2.0 * c + 4.0 * eps2 * eps, (eps2 - 4.0 * eps2 * eps) - 2.0 * c)

    def test_rows_conj_is_the_conjugated_stack_built_once(self, rng):
        # the dual's tail reads the conjugated rows from the set: byte for byte
        # rows.conj(), one array per set, and read-only like the rows
        cset = build_ci_constraints(make_setup(rng, n_tx=4), 1.0)
        assert cset.rows_conj.tobytes() == cset.rows.conj().tobytes()
        assert cset.rows_conj.shape == cset.rows.shape
        assert cset.rows_conj is cset.rows_conj and not cset.rows_conj.flags.writeable
        with pytest.raises(ValueError):
            cset.rows_conj[0, 0, 0] = 0.0

    @pytest.mark.parametrize("p_total", [0.0, -1.0, math.nan, math.inf])
    def test_p_total_must_be_finite_and_positive(self, rng, p_total):
        with pytest.raises(ValueError, match="p_total must be finite and > 0"):
            build_ci_constraints(make_setup(rng), p_total)

    @pytest.mark.parametrize("amp", [0.0, -1.0, math.nan, math.inf])
    def test_amp_must_be_finite_and_positive(self, rng, amp):
        cset = build_ci_constraints(make_setup(rng), 1.0)
        with pytest.raises(ValueError, match="amp must be finite and > 0"):
            CIConstraintSet(cset.rows, cset.thresholds, amp)


class TestMargins:
    def test_zero_input(self, rng):
        setup = make_setup(rng)
        cset = build_ci_constraints(setup, 1.0)
        margins = ci_margin(np.zeros(cset.n, dtype=complex), cset)
        assert np.allclose(margins, -cset.thresholds.ravel(), atol=1e-15)

    def test_zero_qos_zero_margin_at_origin(self, rng):
        setup = make_setup(rng, gamma=0.0)
        cset = build_ci_constraints(setup, 1.0)
        margins = ci_margin(np.zeros(cset.n, dtype=complex), cset)
        assert np.allclose(margins, 0.0, atol=1e-15)

    def test_dimension_mismatch(self, rng):
        setup = make_setup(rng)
        cset = build_ci_constraints(setup, 1.0)
        with pytest.raises(ValueError):
            ci_margin(np.zeros(cset.n + 1, dtype=complex), cset)


@st.composite
def ci_setups(draw):
    """Small random CI problems: (setup, rng) over n_tx 1-4, L 1-6, K <= 2, M-PSK,
    with a QoS level per user."""
    n_tx = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6))
    k_users = draw(st.integers(1, min(2, n_tx)))
    m_points = draw(st.sampled_from([2, 4, 8]))
    gamma_db = draw(st.lists(st.floats(0.0, 16.0), min_size=k_users, max_size=k_users))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    setup = CommSetup(
        channels=draw_channels(k_users, n_tx, rng.integers(2**31)),
        symbols=draw_symbols(k_users, length, m_points, rng.integers(2**31)),
        gamma=10.0 ** (np.array(gamma_db) / 10.0),
        sigma2=0.01,
        m_points=m_points,
    )
    return setup, rng


@pytest.mark.parity
class TestBlockLayoutProperties:
    @settings(deadline=None, derandomize=True)
    @given(inst=ci_setups())
    def test_block_rows_match_dense_oracle(self, inst):
        setup, rng = inst
        cset = build_ci_constraints(setup, 1.0)
        length, k_users, n_tx = setup.block_len, setup.k_users, setup.n_tx
        assert cset.rows.shape == (length, 2 * k_users, n_tx)
        assert cset.thresholds.shape == (length, 2 * k_users)
        dense = oracle.dense_h_tilde(setup)
        assert dense.shape == (cset.n_rows, cset.n)
        # (block of the row, row in block, block of the entry, entry in block)
        tiles = dense.reshape(length, 2 * k_users, length, n_tx).transpose(0, 2, 1, 3)
        for ell in range(length):
            assert np.array_equal(tiles[ell, ell], cset.rows[ell])
        assert not tiles[~np.eye(length, dtype=bool)].any()
        # Gamma_m = sigma sqrt(gamma_k) sin(pi/M) for row m = (2l + half) K + k
        sin_l = math.sin(math.pi / setup.m_points)
        expect = [
            math.sqrt(setup.sigma2 * setup.gamma[m % k_users]) * sin_l for m in range(cset.n_rows)
        ]
        assert np.allclose(cset.thresholds.ravel(), expect, rtol=1e-14, atol=0.0)

    @settings(deadline=None, derandomize=True)
    @given(inst=ci_setups())
    def test_block_products_match_dense_forms(self, inst):
        setup, rng = inst
        cset = build_ci_constraints(setup, 1.0)
        dense = oracle.dense_h_tilde(setup)
        n, amp = cset.n, math.sqrt(1.0 / setup.n_tx)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu = rng.uniform(0.0, 3.0, cset.n_rows) * (rng.random(cset.n_rows) < 0.7)
        margins = (dense @ x).real - cset.thresholds.ravel()
        assert np.abs(ci_margin(x, cset) - margins).max() <= 1e-12 * max(1.0, np.abs(margins).max())
        coef = dense.conj().T @ nu - d
        scale = max(1.0, np.abs(coef).max())
        assert np.abs(_weighted_rows(cset, nu) - d - coef).max() <= 1e-12 * scale
        x_dense = amp * np.exp(1j * np.where(coef == 0, 0.0, np.angle(coef)))
        x_inner = solve_inner(nu, d, cset)
        assert np.abs(x_inner - x_dense).max() <= 1e-12


class TestGeometricEquivalence:
    def test_boundary_point_on_ray(self):
        sigma, gamma = 0.1, 4.0
        h = np.array([1.0 + 0.0j])
        s = 1.0 + 0.0j
        x_boundary = np.array([sigma * np.sqrt(gamma) * s])
        assert oracle.geometric_ci_check(x_boundary, h, s, gamma, sigma, 4, tol=1e-12)
        x_short = np.array([0.9 * sigma * np.sqrt(gamma) * s])
        assert not oracle.geometric_ci_check(x_short, h, s, gamma, sigma, 4)

    def test_matches_compact_form_on_random_draws(self, rng):
        trials = 1000
        hits = 0
        for _ in range(trials):
            setup = make_setup(rng, k_users=2, n_tx=3, block_len=2)
            cset = build_ci_constraints(setup, 1.0)
            x = (rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)) * 0.4
            margins = ci_margin(x, cset)
            if np.abs(margins).min() < 1e-10:
                continue  # boundary cases handled separately above
            X = x.reshape((3, 2), order="F")
            k_users = setup.k_users
            for ell in range(setup.block_len):
                for k in range(k_users):
                    pair_ok = (
                        margins[(2 * ell) * k_users + k] >= 0
                        and margins[(2 * ell + 1) * k_users + k] >= 0
                    )
                    geo_ok = oracle.geometric_ci_check(
                        X[:, ell], setup.channels[k], setup.symbols[k, ell],
                        setup.gamma[k], np.sqrt(setup.sigma2), setup.m_points,
                    )
                    assert pair_ok == geo_ok
                    hits += 1
        assert hits >= trials  # plenty of non-boundary comparisons happened

    def test_bpsk_limit_form(self):
        sigma, gamma = 0.1, 1.0
        h = np.array([1.0 + 0.0j])
        # BPSK: only the real part matters
        assert oracle.geometric_ci_check(np.array([0.2 + 5j]), h, 1.0, gamma, sigma, 2)
        assert not oracle.geometric_ci_check(np.array([0.05 + 0.0j]), h, 1.0, gamma, sigma, 2)


def _q(z: float) -> float:
    """Gaussian tail probability Q(z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ser_bound(gamma_db: float, m_points: int) -> float:
    """SER bound of a design whose every CI margin is >= 0.

    Each noiseless received symbol then lies at least sigma sqrt(gamma)
    sin(pi/M) from both edges of its decision cone, and the noise reaches
    past one edge with probability Q(sqrt(2 gamma) sin(pi/M)); the two
    edges are one line for BPSK. gamma is converted from dB here.
    """
    gamma = 10.0 ** (gamma_db / 10.0)
    if m_points == 2:
        return _q(math.sqrt(2.0 * gamma))
    return 2.0 * _q(math.sqrt(2.0 * gamma) * math.sin(math.pi / m_points))


class TestMonteCarloSER:
    """Symbol error rates simulated over the noisy downlink, an independent
    check of the CI rows' conventions (sigma, dB, the cos term's sign)."""

    TRIALS = 20_000

    def allowed(self, gamma_db, m_points, block_len):
        """The bound plus 4 binomial standard errors over TRIALS * L symbols."""
        bound = ser_bound(gamma_db, m_points)
        return bound + 4.0 * math.sqrt(bound * (1.0 - bound) / (self.TRIALS * block_len))

    @pytest.mark.parametrize(
        "seed, gamma_db, m_psk", [(0, 6.0, 4), (1, 10.0, 8), (2, 0.0, 2)]
    )
    def test_converged_designs_meet_the_bound(self, seed, gamma_db, m_psk):
        config = ExperimentConfig.desk_preset(seed=seed, gamma_db=(gamma_db,), m_psk=m_psk)
        problem = build_problem(config)
        state = mm_solve(
            problem.scene, problem.comm, problem.weights, problem.solver,
            x0=problem.x0, p_total=problem.p_total,
        )
        assert state.termination == Termination.CONVERGED
        assert state.final_margins.min() >= 0.0
        ser = oracle.monte_carlo_ser(state.x, problem.comm, self.TRIALS, seed=0)
        assert ser.max() <= self.allowed(gamma_db, m_psk, config.block_len)

    def test_random_start_misses_the_bound(self):
        # negative control: the random starting point has no QoS guarantee
        config = ExperimentConfig.desk_preset()
        problem = build_problem(config)
        ser = oracle.monte_carlo_ser(problem.x0, problem.comm, self.TRIALS, seed=0)
        assert ser.min() > self.allowed(config.gamma_db[0], config.m_psk, config.block_len)
