"""The brute-force reference paths themselves, and the boundary that keeps them out of a solve."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfrcwave

from conftest import make_scene, random_cm
from dfrcwave import oracle
from dfrcwave.model import Weights
from dfrcwave.radar import objective_terms, optimal_alpha


class TestDensePsi:
    def test_matches_total_objective(self, rng, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        dq = oracle.assemble_psi(scene, weights_full)
        for _ in range(10):
            x = random_cm(rng, scene.n, 1 / np.sqrt(2))
            a = dq.evaluate(x)
            b = weights_full.cost(objective_terms(x, scene))
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))

    def test_hermitian_psd(self, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        psi = oracle.assemble_psi(scene, weights_full).psi
        assert np.abs(psi - psi.conj().T).max() < 1e-12 * np.abs(psi).max()
        eigs = np.linalg.eigvalsh(psi)
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_single_term_rank_one(self, rng):
        scene = make_scene(
            n_tx=1, block_len=2, max_lag=1, target_angles=(0.0,), grid_step=45.0
        )
        psi = oracle.assemble_psi(scene, Weights(1.0, 0.0, 0.0)).psi
        # with U grid angles, rank is at most U
        rank = np.linalg.matrix_rank(psi, tol=1e-10)
        assert rank <= len(scene.grid)

    def test_capacity_cap(self, weights_full):
        scene = make_scene(n_tx=2, block_len=16)  # N = 32 > 16
        with pytest.raises(oracle.CapacityError):
            oracle.assemble_psi(scene, weights_full)


class TestGridAlpha:
    def test_matches_closed_form_within_spacing(self, rng):
        scene = make_scene(n_tx=2, block_len=3, grid_step=20.0)
        for _ in range(5):
            x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            alpha_star = optimal_alpha(x, scene)
            from dfrcwave.radar import achieved_pattern

            spacing = 2.0 * achieved_pattern(x, scene).max() / 10_000
            assert abs(oracle.grid_alpha(x, scene) - alpha_star) <= spacing

    def test_monotone_refinement(self, rng):
        # nested grid sizes: each finer grid contains every coarser point
        scene = make_scene(n_tx=2, block_len=3, grid_step=20.0)
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        alpha_star = optimal_alpha(x, scene)
        gaps = [
            abs(oracle.grid_alpha(x, scene, n_grid=n) - alpha_star)
            for n in (1001, 10_001, 100_001)
        ]
        assert gaps[2] <= gaps[1] + 1e-12 and gaps[1] <= gaps[0] + 1e-12

    def test_rejects_coarse_grid(self, rng):
        scene = make_scene(n_tx=2, block_len=3)
        x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        with pytest.raises(ValueError):
            oracle.grid_alpha(x, scene, n_grid=10)


class TestPhaseBruteforce:
    def test_real_positive_d_points_to_pi(self):
        d = np.array([2.0, 1.0, 0.5], dtype=complex)
        phases = oracle.phase_bruteforce(d, np.zeros(3, dtype=complex))
        assert np.allclose(phases, np.pi, atol=2 * np.pi / 10_000 + 1e-12)

    def test_zero_vector_any_phase(self):
        phases = oracle.phase_bruteforce(
            np.zeros(2, dtype=complex), np.zeros(2, dtype=complex)
        )
        assert phases.shape == (2,)

    def test_matches_angle_formula(self, rng):
        d = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phases = oracle.phase_bruteforce(d, w)
        expect = np.angle(w - d) % (2 * np.pi)
        diff = np.abs(phases - expect)
        diff = np.minimum(diff, 2 * np.pi - diff)
        assert diff.max() <= 2 * np.pi / 10_000 + 1e-12


class TestPowerIteration:
    def test_known_spectrum(self):
        mat = np.diag([1.0, 5.0, 2.0]).astype(complex)
        assert abs(oracle.power_iteration(mat) - 5.0) < 1e-8

    def test_zero_matrix(self):
        assert oracle.power_iteration(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_returns_last_estimate_at_max_iters(self):
        # k steps from the seeded start: the Rayleigh quotient of mat^k v0, short of 5
        mat = np.diag([1.0, 5.0, 4.0]).astype(complex)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in (1, 2, 3):
            v = mat @ v
            expected = float((v.conj() @ mat @ v).real / (v.conj() @ v).real)
            assert expected < 5.0 - 1e-3
            assert oracle.power_iteration(mat, max_iters=k) == pytest.approx(expected, rel=1e-12)


class TestInputChecks:
    def test_dense_quartic_rejects_non_hermitian_psi(self):
        with pytest.raises(ValueError, match="Psi must be Hermitian"):
            oracle.DenseQuartic(np.array([[1.0, 1j], [0.0, 1.0]]))
        oracle.DenseQuartic(np.array([[1.0, 1e-12], [0.0, 1.0]]))  # within the tolerance

    @pytest.mark.parametrize("shape", [(2, 3), (3,)])
    def test_diagonal_upper_bound_rejects_non_square(self, shape):
        message = re.escape(f"expected a square matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            oracle.diagonal_upper_bound(np.ones(shape))


def test_solve_runs_without_the_oracle():
    """The library never imports the oracle: one desk solve in a fresh interpreter."""
    script = (
        "import sys, dfrcwave as dw\n"
        "p = dw.build_problem(dw.ExperimentConfig.desk_preset())\n"
        "dw.mm_solve(p.scene, p.comm, p.weights, p.solver, x0=p.x0, p_total=p.p_total)\n"
        "print('dfrcwave.oracle' in sys.modules)\n"
    )
    src = str(Path(dfrcwave.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
