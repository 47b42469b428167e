"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavyweight desk-scale solver runs are shared
between criteria through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from dfrcwave import oracle
from dfrcwave.comm import CommSetup, build_ci_constraints, draw_channels, draw_symbols
from dfrcwave.config import ExperimentConfig, build_problem, parse_config_text
from dfrcwave.experiment import iterations_to_within, run_experiment
from dfrcwave.majorize import build_d, build_majorizer_context, build_phi
from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    DesiredBeamPattern,
    TargetSet,
    Weights,
    vec,
)
from dfrcwave.radar import (
    achieved_pattern,
    build_scene,
    correlation_values,
    objective_terms,
    optimal_alpha,
)
from dfrcwave.solver import mm_solve, solve_inner

SEEDS = (0, 1, 2, 3, 4)


def report(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} ({label}): PASS{suffix}")


def random_scene(rng, n_tx=None, block_len=None):
    n_tx = n_tx or int(rng.integers(1, 5))
    block_len = block_len or int(rng.integers(1, 9))
    n_angles = int(rng.integers(3, 9))
    angles = np.sort(rng.uniform(-90.0, 90.0, n_angles))
    while np.any(np.diff(angles) <= 1e-6):
        angles = np.sort(rng.uniform(-90.0, 90.0, n_angles))
    values = rng.uniform(0.0, 1.0, n_angles)
    values[int(rng.integers(n_angles))] = 1.0  # keep at least one positive
    q_n = int(rng.integers(1, 4))
    max_lag = int(rng.integers(1, min(block_len, 3) + 1))
    targets = TargetSet(np.sort(rng.uniform(-80.0, 80.0, q_n)), max_lag)
    while np.any(np.diff(targets.angles_deg) <= 1e-6):
        targets = TargetSet(np.sort(rng.uniform(-80.0, 80.0, q_n)), max_lag)
    return build_scene(
        ArrayGeometry(n_tx), AngleGrid(angles), DesiredBeamPattern(values),
        targets, block_len,
    )


def random_block(rng, scene):
    shape = (scene.geometry.n_tx, scene.block_len)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_1_identity_suite():
    """Matrix-form beam pattern and correlations vs the dense quadratic forms on 100 instances."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    for _ in range(100):
        scene = random_scene(rng)
        x = random_block(rng, scene)
        xv = vec(x)
        pattern = achieved_pattern(x, scene)
        a_mats = oracle._a_mats(scene)
        for u in rng.choice(len(a_mats), size=2, replace=False):
            direct = pattern[u]
            quad = float((xv.conj() @ a_mats[u] @ xv).real)
            assert abs(direct - quad) <= 1e-10 * max(1.0, abs(direct), abs(quad))
        chi = np.abs(correlation_values(x, scene)) ** 2
        p = scene.targets.max_lag
        for (tau, q, qp), d in oracle._d_mats(scene).items():
            direct = chi[tau + p - 1, q, qp]
            quad = abs(xv.conj() @ d @ xv) ** 2
            assert abs(direct - quad) <= 1e-10 * max(1.0, direct, quad)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, "identity suite", f"100 instances in {elapsed:.2f}s")


def test_criterion_2_alpha_closed_form():
    """Closed-form alpha matches a 1e4-point grid search; g_bp is the alpha-min MSE."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    for _ in range(100):
        scene = random_scene(rng, n_tx=int(rng.integers(1, 4)), block_len=int(rng.integers(1, 5)))
        x = random_block(rng, scene)
        alpha_star = optimal_alpha(x, scene)
        alpha_grid = oracle.grid_alpha(x, scene, n_grid=10_000)
        spacing = 2.0 * achieved_pattern(x, scene).max() / (10_000 - 1)
        assert abs(alpha_star - alpha_grid) <= spacing + 1e-12
        cost = objective_terms(x, scene)[0]
        mse = oracle.beampattern_mse(x, scene, alpha_star)
        assert abs(cost - mse) <= 1e-8 * max(1.0, cost, mse)
    report(2, "closed-form alpha", f"100 instances in {time.time() - t0:.2f}s")


def test_criterion_3_diagonal_bound_psd():
    """diag(|Q|1) - Q is PSD for 100 normalized random Hermitian matrices."""
    rng = np.random.default_rng(303)
    for _ in range(100):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        q = (a + a.conj().T) / 2
        q /= np.linalg.norm(q, 2)
        gap = np.diag(oracle.diagonal_upper_bound(q)) - q
        assert np.linalg.eigvalsh(gap).min() >= -1e-10
    report(3, "diagonal bound PSD")


@pytest.fixture(scope="module")
def chain_scene():
    """N = 16 scene with all three cost groups active."""
    geometry = ArrayGeometry(2)
    grid = AngleGrid.uniform(-90.0, 90.0, 10.0)
    targets = TargetSet(np.array([-30.0, 40.0]), 3)
    from dfrcwave.radar import rectangular_pattern

    desired = rectangular_pattern(grid, targets.angles_deg, 20.0)
    return build_scene(geometry, grid, desired, targets, block_len=8)


def test_criterion_4_majorization_chain(chain_scene):
    """Two-stage dominance for both majorizer kinds at N = 16."""
    weights = Weights(1.0, 2.0, 2.0)
    rng = np.random.default_rng(404)
    amp = 1.0 / np.sqrt(2)
    t0 = time.time()
    for kind in ("diagonal", "max_eigen"):
        ctx = build_majorizer_context(chain_scene, weights, kind)
        for _ in range(10):
            xt = amp * np.exp(2j * np.pi * rng.random(chain_scene.n))
            d = build_d(xt, build_phi(xt, ctx), ctx)
            g_t = weights.cost(objective_terms(xt, chain_scene))
            scale = max(1.0, abs(g_t))
            # equality at the expansion point
            lhs_eq = weights.cost(objective_terms(xt, chain_scene)) - g_t
            rhs_eq = float(np.real((xt - xt).conj() @ d))
            assert abs(lhs_eq) <= 1e-12 and abs(rhs_eq) <= 1e-12
            for _ in range(1000):
                x = amp * np.exp(2j * np.pi * rng.random(chain_scene.n))
                lhs = weights.cost(objective_terms(x, chain_scene)) - g_t
                rhs = float(np.real((x - xt).conj() @ d))
                assert lhs <= rhs + 1e-9 * scale
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, "majorization chain", f"2 kinds x 10 points x 1000 trials in {elapsed:.1f}s")


def test_criterion_5_dense_psi_cross_check(chain_scene):
    """Dense quartic kernel matches the objective; row-sum constant identity."""
    weights = Weights(1.0, 2.0, 2.0)
    rng = np.random.default_rng(505)
    dq = oracle.assemble_psi(chain_scene, weights)
    e_mat = build_majorizer_context(chain_scene, weights, "diagonal").e_mat
    psi_row_sums = np.abs(dq.psi).sum(axis=1)
    amp2 = 1.0 / 2.0  # P_T = 1, n_tx = 2
    for _ in range(20):
        x = np.sqrt(amp2) * np.exp(2j * np.pi * rng.random(chain_scene.n))
        quartic = dq.evaluate(x)
        direct = weights.cost(objective_terms(x, chain_scene))
        assert abs(quartic - direct) <= 1e-8 * max(1.0, quartic, direct)
        v = vec(np.outer(x, x.conj()))
        lhs = float(np.real(v.conj() @ (psi_row_sums * v)))
        rhs = amp2**2 * float(e_mat.sum())
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
    report(5, "dense quartic cross-check")


@pytest.fixture(scope="module")
def desk_runs():
    """Desk-instance solver runs shared by criteria 6-8."""
    t0 = time.time()
    runs = {}
    for seed in SEEDS:
        per_seed = {}
        for mode in ("dfrc", "radar_only"):
            cfg = ExperimentConfig.desk_preset(seed=seed, mode=mode)
            prob = build_problem(cfg)
            per_seed[mode] = mm_solve(
                prob.scene, prob.comm, prob.weights, prob.solver,
                x0=prob.x0, p_total=prob.p_total,
            )
        runs[seed] = per_seed
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_6_mm_descent_and_feasibility(desk_runs):
    """Monotone trace, feasible exit, exact modulus, KKT residual, 5 seeds."""
    amp = np.sqrt(1.0 / 4.0)
    for seed in SEEDS:
        state = desk_runs[seed]["dfrc"]
        trace = state.objective_trace
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9 * np.abs(trace[:-1])), f"seed {seed}: ascent"
        assert state.final_margins.min() >= -1e-6, f"seed {seed}: infeasible exit"
        assert np.abs(np.abs(state.x) - amp).max() <= 1e-12 * max(1.0, amp)
        assert state.kkt_residual <= 1e-4, f"seed {seed}: KKT {state.kkt_residual}"
    assert desk_runs["elapsed"] < 300.0
    report(
        6, "MM descent + feasibility",
        f"5 seeds (both modes) in {desk_runs['elapsed']:.0f}s",
    )


def test_criterion_7_majorizer_comparison():
    """Diagonal majorizer converges in strictly fewer iterations, 5/5 seeds."""
    t0 = time.time()
    ratios = []
    for seed in SEEDS:
        t5 = {}
        for kind in ("diagonal", "max_eigen"):
            cfg = ExperimentConfig.desk_preset(
                seed=seed, w_bp=1.0, w_ac=0.0, w_cc=0.0,
                mode="radar_only", majorizer_kind=kind,
            )
            prob = build_problem(cfg)
            state = mm_solve(
                prob.scene, prob.comm, prob.weights, prob.solver,
                x0=prob.x0, p_total=prob.p_total,
            )
            t5[kind] = iterations_to_within(state.objective_trace, 0.05)
        assert t5["diagonal"] < t5["max_eigen"], f"seed {seed}: {t5}"
        ratios.append(t5["max_eigen"] / t5["diagonal"])
    report(
        7, "majorizer comparison",
        f"speedup ratios {', '.join(f'{r:.1f}x' for r in ratios)} in {time.time() - t0:.0f}s",
    )


def test_criterion_8_radar_only_bound(desk_runs):
    """Radar-only final objective lower-bounds the dfrc final objective per seed."""
    for seed in SEEDS:
        g_radar = desk_runs[seed]["radar_only"].objective_trace[-1]
        g_dfrc = desk_runs[seed]["dfrc"].objective_trace[-1]
        assert g_radar <= g_dfrc, f"seed {seed}: {g_radar} > {g_dfrc}"
    report(8, "radar-only performance bound")


def test_criterion_9_inner_solution_certificate():
    """No per-entry grid phase improves the inner Lagrangian by more than 1e-8."""
    rng = np.random.default_rng(909)
    amp = 0.5
    setup = CommSetup(
        channels=draw_channels(2, 4, 90),
        symbols=draw_symbols(2, 4, 4, 91),
        gamma=np.full(2, 10.0**0.6),
        sigma2=0.01,
        m_points=4,
    )
    cset = build_ci_constraints(setup, 1.0)
    h_tilde = oracle.dense_h_tilde(setup)
    for _ in range(100):
        nu = rng.uniform(0.0, 5.0, cset.n_rows)
        d = rng.standard_normal(cset.n) + 1j * rng.standard_normal(cset.n)
        x = solve_inner(nu, d, cset)
        weighted = h_tilde.conj().T @ nu
        coef = d - weighted
        phases = oracle.phase_bruteforce(d, weighted)
        lag_closed = float(np.real(x.conj() @ coef))
        lag_grid = float(np.real((amp * np.exp(1j * phases)).conj() @ coef))
        assert lag_closed <= lag_grid + 1e-8
    report(9, "inner-solution certificate", "100 draws x 1e4 phases")


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed regenerates every CSV byte-for-byte."""
    cfg = parse_config_text(
        "n_tx = 4\nblock_len = 8\nk_users = 2\nmax_lag = 4\n"
        "max_outer_iters = 60\nseed = 12\noutput_dir = det\n"
    )
    first = run_experiment(cfg, base_dir=tmp_path / "a").artifact_dir
    second = run_experiment(cfg, base_dir=tmp_path / "b").artifact_dir
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    report(10, "determinism", f"{len(names)} artifacts byte-identical")
