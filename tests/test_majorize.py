"""Majorization chain: diagonal bound, lag-structured E matrix, and dominance."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_scene, random_cm
from dfrcwave import oracle
from dfrcwave.config import ExperimentConfig, build_problem
from dfrcwave.majorize import (
    _dense_phi,
    _lower_band,
    _top_eigenvalue,
    build_d,
    build_majorizer_context,
    build_phi,
    lag_weights,
)
from dfrcwave.model import MODULUS_TOL, SolveMode, Weights, vec
from dfrcwave.radar import ObjectiveTerms, correlation_values, objective_terms
from dfrcwave.solver import mm_solve


def rel_gap(a, b):
    """Largest entrywise gap relative to the reference's largest entry."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / max(1e-300, np.abs(b).max()))


def diagonal_e(scene, weights):
    """E = mat(|Psi| 1), N x N: as the diagonal-kind context holds it, or
    I_L (x) E_0 from the lag-0 block E_0 a one-lag context holds."""
    ctx = build_majorizer_context(scene, weights, "diagonal")
    if ctx.band == 1:
        return np.kron(np.eye(scene.block_len), ctx.e_mat)
    return ctx.e_mat


def full_phi(xt, ctx):
    """Phi as an N x N matrix, expanded by the oracle from build_phi's lag blocks."""
    return oracle.phi_from_blocks(build_phi(xt, ctx), xt, ctx)


def quartic_lambda(scene, weights):
    """lambda_max(Psi), as the eigen-kind context holds it."""
    return build_majorizer_context(scene, weights, "max_eigen").lambda_quartic


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestDiagonalUpperBound:
    def test_two_by_two_hand_case(self):
        q = np.array([[1.0, -2.0], [-2.0, 1.0]])
        r = oracle.diagonal_upper_bound(q)
        assert np.array_equal(r, [3.0, 3.0])
        eigs = np.linalg.eigvalsh(np.diag(r) - q)
        assert np.allclose(np.sort(eigs), [0.0, 4.0], atol=1e-12)

    def test_diagonal_input_is_tight(self):
        q = np.diag([1.0, 2.5, 0.3])
        r = oracle.diagonal_upper_bound(q)
        assert np.allclose(np.diag(r) - q, 0.0)

    def test_psd_on_random_hermitian(self, rng):
        for _ in range(100):
            q = random_hermitian(rng, 16)
            q /= np.linalg.norm(q, 2)
            gap = np.diag(oracle.diagonal_upper_bound(q)) - q
            assert np.linalg.eigvalsh(gap).min() >= -1e-10

    def test_rejects_non_hermitian(self, rng):
        q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            oracle.diagonal_upper_bound(q)


class TestPrecomputeE:
    def test_scalar_scene(self):
        # N = 1: every B_u is the real scalar C_u, so Psi = E = sum_u C_u^2
        scene = make_scene(n_tx=1, block_len=1, max_lag=1, target_angles=(0.0,))
        w = Weights(1.0, 2.0, 2.0)
        expect = float(np.sum(np.abs(scene.c_factors) ** 2))
        e_mat = diagonal_e(scene, w)
        assert e_mat.shape == (1, 1)
        assert abs(e_mat[0, 0] - expect) < 1e-14 * expect
        assert abs(quartic_lambda(scene, w) - expect) < 1e-14 * expect

    def test_matches_dense_psi_row_sums(self, rng, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        e_mat = diagonal_e(scene, weights_full)
        psi = oracle.assemble_psi(scene, weights_full).psi
        dense = np.abs(psi).sum(axis=1).reshape((scene.n, scene.n), order="F")
        assert np.abs(e_mat - dense).max() < 1e-9 * max(1.0, dense.max())

    def test_symmetric_nonnegative(self, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        e_mat = diagonal_e(scene, weights_full)
        assert np.array_equal(e_mat, e_mat.T)
        assert e_mat.min() >= 0.0

    def test_constant_modulus_identity(self, rng, weights_full):
        # vec^H(xx^H) diag(|Psi|1) vec(xx^H) == (P_T^2/N_T^2) 1^T Е 1 for CM x
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        e_mat = diagonal_e(scene, weights_full)
        psi_bar_1 = np.abs(oracle.assemble_psi(scene, weights_full).psi).sum(axis=1)
        amp2 = 1.0 / 2.0  # P_T=1, N_T=2
        for _ in range(5):
            x = random_cm(rng, scene.n, np.sqrt(amp2))
            v = vec(np.outer(x, x.conj()))
            lhs = float(np.real(v.conj() @ (psi_bar_1 * v)))
            rhs = amp2**2 * e_mat.sum()
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_bilinear_identity(self, rng, weights_full):
        # vec^H(xx^H) diag(|Psi|1) vec(xt xt^H) == x^H (E . xt xt^H) x, any x
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        e_mat = diagonal_e(scene, weights_full)
        psi_bar_1 = np.abs(oracle.assemble_psi(scene, weights_full).psi).sum(axis=1)
        for _ in range(5):
            x = rng.standard_normal(scene.n) + 1j * rng.standard_normal(scene.n)
            xt = rng.standard_normal(scene.n) + 1j * rng.standard_normal(scene.n)
            v = vec(np.outer(x, x.conj()))
            vt = vec(np.outer(xt, xt.conj()))
            lhs = complex(v.conj() @ (psi_bar_1 * vt))
            rhs = complex(x.conj() @ ((e_mat * np.outer(xt, xt.conj())) @ x))
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_no_active_terms_rejected(self):
        # w_ac needs P > 1 and w_cc needs Q > 1: nothing is left to majorize
        scene = make_scene(max_lag=1, target_angles=(0.0,))
        with pytest.raises(ValueError, match="no active cost terms"):
            diagonal_e(scene, Weights(0.0, 1.0, 1.0))


class TestLambdaPsi:
    def test_rank_one_term(self):
        # Psi = vec(B) vec(B)^H has lambda = ||B||_F^2
        rng = np.random.default_rng(0)
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = (b + b.conj().T) / 2
        v = b.T.reshape(1, -1)  # column-major vec as a row
        scaled = v * 1.0
        gram = scaled.conj() @ scaled.T
        lam = float(np.linalg.eigvalsh(gram)[-1])
        assert abs(lam - np.linalg.norm(b, "fro") ** 2) < 1e-10

    def test_dominates_diagonal_and_matches_dense(self, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        lam = quartic_lambda(scene, weights_full)
        psi = oracle.assemble_psi(scene, weights_full).psi
        dense = float(np.linalg.eigvalsh(psi)[-1])
        assert lam >= psi.diagonal().real.max() - 1e-9
        assert abs(lam - dense) < 1e-8 * max(1.0, dense)

    def test_power_iteration_agrees(self, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        lam = quartic_lambda(scene, weights_full)
        psi = oracle.assemble_psi(scene, weights_full).psi
        lam_pi = oracle.power_iteration(psi)
        assert abs(lam - lam_pi) < 1e-6 * max(1.0, lam)


ONE_LAG_FORMS = ("one-lag-bp", "one-lag-corr", "L=1")


@st.composite
def majorizer_forms(draw, forms=("wide",) + ONE_LAG_FORMS):
    """(form, scene, weights) for one form of the MM step, drawn by name from
    ``forms``: a band wider than one lag, one lag with the beam pattern only
    or with lag-0 cross-correlations (P = 1, w_bp possibly 0), and L = 1
    with any weights. N = n_tx L <= 16."""
    form = draw(st.sampled_from(forms))
    n_tx = draw(st.integers(1, 4))
    block_len = 1 if form == "L=1" else draw(st.integers(2, 16 // n_tx))
    if form == "one-lag-corr":
        max_lag = 1
    else:
        max_lag = draw(st.integers(2 if form == "wide" else 1, block_len + 1))
    q_n = draw(st.integers(2 if form == "one-lag-corr" else 1, 3))
    angles = draw(st.lists(st.integers(-80, 80), min_size=q_n, max_size=q_n, unique=True))
    scene = make_scene(
        n_tx=n_tx, block_len=block_len, grid_step=30.0, width=30.0,
        target_angles=tuple(angles), max_lag=max_lag,
    )
    some, positive = st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.5, 2.0])
    cross = q_n >= 2  # cross-correlations at every lag, lag 0 included
    if form == "wide":
        # a correlation past lag 0: w_ac, or w_cc alone with Q >= 2
        w = draw(st.tuples(some, some, some).filter(lambda w: w[1] > 0 or (w[2] > 0 and cross)))
    elif form == "one-lag-bp":
        w = (draw(positive), 0.0, 0.0)
    elif form == "one-lag-corr":
        w = (draw(some), draw(some), draw(positive))
    else:
        w = draw(st.tuples(some, some, some).filter(lambda w: w[0] > 0 or (w[2] > 0 and cross)))
    return form, scene, Weights(*w)


class TestBuildPhi:
    def test_empty_cost_stack_leaves_only_subtraction(self, rng):
        # beam-pattern terms only: taking sum_u (x^H B_u x) B_u over the
        # oracle's dense B_u out of Phi / 2 leaves exactly -E (.) x x^H; the
        # band is one lag wide, so build_phi returns one 2 x 2 lag block
        scene = make_scene(n_tx=2, block_len=2, max_lag=1, target_angles=(0.0,))
        w = Weights(1.0, 0.0, 0.0)
        ctx = build_majorizer_context(scene, w, "diagonal")
        xt = random_cm(rng, scene.n, 0.7)
        assert build_phi(xt, ctx).shape == (1, 2, 2)
        stack = sum((xt.conj() @ b @ xt).real * b for b in oracle._b_mats(scene))
        rest = full_phi(xt, ctx) / 2.0 - stack
        expect = -diagonal_e(scene, w) * np.outer(xt, xt.conj())
        assert rel_gap(rest, expect) < 1e-13

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_phi_hermitian(self, rng, weights_full, kind):
        # the N x N Phi build_d forms from a wider band's lag blocks is
        # exactly Hermitian, so its row sums need no Hermitian check
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        ctx = build_majorizer_context(scene, weights_full, kind)
        assert ctx.band == 3
        for _ in range(5):
            xt = random_cm(rng, scene.n, 1 / np.sqrt(2))
            phi = _dense_phi(xt, build_phi(xt, ctx), ctx)
            assert np.array_equal(phi, phi.conj().T)

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    @pytest.mark.parametrize(
        "weights", [Weights(1.0, 2.0, 2.0), Weights(0.0, 1.0, 3.0), Weights(1.0, 0.0, 0.0)]
    )
    def test_reused_kernels_give_the_same_phi(self, rng, weights, kind):
        # the MM loop hands build_phi the terms of its objective_terms call;
        # with P = 1, or with the beam pattern alone, the band is one lag wide
        for max_lag in (3, 1):
            scene = make_scene(n_tx=2, block_len=4, max_lag=max_lag)
            ctx = build_majorizer_context(scene, weights, kind)
            assert ctx.band == (3 if max_lag == 3 and ctx.correlations else 1)
            for _ in range(5):
                xt = random_cm(rng, scene.n, 1 / np.sqrt(2))
                terms = objective_terms(xt, scene, ctx.correlations)
                assert len(terms) == 3
                assert np.array_equal(build_phi(xt, ctx, terms), build_phi(xt, ctx))

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_rejects_terms_without_its_lag_correlations(self, rng, kind):
        # with ctx.correlations set, build_phi reads the scene's lags tau >= 0,
        # shape (P, Q, Q) = (4, 2, 2) at the desk; terms evaluated without
        # correlations, terms of another scene (max_lag 3) and the
        # (2P-1, Q, Q) stack of correlation_values raise, naming that shape,
        # rather than give a wrong Phi or a bare numpy error
        scene, weights = desk_scene()
        other, _ = desk_scene(max_lag=3)
        ctx = build_majorizer_context(scene, weights, kind)
        assert ctx.correlations
        xt = random_cm(rng, scene.n, 0.5)
        terms = objective_terms(xt, scene)
        assert build_phi(xt, ctx, terms).shape == (ctx.band, 4, 4)
        full_stack = ObjectiveTerms(terms, terms.beta, correlation_values(xt, scene))
        for bad in (objective_terms(xt, scene, False), objective_terms(xt, other), full_stack):
            with pytest.raises(ValueError, match=r"lags tau >= 0, shape \(4, 2, 2\)"):
                build_phi(xt, ctx, bad)

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_rejects_terms_of_another_grid(self, rng, kind):
        # a beam-pattern-only context reads terms.beta alone, one form per grid
        # angle (91 on a 2-degree desk grid): the terms of the 1-degree desk
        # scene (181) and a stack of two betas raise, naming that shape,
        # rather than a bare numpy error or a wrongly shaped block
        scene, _ = desk_scene(grid_step_deg=2.0)
        other, _ = desk_scene()
        ctx = build_majorizer_context(scene, Weights(1.0, 0.0, 0.0), kind)
        assert not ctx.correlations
        xt = random_cm(rng, scene.n, 0.5)
        terms = objective_terms(xt, scene)
        stacked = ObjectiveTerms(terms, np.stack([terms.beta, terms.beta]))
        for bad, got in ((objective_terms(xt, other), r"\(181,\)"), (stacked, r"\(2, 91\)")):
            with pytest.raises(ValueError, match=r"grid, shape \(91,\); got shape " + got):
                build_phi(xt, ctx, bad)

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_quadratic_dominance(self, rng, weights_full, kind):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        ctx = build_majorizer_context(scene, weights_full, kind)
        amp = 1 / np.sqrt(2)
        for _ in range(3):
            xt = random_cm(rng, scene.n, amp)
            phi = full_phi(xt, ctx)
            g_t = weights_full.cost(objective_terms(xt, scene))
            base = float((xt.conj() @ phi @ xt).real)
            scale = max(1.0, abs(g_t))
            for _ in range(300):
                x = random_cm(rng, scene.n, amp)
                lhs = weights_full.cost(objective_terms(x, scene)) - g_t
                rhs = float((x.conj() @ phi @ x).real) - base
                assert lhs <= rhs + 1e-9 * scale


class TestBuildD:
    def test_isotropic_phi_gives_zero_direction(self, rng, weights_full):
        # lag blocks 1.5 I, 0, ... and a zero subtracted term make Phi = 3 I,
        # for a band of two lags (the N x N Phi) and of one (the block S)
        for max_lag in (2, 1):
            scene = make_scene(n_tx=2, block_len=2, max_lag=max_lag)
            xt = random_cm(rng, scene.n, 0.7)
            for kind in ("diagonal", "max_eigen"):
                ctx = build_majorizer_context(scene, weights_full, kind)
                ctx = dataclasses.replace(
                    ctx, e_mat=None if ctx.e_mat is None else 0.0 * ctx.e_mat,
                    lambda_quartic=None if ctx.lambda_quartic is None else 0.0,
                )
                assert ctx.band == max_lag
                blocks = np.zeros((ctx.band, 2, 2), dtype=complex)
                blocks[0] = 1.5 * np.eye(2)
                d = build_d(xt, blocks, ctx)
                assert np.abs(d).max() < 1e-12

    def test_tangency_at_expansion_point(self, rng, weights_full):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        ctx = build_majorizer_context(scene, weights_full, "diagonal")
        xt = random_cm(rng, scene.n, 1 / np.sqrt(2))
        d = build_d(xt, build_phi(xt, ctx), ctx)
        assert abs(np.real((xt - xt).conj() @ d)) == 0.0

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_chain_dominance(self, rng, weights_full, kind):
        scene = make_scene(n_tx=2, block_len=4, max_lag=3)
        ctx = build_majorizer_context(scene, weights_full, kind)
        amp = 1 / np.sqrt(2)
        for _ in range(3):
            xt = random_cm(rng, scene.n, amp)
            d = build_d(xt, build_phi(xt, ctx), ctx)
            g_t = weights_full.cost(objective_terms(xt, scene))
            scale = max(1.0, abs(g_t))
            for _ in range(300):
                x = random_cm(rng, scene.n, amp)
                lhs = weights_full.cost(objective_terms(x, scene)) - g_t
                rhs = float(np.real((x - xt).conj() @ d))
                assert lhs <= rhs + 1e-9 * scale

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_rejects_the_old_shapes(self, rng, weights_full, kind):
        # the N x N Phi of a wider band and the N_T x N_T S of a one-lag band,
        # which build_phi once returned, raise rather than give a wrong d
        for max_lag in (3, 1):
            scene = make_scene(n_tx=2, block_len=4, max_lag=max_lag)
            ctx = build_majorizer_context(scene, weights_full, kind)
            assert ctx.band == max_lag
            xt = random_cm(rng, scene.n, 1 / np.sqrt(2))
            blocks = build_phi(xt, ctx)
            old = _dense_phi(xt, blocks, ctx) if ctx.band > 1 else blocks[0] + blocks[0].conj().T
            with pytest.raises(ValueError, match="lag blocks"):
                build_d(xt, old, ctx)

    @settings(deadline=None, derandomize=True)
    @given(case=majorizer_forms(), seed=st.integers(0, 2**32 - 1))
    def test_leaves_its_blocks_unchanged(self, case, seed):
        # build_d never writes to build_phi's stack: the stack keeps its
        # bits, and a second call, on the stack made read-only, repeats d
        _, scene, weights = case
        xt = random_cm(np.random.default_rng(seed), scene.n, 1.0)
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, weights, kind)
            blocks = build_phi(xt, ctx)
            before = blocks.tobytes()
            d = build_d(xt, blocks, ctx)
            assert blocks.tobytes() == before
            blocks.setflags(write=False)
            assert build_d(xt, blocks, ctx).tobytes() == d.tobytes()

    @pytest.mark.parametrize(
        "kind, weights",
        [
            pytest.param("diagonal", Weights(1.0, 2.0, 2.0), id="diagonal"),
            pytest.param("max_eigen", Weights(1.0, 2.0, 2.0), id="max_eigen"),
            pytest.param("diagonal", Weights(1.0, 0.0, 0.0), id="diagonal-bp-only"),
            pytest.param("max_eigen", Weights(1.0, 0.0, 0.0), id="max_eigen-bp-only"),
        ],
    )
    def test_const_offset_completes_quadratic_bound(self, rng, kind, weights):
        # (x - x_t)^H (D - Phi) (x - x_t) >= 0 for the diagonal D >= Phi that
        # build_d subtracts, so over constant-modulus x the offset
        # 2 amp^2 1^T D 1 - x_t^H Phi x_t lifts Re{x^H d} above x^H Phi x;
        # beam pattern only, the max-eigen d takes its bound from the lag-0 block
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        ctx = build_majorizer_context(scene, weights, kind)
        amp = 1 / np.sqrt(2)
        xt = random_cm(rng, scene.n, amp)
        phi = full_phi(xt, ctx)
        d = build_d(xt, build_phi(xt, ctx), ctx)
        if kind == "diagonal":
            bound = oracle.diagonal_upper_bound(phi)
        else:
            bound = np.full(scene.n, np.linalg.eigvalsh(phi)[-1])
        const_offset = 2 * amp**2 * bound.sum() - float((xt.conj() @ phi @ xt).real)
        for _ in range(200):
            x = random_cm(rng, scene.n, amp)
            quad = float((x.conj() @ phi @ x).real)
            lin = float((x.conj() @ d).real) + const_offset
            assert quad <= lin + 1e-9 * max(1.0, abs(quad))


class TestContext:
    def test_unknown_kind_rejected(self, weights_full):
        scene = make_scene(n_tx=2, block_len=3)
        with pytest.raises(ValueError):
            build_majorizer_context(scene, weights_full, "banana")

    def test_kind_selects_payload(self, weights_full):
        scene = make_scene(n_tx=2, block_len=3, max_lag=2)
        diag = build_majorizer_context(scene, weights_full, "diagonal")
        eig = build_majorizer_context(scene, weights_full, "max_eigen")
        assert diag.e_mat is not None and diag.lambda_quartic is None
        assert eig.e_mat is None and eig.lambda_quartic is not None

    @pytest.mark.parametrize(
        "max_lag, block_len, w, band",
        [
            pytest.param(3, 5, Weights(1.0, 0.0, 0.0), 1, id="bp-only"),
            pytest.param(1, 5, Weights(1.0, 2.0, 2.0), 1, id="one-lag"),
            pytest.param(3, 5, Weights(1.0, 2.0, 2.0), 3, id="full-P"),
            pytest.param(4, 3, Weights(1.0, 2.0, 2.0), 3, id="full-L"),
        ],
    )
    def test_band_spans_the_weighted_lags(self, max_lag, block_len, w, band):
        scene = make_scene(n_tx=2, block_len=block_len, max_lag=max_lag)
        for kind in ("diagonal", "max_eigen"):
            assert build_majorizer_context(scene, w, kind).band == band


def desk_scene(**overrides):
    problem = build_problem(ExperimentConfig.desk_preset(**overrides))
    return problem.scene, problem.weights


class TestStreamedOracle:
    """The lag-structured closed forms against the oracle's streamed row-sum
    pass over its loop-built B_u and D matrices."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: desk_scene(), id="desk-n32"),
            pytest.param(lambda: desk_scene(n_tx=8), id="desk-n64"),
            pytest.param(lambda: (make_scene(n_tx=2, block_len=40), Weights(1.0, 2.0, 2.0)),
                         id="n80"),
        ],
    )
    def test_closed_forms_match_streamed_psi(self, rng, make):
        scene, w = make()
        n = scene.n
        e_ref = oracle.psi_row_sums(scene, w).reshape((n, n), order="F")
        assert rel_gap(diagonal_e(scene, w), e_ref) < 1e-12
        lam_ref = oracle.psi_top_eigenvalue(scene, w)
        assert abs(quartic_lambda(scene, w) - lam_ref) < 1e-12 * lam_ref
        xt = random_cm(rng, n, 1 / np.sqrt(scene.geometry.n_tx))
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, w, kind)
            assert ctx.band > 1
            ref = oracle.dense_phi(xt, scene, w, kind)
            assert rel_gap(_dense_phi(xt, build_phi(xt, ctx), ctx), ref) < 1e-12


def _weights():
    return st.tuples(*[st.sampled_from([0.0, 0.5, 2.0])] * 3).filter(any)


@st.composite
def small_scenes(draw, max_n=16):
    """n_tx 1-4, L 1-8 with N = n_tx L <= ``max_n``, Q 1-3 targets, P 1..L+1."""
    n_tx = draw(st.integers(1, 4))
    block_len = draw(st.integers(1, min(8, max_n // n_tx)))
    max_lag = draw(st.integers(1, block_len + 1))
    q_n = draw(st.integers(1, 3))
    angles = draw(st.lists(st.integers(-80, 80), min_size=q_n, max_size=q_n, unique=True))
    return make_scene(
        n_tx=n_tx, block_len=block_len, grid_step=30.0, width=30.0,
        target_angles=tuple(angles),
        max_lag=max_lag,
    )


@pytest.mark.parity
class TestLagStructureProperties:
    @settings(deadline=None, derandomize=True)
    @given(scene=small_scenes(), w=_weights())
    def test_matches_dense_psi(self, scene, w):
        weights = Weights(*w)
        psi = oracle.assemble_psi(scene, weights).psi
        try:
            e_mat = diagonal_e(scene, weights)
        except ValueError:
            assert not psi.any()  # only raised when no term survives
            return
        n, n_tx, length = scene.n, scene.geometry.n_tx, scene.block_len
        dense = np.abs(psi).sum(axis=1).reshape((n, n), order="F")
        assert np.abs(e_mat - dense).max() <= 1e-12 * max(1.0, dense.max())
        top = float(np.linalg.eigvalsh(psi)[-1])
        assert abs(quartic_lambda(scene, weights) - top) <= 1e-12 * max(1.0, top)
        blocks = e_mat.reshape(length, n_tx, length, n_tx)
        lags = np.subtract.outer(np.arange(length), np.arange(length))
        far = np.abs(lags) >= scene.targets.max_lag
        assert not blocks.transpose(0, 2, 1, 3)[far].any()

    @settings(deadline=None, derandomize=True)
    @given(case=majorizer_forms(forms=ONE_LAG_FORMS))
    def test_one_lag_d_matches_dense_oracle(self, case):
        # a one-lag band: E = I_L (x) E_0 in the oracle's own Psi, and d
        # from the one lag block K_0 that build_phi returns (S = K_0 + K_0^H)
        # matches the dense Phi's d to 1e-12 relative to the largest row sum
        # of |S| or |Phi| (|x_t| = 1, so that bounds the terms of Phi x_t,
        # which cancel to rounding at n_tx = L = 1), L = 1 included, both kinds
        _, scene, weights = case
        n, n_tx, length = scene.n, scene.geometry.n_tx, scene.block_len
        e_ref = oracle.psi_row_sums(scene, weights).reshape((n, n), order="F")
        blocks = e_ref.reshape(length, n_tx, length, n_tx).transpose(0, 2, 1, 3)
        assert not blocks[~np.eye(length, dtype=bool)].any()
        xt = random_cm(np.random.default_rng(n), n, 1.0)
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, weights, kind)
            assert ctx.band == 1
            blocks = build_phi(xt, ctx)
            assert blocks.shape == (1, n_tx, n_tx)
            s = blocks[0] + blocks[0].conj().T
            ref = oracle.dense_phi(xt, scene, weights, kind)
            if kind == "diagonal":
                ref_bound = np.abs(ref).sum(axis=1)
            else:
                ref_bound = np.linalg.eigvalsh(ref)[-1]
            ref_d = 2.0 * (ref @ xt - ref_bound * xt)
            d = build_d(xt, blocks, ctx)
            scale = max(np.abs(s).sum(axis=1).max(), np.abs(ref).sum(axis=1).max())
            assert np.abs(d - ref_d).max() <= 1e-12 * scale


@pytest.mark.parity
class TestMajorizerForms:
    @settings(deadline=None, derandomize=True)
    @given(case=majorizer_forms(), seed=st.integers(0, 2**32 - 1))
    def test_every_form_matches_the_dense_oracle(self, case, seed):
        # build_phi returns one (band, N_T, N_T) stack for every form, the
        # same bits for both kinds; expanded by the oracle it is the dense
        # Phi, the N x N Phi build_d forms for a wider band is exactly
        # Hermitian, and Phi and d are the dense ones to 1e-12: for a wider
        # band relative to the largest entry of each, as before the forms
        # were split out; for one lag relative to the largest row sum of
        # |Phi| (|x_t| = 1, so that bounds the terms of Phi x_t, which cancel
        # to rounding at n_tx = L = 1)
        form, scene, weights = case
        xt = random_cm(np.random.default_rng(seed), scene.n, 1.0)
        n_tx = scene.geometry.n_tx
        stacks = []
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, weights, kind)
            assert (ctx.band > 1) == (form == "wide")
            assert ctx.correlations == (form != "one-lag-bp") or form == "L=1"
            blocks = build_phi(xt, ctx)
            assert blocks.shape == (ctx.band, n_tx, n_tx)
            stacks.append(blocks.tobytes())
            ref = oracle.dense_phi(xt, scene, weights, kind)
            if kind == "diagonal":
                ref_bound = np.abs(ref).sum(axis=1)
            else:
                ref_bound = np.linalg.eigvalsh(ref)[-1]
            ref_d = 2.0 * (ref @ xt - ref_bound * xt)
            scale = phi_scale = max(1.0, np.abs(ref).sum(axis=1).max())
            if ctx.band > 1:
                phi = _dense_phi(xt, blocks, ctx)
                assert np.array_equal(phi, phi.conj().T)
                phi_scale = max(1.0, np.abs(ref).max())
                scale = max(1.0, np.abs(ref_d).max())
            assert np.abs(oracle.phi_from_blocks(blocks, xt, ctx) - ref).max() <= 1e-12 * phi_scale
            assert np.abs(build_d(xt, blocks, ctx) - ref_d).max() <= 1e-12 * scale
        assert stacks[0] == stacks[1]


def _assert_frozen_copy(operand, expect):
    """``operand`` is read-only and equals ``expect`` bit for bit."""
    assert operand.dtype == expect.dtype and operand.shape == expect.shape
    assert operand.tobytes() == expect.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        operand.flat[0] = 1.0


class TestCachedOperands:
    @settings(deadline=None, derandomize=True)
    @given(scene=small_scenes(max_n=32), w=_weights())
    def test_operands_match_their_recomputation(self, scene, w):
        # each operand the MM step reads in place of a public field is built
        # once per scene or context: read-only, and bit for bit the
        # expression it replaces, so the step's results cannot move
        a = scene.steer_targets
        _assert_frozen_copy(scene.steer_targets_conj, a.conj())
        _assert_frozen_copy(scene.c_flat, scene.c_factors.reshape(len(scene.grid), -1))
        weights = Weights(*w)
        try:
            diag = build_majorizer_context(scene, weights, "diagonal")
        except ValueError:
            return  # no active cost term
        assert diag.e_mat.dtype == np.float64
        _assert_frozen_copy(diag.e0_twice, 2.0 * diag.e_mat)
        band = lag_weights(scene, weights)[: diag.band]
        _assert_frozen_copy(diag.band_weights, np.concatenate([band[:1], 2.0 * band[1:]]))
        # derived from e_mat, so a replaced context cannot keep a stale copy
        tripled = dataclasses.replace(diag, e_mat=3.0 * diag.e_mat)
        _assert_frozen_copy(tripled.e0_twice, 2.0 * tripled.e_mat)


@st.composite
def hermitian_matrices(draw):
    """A complex Hermitian n x n matrix, n 1-8, entries drawn over 12 decades."""
    n = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return a + a.conj().T


@pytest.mark.parity
class TestTopEigenvalue:
    # every top eigenvalue the majorizer reads comes from eigvalsh's own
    # LAPACK kernel; it must be eigvalsh's value to the bit, and fail where
    # eigvalsh fails, as LinAlgError and with no floating-point warning
    @settings(deadline=None, derandomize=True)
    @given(s=hermitian_matrices())
    def test_matches_eigvalsh_on_hermitian(self, s):
        top = _top_eigenvalue(s)
        assert type(top) is float
        assert top == float(np.linalg.eigvalsh(s)[-1])
        # only the lower triangle is read, as by eigvalsh's default UPLO 'L'
        upper = s.copy()
        upper[np.triu_indices(s.shape[0], 1)] = np.nan
        assert _top_eigenvalue(upper) == top

    @settings(deadline=None, derandomize=True)
    @given(scene=small_scenes(), w=_weights(), seed=st.integers(0, 2**32 - 1))
    def test_matches_eigvalsh_on_dense_phi(self, scene, w, seed):
        weights = Weights(*w)
        try:
            ctx = build_majorizer_context(scene, weights, "max_eigen")
        except ValueError:
            return  # no active cost term
        assume(ctx.band > 1)
        xt = random_cm(np.random.default_rng(seed), scene.n, 1.0)
        phi = _dense_phi(xt, build_phi(xt, ctx), ctx)
        assert _top_eigenvalue(phi) == float(np.linalg.eigvalsh(phi)[-1])

    @settings(deadline=None, derandomize=True)
    @given(s=hermitian_matrices(), data=st.data())
    def test_fails_where_eigvalsh_fails(self, s, data):
        # one non-finite part of an entry the kernel reads: below the
        # diagonal, or the real part of a diagonal entry. Where eigvalsh
        # raises LinAlgError or returns a NaN top (n = 1, say), the helper
        # raises LinAlgError; elsewhere it returns eigvalsh's value, which a
        # NaN on the diagonal can leave finite. A NaN below the diagonal
        # always fails. No floating-point warning escapes.
        n = s.shape[0]
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, i))
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        z = s[i, j]
        real_part = i == j or data.draw(st.booleans())
        s[i, j] = complex(bad, z.imag) if real_part else complex(z.real, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = float(np.linalg.eigvalsh(s)[-1])
            except np.linalg.LinAlgError:
                ref = np.nan
            if np.isnan(ref):
                with pytest.raises(np.linalg.LinAlgError):
                    _top_eigenvalue(s)
            else:
                assert _top_eigenvalue(s) == ref
        assert np.isnan(ref) or not (np.isnan(bad) and i > j)


def _replaced_lag_blocks(xt, ctx, terms):
    """The lag blocks as ``build_phi`` formed them before it returned them
    for every band: lag 0 whole and lags tau >= 1 from the undoubled
    ``lag_weights``, with the correlations read from the (2P-1, Q, Q)
    stack of ``correlation_values``, as before ``ObjectiveTerms.corr``
    kept only the lags tau >= 0."""
    scene, w_bp = ctx.scene, ctx.weights.w_bp
    n_tx = scene.geometry.n_tx
    if w_bp > 0:
        bp = w_bp * (terms.beta @ scene.c_flat).reshape(n_tx, n_tx)
    if not ctx.correlations:
        return bp[None]
    p = scene.targets.max_lag
    lag_w = lag_weights(scene, ctx.weights)[: ctx.band]
    coef = lag_w * correlation_values(xt, scene)[p - 1 : p - 1 + ctx.band].conj()
    blocks = scene.steer_targets.T @ coef.transpose(0, 2, 1) @ scene.steer_targets_conj
    if w_bp > 0:
        blocks[0] += bp
    return blocks


def _replaced_one_lag_s(xt, ctx, terms):
    """The one-lag S as ``build_phi`` formed it before it returned h0 + h0^H:
    the lag-0 block h0 halved, summed with its conjugate transpose, and
    doubled."""
    half = 0.5 * _replaced_lag_blocks(xt, ctx, terms)[0]
    s = half + half.conj().T
    s *= 2.0
    return s


def _replaced_one_lag_d(xt, s, ctx):
    """d as ``build_d`` formed it from the one-lag block S it was handed."""
    xs = xt.reshape(-1, s.shape[0])
    if ctx.kind == "diagonal":
        blocks = xs[:, :, None] * xs[:, None, :].conj()
        blocks *= 2.0 * ctx.e_mat
        np.subtract(s, blocks, out=blocks)
        phi_x = (blocks @ xs[:, :, None])[:, :, 0]
        bound = np.abs(blocks).sum(axis=2)
    else:
        lam2 = 2.0 * ctx.lambda_quartic
        phi_x = xs @ s.T - (lam2 * np.vdot(xt, xt).real) * xs
        s = s if xs.shape[0] > 1 else s - lam2 * np.outer(xt, xt.conj())
        bound = float(np.linalg.eigvalsh(s)[-1])
    phi_x -= bound * xs
    phi_x *= 2.0
    return phi_x.reshape(-1)


def _replaced_dense_phi(xt, ctx, terms):
    """The N x N Phi as ``build_phi`` formed it before it returned lag
    blocks for every band: lag 0 halved, x_t (x_t/2)^H weighted and
    subtracted, the half summed with its conjugate transpose and doubled."""
    blocks = _replaced_lag_blocks(xt, ctx, terms)
    blocks[0] *= 0.5
    sub = xt[:, None] * (0.5 * xt.conj())
    sub *= ctx.e_mat if ctx.kind == "diagonal" else ctx.lambda_quartic
    half = _lower_band(blocks, ctx.scene.block_len)
    half -= sub
    phi = half + half.conj().T
    phi *= 2.0
    return phi


class TestOneLagPins:
    @settings(deadline=None, derandomize=True)
    @given(case=majorizer_forms(forms=ONE_LAG_FORMS), seed=st.integers(0, 2**32 - 1))
    def test_s_is_the_doubled_half_sum(self, case, seed):
        # S = K_0 + K_0^H drops an exact halving and doubling: the S build_d
        # forms is the replaced expression to the bit, from the same
        # ObjectiveTerms, and so is the d it gives
        _, scene, weights = case
        xt = random_cm(np.random.default_rng(seed), scene.n, 1.0)
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, weights, kind)
            terms = objective_terms(xt, scene, ctx.correlations)
            blocks = build_phi(xt, ctx, terms)
            expect = _replaced_one_lag_s(xt, ctx, terms)
            s = blocks[0] + blocks[0].conj().T
            assert s.dtype == expect.dtype and s.shape == expect.shape
            assert s.tobytes() == expect.tobytes()
            d = build_d(xt, blocks, ctx)
            assert d.tobytes() == _replaced_one_lag_d(xt, expect, ctx).tobytes()


class TestDenseFoldPins:
    @settings(deadline=None, derandomize=True)
    @given(case=majorizer_forms(forms=("wide",)), seed=st.integers(0, 2**32 - 1))
    def test_dense_phi_is_the_doubled_half_sum(self, case, seed):
        # a wider band's Phi with its exact halving and doubling folded away
        # (lags tau >= 1 doubled in the weights, lag 0 whole, x_t x_t^H
        # subtracted, no final doubling) is the replaced expression to the
        # bit, and so are Phi x_t and the bound build_d takes from it
        _, scene, weights = case
        xt = random_cm(np.random.default_rng(seed), scene.n, 1.0)
        for kind in ("diagonal", "max_eigen"):
            ctx = build_majorizer_context(scene, weights, kind)
            terms = objective_terms(xt, scene, ctx.correlations)
            blocks = build_phi(xt, ctx, terms)
            expect = _replaced_dense_phi(xt, ctx, terms)
            assert _dense_phi(xt, blocks, ctx).tobytes() == expect.tobytes()
            if kind == "diagonal":
                bound = np.abs(expect).sum(axis=1)
            else:
                bound = float(np.linalg.eigvalsh(expect)[-1])
            d = expect @ xt - bound * xt
            d *= 2.0
            assert build_d(xt, blocks, ctx).tobytes() == d.tobytes()


def test_paper_scale_smoke():
    """README defaults (N = 640): set-up for both kinds and two dfrc outer iterations."""
    cfg = ExperimentConfig()
    problem = build_problem(cfg)
    assert problem.scene.n == 640 and problem.solver.mode == SolveMode.DFRC
    ctx = {
        kind: build_majorizer_context(problem.scene, problem.weights, kind)
        for kind in ("diagonal", "max_eigen")
    }
    assert ctx["max_eigen"].lambda_quartic > 0
    state = mm_solve(
        problem.scene, problem.comm, problem.weights,
        dataclasses.replace(problem.solver, max_outer_iters=2),
        x0=problem.x0, p_total=problem.p_total, ctx=ctx[problem.solver.majorizer_kind.value],
    )
    amp = np.sqrt(problem.p_total / cfg.n_tx)
    assert np.abs(np.abs(state.x) - amp).max() <= MODULUS_TOL * amp
    assert state.objective_trace.size >= 1
    assert np.all(np.isfinite(state.objective_trace))
