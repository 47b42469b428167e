"""Core types, vectorization, and waveform file round trips."""

import dataclasses

import numpy as np
import pytest

from dfrcwave import solver
from dfrcwave.config import ConfigError, ExperimentConfig, parse_config_text
from dfrcwave.model import (
    AngleGrid,
    ArrayGeometry,
    DesiredBeamPattern,
    SolverConfig,
    TargetSet,
    WaveformFormatError,
    WaveformMatrix,
    Weights,
    load_waveform,
    mat,
    save_waveform,
    vec,
)


class TestVec:
    def test_column_major_definition(self):
        x = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(x), [1, 2, 3, 4])

    def test_identity_case(self):
        assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_round_trip_random(self, rng):
        x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(mat(vec(x), 3), x)

    def test_accepts_waveform(self):
        w = WaveformMatrix(np.ones((2, 3)), p_total=6.0)
        assert vec(w).shape == (6,)
        assert np.array_equal(w.vector, vec(w))

    def test_mat_rejects_bad_length(self):
        with pytest.raises(ValueError):
            mat(np.arange(5.0), 2)

    def test_vec_rejects_1d(self):
        with pytest.raises(ValueError):
            vec(np.arange(4.0))


class TestTypes:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(4, spacing=0.0)

    #: Integer fields take Python and numpy integers; a float is rejected even
    #: when its value is whole (2.5 once gave 3-entry steering vectors).
    INTEGERS = [(2.5, False), (np.float64(3.0), False), (3, True), (np.int64(3), True)]

    @pytest.mark.parametrize("n_tx, ok", INTEGERS)
    def test_geometry_n_tx_is_an_integer(self, n_tx, ok):
        if ok:
            assert ArrayGeometry(n_tx).n_tx == n_tx
        else:
            with pytest.raises(ValueError, match="n_tx must be an integer"):
                ArrayGeometry(n_tx)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            AngleGrid(np.array([0.0, 0.0, 1.0]))

    def test_grid_uniform(self):
        g = AngleGrid.uniform(-90.0, 90.0, 1.0)
        assert len(g) == 181
        assert g.angles_deg[0] == -90.0 and g.angles_deg[-1] == 90.0

    def test_grid_uniform_never_exceeds_stop(self):
        g = AngleGrid.uniform(0.0, 11.0, 3.0)
        assert g.angles_deg[-1] <= 11.0
        assert np.array_equal(g.angles_deg, [0.0, 3.0, 6.0, 9.0])
        # fractional steps with an exactly-divisible span stay inclusive
        g2 = AngleGrid.uniform(-90.0, 90.0, 0.5)
        assert len(g2) == 361 and g2.angles_deg[-1] == 90.0

    def test_desired_pattern_needs_positive_value(self):
        # the one owner of this rule: radar.optimal_alpha divides by the
        # pattern's sum of squares unchecked
        with pytest.raises(ValueError, match="at least one positive value"):
            DesiredBeamPattern(np.zeros(5))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            DesiredBeamPattern(np.array([1.0, -0.5]))

    def test_targets(self):
        with pytest.raises(ValueError):
            TargetSet(np.array([]), 2)
        with pytest.raises(ValueError):
            TargetSet(np.array([10.0]), 0)

    @pytest.mark.parametrize("max_lag, ok", INTEGERS)
    def test_targets_max_lag_is_an_integer(self, max_lag, ok):
        # 2.5 once passed here and raised IndexError in objective_terms
        if ok:
            assert TargetSet([0.0], max_lag).max_lag == max_lag
        else:
            with pytest.raises(ValueError, match="max_lag must be an integer"):
                TargetSet([0.0], max_lag)

    def test_weights_not_all_zero(self):
        with pytest.raises(ValueError):
            Weights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Weights(-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Weights(1.0, bad, 2.0)

    def test_solver_config_coerces_enums(self):
        cfg = SolverConfig(majorizer_kind="max_eigen", mode="radar_only")
        assert cfg.majorizer_kind.value == "max_eigen"
        assert cfg.mode.value == "radar_only"
        with pytest.raises(ValueError):
            SolverConfig(eps2=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer_iters=0)

    @pytest.mark.parametrize("field", ["max_outer_iters", "seed"])
    @pytest.mark.parametrize("value, ok", [(40.5, False), (np.float64(40.0), False),
                                           (40, True), (np.int64(40), True)])
    def test_solver_config_counts_are_integers(self, field, value, ok):
        # 2.5 once passed here and raised TypeError in mm_solve
        if ok:
            assert getattr(SolverConfig(**{field: value}), field) == value
        else:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SolverConfig(**{field: value})

    @pytest.mark.parametrize("budget", [1, 31, 1001, 1100])
    def test_bisection_budget_range(self, budget):
        # the update budget is the solver's constant, in [32, 1000]: below 32 the
        # listing's dual value turns on where its starved steps stop; above 1000,
        # 2**budget or its reciprocal leaves the normal floats. No SolverConfig
        # and no config file sets it
        assert 32 <= solver.MAX_BISECT_ITERS <= 1000
        with pytest.raises(TypeError, match="max_bisect_iters"):
            SolverConfig(max_bisect_iters=budget)
        with pytest.raises(ConfigError, match="unknown key 'max_bisect_iters'"):
            parse_config_text(f"max_bisect_iters = {budget}")

    @pytest.mark.parametrize("key, value", [("max_bisect_iters", 200), ("eps1", 1e-4),
                                            ("eps3", 3e-5)])
    def test_solver_constants_are_not_settings(self, key, value):
        # the update budget and the stop rules of the dual (eps1) and of the MM
        # loop (eps3) are the solver's constants; eps2, the stop band, is a setting
        assert (solver.EPS1, solver.EPS3) == (1e-4, 3e-5)
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "eps2", "max_outer_iters", "majorizer_kind", "mode", "seed",
        ]
        assert len(dataclasses.fields(ExperimentConfig)) == 23
        with pytest.raises(TypeError, match=key):
            SolverConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config_text(f"{key} = {value}")

    def test_waveform_modulus_check(self):
        amp = np.sqrt(1.0 / 2.0)
        good = amp * np.exp(1j * np.linspace(0, 3, 8)).reshape(2, 4)
        WaveformMatrix(good, p_total=1.0, constant_modulus=True)
        bad = good.copy()
        bad[0, 0] *= 1.001
        with pytest.raises(ValueError, match="constant-modulus"):
            WaveformMatrix(bad, p_total=1.0, constant_modulus=True)

    def test_types_are_read_only(self):
        w = WaveformMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            w.entries[0, 0] = 5.0


class TestWaveformIO:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        entries = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        w = WaveformMatrix(entries, p_total=2.5)
        path = tmp_path / "wave.txt"
        save_waveform(w, path)
        back = load_waveform(path)
        assert np.array_equal(back.entries, entries)
        assert back.p_total == 2.5
        assert not back.constant_modulus

    def test_constant_modulus_flag_round_trip(self, rng, tmp_path):
        amp = np.sqrt(1.0 / 3.0)
        entries = amp * np.exp(2j * np.pi * rng.random((3, 5)))
        w = WaveformMatrix(entries, p_total=1.0, constant_modulus=True)
        path = tmp_path / "wave.txt"
        save_waveform(w, path)
        back = load_waveform(path)
        assert back.constant_modulus
        assert np.array_equal(back.entries, entries)

    def test_modulus_checked_on_load(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_text("1,2,1.0,constant_modulus\n1.0:0.0,0.5:0.0\n")
        with pytest.raises(WaveformFormatError):
            load_waveform(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_text("2,3,1.0\n1:0,2:0,3:0\n1:0,2:0\n")
        with pytest.raises(WaveformFormatError, match="line 3"):
            load_waveform(path)

    def test_bad_pair_names_field(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_text("1,2,1.0\n1:0,2\n")
        with pytest.raises(WaveformFormatError, match="field 2"):
            load_waveform(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "wave.txt"
        path.write_text("x,2,1.0\n1:0,2:0\n")
        with pytest.raises(WaveformFormatError, match="n_tx"):
            load_waveform(path)

    def test_byte_order_mark_is_skipped(self, rng, tmp_path):
        entries = np.exp(2j * np.pi * rng.random((2, 3)))
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        save_waveform(WaveformMatrix(entries, p_total=2.0, constant_modulus=True), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_waveform(plain), load_waveform(marked)
        assert b.entries.tobytes() == a.entries.tobytes() == entries.tobytes()
        assert (b.p_total, b.constant_modulus) == (a.p_total, a.constant_modulus) == (2.0, True)

    @pytest.mark.parametrize(
        ("header", "field"), [("1,-2,1.0", "block_len"), ("0,2,1.0", "n_tx")]
    )
    def test_nonpositive_dimension_names_field(self, tmp_path, header, field):
        path = tmp_path / "wave.txt"
        path.write_text(header + "\n1:0,2:0\n")
        with pytest.raises(WaveformFormatError, match=f"line 1: field '{field}'"):
            load_waveform(path)


def _loading(content):
    """A builder that writes ``content``, text or raw bytes, to a waveform file and loads it."""

    def load(tmp_path):
        path = tmp_path / "wave.txt"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        return load_waveform(path)

    return load


class TestInputChecks:
    @pytest.mark.parametrize(
        ("build", "error", "message"),
        [
            (lambda _: WaveformMatrix(np.zeros((0, 3))), ValueError,
             r"entries must be a non-empty 2-D array, got shape \(0, 3\)"),
            (lambda _: WaveformMatrix(np.ones(3)), ValueError,
             r"entries must be a non-empty 2-D array, got shape \(3,\)"),
            (lambda _: AngleGrid(np.array([])), ValueError,
             "angle grid must be a non-empty 1-D array"),
            (lambda _: DesiredBeamPattern(np.array([])), ValueError,
             "desired pattern must be a non-empty 1-D array"),
            # library callers reach these; a config's own finite rule comes first
            (lambda _: DesiredBeamPattern([1.0, np.nan]), ValueError,
             "desired pattern values must be finite and nonnegative"),
            (lambda _: DesiredBeamPattern([1.0, np.inf]), ValueError,
             "desired pattern values must be finite and nonnegative"),
            (lambda _: TargetSet([np.nan], 2), ValueError,
             r"target_angles_deg must be finite, got \[nan\]"),
            (lambda _: AngleGrid([np.nan]), ValueError, "angle grid angles must be finite"),
            (lambda _: AngleGrid([0.0, np.inf]), ValueError, "angle grid angles must be finite"),
            (lambda _: WaveformMatrix([[np.nan, 1.0]], p_total=1.0, constant_modulus=True),
             ValueError, r"constant-modulus violation: max \|entry\| deviation nan"),
            (_loading("1,2,1.0,constant_modulus\nnan:nan,1.0:0.0\n"), WaveformFormatError,
             r"line 1: constant-modulus violation: max \|entry\| deviation nan"),
            (_loading("1,2,abc\n1:0,2:0\n"), WaveformFormatError,
             "line 1: field 'p_total': expected float, got 'abc'"),
            (_loading("1,2,1.0\n1:0,2:y\n"), WaveformFormatError,
             r"line 2: field '2 \(im\)': expected float, got 'y'"),
            (_loading(""), WaveformFormatError, "line 1: empty file"),
            (_loading("1,2\n1:0,2:0\n"), WaveformFormatError,
             "line 1: header must have 3 or 4 comma-separated fields, got 2"),
            (_loading("1,2,1.0,constant_modulus,x\n1:0,2:0\n"), WaveformFormatError,
             "line 1: header must have 3 or 4 comma-separated fields, got 5"),
            (_loading("1,2,1.0,cm\n1:0,2:0\n"), WaveformFormatError,
             "line 1: field 4: expected 'constant_modulus', got 'cm'"),
            (_loading("2,2,1.0\n1:0,2:0\n"), WaveformFormatError,
             "line 2: expected 2 antenna rows, found 1"),
            # trailing blank lines are dropped before the rows are counted
            (_loading("2,2,1.0\n1:0,2:0\n\n  \n"), WaveformFormatError,
             "line 4: expected 2 antenna rows, found 1"),
            (_loading("1,2,1.0\n1:0,2:0\n3:0,4:0\n"), WaveformFormatError,
             "line 3: expected 1 antenna rows, found 2"),
            (_loading(b"\xff\xfe\x00bad"), WaveformFormatError,
             r"line 1: not UTF-8 text \(byte 0xff\)"),
            (_loading(b"1,1,1.0\n\xff:0\n"), WaveformFormatError,
             r"line 2: not UTF-8 text \(byte 0xff\)"),
            # a byte-order mark is skipped, and the position after it is still true
            (_loading(b"\xef\xbb\xbf1,1,1.0\n\xff:0\n"), WaveformFormatError,
             r"line 2: not UTF-8 text \(byte 0xff\)"),
            (_loading(b"\xef\xbb\xbf\xfe"), WaveformFormatError,
             r"line 1: not UTF-8 text \(byte 0xfe\)"),
            # the header's block would be 146 TiB: the rows are checked before any allocation
            (_loading("1,10000000000000,1.0\n1:0\n"), WaveformFormatError,
             "line 2: expected 10000000000000 columns, found 1"),
        ],
        ids=[
            "empty entries", "1-D entries", "empty grid", "empty pattern",
            "NaN pattern", "infinite pattern", "NaN target", "NaN grid", "infinite grid",
            "NaN constant-modulus entry", "NaN constant-modulus file",
            "bad p_total", "bad entry", "empty file", "short header", "long header",
            "bad flag", "missing row", "missing row before blank lines", "extra row",
            "non-UTF-8 header", "non-UTF-8 row", "non-UTF-8 row after BOM",
            "non-UTF-8 byte after BOM", "huge header",
        ],
    )
    def test_rejects_with_message(self, tmp_path, build, error, message):
        with pytest.raises(error, match=message):
            build(tmp_path)
