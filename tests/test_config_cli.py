"""Config parsing/validation, experiment artifacts, and the CLI contract."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dfrcwave import cli
from dfrcwave.config import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    config_from_file,
    parse_config_text,
    validate_config,
)
from dfrcwave.experiment import compare_majorizers, iterations_to_within, run_experiment
from dfrcwave.model import load_waveform
from dfrcwave.solver import mm_solve

TINY_CONFIG = """
# tiny instance, quick to solve
n_tx = 2
block_len = 3
k_users = 1
max_lag = 2
gamma_db = [3.0]
grid_step_deg = 15.0
w_bp = 1.0
w_ac = 2.0
w_cc = 2.0
eps3 = 1e-3
max_outer_iters = 40
seed = 9
output_dir = out
"""


class TestParsing:
    def test_round_trip_of_documented_grammar(self):
        cfg = parse_config_text(TINY_CONFIG)
        assert cfg.n_tx == 2
        assert cfg.block_len == 3
        assert cfg.gamma_db == (3.0,)
        assert cfg.output_dir == "out"
        assert cfg.seed == 9

    def test_arrays(self):
        cfg = parse_config_text("target_angles_deg = [-10, 0, 25.5]\n")
        assert cfg.target_angles_deg == (-10.0, 0.0, 25.5)

    def test_comments_and_blanks(self):
        cfg = parse_config_text("\n# comment only\nn_tx = 5  # trailing\n\n")
        assert cfg.n_tx == 5

    def test_unknown_key(self):
        # n_rx was a receive-antenna count that no operation read
        for text in ("n_ty = 3\n", "n_rx = 4\n"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(text)

    def test_bad_scalar(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config_text("n_tx = two\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just a line\n")

    def test_repeated_key(self):
        with pytest.raises(ConfigError, match=r"line 3: key 'seed' is already set on line 1"):
            parse_config_text("seed = 0\nn_tx = 4\nseed = 3\n")

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("gamma_db = 6\n", r"key 'gamma_db': expected a bracketed list, got '6'"),
            ("gamma_db = [6, x]\n", r"key 'gamma_db': expected float, got 'x'"),
            ("target_angles_deg = [0,]\n", r"key 'target_angles_deg': expected float, got ''"),
            ("p_total = one\n", r"key 'p_total': expected float, got 'one'"),
        ],
    )
    def test_bad_value_names_key_and_token(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)


#: Configs whose fields are each valid but that no design can serve, with the
#: reason build_problem gives: no grid angle inside a beam, no cost term left,
#: or a QoS target whose linear value overflows.
UNSERVABLE = {
    "target outside the grid": (
        "target_angles_deg = [200]\nmax_lag = 2\n", "desired pattern"),
    "grid step wider than the grid": (
        "grid_step_deg = 400\nmax_lag = 2\n", "desired pattern"),
    "cross-correlation weight with one target": (
        "w_bp = 0\nw_ac = 0\nw_cc = 1\ntarget_angles_deg = [0]\nmax_lag = 2\n",
        "no active cost terms"),
    "autocorrelation weight without a sidelobe lag": (
        "w_bp = 0\nw_ac = 1\nw_cc = 0\nmax_lag = 1\n", "no active cost terms"),
    "QoS target beyond float range": ("gamma_db = [4000]\n", "gamma must be finite"),
}
SMALL_HEADER = "n_tx = 2\nblock_len = 3\nk_users = 1\nmax_outer_iters = 3\n"


class TestValidation:
    def test_desk_preset_is_clean(self):
        assert validate_config(ExperimentConfig.desk_preset()) == []

    def test_full_scale_default_is_clean(self):
        assert validate_config(ExperimentConfig()) == []

    def test_k_exceeding_antennas(self):
        bad = ExperimentConfig.desk_preset(k_users=5)
        report = validate_config(bad)
        assert any("k_users must be <= n_tx" in line for line in report)

    def test_lag_exceeding_block(self):
        bad = ExperimentConfig.desk_preset(max_lag=10)
        report = validate_config(bad)
        assert any("max_lag - 1 must be <= block_len" in line for line in report)

    def test_all_zero_weights(self):
        bad = ExperimentConfig.desk_preset(w_bp=0.0, w_ac=0.0, w_cc=0.0)
        assert any("weights" in line for line in validate_config(bad))

    def test_multiple_violations_all_reported(self):
        # faults in three parts, then two faults inside one part (the solver config)
        for overrides in ({"k_users": 9, "max_lag": 10, "sigma2": -1.0},
                          {"eps1": 0.0, "eps2": -1.0}):
            report = validate_config(ExperimentConfig.desk_preset(**overrides))
            assert len(report) >= len(overrides)
            for key in overrides:
                assert any(line.startswith(key) for line in report), key

    @pytest.mark.parametrize(
        "line",
        ["gamma_db = [nan]", "target_angles_deg = [-30, inf]", "w_ac = nan", "p_total = inf",
         "eps2 = nan"],
    )
    def test_non_finite_floats_rejected(self, line):
        key = line.split()[0]
        report = validate_config(parse_config_text(line + "\n"))
        assert any(entry.startswith(f"{key} ") and "finite" in entry for entry in report)

    @pytest.mark.parametrize("key", ["n_tx", "block_len", "k_users", "m_psk"])
    def test_non_integer_counts_rejected(self, key):
        # a float count once reached the draws and raised TypeError (m_psk = 4.0
        # validated clean); it now fails the config's own rule and no part reads it
        value = float(getattr(ExperimentConfig.desk_preset(), key))
        config = ExperimentConfig.desk_preset(**{key: value})
        assert validate_config(config) == [f"{key} must be an integer, got {value!r}"]
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            build_problem(config)

    @pytest.mark.parametrize("text, reason", UNSERVABLE.values(), ids=UNSERVABLE)
    def test_unservable_config_rejected(self, text, reason):
        config = parse_config_text(SMALL_HEADER + text)
        assert any(reason in line for line in validate_config(config))
        with pytest.raises(ConfigError, match=reason):
            build_problem(config)

    def test_gamma_broadcast(self):
        cfg = ExperimentConfig.desk_preset()
        assert cfg.gamma_db_per_user == (6.0, 6.0)
        explicit = ExperimentConfig.desk_preset(gamma_db=(3.0, 9.0))
        assert explicit.gamma_db_per_user == (3.0, 9.0)
        wrong = ExperimentConfig.desk_preset(gamma_db=(1.0, 2.0, 3.0))
        assert any("gamma_db" in line for line in validate_config(wrong))


class TestBuildProblem:
    def test_deterministic(self):
        cfg = ExperimentConfig.desk_preset(seed=5)
        a = build_problem(cfg)
        b = build_problem(cfg)
        assert np.array_equal(a.comm.channels, b.comm.channels)
        assert np.array_equal(a.comm.symbols, b.comm.symbols)
        assert np.array_equal(a.x0, b.x0)

    def test_seed_changes_draws(self):
        a = build_problem(ExperimentConfig.desk_preset(seed=5))
        b = build_problem(ExperimentConfig.desk_preset(seed=6))
        assert not np.array_equal(a.comm.channels, b.comm.channels)

    def test_gamma_converted_to_linear(self):
        prob = build_problem(ExperimentConfig.desk_preset())
        assert np.allclose(prob.comm.gamma, 10 ** 0.6)

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig.desk_preset(k_users=9))


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = parse_config_text(TINY_CONFIG)
        result = run_experiment(cfg, base_dir=tmp_path)
        out = result.artifact_dir
        for name in (
            "waveform.txt",
            "beampattern.csv",
            "convergence.csv",
            "iterations.csv",
            "summary.json",
            "autocorr_q1.csv",
            "autocorr_q2.csv",
            "crosscorr_q1_q2.csv",
            "crosscorr_q2_q1.csv",
        ):
            assert (out / name).exists(), name
        w = load_waveform(out / "waveform.txt")
        assert w.constant_modulus and w.n_tx == 2 and w.block_len == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] in ("converged", "max_iters")
        assert summary["min_ci_margin"] is not None
        assert summary["config"]["seed"] == 9
        for key in ("polish_steps", "restorations", "restore_failures", "sweep_cap_hits"):
            assert summary["iterations"][key] == getattr(result.state, key), key
        # one iterations.csv row per outer iteration; its columns add up to the counters
        lines = (out / "iterations.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["iteration", "objective"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        counts = summary["iterations"]
        assert [int(r["iteration"]) for r in rows] == list(range(1, counts["outer"] + 1))
        total = lambda col: sum(int(r[col]) for r in rows)
        assert total("dual_sweeps") == counts["dual_sweeps"]
        assert total("bisection_evals") == counts["bisection_steps"]
        assert total("sweep_cap_hit") == counts["sweep_cap_hits"]
        assert total("restored") == counts["restorations"]
        assert sum(1 - int(r["feasible_exit"]) for r in rows) == counts["restore_failures"]
        assert total("polish_step") == counts["polish_steps"]
        assert total("rejected") == counts["rejected_steps"]
        conv = (out / "convergence.csv").read_text().strip().splitlines()[1:]
        trace = [float(line.split(",")[1]) for line in conv]
        accepted = [float(r["objective"]) for r in rows if r["rejected"] == "0"]
        assert accepted == trace

    def test_autocorr_peaks_at_zero_db(self, tmp_path):
        cfg = parse_config_text(TINY_CONFIG)
        out = run_experiment(cfg, base_dir=tmp_path).artifact_dir
        for name in ("autocorr_q1.csv", "autocorr_q2.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            levels = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
            assert levels[0] == 0.0
            assert max(levels.values()) <= 0.0 + 1e-12

    def test_radar_only_has_null_margin(self, tmp_path):
        cfg = parse_config_text(TINY_CONFIG + "mode = radar_only\n")
        out = run_experiment(cfg, base_dir=tmp_path).artifact_dir
        summary = json.loads((out / "summary.json").read_text())
        assert summary["min_ci_margin"] is None
        assert summary["kkt_residual"] is None
        # a radar-only step runs no dual ascent and no repair, and is always feasible
        for counter in ("dual_sweeps", "bisection_steps", "polish_steps", "restorations",
                        "restore_failures", "sweep_cap_hits"):
            assert summary["iterations"][counter] == 0, counter
        with open(out / "iterations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary["iterations"]["outer"] > 1
        work = {"dual_sweeps": "0", "bisection_evals": "0", "sweep_cap_hit": "0",
                "restored": "0", "feasible_exit": "1", "polish_step": "0"}
        for row in rows:
            assert {key: row[key] for key in work} == work, row["iteration"]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = parse_config_text(TINY_CONFIG)
        first = run_experiment(cfg, base_dir=tmp_path / "a").artifact_dir
        second = run_experiment(cfg, base_dir=tmp_path / "b").artifact_dir
        for name in ("beampattern.csv", "convergence.csv", "waveform.txt",
                     "autocorr_q1.csv", "crosscorr_q1_q2.csv", "summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_compare_majorizers_writes_both_traces(self, tmp_path):
        cfg = parse_config_text(TINY_CONFIG + "mode = radar_only\n")
        out = compare_majorizers(cfg, base_dir=tmp_path).artifact_dir
        assert (out / "convergence_diagonal.csv").exists()
        assert (out / "convergence_max_eigen.csv").exists()
        summary = json.loads((out / "summary_compare.json").read_text())
        assert set(summary["comparison"]) == {"diagonal", "max_eigen"}

    @pytest.mark.parametrize("kind", ["diagonal", "max_eigen"])
    def test_compare_traces_match_single_runs(self, tmp_path, kind):
        cfg = parse_config_text(TINY_CONFIG + "mode = radar_only\n")
        compared = compare_majorizers(cfg, base_dir=tmp_path / "cmp").artifact_dir
        single = run_experiment(
            dataclasses.replace(cfg, majorizer_kind=kind), base_dir=tmp_path / "one"
        ).artifact_dir
        assert (compared / f"convergence_{kind}.csv").read_bytes() == (
            single / "convergence.csv"
        ).read_bytes()


    def test_compare_counts_iterations_to_the_better_final(self, tmp_path):
        # the shipped comparison config: each kind's first iteration within 5%
        # of the better final objective of the two runs, read from its trace
        cfg = config_from_file(Path(__file__).parents[1] / "configs" / "convergence_compare.cfg")
        out = compare_majorizers(cfg, base_dir=tmp_path).artifact_dir
        runs = json.loads((out / "summary_compare.json").read_text())["comparison"]
        best = min(run["final_objective"] for run in runs.values())
        for kind, run in runs.items():
            rows = (out / f"convergence_{kind}.csv").read_text().splitlines()[1:]
            trace = [float(row.split(",")[1]) for row in rows]
            within = [i + 1 for i, g in enumerate(trace) if g <= best + 0.05 * abs(best)]
            assert run["iterations_to_within_5pct_of_best"] == (within[0] if within else None)
            if run["final_objective"] == best:
                assert run["iterations_to_within_5pct_of_best"] == run["iterations_to_within_5pct"]
        # the diagonal run is the better one here, and the max-eigen run's own
        # final lies above it, so its count to the common band is the larger
        assert runs["diagonal"]["final_objective"] == best
        max_eigen = runs["max_eigen"]
        assert (
            max_eigen["iterations_to_within_5pct_of_best"] > max_eigen["iterations_to_within_5pct"]
        )


class TestIterationsToWithin:
    def test_monotone_trace(self):
        trace = np.array([10.0, 5.0, 2.0, 1.05, 1.0])
        assert iterations_to_within(trace) == 4

    def test_reference_value(self):
        trace = np.array([10.0, 5.0, 2.0, 1.05, 1.0])
        assert iterations_to_within(trace, 0.05, 2.0) == 3
        assert iterations_to_within(trace, 0.05, 0.5) is None

    def test_flat_trace(self):
        assert iterations_to_within(np.array([3.0, 3.0])) == 1

    def test_empty(self):
        assert iterations_to_within(np.array([])) == 0


class TestCLI:
    def test_validate_ok(self, tiny_config, capsys):
        code = cli.main(["validate", str(tiny_config)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_tx = 2\nk_users = 5\n", encoding="utf-8")
        code = cli.main(["validate", str(path)])
        assert code == 1
        assert "k_users" in capsys.readouterr().out

    def test_validate_rejects_nan_qos(self, tmp_path, capsys):
        path = tmp_path / "nan.cfg"
        path.write_text(TINY_CONFIG.replace("[3.0]", "[nan]"), encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert "gamma_db entries must be finite" in capsys.readouterr().out

    def test_validate_reports_the_cause_not_its_consequence(self, tmp_path, capsys):
        # the desired pattern reads the checked target set, so an empty angle
        # list is reported once, not again as an all-zero pattern
        path = tmp_path / "no_targets.cfg"
        path.write_text("target_angles_deg = []\n", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "target_angles_deg must list at least one angle" in out
        assert "desired pattern" not in out

    def test_validate_reports_overflowing_grid(self, tmp_path, capsys):
        # the point count overflows before anything is allocated
        path = tmp_path / "grid.cfg"
        path.write_text(
            "grid_start_deg = -1e308\ngrid_stop_deg = 1e308\ngrid_step_deg = 1e-300\n",
            encoding="utf-8",
        )
        assert cli.main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "bad angle grid" in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("text, reason", UNSERVABLE.values(), ids=UNSERVABLE)
    def test_validate_and_run_agree(self, tmp_path, capsys, text, reason):
        path = tmp_path / "unservable.cfg"
        path.write_text(SMALL_HEADER + text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert reason in capsys.readouterr().out
        for command in ("run", "compare-majorizers"):
            code = cli.main([command, str(path), "--output-root", str(tmp_path)])
            assert code == 1
            assert f"config error: {reason}" in capsys.readouterr().err
            assert not (tmp_path / "results").exists()  # rejected before any artifact dir

    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_utf8_file_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert cli.main([command, str(path)]) == 1  # rejected before any artifact dir
        assert "config error: line 1: not UTF-8 text (byte 0xff)" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # some editors start UTF-8 files with the mark EF BB BF
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(TINY_CONFIG.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + TINY_CONFIG.encode())
        assert config_from_file(marked) == config_from_file(plain)
        assert cli.main(["validate", str(marked)]) == 0
        assert not capsys.readouterr().err

    @pytest.mark.parametrize(
        ("content", "message"),
        [(b"\xef\xbb\xbfn_tx = 2\n\xff = 1\n", "line 2: not UTF-8 text (byte 0xff)"),
         (b"\xef\xbb\xbf\xfe", "line 1: not UTF-8 text (byte 0xfe)")],
        ids=["second line", "first byte"],
    )
    def test_non_utf8_after_byte_order_mark_names_its_byte(self, tmp_path, content, message):
        path = tmp_path / "marked.cfg"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as info:
            config_from_file(path)
        assert str(info.value) == message

    def test_parse_error_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_tx = banana\n", encoding="utf-8")
        assert cli.main(["run", str(path)]) == 1

    def test_run_writes_artifacts(self, tiny_config, tmp_path, capsys):
        code = cli.main(
            ["run", str(tiny_config), "--output-root", str(tmp_path / "arts")]
        )
        assert code == 0
        assert (tmp_path / "arts" / "out" / "summary.json").exists()

    def test_env_var_output_root(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DFRCWAVE_OUTPUT_ROOT", str(tmp_path / "env_root"))
        code = cli.main(["run", str(tiny_config)])
        assert code == 0
        assert (tmp_path / "env_root" / "out" / "summary.json").exists()

    def test_warning_exit_code(self, tmp_path):
        # unreachable QoS downgrades the run to completed-with-warnings
        path = tmp_path / "warn.cfg"
        text = TINY_CONFIG.replace("gamma_db = [3.0]", "gamma_db = [90.0]")
        path.write_text(
            text.replace("max_outer_iters = 40", "max_outer_iters = 3"), encoding="utf-8"
        )
        code = cli.main(["run", str(path), "--output-root", str(tmp_path)])
        assert code == 3

    def test_compare_warnings_from_either_kind(self, tmp_path, monkeypatch, capsys):
        # only the max-eigen run warns; the exit code and stderr must still say so
        from dfrcwave import experiment

        def solve(scene, comm, weights, cfg, **kwargs):
            state = mm_solve(scene, comm, weights, cfg, **kwargs)
            if cfg.majorizer_kind.value == "max_eigen":
                state.warnings = ("planted warning",)
            return state

        monkeypatch.setattr(experiment, "mm_solve", solve)
        path = tmp_path / "cmp.cfg"
        path.write_text(TINY_CONFIG + "mode = radar_only\n", encoding="utf-8")
        code = cli.main(["compare-majorizers", str(path), "--output-root", str(tmp_path)])
        assert code == 3
        assert "warning: max_eigen: planted warning" in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary_compare.json").read_text())
        assert summary["comparison"]["max_eigen"]["warnings"] == ["planted warning"]
        assert summary["comparison"]["diagonal"]["warnings"] == []

    def test_runtime_error_exit(self, tmp_path, monkeypatch, capsys):
        # a solver failure after a valid build exits 2, reported on stderr
        from dfrcwave import experiment

        def solve(*args, **kwargs):
            raise RuntimeError("planted solver failure")

        monkeypatch.setattr(experiment, "mm_solve", solve)
        desk = Path(__file__).parents[1] / "configs" / "desk.cfg"
        code = cli.main(["run", str(desk), "--output-root", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME == 2
        assert "runtime error: planted solver failure" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path):
        path = tmp_path / "cmp.cfg"
        path.write_text(TINY_CONFIG + "mode = radar_only\n", encoding="utf-8")
        code = cli.main(
            ["compare-majorizers", str(path), "--output-root", str(tmp_path / "c")]
        )
        assert code == 0
        assert (tmp_path / "c" / "out" / "convergence_max_eigen.csv").exists()
