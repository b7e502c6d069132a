import dataclasses
import json
import logging
import threading

import numpy as np
import pytest

import latentscore as ls
import latentscore.experiment as experiment
from latentscore.experiment import (
    CellResult,
    SelectionError,
    SweepResult,
    config_from_json_dict,
    replicate_selections,
    result_from_json_dict,
    result_to_json_dict,
    summarize_deltas,
)


def _tiny_config(**overrides):
    base = dict(n_observed=3, c_true=2, n_samples=30, test_c_range=(1, 3),
                replicates=2, master_seed=7)
    base.update(overrides)
    return ls.ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _tiny_config(n_observed=0)
        with pytest.raises(ValueError):
            _tiny_config(c_true=0)
        with pytest.raises(ValueError):
            _tiny_config(n_samples=0)
        with pytest.raises(ValueError):
            _tiny_config(test_c_range=(3, 2))
        with pytest.raises(ValueError):
            _tiny_config(test_c_range=(0, 2))
        with pytest.raises(ValueError):
            _tiny_config(test_c_range=(1, 2, 3))
        with pytest.raises(ValueError):
            _tiny_config(replicates=0)
        with pytest.raises(ValueError):
            _tiny_config(epsilon=0.0)
        with pytest.raises(ValueError):
            _tiny_config(measures=())
        with pytest.raises(ValueError):
            _tiny_config(measures=("laplace", "aic"))

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError,
                           match="epsilon must be positive and finite"):
            _tiny_config(epsilon=epsilon)

    def test_test_arities_inclusive(self):
        assert _tiny_config(test_c_range=(2, 5)).test_arities == (2, 3, 4, 5)
        assert _tiny_config(test_c_range=(4, 4)).test_arities == (4,)

    def test_alpha(self):
        assert _tiny_config(epsilon=0.01).alpha == 1.01
        assert _tiny_config(epsilon=0.25).alpha == 1.25

    def test_json_round_trip(self):
        config = _tiny_config(measures=("laplace", "bic", "oracle"),
                              output_dir="/tmp/somewhere", epsilon=0.02)
        doc = dataclasses.asdict(config)
        assert config_from_json_dict(json.loads(json.dumps(doc))) == config

    def test_json_defaults(self):
        doc = {"n_observed": 3, "c_true": 2, "n_samples": 10,
               "test_c_range": [1, 2], "replicates": 2}
        config = config_from_json_dict(doc)
        assert config.epsilon == 0.01
        assert config.measures == ls.MEASURES
        assert config.master_seed == 1
        assert config.output_dir is None


class TestSelectModel:
    def test_argmax(self):
        assert ls.select_model({2: -10.0, 3: -9.0, 4: -9.5}) == 3

    def test_tie_goes_to_smaller_arity(self):
        assert ls.select_model({3: -5.0, 2: -5.0}) == 2
        assert ls.select_model({5: -1.0, 4: -1.0, 6: -1.0}) == 4

    def test_single_point(self):
        assert ls.select_model({4: -1.25}) == 4

    def test_empty_curve(self):
        with pytest.raises(SelectionError):
            ls.select_model({})


class TestDeltaC:
    def test_basic(self):
        assert ls.delta_c({"laplace": 4, "bic": 3}) == {"bic": -1}
        assert ls.delta_c({"laplace": 8, "cs": 24}) == {"cs": 16}
        assert ls.delta_c({"laplace": 4, "bic": 3, "draper": 4, "cs": 6}) == {
            "bic": -1, "draper": 0, "cs": 2}

    def test_laplace_never_in_output(self):
        assert "laplace" not in ls.delta_c({"laplace": 4, "mled": 4})

    def test_missing_baseline(self):
        with pytest.raises(ValueError):
            ls.delta_c({"bic": 3})


def _synthetic_result():
    """Hand-built two-replicate result with one failed laplace replicate."""
    config = _tiny_config(test_c_range=(2, 3), replicates=2,
                          measures=("laplace", "bic"))
    spec = ls.binary_spec(3, 2)
    model = ls.generate_model(spec, ls.SeededStream(0, 0))
    cells = [
        CellResult(0, 2, 9, -10.0, True, 3,
                   scores={"laplace": -11.0, "bic": -12.0}),
        CellResult(0, 3, 13, -9.0, True, 3,
                   scores={"laplace": -10.5, "bic": -12.5}),
        CellResult(1, 2, 9, None, False, 0,
                   failures={"laplace": "boom", "bic": "boom"}),
        CellResult(1, 3, 13, -9.5, True, 4,
                   scores={"bic": -13.0}, failures={"laplace": "ridge"}),
    ]
    return SweepResult(config=config, true_model=model, cells=cells)


class TestSelectionHelpers:
    def test_measure_curve_skips_invalid_cells(self):
        result = _synthetic_result()
        assert result.measure_curve(0, "laplace") == {2: -11.0, 3: -10.5}
        assert result.measure_curve(1, "laplace") == {}
        assert result.measure_curve(1, "bic") == {3: -13.0}

    def test_replicate_selections(self):
        result = _synthetic_result()
        assert replicate_selections(result, 0) == {"laplace": 3, "bic": 2}
        # replicate 1 has no valid laplace cell at all
        assert replicate_selections(result, 1) == {"bic": 3}

    def test_summarize_skips_replicates_without_baseline(self):
        result = _synthetic_result()
        rows = summarize_deltas(result)
        assert len(rows) == 1
        row = rows[0]
        assert row["measure"] == "bic"
        assert row["replicates_used"] == 1
        assert row["mean_delta_c"] == -1.0
        assert row["sd_delta_c"] is None


class TestRunSweep:
    def test_deterministic_and_complete(self):
        config = _tiny_config()
        r1 = ls.run_sweep(config)
        r2 = ls.run_sweep(config)
        assert result_to_json_dict(r1) == result_to_json_dict(r2)
        assert len(r1.cells) == 2 * 3
        for k, cell in enumerate(r1.cells):
            assert (cell.replicate, cell.test_c) == (k // 3, 1 + k % 3)
            assert set(cell.scores) == set(ls.MEASURES)
            assert not cell.failures

    def test_different_seed_changes_scores(self):
        r1 = ls.run_sweep(_tiny_config(master_seed=7))
        r2 = ls.run_sweep(_tiny_config(master_seed=8))
        assert r1.cells[0].scores["bic"] != r2.cells[0].scores["bic"]

    def test_single_point_range(self):
        config = _tiny_config(test_c_range=(2, 2), replicates=3)
        result = ls.run_sweep(config)
        assert len(result.cells) == 3
        assert all(c.test_c == 2 for c in result.cells)

    def test_oracle_measure_in_sweep(self):
        config = _tiny_config(n_samples=15, test_c_range=(1, 2),
                              measures=("laplace", "bic", "oracle"))
        result = ls.run_sweep(config)
        for cell in result.cells:
            assert "oracle" in cell.scores
            assert np.isfinite(cell.scores["oracle"])

    def test_logs_failed_cells_per_measure(self, caplog):
        # At c=3 the oracle's groups of completions exceed its cap, so it
        # fails in one cell per replicate and the other measures in none.
        config = _tiny_config(measures=("laplace", "bic", "oracle"))
        with caplog.at_level(logging.INFO, logger="latentscore.experiment"):
            result = ls.run_sweep(config)
        failed = {m: [c.test_c for c in result.cells if m in c.failures]
                  for m in config.measures}
        assert failed == {"laplace": [], "bic": [], "oracle": [3, 3]}
        lines = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.INFO and "failed in" in r.getMessage()]
        assert lines == ["sweep: laplace failed in 0 of 6 cells",
                         "sweep: bic failed in 0 of 6 cells",
                         "sweep: oracle failed in 2 of 6 cells"]

    def test_rerun_byte_identical(self, tmp_path):
        config = _tiny_config()
        ls.emit_reports(ls.run_sweep(config), tmp_path / "a")
        ls.emit_reports(ls.run_sweep(config), tmp_path / "b")
        for name in ("curves.csv", "selection.csv", "summary.csv", "run.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_cells_fit_on_calling_thread(self, monkeypatch):
        threads = []
        real_fit = experiment.fit

        def recording_fit(*args, **kwargs):
            threads.append(threading.current_thread())
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(experiment, "fit", recording_fit)
        config = _tiny_config()
        result = ls.run_sweep(config)
        assert len(threads) == len(result.cells) == 6
        assert all(t is threading.current_thread() for t in threads)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    config = _tiny_config()
    result = ls.run_sweep(config)
    out = tmp_path_factory.mktemp("sweep")
    ls.emit_reports(result, out)
    return config, result, out


class TestEmitReports:
    def test_files_exist(self, sweep_dir):
        _, _, out = sweep_dir
        for name in ("curves.csv", "selection.csv", "summary.csv", "run.json"):
            assert (out / name).is_file()

    def test_curves_layout(self, sweep_dir):
        config, result, out = sweep_dir
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "replicate,test_c,measure,log_score,valid,reason"
        assert len(lines) == 1 + len(result.cells) * len(config.measures)
        for line in lines[1:]:
            rep, tc, measure, score, valid, reason = line.split(",")
            assert valid in ("true", "false")
            if valid == "true":
                assert float(score) < 0
                assert reason == ""
            else:
                assert score == ""

    def test_selection_recomputable_from_curves(self, sweep_dir):
        config, result, out = sweep_dir
        curves = {}
        for line in (out / "curves.csv").read_text().splitlines()[1:]:
            rep, tc, measure, score, valid, _ = line.split(",")
            if valid == "true":
                curves.setdefault((int(rep), measure), {})[int(tc)] = float(score)

        expected_lines = {}
        for line in (out / "selection.csv").read_text().splitlines()[1:]:
            rep, measure, sel, delta = line.split(",")
            expected_lines[(int(rep), measure)] = (sel, delta)

        for rep in range(config.replicates):
            base = ls.select_model(curves[(rep, "laplace")])
            for measure in config.measures:
                sel = ls.select_model(curves[(rep, measure)])
                exp_sel, exp_delta = expected_lines[(rep, measure)]
                assert int(exp_sel) == sel
                assert int(exp_delta) == sel - base

    def test_summary_matches_numpy(self, sweep_dir):
        config, result, out = sweep_dir
        deltas = {}
        for line in (out / "selection.csv").read_text().splitlines()[1:]:
            rep, measure, sel, delta = line.split(",")
            if measure != "laplace" and delta != "":
                deltas.setdefault(measure, []).append(float(delta))

        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "measure,mean_delta_c,sd_delta_c"
        seen = set()
        for line in lines[1:]:
            measure, mean, sd = line.split(",")
            seen.add(measure)
            vals = np.array(deltas[measure])
            assert float(mean) == pytest.approx(vals.mean(), abs=1e-12)
            if len(vals) >= 2:
                assert float(sd) == pytest.approx(vals.std(ddof=1), abs=1e-12)
            else:
                assert sd == ""
        assert seen == set(config.measures) - {"laplace"}

    def test_run_json_rerenders_identically(self, sweep_dir, tmp_path):
        config, result, out = sweep_dir
        with open(out / "run.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        rebuilt = result_from_json_dict(doc)
        assert rebuilt.config == config
        ls.emit_reports(rebuilt, tmp_path / "again")
        for name in ("curves.csv", "selection.csv", "summary.csv", "run.json"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (out / name).read_bytes())

    def test_unknown_keys_are_ignored(self, sweep_dir, tmp_path):
        config, result, out = sweep_dir
        with open(out / "run.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["config"]["note"] = "written by a newer version"
        doc["cells"][0]["e_passes"] = 17
        rebuilt = result_from_json_dict(doc)
        assert rebuilt.config == config
        assert rebuilt.cells == result.cells
        ls.emit_reports(rebuilt, tmp_path / "again")
        for name in ("curves.csv", "selection.csv", "summary.csv"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (out / name).read_bytes())

    def test_failure_reasons_are_csv_safe(self, tmp_path):
        result = _synthetic_result()
        result.cells[2].failures = {
            "laplace": "bad, very bad\nline", "bic": "x"}
        ls.emit_reports(result, tmp_path)
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        for line in lines[1:]:
            assert line.count(",") == 5
        joined = "\n".join(lines)
        assert "bad; very bad line" in joined
