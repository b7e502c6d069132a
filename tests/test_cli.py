"""End-to-end checks of the command-line interface.

Every test drives ``latentscore.cli.main(argv)`` in process and asserts on
the returned exit code, the files written, and the stdout/stderr text.  The
contract under test: exit 0 on success, 2 for usage errors (argparse), and 1
for any runtime failure, which also prints an ``error: ...`` line to stderr.
"""

import json
import math
import subprocess
import sys

import pytest

from latentscore.cli import _parse_c_range, _parse_measures, main
from latentscore.model_core import read_model
from latentscore.scoring import MEASURES
from latentscore.synth_data import read_dataset


def _generate(tmp_path, name, **overrides):
    """Run the generate subcommand into tmp_path and return the two paths."""
    opts = dict(n=3, c=2, samples=30, seed=7)
    opts.update(overrides)
    model = tmp_path / f"{name}_model.json"
    data = tmp_path / f"{name}_data.csv"
    argv = ["generate", "--n", str(opts["n"]), "--c", str(opts["c"]),
            "--samples", str(opts["samples"]), "--seed", str(opts["seed"]),
            "--out-model", str(model), "--out-data", str(data)]
    if opts.get("keep_hidden"):
        argv.append("--keep-hidden")
    assert main(argv) == 0
    return model, data


class TestParseHelpers:
    def test_c_range_pair(self):
        assert _parse_c_range("2:8") == (2, 8)

    def test_c_range_single_point(self):
        assert _parse_c_range("4") == (4, 4)

    def test_c_range_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_c_range("two:eight")

    def test_measures_split_and_strip(self):
        assert _parse_measures("bic, mled,") == ("bic", "mled")


class TestUsageErrors:
    """argparse handles malformed invocations and exits with code 2."""

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_train_requires_arity(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--data", str(tmp_path / "data.csv")])
        assert excinfo.value.code == 2

    def test_report_requires_run_path(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2


class TestGenerate:
    def test_same_seed_same_bytes(self, tmp_path):
        model_a, data_a = _generate(tmp_path, "a", seed=7)
        model_b, data_b = _generate(tmp_path, "b", seed=7)
        assert model_a.read_bytes() == model_b.read_bytes()
        assert data_a.read_bytes() == data_b.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        _, data_a = _generate(tmp_path, "a", seed=7)
        _, data_b = _generate(tmp_path, "b", seed=8)
        assert data_a.read_bytes() != data_b.read_bytes()

    def test_hidden_column_dropped_by_default(self, tmp_path):
        _, data_path = _generate(tmp_path, "plain")
        data = read_dataset(data_path)
        assert not data.is_complete
        assert data.n_samples == 30

    def test_keep_hidden_flag(self, tmp_path):
        _, data_path = _generate(tmp_path, "full", keep_hidden=True)
        data = read_dataset(data_path)
        assert data.is_complete
        first_line = data_path.read_text().splitlines()[0]
        assert first_line == "x1,x2,x3,hidden"

    def test_prints_summary(self, tmp_path, capsys):
        _generate(tmp_path, "loud", samples=12)
        out = capsys.readouterr().out
        assert "12 records" in out


class TestTrain:
    def test_writes_model_with_fit_metadata(self, tmp_path):
        _, data_path = _generate(tmp_path, "t")
        out = tmp_path / "fit.json"
        code = main(["train", "--data", str(data_path), "--c", "2",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        meta = doc["metadata"]
        assert math.isfinite(meta["final_g"])
        assert isinstance(meta["converged"], bool)
        assert meta["iterations_used"] >= 1
        params = read_model(out)
        assert params.spec.hidden_arity == 2
        assert params.spec.observed_arities == (2, 2, 2)

    def test_accepts_complete_data_by_stripping(self, tmp_path):
        _, data_path = _generate(tmp_path, "t", keep_hidden=True)
        out = tmp_path / "fit.json"
        assert main(["train", "--data", str(data_path), "--c", "2",
                     "--out", str(out)]) == 0
        assert read_model(out).spec.n_observed == 3

    def test_deterministic_given_seed(self, tmp_path):
        _, data_path = _generate(tmp_path, "t")
        out_a = tmp_path / "fit_a.json"
        out_b = tmp_path / "fit_b.json"
        for out in (out_a, out_b):
            assert main(["train", "--data", str(data_path), "--c", "2",
                         "--seed", "5", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_data_file_is_a_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--c", "2", "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestScore:
    def _fit(self, tmp_path, capsys, samples=12, n=3):
        """Generate, train, and drain the chatter those steps print."""
        _, data_path = _generate(tmp_path, "s", samples=samples, n=n)
        model_path = tmp_path / "fit.json"
        assert main(["train", "--data", str(data_path), "--c", "2",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        return model_path, data_path

    def test_header_and_row_parse(self, tmp_path, capsys):
        model_path, data_path = self._fit(tmp_path, capsys)
        code = main(["score", "--model", str(model_path),
                     "--data", str(data_path)])
        assert code == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == ",".join(MEASURES)
        values = [float(cell) for cell in row.split(",")]
        assert len(values) == len(MEASURES)
        assert all(math.isfinite(v) for v in values)

    def test_measure_subset(self, tmp_path, capsys):
        model_path, data_path = self._fit(tmp_path, capsys)
        assert main(["score", "--model", str(model_path),
                     "--data", str(data_path),
                     "--measures", "bic,mled"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "bic,mled"
        assert len(row.split(",")) == 2

    def test_oracle_feasible(self, tmp_path, capsys):
        model_path, data_path = self._fit(tmp_path, capsys, samples=12)
        code = main(["score", "--model", str(model_path),
                     "--data", str(data_path), "--oracle"])
        assert code == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        cols = header.split(",")
        assert cols == list(MEASURES) + ["oracle"]
        oracle = float(row.split(",")[cols.index("oracle")])
        assert math.isfinite(oracle)
        assert oracle < 0.0

    def test_oracle_infeasible_fails_loudly(self, tmp_path, capsys):
        # 30 records over 8 binary leaves fall into about 2.65e7 groups of
        # hidden completions, well past the enumeration cap.
        model_path, data_path = self._fit(tmp_path, capsys, samples=30, n=8)
        code = main(["score", "--model", str(model_path),
                     "--data", str(data_path), "--oracle"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: oracle:" in captured.err
        header, row = captured.out.strip().splitlines()
        cols = header.split(",")
        cells = row.split(",")
        assert cells[cols.index("oracle")] == ""
        for name in MEASURES:
            assert math.isfinite(float(cells[cols.index(name)]))

    def test_out_file_instead_of_stdout(self, tmp_path, capsys):
        model_path, data_path = self._fit(tmp_path, capsys)
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(model_path),
                     "--data", str(data_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        header, row = out.read_text().strip().splitlines()
        assert header == ",".join(MEASURES)
        float(row.split(",")[0])

    def test_hidden_column_is_ignored(self, tmp_path, capsys):
        # The data keeps a hidden column from a 4-state model; the scored
        # model has 2 states, so the column's values are out of its range.
        _, kept = _generate(tmp_path, "k", c=4, samples=12, keep_hidden=True)
        _, stripped = _generate(tmp_path, "k2", c=4, samples=12)
        assert read_dataset(kept).is_complete
        assert read_dataset(kept).rows.tolist() == \
            read_dataset(stripped).rows.tolist()
        model_path = tmp_path / "fit.json"
        assert main(["train", "--data", str(stripped), "--c", "2",
                     "--out", str(model_path)]) == 0
        capsys.readouterr()
        for measures in ("bic,laplace", ",".join(MEASURES)):
            outputs = []
            for data_path in (kept, stripped):
                assert main(["score", "--model", str(model_path),
                             "--data", str(data_path),
                             "--measures", measures]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    def test_unknown_measure_is_a_runtime_error(self, tmp_path, capsys):
        model_path, data_path = self._fit(tmp_path, capsys)
        code = main(["score", "--model", str(model_path),
                     "--data", str(data_path), "--measures", "aic"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One tiny sweep driven through the CLI, shared by the tests below."""
    out_dir = tmp_path_factory.mktemp("cli_sweep")
    code = main(["sweep", "--n", "3", "--c-true", "2", "--samples", "30",
                 "--test-c", "1:3", "--replicates", "2", "--seed", "7",
                 "--out", str(out_dir)])
    assert code == 0
    return out_dir


class TestSweep:
    def test_emits_the_four_report_files(self, sweep_run):
        for name in ("curves.csv", "selection.csv", "summary.csv",
                     "run.json"):
            assert (sweep_run / name).is_file()

    def test_run_json_echoes_the_flags(self, sweep_run):
        config = json.loads((sweep_run / "run.json").read_text())["config"]
        assert config["n_observed"] == 3
        assert config["c_true"] == 2
        assert config["n_samples"] == 30
        assert tuple(config["test_c_range"]) == (1, 3)
        assert config["replicates"] == 2
        assert config["master_seed"] == 7

    def test_config_file_reproduces_the_run(self, sweep_run, tmp_path):
        # A stored run.json doubles as a config file; same seed, same bytes.
        rerun = tmp_path / "rerun"
        code = main(["sweep", "--config", str(sweep_run / "run.json"),
                     "--out", str(rerun)])
        assert code == 0
        assert ((rerun / "curves.csv").read_bytes()
                == (sweep_run / "curves.csv").read_bytes())

    def test_flags_override_the_config_file(self, sweep_run, tmp_path):
        rerun = tmp_path / "override"
        code = main(["sweep", "--config", str(sweep_run / "run.json"),
                     "--replicates", "1", "--out", str(rerun)])
        assert code == 0
        config = json.loads((rerun / "run.json").read_text())["config"]
        assert config["replicates"] == 1
        assert config["n_observed"] == 3

    def test_empty_measures_flag_keeps_the_config_file_value(self, tmp_path):
        rerun = tmp_path / "empty_measures"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "n_observed": 3, "c_true": 2, "n_samples": 30,
            "test_c_range": [1, 2], "replicates": 1,
            "measures": ["bic", "mled"]}))
        code = main(["sweep", "--config", str(config_path), "--measures", "",
                     "--out", str(rerun)])
        assert code == 0
        config = json.loads((rerun / "run.json").read_text())["config"]
        assert config["measures"] == ["bic", "mled"]

    def test_config_file_extra_keys_are_ignored(self, tmp_path):
        out = tmp_path / "extra"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "n_observed": 3, "c_true": 2, "n_samples": 30,
            "test_c_range": [1, 2], "replicates": 1,
            "measures": ["bic"], "comment": "not a config field"}))
        code = main(["sweep", "--config", str(config_path),
                     "--out", str(out)])
        assert code == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert "comment" not in config
        assert config["measures"] == ["bic"]

    def test_missing_keys_fail_with_a_diagnostic(self, tmp_path, capsys):
        code = main(["sweep", "--n", "3", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "sweep config is missing" in err
        assert "c_true" in err

    def test_missing_output_dir_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_observed": 3, "c_true": 2, "n_samples": 30,
            "test_c_range": [1, 2], "replicates": 1}))
        code = main(["sweep", "--config", str(config)])
        assert code == 1
        assert "output directory" in capsys.readouterr().err


class TestReport:
    def test_rerender_matches_original_bytes(self, sweep_run, tmp_path):
        out = tmp_path / "rerender"
        out.mkdir()
        code = main(["report", "--run", str(sweep_run / "run.json"),
                     "--out", str(out)])
        assert code == 0
        for name in ("curves.csv", "selection.csv", "summary.csv"):
            assert ((out / name).read_bytes()
                    == (sweep_run / name).read_bytes())

    def test_out_defaults_to_the_run_json_directory(self, sweep_run,
                                                    tmp_path):
        moved = tmp_path / "moved"
        moved.mkdir()
        run_copy = moved / "run.json"
        run_copy.write_bytes((sweep_run / "run.json").read_bytes())
        assert main(["report", "--run", str(run_copy)]) == 0
        assert (moved / "curves.csv").is_file()

    def test_garbage_run_file_is_a_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text("{\"not\": \"a run\"}")
        code = main(["report", "--run", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_help_via_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latentscore.cli", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for name in ("generate", "train", "score", "sweep", "report"):
            assert name in proc.stdout


# Drives every subcommand in a fresh interpreter where importing scipy fails.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from latentscore.cli import main
out = sys.argv[1]
steps = [
    ["generate", "--n", "3", "--c", "2", "--samples", "20", "--seed", "5",
     "--out-model", out + "/truth.json", "--out-data", out + "/data.csv"],
    ["train", "--data", out + "/data.csv", "--c", "2", "--seed", "5",
     "--out", out + "/model.json"],
    ["score", "--data", out + "/data.csv", "--model", out + "/model.json",
     "--oracle", "--out", out + "/scores.csv"],
    ["sweep", "--n", "3", "--c-true", "2", "--samples", "20", "--test-c",
     "1:3", "--replicates", "1", "--seed", "5", "--out", out + "/sweep"],
    ["report", "--run", out + "/sweep/run.json", "--out", out + "/again"],
]
for argv in steps:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited with {code}")
"""


class TestWithoutScipy:
    """The library's runtime dependency is numpy alone."""

    def test_import_loads_no_scipy_module(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, latentscore, latentscore.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        header, row = (tmp_path / "scores.csv").read_text().splitlines()
        scores = dict(zip(header.split(","), map(float, row.split(","))))
        assert set(scores) == set(MEASURES) | {"oracle"}
        assert all(math.isfinite(v) for v in scores.values())
        for name in ("curves.csv", "selection.csv", "summary.csv"):
            assert ((tmp_path / "again" / name).read_bytes()
                    == (tmp_path / "sweep" / name).read_bytes())
