"""End-to-end command checks: run output files, determinism, compare."""

import csv
import json

import pytest

from fednorm import cli


def write_config(tmp_path, name="config.json", **overrides):
    raw = {
        "dataset": {"kind": "synthetic", "classes": 3, "dims": 4, "per_class": 30},
        "strategy": {"kind": "fedavg"},
        "partition": {"kind": "dirichlet", "alpha": 0.5, "min_samples": 4},
        "clients": 3,
        "rounds": 2,
        "epochs": 1,
        "batch_size": 32,
        "hidden_sizes": [8],
        "seed": 0,
        "out": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_rows(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def rows_without_duration(out_dir):
    header, rows = read_rows(out_dir)
    cut = header.index("duration_ms")
    return [row[:cut] + row[cut + 1 :] for row in rows]


class TestRunCommand:
    def test_writes_metrics_and_run_json(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        header, rows = read_rows(out)
        assert header == cli.CSV_HEADER
        # 3 client rows plus one summary row for each of 2 rounds
        assert len(rows) == 2 * (3 + 1)
        summaries = [r for r in rows if r[3] == "-1"]
        assert [r[0] for r in summaries] == ["0", "1"]
        for row in summaries:
            assert row[4:8] == ["", "", "", ""]
        for row in rows:
            if row[3] != "-1":
                for field in row[1:3] + row[4:]:
                    float(field)  # every populated cell parses

        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["rounds"] == 2
        assert payload["summary"]["rounds"] == 2
        assert isinstance(payload["summary"]["final_accuracy"], float)
        assert payload["summary"]["best_accuracy"] >= payload["summary"]["final_accuracy"] - 1e-12
        assert "round 0: accuracy=" in capsys.readouterr().out

    def test_normalize_off_reports_importance_as_final(self, tmp_path):
        path = write_config(tmp_path, normalize=False)
        assert cli.main(["run", "--config", str(path)]) == 0
        _, rows = read_rows(tmp_path / "out")
        for row in rows:
            if row[3] != "-1":
                assert float(row[6]) == float(row[5])  # u column equals nu column

    def test_same_seed_reproduces_every_cell_but_duration(self, tmp_path):
        first = write_config(tmp_path, name="a.json", out=str(tmp_path / "a"))
        second = write_config(tmp_path, name="b.json", out=str(tmp_path / "b"))
        assert cli.main(["run", "--config", str(first)]) == 0
        assert cli.main(["run", "--config", str(second)]) == 0
        assert rows_without_duration(tmp_path / "a") == rows_without_duration(tmp_path / "b")

    def test_rounds_flag_overrides_file(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--rounds", "1"]) == 0
        _, rows = read_rows(tmp_path / "out")
        assert len(rows) == 1 * (3 + 1)

    def test_zero_rounds_summarise_as_none(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--rounds", "0"]) == 0
        summary = json.loads((tmp_path / "out" / "run.json").read_text())["summary"]
        assert list(summary)[:4] == ["rounds", "final_accuracy", "best_accuracy", "final_loss"]
        assert summary["rounds"] == 0
        assert summary["final_accuracy"] is summary["best_accuracy"] is summary["final_loss"] is None

    def test_bad_config_fails_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path, strategy={"kind": "scaffold"})  # adam default
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_run_leaves_no_earlier_run_json(self, tmp_path, capsys):
        """run.json vouches for the metrics.csv beside it, so a diverging run
        into the directory of a finished one must not leave the old file."""
        assert cli.main(["run", "--config", str(write_config(tmp_path))]) == 0
        assert (tmp_path / "out" / "run.json").exists()
        diverging = write_config(
            tmp_path, name="diverging.json", optimizer={"kind": "sgd", "lr": 1e300}
        )
        assert cli.main(["run", "--config", str(diverging)]) == 1
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "out" / "run.json").exists()

    def test_non_finite_number_fails_before_writing(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"epochs": 1', '"test_fraction": NaN'))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: test_fraction must be a finite number")
        assert not (tmp_path / "out").exists()

    def test_overflowing_temperature_names_the_key(self, tmp_path, capsys):
        path = write_config(tmp_path, temperature=1e-320)
        assert cli.main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "temperature" in err

    @pytest.mark.parametrize(
        "raw, flag",
        [
            ([1, 2], ["--rounds", "2"]),
            ({"dataset": {"kind": "synthetic"}, "strategy": "fedavg"}, ["--strategy", "fedprox"]),
        ],
    )
    def test_flags_on_a_malformed_config_fail_cleanly(self, tmp_path, capsys, raw, flag):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path), *flag]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_strategy_flag_exits_via_argparse(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["run", "--config", str(path), "--strategy", "fedsgd"])


class TestCompareCommand:
    def run_pair(self, tmp_path, seed_b=0):
        for name, out, seed in (("a", "a", 0), ("b", "b", seed_b)):
            path = write_config(
                tmp_path, name=f"{name}.json", out=str(tmp_path / out), seed=seed
            )
            assert cli.main(["run", "--config", str(path)]) == 0

    def test_identical_runs_have_zero_delta(self, tmp_path, capsys):
        self.run_pair(tmp_path)
        report_path = tmp_path / "cmp.json"
        code = cli.main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(report_path)]
        )
        assert code == 0
        result = json.loads(report_path.read_text())
        assert result["final_accuracy_delta"] == 0.0
        assert result["per_round_accuracy_delta"] == [0.0, 0.0]
        assert result["run_a"]["rounds"] == result["run_b"]["rounds"] == 2
        # equal finals are reached no later than the last round on both sides
        assert result["rounds_to_target"]["a_reaches_b_final"] <= 2
        assert result["rounds_to_target"]["b_reaches_a_final"] <= 2
        assert "final accuracy delta" in capsys.readouterr().out

    def test_different_seeds_report_real_deltas(self, tmp_path):
        self.run_pair(tmp_path, seed_b=1)
        report_path = tmp_path / "cmp.json"
        assert cli.main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(report_path)]
        ) == 0
        result = json.loads(report_path.read_text())
        finals = result["run_a"]["final_accuracy"], result["run_b"]["final_accuracy"]
        assert result["final_accuracy_delta"] == pytest.approx(finals[0] - finals[1])

    def test_run_summary_is_compare_summary(self, tmp_path):
        """compare's block for a run is run.json's summary without the wall
        time, plus the path, with the keys in the same order."""
        self.run_pair(tmp_path, seed_b=1)
        report_path = tmp_path / "cmp.json"
        assert cli.main(
            ["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(report_path)]
        ) == 0
        result = json.loads(report_path.read_text())
        for side in ("a", "b"):
            summary = json.loads((tmp_path / side / "run.json").read_text())["summary"]
            del summary["duration_s"]
            expected = {"path": str(tmp_path / side), **summary}
            assert list(result[f"run_{side}"].items()) == list(expected.items())

    def test_missing_run_directory_fails(self, tmp_path, capsys):
        assert cli.main(["compare", str(tmp_path / "x"), str(tmp_path / "y")]) == 1
        assert "missing metrics file" in capsys.readouterr().err

    def test_schema_mismatch_fails(self, tmp_path, capsys):
        self.run_pair(tmp_path)
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        (bogus / "metrics.csv").write_text("round,accuracy\n0,0.5\n")
        assert cli.main(["compare", str(tmp_path / "a"), str(bogus)]) == 1
        assert "schema mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "last_line", ["1,0.6", "1,,0.5,-1,,,,,12.5"], ids=["cut-off", "empty-field"]
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, capsys, last_line):
        """A killed run leaves a cut-off last row; an empty numeric field is
        as unreadable.  Both exit 1 with an error naming the file and line."""
        self.run_pair(tmp_path)
        metrics = tmp_path / "b" / "metrics.csv"
        lines = metrics.read_text().splitlines()
        metrics.write_text("\n".join(lines[:5] + [last_line]) + "\n")
        assert cli.main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{metrics}: line 6:" in err
