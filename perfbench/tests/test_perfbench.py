"""Checks of the benchmark's own code: tracing, inputs, configs, output checks."""

import csv
import json
import types
from pathlib import Path

import numpy as np
import pytest

from fednorm import cli, config, contribution, data, nn, simulation, strategies
from perfbench import checks, measure, speed, workloads
from perfbench.tracer import Target, Tracer

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_MODULES = (cli, config, contribution, data, nn, simulation, strategies)

TINY = {
    "dataset": {"kind": "synthetic", "classes": 3, "dims": 4, "per_class": 30},
    "strategy": {"kind": "fedavg"},
    "partition": {"kind": "dirichlet", "alpha": 0.5, "min_samples": 4},
    "clients": 3,
    "rounds": 2,
    "epochs": 1,
    "batch_size": 32,
    "hidden_sizes": [8],
    "seed": 0,
}


def tiny_cells(tmp_path, **overrides):
    raw = dict(TINY, **overrides)
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(raw))
    return [{"label": "tiny", "path": str(path), "rounds": raw["rounds"]}]


def program_attributes():
    """Every attribute of the program's modules and of Federation, by identity."""
    snapshot = {}
    for module in PROGRAM_MODULES:
        for name, value in vars(module).items():
            snapshot[(module.__name__, name)] = id(value)
    for name, value in vars(simulation.Federation).items():
        snapshot[("Federation", name)] = id(value)
    return snapshot


class TestTracer:
    def test_self_time_of_nested_spans(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        ns = types.SimpleNamespace()
        ns.inner = lambda: None

        def outer():
            ns.inner()
            ns.inner()

        ns.outer = outer
        tracer = Tracer(
            [Target(ns, "outer", "outer"), Target(ns, "inner", "inner")],
            clock=lambda: next(ticks),
        )
        with tracer:
            ns.outer()
        outer_stats, inner_stats = tracer.stats["outer"], tracer.stats["inner"]
        assert (outer_stats.calls, outer_stats.busy_s, outer_stats.self_s) == (1, 10.0, 5.0)
        assert (inner_stats.calls, inner_stats.busy_s, inner_stats.self_s) == (2, 5.0, 5.0)
        assert ns.outer is outer

    def test_failed_call_still_closes_its_span(self):
        ns = types.SimpleNamespace(boom=lambda: 1 / 0)
        tracer = Tracer([Target(ns, "boom", "boom")])
        with tracer, pytest.raises(ZeroDivisionError):
            ns.boom()
        assert tracer.stats["boom"].calls == 1
        assert tracer._child_time == []

    def test_missing_attribute_reads_as_zero_calls(self):
        ns = types.SimpleNamespace()
        tracer = Tracer([Target(ns, "gone", "gone")])
        with tracer:
            pass
        assert tracer.missing == ["gone"]
        assert tracer.stats["gone"].calls == 0


class TestMeasure:
    def test_untraced_repetitions_run_the_original_functions(self, tmp_path, monkeypatch):
        original = program_attributes()
        seen = []
        real_cli_run = measure._cli_run

        def spy(*args):
            seen.append(program_attributes() == original)
            return real_cli_run(*args)

        monkeypatch.setattr(measure, "_cli_run", spy)
        result = measure.measure(tiny_cells(tmp_path), 0.0, False, tmp_path)
        assert result["correct"], result["errors"]
        # the first, traced repetition must be visible to the spy ...
        assert seen[0] is False
        # ... and every run of the untraced one sees the program untouched
        untraced = seen[1:]
        assert len(untraced) == measure.SETUP_REPEATS + 1
        assert all(untraced)
        assert program_attributes() == original

    def test_same_seed_gives_same_fingerprint(self, tmp_path):
        first = measure.measure(tiny_cells(tmp_path), 0.0, True, tmp_path)
        second = measure.measure(tiny_cells(tmp_path), 0.0, True, tmp_path)
        assert first["correct"] and second["correct"]
        assert first["fingerprints"] == second["fingerprints"]
        assert set(first["metrics"]) == set(measure.layer_units())
        metrics = first["metrics"]
        assert metrics["contribution.similarity_matrix.calls"]["value"] == TINY["rounds"]
        assert metrics["simulation.run_round.calls"]["value"] == TINY["rounds"]

    def test_end_to_end_metrics_are_all_reported(self, tmp_path):
        result = measure.measure(tiny_cells(tmp_path), 0.0, False, tmp_path)
        assert list(result["metrics"]) == list(measure.E2E_UNITS)
        assert result["attempted"] == 2 * TINY["rounds"]
        assert result["failed"] == 0

    def test_times_are_scaled_to_reference_speed(self, tmp_path, monkeypatch):
        # a host at half the reference speed: every time is halved
        monkeypatch.setattr(speed, "probe", lambda: 2.0 * speed.REFERENCE_S)
        result = measure.measure(tiny_cells(tmp_path), 0.0, False, tmp_path)
        wall, metrics = result["wall"], result["metrics"]
        assert wall["speed_scale"] == 0.5
        assert metrics["run_s"]["value"] == 0.5 * wall["run_s"]
        assert metrics["setup_s"]["value"] == 0.5 * wall["setup_s"]

    def test_probe_times_the_reference_task(self):
        assert 0.0 < speed.probe() < 1.0
        reference = speed.REFERENCE_S
        assert speed.scale([reference, 4.0 * reference, 2.0 * reference]) == 0.5

    def test_failing_run_counts_unreached_rounds_as_failed(self, tmp_path):
        # min_samples above the shard sizes: the partition cannot succeed
        cells = tiny_cells(tmp_path, partition={"kind": "dirichlet", "alpha": 0.5, "min_samples": 40})
        result = measure.measure(cells, 0.0, False, tmp_path)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] == TINY["rounds"]


class TestChecks:
    def run_tiny(self, tmp_path, **overrides):
        cell = tiny_cells(tmp_path, **overrides)[0]
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cell["path"], "--out", str(out)]) == 0
        return out, config.load(cell["path"])

    def rewrite(self, out, column, row_index, value):
        path = out / "metrics.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[row_index][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def test_clean_run_passes(self, tmp_path):
        out, cfg = self.run_tiny(tmp_path)
        record = checks.read_run(out, cfg)
        assert record.failures == []
        assert record.ok_rounds == TINY["rounds"]

    @pytest.mark.parametrize("column, value, normalize", [
        ("u", "0.9", True),
        ("lambda", "0.1", True),
        ("u", "0.30000000000000004", False),
    ])
    def test_breaches_fail_the_round(self, tmp_path, column, value, normalize):
        out, cfg = self.run_tiny(tmp_path, normalize=normalize)
        self.rewrite(out, column, 1, value)
        record = checks.read_run(out, cfg)
        assert record.bad_rounds == {0}
        assert record.ok_rounds == TINY["rounds"] - 1

    def test_non_finite_loss_fails_the_round(self, tmp_path):
        out, cfg = self.run_tiny(tmp_path)
        self.rewrite(out, "loss", 4, "nan")  # the round-0 summary row
        assert checks.read_run(out, cfg).bad_rounds == {0}

    def test_missing_rounds_are_not_ok(self, tmp_path):
        out, _ = self.run_tiny(tmp_path, rounds=1)
        # the run stopped after one of the two rounds its config asks for
        record = checks.read_run(out, config.from_dict(dict(TINY)))
        assert record.ok_rounds == 1
        assert record.failures


class TestInputs:
    def test_idx_writer_round_trips_through_load_idx(self, tmp_path):
        pixels, labels = workloads.make_images(7, 50)
        workloads.write_idx(tmp_path / "i.idx", tmp_path / "l.idx", pixels, labels)
        loaded = data.load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        np.testing.assert_array_equal(np.rint(loaded.features * 255.0), pixels.reshape(50, -1))
        np.testing.assert_array_equal(loaded.labels, labels)
        assert loaded.class_count == 10

    def test_images_depend_only_on_the_seed(self):
        a, b, c = (workloads.make_images(s, 20)[0] for s in (3, 3, 4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_every_workload_config_is_valid(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(workloads, "IMAGE_COUNT", 100)
        for cell in workloads.make_cells(name, 5, tmp_path):
            assert "workers" not in cell.config
            parsed = config.from_dict(cell.config)
            assert parsed.seed == 5

    def test_grid_slice_starts_from_the_demo_config(self, tmp_path):
        demo = json.loads((ROOT / "configs" / "demo.json").read_text())
        demo.pop("out")
        cell = workloads.make_cells("grid-slice", 0, tmp_path)[0]
        assert cell.label == "fedavg/on"
        assert cell.config == dict(demo, seed=0)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
