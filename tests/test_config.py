"""Config parsing checks: defaults, rejection messages, flag overrides."""

import argparse
import json

import pytest

from fednorm import config as cfg


def minimal() -> dict:
    return {"dataset": {"kind": "synthetic"}, "strategy": {"kind": "fedavg"}}


def flags(**overrides) -> argparse.Namespace:
    values = dict(
        strategy=None, normalize=None, temperature=None, alpha=None,
        clients=None, rounds=None, seed=None, out=None,
    )
    values.update(overrides)
    return argparse.Namespace(**values)


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        parsed = cfg.from_dict(minimal())
        assert parsed.epochs == 2
        assert parsed.batch_size == 64
        assert parsed.temperature == 0.5
        assert parsed.clients == 10
        assert parsed.rounds == 30
        assert parsed.participation == 1.0
        assert parsed.hidden_sizes == (128,)
        assert parsed.activation == "relu"
        assert parsed.normalize is True
        assert parsed.test_fraction == 0.2
        assert parsed.partition == cfg.DirichletPartition(alpha=0.5)
        assert parsed.optimizer == cfg.OptimizerSettings(kind="adam", lr=1e-3)
        assert parsed.dataset == cfg.SyntheticData()

    def test_round_trip_through_dict(self):
        raw = dict(
            minimal(),
            clients=4,
            rounds=7,
            hidden_sizes=[16, 8],
            partition={"kind": "label_split", "groups": [[0, 1]] * 4},
            normalize=False,
            temperature=0.25,
            out="runs/x",
        )
        parsed = cfg.from_dict(raw)
        assert cfg.from_dict(parsed.to_dict()) == parsed


class TestRejections:
    def test_missing_required_sections(self):
        with pytest.raises(cfg.ConfigError, match="missing required config key: dataset"):
            cfg.from_dict({"strategy": {"kind": "fedavg"}})
        with pytest.raises(cfg.ConfigError, match="missing required config key: strategy"):
            cfg.from_dict({"dataset": {"kind": "synthetic"}})

    def test_unknown_keys_are_named(self):
        with pytest.raises(cfg.ConfigError, match="unknown config key: tempreature"):
            cfg.from_dict(dict(minimal(), tempreature=0.5))
        with pytest.raises(cfg.ConfigError, match="unknown config key: dataset.sigma"):
            data = minimal()
            data["dataset"]["sigma"] = 1.0
            cfg.from_dict(data)

    def test_removed_workers_key_is_unknown(self):
        """Rounds choose their own thread count, so the old key is a typo now."""
        with pytest.raises(cfg.ConfigError, match="unknown config key: workers"):
            cfg.from_dict(dict(minimal(), workers=2))

    def test_bad_values_name_the_key(self):
        with pytest.raises(cfg.ConfigError, match="temperature"):
            cfg.from_dict(dict(minimal(), temperature=-1.0))
        with pytest.raises(cfg.ConfigError, match="temperature"):
            cfg.from_dict(dict(minimal(), temperature=0))
        with pytest.raises(cfg.ConfigError, match="rounds"):
            cfg.from_dict(dict(minimal(), rounds=-1))
        with pytest.raises(cfg.ConfigError, match="participation"):
            cfg.from_dict(dict(minimal(), participation=0.0))
        with pytest.raises(cfg.ConfigError, match="test_fraction"):
            cfg.from_dict(dict(minimal(), test_fraction=1.0))

    @pytest.mark.parametrize(
        "key, text",
        [
            ("strategy.mu", "NaN"),
            ("participation", "NaN"),
            ("test_fraction", "NaN"),
            ("temperature", "Infinity"),
            ("optimizer.lr", "NaN"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, key, text):
        data = minimal()
        data["strategy"]["kind"] = "fedprox"
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = json.loads(text)
        with pytest.raises(cfg.ConfigError, match=rf"^{key} must be a finite number"):
            cfg.from_dict(data)

    def test_strategy_ranges_name_the_section_and_field(self):
        for key, bad in (("mu", -1.0), ("beta", 1.0), ("server_lr", 0.0)):
            data = minimal()
            data["strategy"][key] = bad
            with pytest.raises(cfg.ConfigError, match=rf"^strategy: .*{key} must"):
                cfg.from_dict(data)

    def test_booleans_are_not_integers(self):
        with pytest.raises(cfg.ConfigError, match="clients must be an integer"):
            cfg.from_dict(dict(minimal(), clients=True))
        with pytest.raises(cfg.ConfigError, match="normalize must be true or false"):
            cfg.from_dict(dict(minimal(), normalize="yes"))

    def test_strategy_kind_choices(self):
        data = minimal()
        data["strategy"]["kind"] = "fedsgd"
        with pytest.raises(cfg.ConfigError, match="strategy.kind must be one of"):
            cfg.from_dict(data)

    def test_hidden_sizes_must_be_positive_list(self):
        with pytest.raises(cfg.ConfigError, match="hidden_sizes"):
            cfg.from_dict(dict(minimal(), hidden_sizes=[]))
        with pytest.raises(cfg.ConfigError, match="hidden_sizes"):
            cfg.from_dict(dict(minimal(), hidden_sizes=[0]))

    def test_idx_dataset_requires_paths(self):
        with pytest.raises(cfg.ConfigError, match="dataset.images"):
            cfg.from_dict(dict(minimal(), dataset={"kind": "idx"}))

    def test_label_split_group_count_must_match_clients(self):
        data = dict(
            minimal(), clients=3, partition={"kind": "label_split", "groups": [[0], [1]]}
        )
        with pytest.raises(cfg.ConfigError, match="lists 2 clients"):
            cfg.from_dict(data)

    def test_scaffold_needs_sgd(self):
        data = minimal()
        data["strategy"]["kind"] = "scaffold"
        with pytest.raises(cfg.ConfigError, match="scaffold requires optimizer.kind = sgd"):
            cfg.from_dict(data)
        data["optimizer"] = {"kind": "sgd", "lr": 0.05}
        assert cfg.from_dict(data).strategy.kind == "scaffold"

    def test_head_layer_must_index_a_layer(self):
        data = dict(minimal(), hidden_sizes=[16])  # two layers: indices -2..1
        data["strategy"] = {"kind": "fedbabu"}
        for bad in (7, 2, -3):
            data["strategy"]["head_layer"] = bad
            with pytest.raises(cfg.ConfigError, match=r"strategy\.head_layer .*got " + str(bad)):
                cfg.from_dict(data)
        for good in (-2, -1, 0, 1):
            data["strategy"]["head_layer"] = good
            assert cfg.from_dict(data).strategy.head_layer == good


class TestBoolFlag:
    def test_accepted_spellings(self):
        for text in ("true", "1", "YES", "on"):
            assert cfg.parse_bool_flag(text) is True
        for text in ("false", "0", "No", "off"):
            assert cfg.parse_bool_flag(text) is False

    def test_rejects_everything_else(self):
        with pytest.raises(cfg.ConfigError, match="boolean"):
            cfg.parse_bool_flag("maybe")


class TestOverrides:
    def test_flags_win_over_file_values(self):
        data = dict(minimal(), rounds=30, seed=1)
        merged = cfg.apply_overrides(data, flags(rounds=5, seed=9, normalize=False))
        parsed = cfg.from_dict(merged)
        assert parsed.rounds == 5
        assert parsed.seed == 9
        assert parsed.normalize is False

    def test_strategy_flag_creates_section_entry(self):
        data = dict(minimal())
        merged = cfg.apply_overrides(data, flags(strategy="fedprox"))
        assert cfg.from_dict(merged).strategy.kind == "fedprox"

    def test_alpha_flag_requires_dirichlet(self):
        data = dict(
            minimal(), clients=2, partition={"kind": "label_split", "groups": [[0], [1]]}
        )
        with pytest.raises(cfg.ConfigError, match="alpha"):
            cfg.apply_overrides(data, flags(alpha=0.1))

    @pytest.mark.parametrize(
        "data, flag, where",
        [
            ([1, 2], dict(rounds=2), "config root"),
            (dict(minimal(), strategy="fedavg"), dict(strategy="fedprox"), "strategy"),
            (dict(minimal(), partition="dirichlet"), dict(alpha=0.1), "partition"),
        ],
    )
    def test_flags_into_a_non_object_are_rejected_unchanged(self, data, flag, where):
        before = json.dumps(data)
        with pytest.raises(cfg.ConfigError, match=f"^{where} must be an object"):
            cfg.apply_overrides(data, flags(**flag))
        assert json.dumps(data) == before

    def test_alpha_flag_reaches_the_partition(self):
        merged = cfg.apply_overrides(dict(minimal()), flags(alpha=0.1))
        assert cfg.from_dict(merged).partition.alpha == 0.1


class TestLoad:
    def test_missing_file(self, tmp_path):
        with pytest.raises(cfg.ConfigError, match="not found"):
            cfg.load(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(cfg.ConfigError, match="not valid JSON"):
            cfg.load(path)

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()))
        parsed = cfg.load(path, flags(rounds=3, out="elsewhere"))
        assert parsed.rounds == 3
        assert parsed.out == "elsewhere"
