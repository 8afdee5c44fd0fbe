"""Config parsing checks: defaults, rejection messages, flag overrides."""

import argparse
import json
import re

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
            optimizer={"kind": "sgd", "lr": 0.05},
        )
        parsed = cfg.from_dict(raw)
        assert parsed.optimizer == cfg.OptimizerSettings(kind="sgd", lr=0.05)
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

    BAD_VALUES = [
        ("strategy.mu", "NaN", "strategy.mu must be a finite number"),
        ("participation", "NaN", "participation must be a finite number"),
        ("test_fraction", "NaN", "test_fraction must be a finite number"),
        ("temperature", "Infinity", "temperature must be a finite number"),
        ("optimizer.lr", "NaN", "optimizer.lr must be a finite number"),
        ("optimizer.lr", "0", "optimizer.lr must be positive"),
        ("optimizer.lr", "-1", "optimizer.lr must be positive"),
        ("optimizer.kind", '"rmsprop"', "optimizer.kind must be one of"),
    ]

    @pytest.mark.parametrize(
        "key, text, message", BAD_VALUES, ids=[f"{key}-{text}" for key, text, _ in BAD_VALUES]
    )
    def test_non_finite_numbers_are_rejected(self, key, text, message):
        """Non-finite numbers fail the plain number check, out-of-range
        optimizer values their key's own check; both errors name the key."""
        data = minimal()
        data["strategy"]["kind"] = "fedprox"
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = json.loads(text)
        with pytest.raises(cfg.ConfigError, match=rf"^{message}"):
            cfg.from_dict(data)

    SECTION_VALUES = [
        ("dataset", cfg.SyntheticData, dict(per_class=0), "per_class must be >= 1, got 0"),
        ("partition", cfg.DirichletPartition, dict(alpha=0.0), "alpha must be positive, got 0.0"),
        ("partition", cfg.LabelSplitPartition, dict(groups=((),)),
         "groups[0] must be a non-empty list of classes"),
        ("strategy", cfg.StrategyConfig, dict(mu=-1.0), "mu must be >= 0.0, got -1.0"),
        ("strategy", cfg.StrategyConfig, dict(kind="fedbabu", head_layer=True),
         "head_layer must be an integer, got True"),
        ("strategy", cfg.StrategyConfig, dict(mu=True), "mu must be a number, got True"),
        ("optimizer", cfg.OptimizerSettings, dict(lr=True), "lr must be a number, got True"),
        ("optimizer", cfg.OptimizerSettings, dict(kind="rmsprop"),
         "kind must be one of ('sgd', 'adam'), got 'rmsprop'"),
    ]

    @pytest.mark.parametrize(
        "section, cls, values, message",
        SECTION_VALUES,
        ids=[f"{cls.__name__}-{values}" for _, cls, values, _ in SECTION_VALUES],
    )
    def test_sections_check_themselves(self, section, cls, values, message):
        """A section built in Python raises what ``from_dict`` raises for its
        JSON, less the section's name; a bool is not a number here either."""
        with pytest.raises(cfg.ConfigError) as built:
            cls(**values)
        data = minimal()
        data[section] = json.loads(json.dumps({"kind": cls.kind, **values}))
        with pytest.raises(cfg.ConfigError) as read:
            cfg.from_dict(data)
        assert str(built.value) == message
        assert str(read.value) == f"{section}.{message}"

    SECTION_CLASSES = [
        ("dataset", cfg.SyntheticData),
        ("dataset", cfg.IdxData),
        ("partition", cfg.DirichletPartition),
        ("partition", cfg.LabelSplitPartition),
        ("strategy", cfg.StrategyConfig),
        ("optimizer", cfg.OptimizerSettings),
    ]

    @pytest.mark.parametrize(
        "key, cls", SECTION_CLASSES, ids=[cls.__name__ for _, cls in SECTION_CLASSES]
    )
    def test_a_section_class_is_not_a_section(self, key, cls):
        """The class is a dataclass too, but not a value: a RunConfig given
        one is rejected by name, neither built on defaults nor crashed."""
        sections = dict(dataset=cfg.SyntheticData(), strategy=cfg.StrategyConfig())
        sections[key] = cls
        with pytest.raises(cfg.ConfigError, match=rf"^{key} must be an object, got <class"):
            cfg.RunConfig(**sections)

    def test_strategy_ranges_name_the_section_and_field(self):
        for key, bad in (("mu", -1.0), ("beta", 1.0), ("server_lr", 0.0)):
            data = minimal()
            data["strategy"][key] = bad
            with pytest.raises(cfg.ConfigError, match=rf"^strategy\.{key} must"):
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

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(cfg.ConfigError, match=rf"^{re.escape(str(path))} is not valid JSON: "):
            cfg.load(path)

    def test_duplicate_keys_are_rejected(self, tmp_path):
        """json.loads alone would keep the last value and run 0 rounds."""
        path = tmp_path / "twice.json"
        path.write_text('{"dataset": {"kind": "synthetic"}, "strategy": {"kind": "fedavg"}, '
                        '"rounds": 30, "rounds": 0}')
        with pytest.raises(cfg.ConfigError, match="^duplicate config key: rounds$"):
            cfg.load(path)
        path.write_text('{"dataset": {"kind": "synthetic"}, '
                        '"strategy": {"kind": "fedprox", "mu": 0.1, "mu": 0.0}}')
        with pytest.raises(cfg.ConfigError, match="^duplicate config key: mu$"):
            cfg.load(path)

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(minimal()))
        parsed = cfg.load(path, flags(rounds=3, out="elsewhere"))
        assert parsed.rounds == 3
        assert parsed.out == "elsewhere"
