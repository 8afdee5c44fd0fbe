"""Packaging checks: the names the package exports."""

import fednorm
from fednorm import config


def test_every_exported_name_resolves():
    missing = [name for name in fednorm.__all__ if not hasattr(fednorm, name)]
    assert missing == []
    assert fednorm.StrategyConfig is config.StrategyConfig
    assert fednorm.OptimizerSettings is config.OptimizerSettings
