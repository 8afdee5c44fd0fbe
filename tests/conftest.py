"""Shared fixtures."""

import numpy as np
import pytest

from fednorm import config as cfg
from fednorm import data, nn, simulation


def _build_federation(
    kind="fedavg",
    normalize=False,
    num_clients=4,
    optimizer=None,
    seed=0,
    participation=1.0,
    shared_shards=False,
    shared_client_seed=100,
    epochs=1,
    batch_size=32,
    hidden_sizes=(8,),
    activation="relu",
):
    """Small hand-wired federation on a synthetic 3-class problem.  Shared
    shards give every client the whole training set and one client seed."""
    ds = data.generate_synthetic(3, 6, 40, 3.0, seed=seed)
    train, test = data.train_test_split(ds, 0.25, seed + 1)
    if shared_shards:
        shards = [np.arange(len(train))] * num_clients
        seeds = [shared_client_seed] * num_clients
    else:
        shards = np.array_split(np.arange(len(train)), num_clients)
        seeds = [100 + i for i in range(num_clients)]
    clients = [simulation.ClientState(i, shards[i], seeds[i]) for i in range(num_clients)]
    config = cfg.RunConfig(
        dataset=cfg.SyntheticData(classes=3, dims=6, per_class=40, spread=3.0),
        strategy=cfg.StrategyConfig(kind=kind),
        optimizer=optimizer or cfg.OptimizerSettings(),
        clients=num_clients,
        participation=participation,
        epochs=epochs,
        batch_size=batch_size,
        hidden_sizes=hidden_sizes,
        activation=activation,
        normalize=normalize,
        seed=seed,
        test_fraction=0.25,
    )
    params = nn.init_model(simulation.model_spec(config, train), seed + 2)
    return simulation.Federation(config, train, test, clients, simulation.ServerState(params))


@pytest.fixture
def build_federation():
    """Factory of small hand-wired federations; see ``_build_federation``."""
    return _build_federation
