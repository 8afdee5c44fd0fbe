"""Round-based federated training: broadcast, local training, aggregation.

One process simulates server and clients.  Every source of randomness is an
rng derived from (seed, round) or (client seed, round), never a shared stream,
so runs are bit-reproducible, client work can fan out over threads without
changing results, and toggling normalization cannot perturb the training path.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from itertools import repeat

import numpy as np

from . import contribution, data, nn, strategies


@dataclass
class ClientState:
    """A simulated participant: its shard indices and private seed."""

    client_id: int
    indices: np.ndarray
    seed: int


@dataclass
class ServerState:
    """What changes from round to round: the global model and the round count.
    The run's fixed settings live on ``Federation``."""

    params: np.ndarray
    round_index: int = 0


@dataclass
class ClientRoundMetrics:
    client_id: int
    lam: float
    nu: float
    u: float
    cos_local_global: float


@dataclass
class RoundReport:
    """Outcome of one round: test metrics plus per-participant weighting."""

    round_index: int
    accuracy: float
    loss: float
    clients: list[ClientRoundMetrics]
    duration_s: float


def evaluate(spec: nn.ModelSpec, params: np.ndarray, dataset: data.Dataset):
    """(accuracy, mean cross-entropy) of the model on a dataset."""
    logits, _ = nn.forward(spec, params, dataset.features)
    accuracy = float(np.mean(np.argmax(logits, axis=1) == dataset.labels))
    return accuracy, nn.cross_entropy(logits, dataset.labels)


def local_train(
    spec: nn.ModelSpec,
    dataset: data.Dataset,
    client: ClientState,
    global_params: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    optimizer: nn.OptimizerState,
    round_index: int,
    adjust: strategies.Adjust | None = None,
) -> strategies.ClientUpdate:
    """Run one client's local epochs and package its update.

    Epochs iterate the full shard in shuffled minibatches; the shuffle depends
    only on (client seed, round).  ``adjust``, the rule's hook, edits every
    minibatch gradient in place.  The update carries no mean latent.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(client.indices)
    if n == 0:
        raise ValueError(f"client {client.client_id} has an empty shard")

    # the step updates this copy in place; one gradient buffer serves every step
    params = global_params.copy()
    grad = np.empty_like(params)
    opt = optimizer.fresh()
    rng = np.random.default_rng([client.seed, round_index])
    steps = 0
    for _ in range(epochs):
        rows = client.indices[rng.permutation(n)]
        x_epoch, y_epoch = dataset.features[rows], dataset.labels[rows]
        for start in range(0, n, batch_size):
            stop = start + batch_size
            try:
                nn.loss_and_grad(spec, params, x_epoch[start:stop], y_epoch[start:stop], out=grad)
                if adjust is not None:
                    adjust(params, grad)
                params, opt = nn.optimizer_step(params, grad, opt)
            except nn.TrainingDiverged as exc:
                raise nn.TrainingDiverged(
                    f"client {client.client_id} diverged at local step {steps}: {exc}"
                ) from exc
            steps += 1

    return strategies.ClientUpdate(client_id=client.client_id, weights=params, n=n, tau=steps)


@dataclass
class Federation:
    """The full simulation: datasets, clients, server state, the run's fixed
    settings (no defaults: those are ``config.RunConfig``'s) and the rule,
    which alone holds the strategy config, as ``rule.cfg``."""

    train: data.Dataset
    test: data.Dataset
    clients: list[ClientState]
    server: ServerState
    spec: nn.ModelSpec
    strategy: InitVar[strategies.StrategyConfig]
    normalize: bool
    temperature: float
    epochs: int
    batch_size: int
    optimizer: nn.OptimizerState
    participation: float
    seed: int
    workers: int
    rule: strategies.FedAvg = field(init=False, repr=False)

    def __post_init__(self, strategy: strategies.StrategyConfig):
        if not 0.0 < self.participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {self.participation}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.rule = strategies.RULES[strategy.kind](
            strategy, self.spec, self.server.params, len(self.clients), self.optimizer
        )

    def _sample_participants(self, round_index: int) -> list[ClientState]:
        total = len(self.clients)
        # fewest clients whose share reaches it; a ceil oversamples (0.07 * 100 > 7)
        k = next(k for k in range(1, total + 1) if k / total >= self.participation)
        rng = np.random.default_rng([self.seed, round_index])
        chosen = np.sort(rng.choice(total, size=k, replace=False))
        return [self.clients[i] for i in chosen]

    def _train_one(self, client: ClientState, latent: bool) -> strategies.ClientUpdate:
        """Train one client; its mean latent over the whole shard, taken after
        the final epoch, is computed only when ``latent`` asks for it."""
        server = self.server
        update = local_train(
            self.spec,
            self.train,
            client,
            server.params,
            epochs=self.epochs,
            batch_size=self.batch_size,
            optimizer=self.optimizer,
            round_index=server.round_index,
            adjust=self.rule.hooks(server.params, client.client_id),
        )
        if latent:
            shard = self.train.features[client.indices]
            update.z = nn.mean_latent(self.spec, update.weights, shard)
        return update

    def run_round(self) -> RoundReport:
        """Advance the federation by one round and report on it."""
        start = time.perf_counter()
        server = self.server
        participants = self._sample_participants(server.round_index)
        # a lone participant has no similarity structure to exploit, so its
        # latent would never be read
        normalize = self.normalize and len(participants) >= 2
        if self.workers > 1:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                updates = list(pool.map(self._train_one, participants, repeat(normalize)))
        else:
            updates = [self._train_one(c, normalize) for c in participants]

        nu = strategies.importance(updates)
        if normalize:
            latents = [contribution.MeanLatent(up.client_id, up.z) for up in updates]
            similarity = contribution.similarity_matrix(latents)
            lam = contribution.contribution_factors(similarity, self.temperature)
            u = contribution.normalize_weights(lam, nu)
        else:
            # the reported factor is the uniform value, matching what the
            # softmax yields for indistinguishable clients
            lam = np.full(len(updates), 1.0 - 1.0 / len(updates))
            u = nu

        new_params = strategies.aggregate(server.params, updates, u, self.rule)
        accuracy, loss = evaluate(self.spec, new_params, self.test)
        metrics = [
            ClientRoundMetrics(
                client_id=up.client_id,
                lam=float(lam[i]),
                nu=float(nu[i]),
                u=float(u[i]),
                cos_local_global=contribution.cosine(up.weights, new_params),
            )
            for i, up in enumerate(updates)
        ]
        report = RoundReport(
            round_index=server.round_index,
            accuracy=accuracy,
            loss=loss,
            clients=metrics,
            duration_s=time.perf_counter() - start,
        )
        server.params = new_params
        server.round_index += 1
        return report

    def run(self, rounds: int, on_report=None) -> list[RoundReport]:
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        reports = []
        for _ in range(rounds):
            report = self.run_round()
            reports.append(report)
            if on_report is not None:
                on_report(report)
        return reports


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    federation: Federation


# seed-derivation tags; each stage gets its own independent stream
_TAG_DATA, _TAG_SPLIT, _TAG_PARTITION, _TAG_INIT, _TAG_SAMPLE, _TAG_CLIENT = range(6)


def _derive_seed(master: int, tag: int, count: int = 1) -> list[int]:
    state = np.random.SeedSequence([master, tag]).generate_state(count)
    return [int(s) for s in state]


def run_experiment(config, on_report=None) -> ExperimentResult:
    """Build the whole federation from a RunConfig and run every round."""
    master = config.seed
    # no name holds the unsplit dataset, so it is freed once the split returns
    train, test = data.train_test_split(
        _build_dataset(config, _derive_seed(master, _TAG_DATA)[0]),
        config.test_fraction,
        _derive_seed(master, _TAG_SPLIT)[0],
    )
    plan = _build_partition(config, train, _derive_seed(master, _TAG_PARTITION)[0])

    spec = nn.ModelSpec(
        (train.dim, *config.hidden_sizes, train.class_count), config.activation
    )
    params = nn.init_model(spec, _derive_seed(master, _TAG_INIT)[0])
    client_seeds = _derive_seed(master, _TAG_CLIENT, count=plan.num_clients)
    clients = [
        ClientState(r, plan.assignments[r], client_seeds[r])
        for r in range(plan.num_clients)
    ]
    federation = Federation(
        train=train,
        test=test,
        clients=clients,
        server=ServerState(params),
        spec=spec,
        strategy=config.strategy,
        normalize=config.normalize,
        temperature=config.temperature,
        epochs=config.epochs,
        batch_size=config.batch_size,
        optimizer=nn.OptimizerState(kind=config.optimizer.kind, lr=config.optimizer.lr),
        participation=config.participation,
        seed=_derive_seed(master, _TAG_SAMPLE)[0],
        workers=config.workers,
    )
    reports = federation.run(config.rounds, on_report)
    return ExperimentResult(reports=reports, federation=federation)


def _build_dataset(config, seed: int) -> data.Dataset:
    ds = config.dataset
    if ds.kind == "synthetic":
        return data.generate_synthetic(ds.classes, ds.dims, ds.per_class, ds.spread, seed)
    return data.load_idx(ds.images, ds.labels)


def _build_partition(config, train: data.Dataset, seed: int) -> data.PartitionPlan:
    part = config.partition
    if part.kind == "dirichlet":
        return data.partition_dirichlet(
            train,
            alpha=part.alpha,
            clients=config.clients,
            min_samples=part.min_samples,
            max_redraws=part.max_redraws,
            seed=seed,
        )
    return data.partition_label_split(train, part.groups)
