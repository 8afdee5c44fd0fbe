"""Round-based federated training: broadcast, local training, aggregation.

One process simulates server and clients.  Every source of randomness is an
rng derived from (seed, round) or (client seed, round), never a shared stream,
so runs are bit-reproducible, client work can fan out over threads without
changing results, and toggling normalization cannot perturb the training path.
"""

from __future__ import annotations

import ctypes
import os
import queue
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import contribution, data, nn, strategies
from .config import RunConfig


@dataclass
class ClientState:
    """A simulated participant: its shard indices and private seed."""

    client_id: int
    indices: np.ndarray
    seed: int


@dataclass
class ServerState:
    """What changes from round to round: the global model and the round count.
    The run's fixed settings are ``Federation.config``."""

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


@dataclass
class Workspace:
    """One training thread's buffers, reused client after client and round
    after round: the gradient, the local optimizer's state and one minibatch
    of features and labels.  The thread that runs the federation makes them,
    so that no training thread allocates an array of parameter size."""

    grad: np.ndarray
    optimizer: nn.OptimizerState
    features: np.ndarray
    labels: np.ndarray

    @classmethod
    def create(cls, spec: nn.ModelSpec, optimizer: nn.OptimizerState, rows: int) -> Workspace:
        """Buffers for training ``spec`` with a fresh copy of the template
        ``optimizer`` on minibatches of at most ``rows`` rows."""
        size = spec.param_count()
        return cls(
            np.empty(size),
            optimizer.fresh(size),
            np.empty((rows, spec.input_dim)),
            np.empty(rows, dtype=np.int64),
        )


def local_train(
    spec: nn.ModelSpec,
    dataset: data.Dataset,
    client: ClientState,
    global_params: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    round_index: int,
    workspace: Workspace,
    adjust: strategies.Adjust | None = None,
    out: np.ndarray | None = None,
) -> strategies.ClientUpdate:
    """Run one client's local epochs and package its update.

    Epochs iterate the full shard in shuffled minibatches; the shuffle depends
    only on (client seed, round).  Each minibatch is gathered into
    ``workspace``, whose gradient and optimizer state serve every step, and
    the weights are trained in ``out``, a new vector if None: beyond ``out``
    a call allocates nothing of parameter or shard size.  ``adjust``, the
    rule's hook, edits every minibatch gradient in place.  The update carries
    no mean latent.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    indices = client.indices
    n = len(indices)
    if n == 0:
        raise ValueError(f"client {client.client_id} has an empty shard")
    if indices.min() < 0 or indices.max() >= len(dataset.labels):
        raise ValueError(
            f"client {client.client_id} has rows outside the {len(dataset.labels)}-row dataset"
        )
    if workspace.features.shape[0] < min(batch_size, n):
        raise ValueError(
            f"workspace holds {workspace.features.shape[0]} rows, "
            f"a minibatch needs {min(batch_size, n)}"
        )

    params = np.empty_like(global_params) if out is None else out
    np.copyto(params, global_params)
    grad, opt = workspace.grad, workspace.optimizer
    opt.reset()
    rng = np.random.default_rng([client.seed, round_index])
    steps = 0
    for _ in range(epochs):
        order = indices[rng.permutation(n)]
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            # the range is checked above, so "clip" moves no index; unlike
            # "raise" it writes straight into the workspace, not via a copy
            m = len(rows)
            x = np.take(dataset.features, rows, axis=0, out=workspace.features[:m], mode="clip")
            y = np.take(dataset.labels, rows, out=workspace.labels[:m], mode="clip")
            try:
                nn.loss_and_grad(spec, params, x, y, out=grad)
                if adjust is not None:
                    adjust(params, grad)
                params, opt = nn.optimizer_step(params, grad, opt)
            except nn.TrainingDiverged as exc:
                raise nn.TrainingDiverged(
                    f"client {client.client_id} diverged at local step {steps}: {exc}"
                ) from exc
            steps += 1

    return strategies.ClientUpdate(client_id=client.client_id, weights=params, n=n, tau=steps)


# names under which numpy's OpenBLAS builds export their thread-count getter
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy is linked against, None if unknown."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # dlsym on numpy's extension also searches the libraries it links
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in _OPENBLAS_THREAD_SYMBOLS:
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def round_threads(param_count: int, participants: int) -> int:
    """Threads that train one round's clients.

    A model below ``2 * nn.BLOCK`` parameters trains serially: its steps are
    too short for a second thread to pay for itself.  A larger one gets one
    thread per core that BLAS leaves free, at most one per participant.  An
    unknown BLAS counts as using every core, so its run stays serial.
    """
    if param_count < 2 * nn.BLOCK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    blas = blas_threads() or cores
    return max(1, min(participants, cores // blas))


@dataclass
class Federation:
    """The full simulation: the run's ``RunConfig``, whose settings it reads,
    datasets, clients, server state and model shape.  The rule, which alone
    holds the strategy's state, the local-optimizer template and the
    sampling seed are derived from the config once; the training threads'
    workspaces are made on first need and kept."""

    config: RunConfig
    train: data.Dataset
    test: data.Dataset
    clients: list[ClientState]
    server: ServerState
    spec: nn.ModelSpec
    rule: strategies.FedAvg = field(init=False, repr=False)
    local_optimizer: nn.OptimizerState = field(init=False, repr=False)
    sample_seed: int = field(init=False, repr=False)
    workspaces: list[Workspace] = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        config = self.config
        # a RunConfig built in Python skips from_dict's key checks
        if not 0.0 < config.participation <= 1.0:
            raise ValueError(f"participation must be in (0, 1], got {config.participation}")
        self.local_optimizer = nn.OptimizerState(config.optimizer.kind, config.optimizer.lr)
        self.rule = strategies.RULES[config.strategy.kind](
            config.strategy, self.spec, self.server.params, len(self.clients),
            self.local_optimizer,
        )
        self.sample_seed = _derive_seed(config.seed, _TAG_SAMPLE)[0]

    def _sample_participants(self, round_index: int) -> list[ClientState]:
        total = len(self.clients)
        # fewest clients whose share reaches it; a ceil oversamples (0.07 * 100 > 7)
        k = next(k for k in range(1, total + 1) if k / total >= self.config.participation)
        rng = np.random.default_rng([self.sample_seed, round_index])
        chosen = np.sort(rng.choice(total, size=k, replace=False))
        return [self.clients[i] for i in chosen]

    def _workspaces(self, count: int) -> list[Workspace]:
        rows = min(self.config.batch_size, max(len(c.indices) for c in self.clients))
        while len(self.workspaces) < count:
            self.workspaces.append(Workspace.create(self.spec, self.local_optimizer, rows))
        return self.workspaces[:count]

    def _train_clients(
        self, participants: list[ClientState], latent: bool
    ) -> list[strategies.ClientUpdate]:
        """Train the participants on ``round_threads`` threads; a client
        takes whichever workspace is free.  This thread makes every update's
        weight vector beforehand and waits while the threads train, so no
        more threads run than ``round_threads`` allows.  The first failure
        in participant order is raised, as in a serial round, and the
        clients not yet started are then dropped.  Each mean latent over the
        whole shard, after the final epoch, is taken afterwards, only when
        ``latent`` asks for it."""
        server = self.server
        spaces = self._workspaces(round_threads(self.spec.param_count(), len(participants)))
        idle = queue.SimpleQueue()
        for workspace in spaces:
            idle.put(workspace)

        def train(client: ClientState, out: np.ndarray) -> strategies.ClientUpdate:
            workspace = idle.get()
            try:
                return local_train(
                    self.spec,
                    self.train,
                    client,
                    server.params,
                    epochs=self.config.epochs,
                    batch_size=self.config.batch_size,
                    round_index=server.round_index,
                    workspace=workspace,
                    adjust=self.rule.hooks(server.params, client.client_id),
                    out=out,
                )
            finally:
                idle.put(workspace)

        outs = [np.empty_like(server.params) for _ in participants]
        if len(spaces) == 1:
            updates = list(map(train, participants, outs))
        else:
            with ThreadPoolExecutor(len(spaces)) as pool:
                updates = list(pool.map(train, participants, outs))
        if latent:
            for client, update in zip(participants, updates):
                shard = self.train.features[client.indices]
                update.z = nn.mean_latent(self.spec, update.weights, shard)
        return updates

    def run_round(self) -> RoundReport:
        """Advance the federation by one round and report on it."""
        start = time.perf_counter()
        server = self.server
        participants = self._sample_participants(server.round_index)
        # a lone participant has no similarity structure to exploit, so its
        # latent would never be read
        normalize = self.config.normalize and len(participants) >= 2
        updates = self._train_clients(participants, normalize)

        nu = strategies.importance(updates)
        if normalize:
            latents = [contribution.MeanLatent(up.client_id, up.z) for up in updates]
            similarity = contribution.similarity_matrix(latents)
            lam = contribution.contribution_factors(similarity, self.config.temperature)
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


def run_experiment(config: RunConfig, on_report=None) -> ExperimentResult:
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
    federation = Federation(config, train, test, clients, ServerState(params), spec)
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
