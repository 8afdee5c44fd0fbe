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
from contextlib import contextmanager
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


def local_train(
    spec: nn.ModelSpec,
    dataset: data.Dataset,
    client: ClientState,
    global_params: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    round_index: int,
    state: nn.OptimizerState,
    adjust: strategies.Adjust | None = None,
    out: np.ndarray | None = None,
) -> strategies.ClientUpdate:
    """Run one client's local epochs and package its update.

    Epochs iterate the full shard in shuffled minibatches; the shuffle depends
    only on (client seed, round).  The local optimizer's ``state``, gradient
    included, serves every step, and the weights are trained in ``out``, a
    new vector if None: beyond ``out`` a call allocates nothing of parameter
    or shard size.  Each step hands ``adjust``, the rule's hook, to
    ``nn.optimizer_step``.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    indices = client.indices
    n = len(indices)
    if n == 0:
        raise ValueError(f"client {client.client_id} has an empty shard")
    # plain indexing would wrap a negative row instead of raising
    if indices.min() < 0 or indices.max() >= len(dataset.labels):
        raise ValueError(
            f"client {client.client_id} has rows outside the {len(dataset.labels)}-row dataset"
        )

    params = np.empty_like(global_params) if out is None else out
    np.copyto(params, global_params)
    state.reset()
    rng = np.random.default_rng([client.seed, round_index])
    steps = 0
    for _ in range(epochs):
        order = indices[rng.permutation(n)]
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            try:
                nn.loss_and_grad(
                    spec, params, dataset.features[rows], dataset.labels[rows], out=state.grad
                )
                nn.optimizer_step(params, state.grad, state, adjust)
            except nn.TrainingDiverged as exc:
                raise nn.TrainingDiverged(
                    f"client {client.client_id} diverged at local step {steps} "
                    f"of round {round_index}: {exc}"
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


# rounds train on threads from this many parameters up: on 2 cores with BLAS on
# one thread, a round took 0.95-1.07x its serial time at 16-36k parameters, 0.67x at 66k
THREAD_MIN_PARAMS = 65_536


def round_threads(param_count: int, participants: int) -> int:
    """Threads that train one round's clients.

    A model below ``THREAD_MIN_PARAMS`` parameters trains serially: its steps
    are too short for a second thread to pay for itself.  A larger one gets one
    thread per core that BLAS leaves free, at most one per participant.  An
    unknown BLAS counts as using every core, so its run stays serial.
    """
    if param_count < THREAD_MIN_PARAMS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    blas = blas_threads() or cores
    return max(1, min(participants, cores // blas))


@contextmanager
def _thread_map(threads: int):
    """A ``map`` that runs its calls on ``threads`` threads, the builtin on
    this thread for one.  Its results come in input order, and the first
    failure in that order is raised."""
    if threads == 1:
        yield map
        return
    with ThreadPoolExecutor(threads) as pool:
        yield pool.map


@dataclass
class Federation:
    """The full simulation, as ``build`` makes it: the run's ``RunConfig``, whose
    settings it reads, datasets, clients and server state.  The model, the rule,
    which alone holds the strategy's state, and the sampling seed are derived from
    the config once; each training thread's optimizer state is made on first need and kept."""

    config: RunConfig
    train: data.Dataset
    test: data.Dataset
    clients: list[ClientState]
    server: ServerState
    spec: nn.ModelSpec = field(init=False)
    rule: strategies.FedAvg = field(init=False, repr=False)
    sample_seed: int = field(init=False, repr=False)
    states: list[nn.OptimizerState] = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        if not self.clients:
            raise ValueError("a federation needs at least one client")
        config = self.config
        self.spec = model_spec(config, self.train)
        self.rule = strategies.RULES[config.strategy.kind](
            config.strategy, self.spec, self.server.params, len(self.clients), config.optimizer
        )
        self.sample_seed = _derive_seed(config.seed, _TAG_SAMPLE)[0]

    def _sample_participants(self, round_index: int) -> list[ClientState]:
        total = len(self.clients)
        # fewest clients whose share reaches it; a ceil oversamples (0.07 * 100 > 7)
        k = next(k for k in range(1, total + 1) if k / total >= self.config.participation)
        rng = np.random.default_rng([self.sample_seed, round_index])
        chosen = np.sort(rng.choice(total, size=k, replace=False))
        return [self.clients[i] for i in chosen]

    def _states(self, count: int) -> list[nn.OptimizerState]:
        while len(self.states) < count:
            self.states.append(nn.OptimizerState(self.config.optimizer, self.spec.param_count()))
        return self.states[:count]

    def _train_clients(
        self, participants: list[ClientState], threads: int, run, latents: bool
    ) -> tuple[list[strategies.ClientUpdate], list[np.ndarray] | None]:
        """Train the participants through ``run``, a ``map`` over the round's
        ``threads`` threads; a client takes whichever optimizer state is free.
        This thread makes the states and the updates' weight vectors first
        and waits while the threads train.  With ``latents``, each thread then
        takes its client's mean latent over the whole shard under the trained
        weights.  The first failure in participant order is raised, as in a
        serial round, and the clients not yet started are then dropped."""
        server = self.server
        idle = queue.SimpleQueue()
        for state in self._states(threads):
            idle.put(state)

        def train(client: ClientState, out: np.ndarray):
            state = idle.get()
            try:
                update = local_train(
                    self.spec,
                    self.train,
                    client,
                    server.params,
                    epochs=self.config.epochs,
                    batch_size=self.config.batch_size,
                    round_index=server.round_index,
                    state=state,
                    adjust=self.rule.hooks(server.params, client.client_id),
                    out=out,
                )
            finally:
                idle.put(state)
            if not latents:
                return update, None
            shard = self.train.features[client.indices]
            return update, nn.mean_latent(self.spec, update.weights, shard)

        outs = [np.empty_like(server.params) for _ in participants]
        updates, means = zip(*run(train, participants, outs))
        return list(updates), list(means) if latents else None

    def _weigh(
        self, updates: list[strategies.ClientUpdate], latents: list[np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The server's weighing step: the contribution factors λ, the
        rule's importance weights ν and the aggregation weights u, which the
        mean ``latents`` rescale unless they are None."""
        nu = strategies.importance(updates)
        if latents is None:
            # the reported factor is the uniform value, matching what the
            # softmax yields for indistinguishable clients
            return np.full(len(updates), 1.0 - 1.0 / len(updates)), nu, nu
        similarity = contribution.similarity_matrix(latents, [up.client_id for up in updates])
        lam = contribution.contribution_factors(similarity, self.config.temperature)
        return lam, nu, contribution.normalize_weights(lam, nu)

    def run_round(self) -> RoundReport:
        """Advance the federation by one round and report on it: sample,
        train, weigh, fold, compare each client with the new model, then
        evaluate it once the client vectors are freed.  Training with the
        mean latents, the fold's spans and the cosines run on the round's
        threads; the evaluation runs on this one.  A fold that comes out
        non-finite raises with the round's index in front."""
        start = time.perf_counter()
        server = self.server
        participants = self._sample_participants(server.round_index)
        threads = round_threads(self.spec.param_count(), len(participants))
        # a lone participant has no similarity structure to exploit, so its
        # latent is never taken
        normalize = self.config.normalize and len(participants) >= 2
        with _thread_map(threads) as run:
            updates, latents = self._train_clients(participants, threads, run, normalize)
            lam, nu, u = self._weigh(updates, latents)
            try:
                new_params = strategies.aggregate(server.params, updates, u, self.rule, threads, run)
            except nn.TrainingDiverged as exc:
                raise nn.TrainingDiverged(f"round {server.round_index}: {exc}") from exc
            # one contiguous share of the clients per thread: the pool costs
            # more per call than a cosine does
            shares = run(
                lambda share: [contribution.cosine(up.weights, new_params) for up in updates[share]],
                strategies.cut(len(updates), threads),
            )
            cosines = [cosine for share in shares for cosine in share]
        metrics = [
            ClientRoundMetrics(
                client_id=up.client_id,
                lam=float(lam[i]),
                nu=float(nu[i]),
                u=float(u[i]),
                cos_local_global=cosines[i],
            )
            for i, up in enumerate(updates)
        ]
        # the cosines were the client vectors' last readers; freed here, they
        # leave their memory to the evaluation's activations
        del updates
        accuracy, loss = evaluate(self.spec, new_params, self.test)
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


# seed-derivation tags; each stage gets its own independent stream
_TAG_DATA, _TAG_SPLIT, _TAG_PARTITION, _TAG_INIT, _TAG_SAMPLE, _TAG_CLIENT = range(6)


def _derive_seed(master: int, tag: int, count: int = 1) -> list[int]:
    state = np.random.SeedSequence([master, tag]).generate_state(count)
    return [int(s) for s in state]


def model_spec(config: RunConfig, train: data.Dataset) -> nn.ModelSpec:
    """The model a run trains on ``train``: the config's hidden layers and activation."""
    return nn.ModelSpec((train.dim, *config.hidden_sizes, train.class_count), config.activation)


def build(config: RunConfig) -> Federation:
    """The federation ``config`` describes, before its first round."""
    master = config.seed
    # no name holds the unsplit dataset, so it is freed once the split returns
    train, test = data.train_test_split(
        _build_dataset(config, _derive_seed(master, _TAG_DATA)[0]),
        config.test_fraction,
        _derive_seed(master, _TAG_SPLIT)[0],
    )
    part = config.partition
    if part.kind == "dirichlet":
        plan = data.partition_dirichlet(
            train,
            alpha=part.alpha,
            clients=config.clients,
            min_samples=part.min_samples,
            max_redraws=part.max_redraws,
            seed=_derive_seed(master, _TAG_PARTITION)[0],
        )
    else:
        plan = data.partition_label_split(train, part.groups)
    params = nn.init_model(model_spec(config, train), _derive_seed(master, _TAG_INIT)[0])
    seeds = _derive_seed(master, _TAG_CLIENT, count=plan.num_clients)
    clients = [ClientState(r, plan.assignments[r], seeds[r]) for r in range(plan.num_clients)]
    return Federation(config, train, test, clients, ServerState(params))


def _build_dataset(config, seed: int) -> data.Dataset | data.IdxImages:
    """The unsplit samples; IDX pixels stay uint8 until the split scales each side."""
    ds = config.dataset
    if ds.kind == "synthetic":
        return data.generate_synthetic(ds.classes, ds.dims, ds.per_class, ds.spread, seed)
    return data.read_idx(ds.images, ds.labels)
