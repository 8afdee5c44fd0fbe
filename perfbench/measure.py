"""Run one workload's cells through ``fednorm run`` for a fixed time and measure.

Started by ``run.py`` in a fresh process per workload, so the peak resident
memory it reports belongs to this workload alone:

    python -m perfbench.measure --cells CELLS.json --seconds S --trace 0|1 \
        --workdir DIR --result RESULT.json

A repetition runs every cell of the workload once through ``cli.main``.  The
first repetition is traced and untimed: it warms caches and the allocator,
and records each cell's shard sizes, parsed config, final global params and
per-round accuracies.  Then, until the time is up:

* ``--trace 0``: untraced repetitions, each preceded by ``SETUP_REPEATS``
  ``--rounds 0`` runs of every cell for the set-up time.  No attribute of the
  program is replaced while they run.
* ``--trace 1``: traced and untraced repetitions alternate; the traced ones
  give the per-layer numbers, and their run time minus the untraced one is
  the tracing overhead.

After the set-up runs and every cell run of a repetition the fixed reference
task of ``speed.py`` is timed.  With ``--trace 0`` every reported time is
scaled to reference speed by the median of these probes, so that the host's
speed during the run drops out; the measured wall times are kept in the
result too.  Per-layer times are not scaled.

Every repetition's metrics.csv is checked round by round, and its accuracies
must equal the first repetition's bit for bit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from fednorm import cli, config, contribution, data, nn, simulation, strategies

from perfbench import checks, speed
from perfbench.tracer import Target, Tracer

SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_s.p50": "s",
    "round_s.p90": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
    "final_accuracy": "ratio",
    "rounds_ok_ratio": "ratio",
}


def _loss_and_grad_flop(args, kwargs, result) -> float:
    """Multiply-adds x 2 of one step: forward and weight-gradient products on
    every layer, input-gradient products on every layer but the first."""
    spec, x = args[0], args[2]
    sizes = spec.layer_sizes
    products = [a * b for a, b in zip(sizes, sizes[1:])]
    return 2.0 * x.shape[0] * (2 * sum(products) + sum(products[1:]))


def _aggregate_bytes(args, kwargs, result) -> float:
    """K client vectors of P float64 read once."""
    global_params, updates = args[0], args[1]
    return 8.0 * len(updates) * global_params.size


def targets() -> list[Target]:
    """Every wrapped boundary, named ``module.function``."""
    return [
        Target(cli, "main", "cli.main"),
        Target(config, "load", "config.load", capture=lambda a, k, r: r),
        Target(data, "generate_synthetic", "data.generate_synthetic"),
        Target(data, "load_idx", "data.load_idx"),
        Target(data, "train_test_split", "data.train_test_split"),
        Target(data, "partition_dirichlet", "data.partition_dirichlet",
               capture=lambda a, k, r: [len(shard) for shard in r.assignments]),
        Target(nn, "init_model", "nn.init_model"),
        Target(nn, "loss_and_grad", "nn.loss_and_grad", work=_loss_and_grad_flop),
        Target(nn, "optimizer_step", "nn.optimizer_step"),
        Target(nn, "mean_latent", "nn.mean_latent"),
        Target(simulation.Federation, "run", "simulation.run",
               capture=lambda a, k, r: a[0].server.params.copy()),
        Target(simulation.Federation, "run_round", "simulation.run_round"),
        Target(simulation, "local_train", "simulation.local_train"),
        Target(simulation, "evaluate", "simulation.evaluate"),
        Target(strategies, "local_hooks", "strategies.local_hooks"),
        Target(strategies, "importance", "strategies.importance"),
        Target(strategies, "aggregate", "strategies.aggregate", work=_aggregate_bytes),
        Target(contribution, "similarity_matrix", "contribution.similarity_matrix"),
        Target(contribution, "contribution_factors", "contribution.contribution_factors"),
        Target(contribution, "normalize_weights", "contribution.normalize_weights"),
        Target(contribution, "cosine", "contribution.cosine"),
    ]


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    units = {}
    for target in targets():
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.busy_s"] = "s"
    units.update({
        "nn.loss_and_grad.us_p50": "us",
        "nn.loss_and_grad.gflop": "GFLOP",
        "nn.optimizer_step.us_p50": "us",
        "simulation.local_train.self_s": "s",
        "simulation.run_round.self_s": "s",
        "strategies.aggregate.mbytes": "MB",
        "cli.self_s": "s",
        "trace.overhead_s": "s",
    })
    return units


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    stats = tracer.stats
    values = {}
    for name, s in stats.items():
        values[f"{name}.calls"] = s.calls
        values[f"{name}.busy_s"] = s.busy_s

    def p50_us(name):
        durations = stats[name].durations
        return statistics.median(durations) * 1e6 if durations else 0.0

    main, run = stats["cli.main"], stats["simulation.run"]
    # set-up of a cell: from entering cli.main to its first Federation.run call
    setup = sum(r - m for m, r in zip(main.starts, run.starts))
    values.update({
        "nn.loss_and_grad.us_p50": p50_us("nn.loss_and_grad"),
        "nn.loss_and_grad.gflop": stats["nn.loss_and_grad"].work / 1e9,
        "nn.optimizer_step.us_p50": p50_us("nn.optimizer_step"),
        "simulation.local_train.self_s": stats["simulation.local_train"].self_s,
        "simulation.run_round.self_s": stats["simulation.run_round"].self_s,
        "strategies.aggregate.mbytes": stats["strategies.aggregate"].work / 1e6,
        "cli.self_s": main.busy_s - setup - stats["simulation.run_round"].busy_s,
    })
    return values


@dataclass
class Repetition:
    run_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    records: list[checks.RunRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _cli_run(config_path: Path, out_dir: Path, *extra: str) -> tuple[float, str | None]:
    """Wall time of one ``fednorm run`` and an error message, if it failed."""
    argv = ["run", "--config", str(config_path), "--out", str(out_dir), *extra]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # the run must be reported as failed, not end the benchmark
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"fednorm run exited with code {code}"


def run_repetition(cells, workdir: Path, setup_repeats: int) -> Repetition:
    """Optional ``--rounds 0`` set-up runs, then one full run of every cell,
    with the reference task of ``speed.py`` timed after the set-up runs and
    after every cell."""
    rep = Repetition()
    for _ in range(setup_repeats):
        total = 0.0
        for i, cell in enumerate(cells):
            elapsed, error = _cli_run(cell["path"], workdir / f"setup-{i}", "--rounds", "0")
            total += elapsed
            if error:
                rep.errors.append(f"{cell['label']} set-up: {error}")
        rep.setup_s.append(total)
    if setup_repeats:
        rep.probes.append(speed.probe())
    for i, cell in enumerate(cells):
        elapsed, error = _cli_run(cell["path"], workdir / f"out-{i}")
        rep.probes.append(speed.probe())
        rep.run_s += elapsed
        if error:
            rep.errors.append(f"{cell['label']}: {error}")
    return rep


def check_repetition(rep: Repetition, cells, workdir: Path, run_configs, reference=None):
    """Read back every cell's metrics.csv; accuracies must match ``reference``."""
    for i, cell in enumerate(cells):
        record = checks.read_run(workdir / f"out-{i}", run_configs[i])
        rep.errors.extend(f"{cell['label']}: {f}" for f in record.failures)
        if reference is not None and record.accuracies != reference[i]:
            rep.errors.append(f"{cell['label']}: accuracies differ from the first repetition")
        rep.records.append(record)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(cells, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run the workload and return the result record (see module docstring)."""
    tracer = Tracer(targets())
    with tracer:
        probe = run_repetition(cells, workdir, 0)
    run_configs = tracer.captured["config.load"]
    shard_sizes = tracer.captured["data.partition_dirichlet"]
    final_params = tracer.captured["simulation.run"]
    if len(run_configs) == len(shard_sizes) == len(final_params) == len(cells):
        check_repetition(probe, cells, workdir, run_configs)
    elif not probe.errors:
        probe.errors.append("config.load, data.partition_dirichlet or Federation.run "
                            "did not run once per cell")
    reps, traced, untraced = [probe], [], []
    result = {"missing_spans": tracer.missing}
    if not probe.errors:
        reference = [r.accuracies for r in probe.records]
        result["fingerprints"] = [
            {"cell": cell["label"], "params": checks.sha256_of(final_params[i]),
             "accuracies": checks.sha256_of(reference[i])}
            for i, cell in enumerate(cells)
        ]
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            if trace and len(traced) <= len(untraced):
                tracer.reset()
                with tracer:
                    rep = run_repetition(cells, workdir, 0)
                rep.layers = layer_values(tracer)
                traced.append(rep)
            else:
                rep = run_repetition(cells, workdir, 0 if trace else SETUP_REPEATS)
                untraced.append(rep)
            check_repetition(rep, cells, workdir, run_configs, reference)
            reps.append(rep)
            if rep.errors:
                break
            now = time.perf_counter()
            enough = untraced and (traced or not trace)
            if enough and now + (now - start) > deadline:  # the next one would overrun
                break

    result["errors"] = [e for rep in reps for e in rep.errors]
    result["attempted"] = len(reps) * sum(cell["rounds"] for cell in cells)
    result["failed"] = result["attempted"] - sum(r.ok_rounds for rep in reps for r in rep.records)
    result["correct"] = not result["errors"] and result["failed"] == 0
    result["repetitions"] = {"traced": len(traced), "untraced": len(untraced)}
    if not result["correct"]:
        return result

    if trace:
        values, units = _per_layer(traced, untraced), layer_units()
    else:
        values, units = _end_to_end(untraced, run_configs, shard_sizes, reference, result), E2E_UNITS
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return result


def _per_layer(traced, untraced) -> dict[str, float]:
    values = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    values["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in untraced)
    )
    return values


def _end_to_end(untraced, run_configs, shard_sizes, reference, result) -> dict[str, float]:
    # every time is scaled to reference speed by the run's median probe
    scale = speed.scale([p for rep in untraced for p in rep.probes])
    # round r of a workload is round r of every cell: summing keeps one
    # sample per round index, where pooling cells of unlike cost (adam and
    # sgd in grid-slice) would put the median between two clusters
    rounds = [
        [scale * sum(per_cell) for per_cell in zip(*(record.durations_s for record in rep.records))]
        for rep in untraced
    ]
    samples = sum(
        shard_sizes[i][client] * run_configs[i].epochs
        for rep in untraced
        for i, record in enumerate(rep.records)
        for ids in record.participants
        for client in ids
    )
    result["round_samples"] = [len(r) for r in rounds]
    result["setup_samples"] = sum(len(rep.setup_s) for rep in untraced)
    setup_s = statistics.median(s for rep in untraced for s in rep.setup_s)
    run_s = statistics.median(rep.run_s for rep in untraced)
    result["wall"] = {"setup_s": setup_s, "run_s": run_s, "speed_scale": scale}
    # percentiles are taken per repetition and their median reported, so that
    # a slow stretch of the machine covering a minority of the repetitions
    # does not set the tail
    return {
        "setup_s": scale * setup_s,
        "run_s": scale * run_s,
        "round_s.p50": statistics.median(statistics.median(r) for r in rounds),
        "round_s.p90": statistics.median(_p90(r) for r in rounds),
        "samples_per_s": samples / sum(map(sum, rounds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_accuracy": statistics.fmean(accuracies[-1] for accuracies in reference),
        "rounds_ok_ratio": 1.0 - result["failed"] / result["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    cells = json.loads(args.cells.read_text())
    result = measure(cells, args.seconds, bool(args.trace), args.workdir)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
