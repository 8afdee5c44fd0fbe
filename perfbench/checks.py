"""Output checks on a finished run directory, and the bit fingerprint.

Every round in ``metrics.csv`` must satisfy the invariants the method
promises.  A round that breaks one, or that never appears because the run
stopped early, counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


@dataclass
class RunRecord:
    """What one ``fednorm run`` wrote, read back from its metrics.csv."""

    accuracies: list[float] = field(default_factory=list)
    durations_s: list[float] = field(default_factory=list)
    participants: list[list[int]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bad_rounds: set[int] = field(default_factory=set)

    @property
    def ok_rounds(self) -> int:
        return len(self.accuracies) - len(self.bad_rounds)


def _floats(rows, column):
    return [float(r[column]) for r in rows]


def _round_problems(clients, summary, normalize, expected_k) -> list[str]:
    problems = []
    k = len(clients)
    if k != expected_k:
        problems.append(f"{k} participants, expected {expected_k}")
    u = _floats(clients, "u")
    if abs(math.fsum(u) - 1.0) > TOLERANCE:
        problems.append(f"u sums to {math.fsum(u)!r}")
    if normalize:
        lam_sum = math.fsum(_floats(clients, "lambda"))
        if abs(lam_sum - (k - 1)) > TOLERANCE:
            problems.append(f"lambda sums to {lam_sum!r}, expected {k - 1}")
    elif u != _floats(clients, "nu"):
        problems.append("u differs from nu with normalize off")
    loss = float(summary["loss"])
    accuracy = float(summary["accuracy"])
    if not math.isfinite(loss):
        problems.append(f"loss is {loss!r}")
    if not 0.0 <= accuracy <= 1.0:
        problems.append(f"accuracy is {accuracy!r}")
    return problems


def read_run(out_dir: Path, config) -> RunRecord:
    """Parse and check ``out_dir/metrics.csv`` against the run's RunConfig.

    Per round: the participant count is ceil(participation * clients), the
    weights u sum to 1, the factors lambda sum to K-1 when normalize is on,
    u equals nu bit for bit when it is off, and the test loss is finite.
    """
    rounds = config.rounds
    record = RunRecord()
    path = Path(out_dir) / "metrics.csv"
    if not path.exists():
        record.failures.append(f"{path} missing")
        return record
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_round: dict[int, list[dict]] = {}
    for row in rows:
        by_round.setdefault(int(row["round"]), []).append(row)
    if set(by_round) - set(range(rounds)):
        record.failures.append(f"rounds outside 0..{rounds - 1}: {sorted(set(by_round) - set(range(rounds)))}")

    expected_k = math.ceil(config.participation * config.clients)
    for r in range(rounds):
        summary = [row for row in by_round.get(r, []) if int(row["client_id"]) == -1]
        if len(summary) != 1:
            break
        clients = [row for row in by_round[r] if int(row["client_id"]) >= 0]
        problems = _round_problems(clients, summary[0], config.normalize, expected_k)
        if problems:
            record.bad_rounds.add(r)
            record.failures.extend(f"round {r}: {p}" for p in problems)
        record.accuracies.append(float(summary[0]["accuracy"]))
        record.durations_s.append(float(summary[0]["duration_ms"]) / 1000.0)
        record.participants.append([int(row["client_id"]) for row in clients])
    if len(record.accuracies) < rounds:
        record.failures.append(f"only {len(record.accuracies)} of {rounds} rounds written")
    return record


def sha256_of(values) -> str:
    """SHA-256 of the values as little-endian float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()
