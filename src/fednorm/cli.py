"""Command-line driver: run experiments and compare finished runs.

``run`` executes a JSON-configured experiment, streaming one metrics.csv row
per participating client per round plus a client_id=-1 summary row, and writes
run.json only after the whole run succeeded.  A run whose set-up fails leaves
the output directory as it was; once set-up succeeds, an earlier run's
run.json is removed before the first round.  ``compare`` reads two such output
directories and reports accuracy deltas and rounds-to-target.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import config as config_mod
from . import simulation
from .config import ConfigError
from .nn import TrainingDiverged
from .strategies import STRATEGY_KINDS

CSV_HEADER = [
    "round", "accuracy", "loss", "client_id",
    "lambda", "nu", "u", "cos_local_global", "duration_ms",
]

# accuracy comparisons tolerate float noise at this level
TARGET_EPS = 1e-12


def _fmt(value: float) -> str:
    return repr(float(value))


def _bool_flag(text: str) -> bool:
    """``config.parse_bool_flag`` as an argparse type, so that its message,
    not the function's name, reaches the user."""
    try:
        return config_mod.parse_bool_flag(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fednorm",
        description="Federated-learning simulator with contribution-normalized aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, metavar="PATH", help="JSON run configuration")
    run.add_argument("--strategy", choices=STRATEGY_KINDS, help="override strategy.kind")
    run.add_argument(
        "--normalize", type=_bool_flag, metavar="BOOL",
        help="toggle contribution normalization",
    )
    run.add_argument("--temperature", type=float, metavar="REAL", help="softmax temperature")
    run.add_argument("--alpha", type=float, metavar="REAL", help="dirichlet concentration")
    run.add_argument("--clients", type=int, metavar="INT", help="number of clients")
    run.add_argument("--rounds", type=int, metavar="INT", help="number of rounds")
    run.add_argument("--seed", type=int, metavar="INT", help="master seed")
    run.add_argument("--out", metavar="DIR", help="output directory")

    cmp = sub.add_parser("compare", help="compare two finished run directories")
    cmp.add_argument("run_a", help="first run directory")
    cmp.add_argument("run_b", help="second run directory")
    cmp.add_argument("--out", default="compare.json", metavar="PATH", help="where to write the comparison")
    return parser


def _summary(accuracies: list[float], losses: list[float]) -> dict:
    """A run's round count, final and best accuracy and final loss; None after 0 rounds."""
    return {
        "rounds": len(accuracies),
        "final_accuracy": accuracies[-1] if accuracies else None,
        "best_accuracy": max(accuracies, default=None),
        "final_loss": losses[-1] if losses else None,
    }


def cmd_run(args) -> int:
    cfg = config_mod.load(args.config, args)
    started = time.perf_counter()
    # a set-up error must leave the output directory, and an earlier run in it, as it was
    federation = simulation.build(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    # an earlier run's summary must not sit beside this run's metrics if it fails
    (outdir / "run.json").unlink(missing_ok=True)
    with open(outdir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)

        def on_report(report):
            duration_ms = _fmt(report.duration_s * 1000.0)
            shared = [report.round_index, _fmt(report.accuracy), _fmt(report.loss)]
            for cm in report.clients:
                writer.writerow(
                    shared
                    + [cm.client_id, _fmt(cm.lam), _fmt(cm.nu), _fmt(cm.u),
                       _fmt(cm.cos_local_global), duration_ms]
                )
            writer.writerow(shared + [-1, "", "", "", "", duration_ms])
            fh.flush()
            print(
                f"round {report.round_index}: accuracy={report.accuracy:.4f} "
                f"loss={report.loss:.4f} clients={len(report.clients)}"
            )

        reports = federation.run(cfg.rounds, on_report)

    summary = {
        **_summary([r.accuracy for r in reports], [r.loss for r in reports]),
        "duration_s": time.perf_counter() - started,
    }
    payload = {"config": cfg.to_dict(), "summary": summary}
    (outdir / "run.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {outdir / 'metrics.csv'} and {outdir / 'run.json'}")
    return 0


def _read_round_summaries(run_dir) -> list[tuple[int, float, float]]:
    path = Path(run_dir) / "metrics.csv"
    if not path.exists():
        raise ConfigError(f"missing metrics file: {path}")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ConfigError(f"{path}: metrics schema mismatch, header {header}")
        for row in reader:
            try:
                if int(row[3]) == -1:
                    rows.append((int(row[0]), float(row[1]), float(row[2])))
            except (IndexError, ValueError):
                raise ConfigError(f"{path}: line {reader.line_num}: malformed row {row}") from None
    if not rows:
        raise ConfigError(f"{path}: contains no summary rows")
    rows.sort()
    return rows


def _rounds_to_target(accuracies: list[float], target: float):
    """1-based round count at which an accuracy first reaches the target."""
    for i, acc in enumerate(accuracies):
        if acc >= target - TARGET_EPS:
            return i + 1
    return None


def cmd_compare(args) -> int:
    rows_a = _read_round_summaries(args.run_a)
    rows_b = _read_round_summaries(args.run_b)
    acc_a = [r[1] for r in rows_a]
    acc_b = [r[1] for r in rows_b]
    common = min(len(acc_a), len(acc_b))
    deltas = [acc_a[i] - acc_b[i] for i in range(common)]
    result = {
        "run_a": {"path": str(args.run_a), **_summary(acc_a, [r[2] for r in rows_a])},
        "run_b": {"path": str(args.run_b), **_summary(acc_b, [r[2] for r in rows_b])},
        "final_accuracy_delta": acc_a[-1] - acc_b[-1],
        "per_round_accuracy_delta": deltas,
        "rounds_to_target": {
            "a_reaches_b_final": _rounds_to_target(acc_a, acc_b[-1]),
            "b_reaches_a_final": _rounds_to_target(acc_b, acc_a[-1]),
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"run_a: final={acc_a[-1]:.4f} best={max(acc_a):.4f} rounds={len(acc_a)}")
    print(f"run_b: final={acc_b[-1]:.4f} best={max(acc_b):.4f} rounds={len(acc_b)}")
    print(f"final accuracy delta (a-b): {acc_a[-1] - acc_b[-1]:+.4f}")
    for side, rounds in result["rounds_to_target"].items():
        print(f"{side}: {'never' if rounds is None else f'round {rounds}'}")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except (ConfigError, ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
