"""fednorm's benchmark: measure one workload, print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload grid-slice --seed 0 --seconds 40 --trace 0

The workload's inputs are made from ``--seed`` under ``.perfbench/`` and
removed afterwards; their making is not timed.  The measuring happens in a
fresh child process (``perfbench/measure.py``) that imports the program from
``src/``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted``/``failed`` count rounds.  The exit code is 0 only when
every output check passed.  A copy of the full result, with machine facts and
bit fingerprints, is written to ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread for this process and the measuring one it starts: on a
# 2-core machine two OpenBLAS threads made runs of one seed spread 8-10% in
# run time, against under 1% with one.  Set before numpy loads its BLAS.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    os.environ.update({name: "1" for name in BLAS_THREAD_VARIABLES})

import numpy as np  # noqa: E402

from perfbench import workloads  # noqa: E402

DEADLINE_S = 170  # the command must end within 180 s
OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy is linked against, None if unknown."""
    from numpy._core import _multiarray_umath

    # dlsym on numpy's extension also searches the libraries it links
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in OPENBLAS_THREAD_SYMBOLS:
        getter = getattr(lib, symbol, None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="fednorm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail(f"--seed must be >= 0, got {args.seed}")
    if not args.seconds > 0:
        return fail(f"--seconds must be positive, got {args.seconds}")
    if not (ROOT / "src" / "fednorm" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'fednorm'} is missing")

    facts = machine_facts()
    print("machine: " + json.dumps(facts), flush=True)
    if facts["blas_threads"] is not None and facts["blas_threads"] > facts["nproc"]:
        return fail(
            f"BLAS uses {facts['blas_threads']} threads on {facts['nproc']} cores; "
            "set OPENBLAS_NUM_THREADS to at most nproc"
        )

    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cells = workloads.make_cells(args.workload, args.seed, workdir)
        listing = []
        for i, cell in enumerate(cells):
            path = workdir / f"cell-{i}.json"
            path.write_text(json.dumps(cell.config, indent=1))
            listing.append({"label": cell.label, "path": str(path), "rounds": cell.config["rounds"]})
        (workdir / "cells.json").write_text(json.dumps(listing))
        result_path = workdir / "result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "perfbench.measure",
            "--cells", str(workdir / "cells.json"), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result_path),
        ]
        try:
            child = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                timeout=DEADLINE_S - (time.monotonic() - started),
            )
        except subprocess.TimeoutExpired:
            return fail(f"measuring did not finish within {DEADLINE_S} s", 1)
        if child.returncode != 0 or not result_path.exists():
            return fail(f"measuring process exited with code {child.returncode}", 1)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["machine"] = facts
    result["workload"] = args.workload
    result["seed"] = args.seed
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )

    for error in result["errors"][:20]:
        print(f"check failed: {error}")
    if result["missing_spans"]:
        print(f"not found in the program, reported as zero: {', '.join(result['missing_spans'])}")
    for fp in result.get("fingerprints", []):
        print(f"fingerprint {args.workload} {fp['cell']}: params={fp['params']} accuracies={fp['accuracies']}")
    if "round_samples" in result:
        per_rep = result["round_samples"]
        print(f"samples: {sum(per_rep)} rounds timed in {len(per_rep)} repetitions of "
              f"{per_rep[0]}, {result['setup_samples']} set-ups timed")
    print(f"repetitions: {result['repetitions']}")
    if "wall" in result:
        wall = result["wall"]
        print(f"unscaled wall times: setup_s = {wall['setup_s']!r} s, run_s = {wall['run_s']!r} s; "
              f"times scaled by {wall['speed_scale']!r} to reference speed")
    for name, metric in result.get("metrics", {}).items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result.get("metrics", {}),
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
