"""Request-level benchmark of the SW26010 DGEMM reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload gemm_ragged --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

``--trace 0`` prints the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced one (names, units and
meanings in ``perfbench/README.md``).  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
output is checked; a wrong output, a reconciliation mismatch or an
invalid run exits non-zero.  ``--workload all`` runs every workload,
untraced then traced, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("gemm_aligned", "gemm_ragged", "serve_mixed")


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, InvalidRun

    spec = _spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    try:
        outcome = WORKLOADS[workload](workload, seed, seconds, trace)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    names = {m["name"] for m in wanted}
    unknown = sorted(set(outcome.metrics) - names)
    if trace:
        # a layer this workload never reaches reads 0
        outcome.metrics = {name: outcome.metrics.get(name, 0.0)
                           for name in names}
    missing = sorted(names - set(outcome.metrics))
    if missing or unknown:
        print(f"error: metrics not measured {missing}, not declared "
              f"{unknown}", file=sys.stderr)
        return 2
    mode = "traced" if trace else "untraced"
    print(f"{workload} seed={seed} seconds={seconds:g} ({mode})")
    for key, value in outcome.notes.items():
        print(f"  {key:32s} {value}")
    for m in wanted:
        print(f"  {m['name']:32s} {outcome.metrics[m['name']]:.6g} {m['unit']}")
    correct = outcome.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]),
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", f"{seconds:g}", "--trace", trace],
                check=False,
            )
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
