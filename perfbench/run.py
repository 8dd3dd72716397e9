"""The vSCC benchmark: one command, three workloads, checked outputs.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload bt_a225 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off;
``--trace 1`` makes the separate traced run that attributes host time
and counts to the layers. Human-readable lines come first; the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"run_s": {"value": 5.2, "unit": "s"}, ...}}

The exit code is 0 when the outputs were correct, 1 when a check
failed, and 2 when the program under test cannot be found. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bt_a225", "rpc_bursty", "serve_mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "serve_mixed":
        import serve_mixed

        return serve_mixed.run(seed, seconds, trace)
    import batch

    module = __import__(name)
    work = module.workload(seed)
    return batch.traced(work) if trace else batch.measure(work, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import pinned_env
    from metrics import END_TO_END, PER_LAYER

    with pinned_env() as hidden:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    unknown = sorted(set(outcome.metrics) - set(wanted))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {unknown}")

    metrics = {}
    for name, unit in wanted.items():
        # Per-layer metrics of a layer the workload bypasses read 0.
        value, got_unit = outcome.metrics.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, catalogue says {unit!r}")
        if not args.trace and name not in outcome.metrics:
            outcome.fail(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if hidden:
        print(f"ignored environment: {sorted(hidden)}")
    for line in outcome.notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
