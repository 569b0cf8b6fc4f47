#!/usr/bin/env python3
"""Print every metric of one workload by name, with its unit, and the layer table.

Runs the benchmark twice, untraced (end-to-end metrics) and traced
(per-layer metrics and the layer table), from the repository root::

    python3 perfbench/show.py --workload report-cold-j2 --seed 0

Exits non-zero when either run fails its correctness checks.
"""

import argparse
import json
import os
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args, trace: int) -> tuple[dict, list[str]]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
        text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py --trace {trace} exited with {done.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    untraced, _ = run(args, 0)
    traced, traced_lines = run(args, 1)
    print(f"workload {args.workload}  seed {args.seed}")
    for title, result, declared in (
        ("end-to-end (untraced)", untraced, spec.END_TO_END),
        ("per-layer (traced)", traced, spec.PER_LAYER),
    ):
        print(f"\n{title}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, (unit, better, *_bound) in declared.items():
            metric = result["metrics"][name]
            print(f"  {name:<30} {metric['value']:>16.6g} {unit:<8} "
                  f"({better} is better)")
    table = [line for line in traced_lines if not line.startswith("digest ")]
    print("\nlayer table (traced run)\n" + "\n".join(table))
    return 0 if untraced["correct"] and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
