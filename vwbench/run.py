"""vortexw benchmark: one workload, one seed, one run.

    python3 vwbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; vortexw is imported from src/,
as the test suite does. The workload runs in fresh interpreters started
here (BLAS pinned to one thread): four that only set up, then one that
sets up and measures. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Exit 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 4
DEADLINE_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("VORTEXW_THREADS", None)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(args, mode: str, env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--t0", repr(t0),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vortexw", "cli.py")):
        sys.stderr.write("vwbench: run from the root of a vortexw checkout (no src/vortexw here)\n")
        return 2
    self_test = refs.self_test()
    for name, ok in self_test:
        if not ok:
            sys.stderr.write(f"vwbench: reference self-test failed: {name}\n")

    env = child_env(root)
    deadline = start + DEADLINE_S
    try:
        setups = [] if args.trace else [spawn(args, "setup", env, deadline) for _ in range(SETUP_ONLY_RUNS)]
        main_run = spawn(args, "run", env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        sys.stderr.write(f"vwbench: {exc}\n")
        return 2

    correct = all(ok for _, ok in self_test) and main_run["correct"] and all(s["correct"] for s in setups)
    metrics = main_run["metrics"]
    if not args.trace:
        samples = [s["setup_s"] for s in setups] + [main_run["setup_s"]]
        metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"}, **metrics}
    for err in main_run["errors"]:
        sys.stderr.write(f"vwbench: wrong output: {err}\n")

    print(
        f"vwbench {args.workload} seed={args.seed} trace={args.trace} backend={main_run['backend']} "
        f"passes={main_run['passes']} attempted={main_run['attempted']} failed={main_run['failed']} "
        f"correct={correct}"
    )
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"], "failed": main_run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
