"""One workload in a fresh interpreter, started by run.py.

Imports vortexw from the checkout's src/ (PYTHONPATH), builds the seeded
operations, runs one warm-up operation and reports the set-up time: from
``--t0`` (the parent's CLOCK_MONOTONIC reading just before it started this
process) to here. In ``--mode setup`` it stops there. In ``--mode run`` it
then runs whole passes, one operation at a time, until the operations have
taken ``--seconds``; with ``--trace 1`` it runs half that untraced and
then as many passes again traced. The last stdout line is a JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

WARMUP_SEED = 0


class Runner:
    """Runs operations through cli.run and checks every output. An output
    equal to one already checked for the same operation (by digest) takes
    that verdict; the program's output is deterministic."""

    def __init__(self, cli, workloads):
        self.cli = cli  # cli.run is looked up per call: the tracer may replace it
        self.workloads = workloads
        self.verdicts = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.errors = []

    def execute(self, key, op, count=True) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.run(list(op.argv))
            except Exception as exc:  # noqa: BLE001 - an escaped exception is a wrong output
                rc = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        text, etext = out.getvalue(), err.getvalue()
        digest = hashlib.sha256(f"{rc!r}\0{text}\0{etext}".encode()).hexdigest()
        seen = self.verdicts.get(key)
        if seen is not None and seen[0] == digest:
            verdict = seen[1]
        else:
            try:
                verdict = op.check(rc, text, etext)
            except (self.workloads.CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
                verdict = "wrong"
                self.errors.append(f"{' '.join(op.argv)[:160]}: {type(exc).__name__}: {exc}")
            self.verdicts[key] = (digest, verdict)
        if verdict == "wrong":
            self.correct = False
        if count:
            self.attempted += 1
            self.failed += verdict == "failed"
        return dt

    def passes(self, ops, n=None, seconds=None) -> list:
        """Whole passes: n of them, or until the operations took seconds."""
        times = []
        done = 0
        while done < n if n is not None else (done == 0 or sum(times) < seconds):
            times.extend(self.execute(i, op) for i, op in enumerate(ops))
            done += 1
        return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    import vortexw
    from vortexw import cli

    src = os.path.join(os.getcwd(), "src", "vortexw")
    if os.path.dirname(os.path.abspath(vortexw.__file__)) != src:
        sys.stderr.write(f"vortexw imported from {vortexw.__file__}, not {src}\n")
        return 3
    import workloads

    ops = workloads.build(args.workload, args.seed)
    runner = Runner(cli, workloads)
    runner.execute("warmup", workloads.build(args.workload, WARMUP_SEED)[0], count=False)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "backend": vortexw.BACKEND}

    if args.mode == "run" and not args.trace:
        times = runner.passes(ops, seconds=args.seconds)
        result["passes"] = len(times) // len(ops)
        result["metrics"] = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    elif args.mode == "run":
        import tracer

        plain = runner.passes(ops, seconds=args.seconds / 2.0)
        n = len(plain) // len(ops)
        t = tracer.Tracer()
        t.install()
        traced = runner.passes(ops, n=n)
        result["passes"] = n
        result["metrics"] = t.per_layer(n)
        result["metrics"]["trace.overhead_s"] = {"value": (sum(traced) - sum(plain)) / n, "unit": "s"}
        result["metrics"]["trace.overhead_ratio"] = {"value": sum(traced) / sum(plain) - 1.0, "unit": "ratio"}

    result.update(correct=runner.correct, attempted=runner.attempted, failed=runner.failed, errors=runner.errors[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
