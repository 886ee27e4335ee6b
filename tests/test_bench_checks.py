"""The benchmark's own output checks, run on whole passes of each workload: an
operation whose output vwbench would count as wrong fails here first."""
import contextlib
import importlib
import io
from pathlib import Path

import pytest

from vortexw import cli

VWBENCH = Path(__file__).resolve().parents[1] / "vwbench"


def check_pass(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(VWBENCH))
    workloads = importlib.import_module("workloads")
    for op in workloads.build(workload, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
        assert op.check(rc, out.getvalue(), err.getvalue()) == "ok", op.argv


@pytest.mark.parametrize("workload", ["certify", "expand", "landscape", "manyvortex"])
def test_seed_0_pass_checks_ok(monkeypatch, workload):
    check_pass(monkeypatch, workload, 0)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_certify_pass_checks_ok(monkeypatch, seed):
    # nd is checked against refs.single_vortex_maximizer and a polar-grid
    # global maximum, so more seeds give the maximizer more maps
    check_pass(monkeypatch, "certify", seed)
