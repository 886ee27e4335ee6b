"""The benchmark's own output checks, run on one pass of each workload: an
operation whose output vwbench would count as wrong fails here first."""
import contextlib
import importlib
import io
from pathlib import Path

import pytest

from vortexw import cli

VWBENCH = Path(__file__).resolve().parents[1] / "vwbench"


@pytest.mark.parametrize("workload", ["certify", "expand", "landscape", "manyvortex"])
def test_seed_0_pass_checks_ok(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(VWBENCH))
    workloads = importlib.import_module("workloads")
    for op in workloads.build(workload, 0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
        assert op.check(rc, out.getvalue(), err.getvalue()) == "ok", op.argv
