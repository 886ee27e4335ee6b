"""The benchmark's own output checks, run on whole passes of each workload: an
operation whose output vwbench would count as wrong fails here first."""
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexw import cli, expansion
from vortexw.harmonic import AnnulusQuadrature

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


def installed_tracer(monkeypatch):
    """vwbench's tracer, installed for this test only, and vwbench's
    workloads module."""
    monkeypatch.syspath_prepend(str(VWBENCH))
    tracer = importlib.import_module("tracer")
    # install rebinds functions in every vortexw module: record each binding
    # first, so that monkeypatch puts them back after the test
    for name, mod in list(sys.modules.items()):
        if name == "vortexw" or name.startswith("vortexw."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj):
                    monkeypatch.setattr(mod, attr, obj)
    monkeypatch.setattr(AnnulusQuadrature, "build", AnnulusQuadrature.__dict__["build"])
    trace = tracer.Tracer()
    trace.install()
    return trace, importlib.import_module("workloads")


def test_tracer_counts_every_field_kernel_call(monkeypatch):
    # the tracer finds the kernel as a module global of expansion; a local
    # alias or an inlined kernel would leave its counters at 0
    trace, workloads = installed_tracer(monkeypatch)

    counts = {"calls": 0, "points": 0}
    traced = expansion.grad_phi_field

    def counting_kernel(z, *rest):
        counts["calls"] += 1
        counts["points"] += np.size(z)
        return traced(z, *rest)

    monkeypatch.setattr(expansion, "grad_phi_field", counting_kernel)
    # three vortices at |a| <= 0.37 and four radii: the unit circle and the
    # three core circles of each radius in one call, every rule converged
    # at the first M_START nodes
    op = workloads.build("expand", 7)[3]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(op.argv))
    assert op.check(rc, out.getvalue(), err.getvalue()) == "ok"
    assert counts["calls"] == 1
    assert counts["points"] == expansion.M_START * (1 + 4 * 3)
    kernel = trace.stats["kernels.grad_phi_field"]
    assert (kernel.calls, kernel.points) == (counts["calls"], counts["points"])
    assert trace.stats["harmonic.AnnulusQuadrature.build"].calls == 0


def test_certify_operation_builds_three_configurations(monkeypatch):
    # an nd at trunc 16 builds one configuration for the maximizer's
    # report and one for each of the two operator assemblies (N and 2N);
    # the maximizer's other converged starts get no report
    trace, workloads = installed_tracer(monkeypatch)
    op = workloads.build("certify", 7)[2]
    assert op.argv[-2:] == ("--trunc", "16")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(op.argv))
    assert op.check(rc, out.getvalue(), err.getvalue()) == "ok"
    per_layer = trace.per_layer(1)
    assert per_layer["core.validate_configuration.calls"]["value"] == 3
    assert per_layer["critpoint.find_max_hat_w.calls"]["value"] == 1
    assert per_layer["transport.transport_w_hess.calls"]["value"] == 1
