"""The benchmark's own output checks, run on whole passes of each workload: an
operation whose output vwbench would count as wrong fails here first."""
import contextlib
import hashlib
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


# sha256 of repr((exit code, stdout, stderr)) of every operation of seeds 0
# and 1 of each workload, in pass order, recorded at commit 27100a9, and of
# landscape seeds 2-5, recorded at commit 4bb803a: a change meant to keep
# the output bytes must keep these
PARENT_DIGESTS = {
    ("certify", 0): (
        "6d6c554b1af0266e28879a609dbae8a92e9bd29f2f3ab41670f6a071612f5f43",
        "65dbaa8a405732dd5abe067dcea4c1c4a26de625e3b5d0d9af179101abac4251",
        "87f2c1c02d524cf1e11f020715a48b1747644583f76b4c93684110f35b83889d",
        "8a634f12080db3c135ba0b65178d2b9b905c43c3f60029b6cb070d228222c941",
        "fdc18c194844f55bdb45c5e240cc017c61aa57809fad95d2cf8e22ef2873b2d8",
        "6d6c554b1af0266e28879a609dbae8a92e9bd29f2f3ab41670f6a071612f5f43",
    ),
    ("certify", 1): (
        "6d6c554b1af0266e28879a609dbae8a92e9bd29f2f3ab41670f6a071612f5f43",
        "b2649678af30deca28481c5407516a10560a584c417986fe8fbda559442985bb",
        "1641e80b1d8313264df2092f6b682dc358081374e50fbee21cc0734ae7dd6b83",
        "fb142806b0f55850a6097112d1dcf53d498b0af03840355251507a021eb6eaa4",
        "92343ded8bd2fa8fed58b302aba0a9318331c97e21bf8b5eb33b69e4cdad0b30",
        "6d6c554b1af0266e28879a609dbae8a92e9bd29f2f3ab41670f6a071612f5f43",
    ),
    ("expand", 0): (
        "601372dd817d30ea89c4753d84fb586f86426e3d8fe2bb5d00da9ee4d440ef42",
        "ca2722b2867dddc46809ca1319d29e0e5f16b6457969de3495ad4927ca4ba6bf",
        "24e2ec8b398861df344b4d8a76475e79ca0f983e2a8283422c937bd9af8bafaf",
        "f8f62932f70204a15733336172693d1835c874a60de423edbfd982feabb40f27",
    ),
    ("expand", 1): (
        "14313d88c225de83f26e8b6c5336b4149f807d5e6222a932d1da26397f6a0e2b",
        "b62caffc983cbf3cf0a801822e2fb0ff331ace83b67b8f8ca1db7c26cc1169c0",
        "155318407aad20478a0c21b4f0c60d5aa92a453286cc4763daf748d1fa5cd013",
        "362a2c5a6b5476584a6a5de76bc84bbce211967c80be7b61e55f331b24eb3501",
    ),
    ("landscape", 0): (
        "cf2a30876e442dd84e8367d43dc08bb5e45978b459dc20e49e8e4ee01c238db4",
        "893cde248a46657e56c9562b32a2ab5fbf76b4ff1bb82dc44efaaed0afac67fc",
        "27f1142fe48fc5dec03fad18cbd174b19fd10c861f56460e5b00ae298e6f6152",
        "51d98667b3fea398489d9879429eca9fa41af4e21862b2d85dd3b4ac7c5ec742",
        "f39890a66b1987aede2d9f235880a50d539ac83b56061f240df69d6fff8bfa77",
    ),
    ("landscape", 1): (
        "6c22ba10e1a2a963204d2ae770ac70c3fd6a16c713a57c628983b94987e38523",
        "6acded84e935d33c87c30545127fbb33da817fa92f5f9f64e625d8c6a45ff3b9",
        "f95f6393ae915d169b9466047e7b84c5c69c9a24789d367575216395a02da4a2",
        "c16d7f55833080271db58e6fc314ebb160f2779de64324d5ebafcf4f173cc6d7",
        "da13335002f034d24f78b52a62e5fa1851302a6958e1ba5c8a57bf60de1ee00a",
    ),
    ("landscape", 2): (
        "8caa460f7b4001ac4138278256f48872697b9d76070847a9b8287a03d4c71928",
        "46e203596115f477c9857d7f514fb1961c3c14195a2bd5e79f3c2b85e2e8cb60",
        "c23e1f25ff0c4bdbbef47ff05858fe7006025e414446d2cd2f78b3b874457edf",
        "d97089af5a8a402e65f895a04479f27bc95ecdca6d0c54b22ecae7a2885c63dd",
        "343d78ace68d7f21cea5b341345a425aa742f324bda79c688810b5abe4dab364",
    ),
    ("landscape", 3): (
        "bb30ca641c8b24b02939c0c935e934ec85b3c437a0efa1c6f5d8fe3b5eb06c01",
        "251b90796be5c507b4b4ce6a6afb23e4b26e753bb0ee8faeeadc33a74c5d410d",
        "1c5c7ae6d1211f74910403eabea6183c6adda84edda013d1ec88df7ffa6c63b0",
        "bcdad93c2008ade531327317e56f9b341e9d21cc1724654d68283c887ddb33fb",
        "421616d6c5400d15997a458f84d36d99fe33fc5c6c7bca87f45a5ad9e09c2ce3",
    ),
    ("landscape", 4): (
        "1f49509ab2d01103929325301fb482069c19f91827a8ac3ede57fbe53c40c83e",
        "95d8f11961e0e31b993ac70ece301923c8e7d561d4a4d3bd544004bea5250720",
        "82ffc176ab17f716929136e8cbbdf85a05c10c57e6209c52b5d4337ffef756e2",
        "f91302ad4aa646bf8f6792493d809e28cb4f3bc69bf72a2e58556c2d962a2edd",
        "f3c1744c607ad7c77d3fb00486e227386cdf3b91a5018fec5868e59caf7d7f47",
    ),
    ("landscape", 5): (
        "7d372c2be4ab9a4aff65634145ccb3d4881547f7e6152d539f09087277f78601",
        "42af6ea51d9f2548c5de4003abf916714b8920fef02f67d15560ad02c0761142",
        "79b998fdf4246a2708757c9c7650499eb1d5980da94cf9d9c522b519b62edabd",
        "7f5cd4db943c36dcfc4d99a3926efa8e09690f8dbd1acf5199a46fadb7b87900",
        "f9bcd95ebfc52f43f06ab70ca15fb814366b9b39ae6ee72d7fa369f57ffb160c",
    ),
    ("manyvortex", 0): (
        "b5e24ce32fe7f9d42506f8d30c057343cf666acbf7b8c11e0b2d9e556b956780",
        "bb2139a2fc8a475ae66000b652c987b1a03056384840a375572a16ea04c60c77",
        "6832044089a75bf448103e3132f322704e3bd40d369bc65339cf2c9bf0e3ae71",
        "ec344d02ab7eb2fa1d512b3c9cbfb5c207d8023e97385137f4fe4f92c8b351fa",
        "deb25f0ef8095b85173a37a57de948a2f50ad2daeb1ae888c038bc5737e12fd1",
        "59e877004c1d41d787869a41247eaf1b879b004d4f164e26de2a765e1b0d704f",
        "b6650996df2a454337861dcf87327d9045a8928a0d9c629228e28427d782782a",
        "e06c2bc3fc15546afac6b06c33e4708cf8648b896fdf27989ebfb400e5d55ceb",
        "e0d41b67c814d41d4ce392b23cb01a2a3ae0186e7a3639f0d2157234accd82bc",
        "99a45d2712cef2cd77b4c36cc9eb5fa03cc51a83356877d5c57c7aa6d8177fe8",
        "5b7cdfa23fac66300561bc832c9ea085dc43629cccc3e33dd5515ad22b665475",
        "70e1a35fa31cf1344ea670f6167bd458fdfc391a97af95ade3cd3e440e75d994",
        "234251af9c47e333651085c1d263ba897d92e00feaf793a2d7d68864361f081c",
    ),
    ("manyvortex", 1): (
        "035b8e58147216427c11786cf0844467fb55cc3391fd7a5825c9f1b1b176c76e",
        "2b8d6fd5556feca5560ef78c24b1e94130aa414e69440677401fedffca9a4992",
        "0bae85c4f500d1e1400c134e3cdcf2c13df9ecca0d078478c6bc4722a93e2a9e",
        "13fad254b52f3f8c54b186a191e4c91d8e4ac74f0e793b7aaa880060cab4295b",
        "31801e6d59c332538ef446189c79fbe3b1cf64499a6fc0771ce2c84d2f42f48b",
        "4fe5d5f17abfc9d43cf7b6a8469c9cd608037db8c7269944e7458ff7c2a5c7e6",
        "f666197af998261a6f55c690cfc2958cc20ab7ec85c9b39f93c1ec0c4c7c2980",
        "64258b80f2bcbac9457b65c8a6fa06a1d4a0154fa3d5abef4811e062262f0e97",
        "902cb9b6bd9e17bb0b65b806e10ec75f967fe74bc652d63c910e2c4484f736ef",
        "19a6651983c89c0bd59485c428c07d65b63ba342670465d311603d5247a9b6d5",
        "e7e3e4c2a790b6a8c843739e3c6840261ebbc6992face663028302af1e527a06",
        "87def4fbf878817579fea9c50ecff5452ba155defb66e5eb79db9265680d3fd8",
        "022c41ad4aca94ccfcf0d145ebff6ca74f8868cc067a61db82bd9a708c1af924",
    ),
}


@pytest.mark.parametrize(("workload", "seed"), sorted(PARENT_DIGESTS))
def test_pass_bytes_match_the_recorded_digests(monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(VWBENCH))
    workloads = importlib.import_module("workloads")
    digests = []
    for op in workloads.build(workload, seed):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
        digests.append(hashlib.sha256(repr((rc, out.getvalue(), err.getvalue())).encode()).hexdigest())
    assert tuple(digests) == PARENT_DIGESTS[workload, seed]


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


def test_certify_operation_builds_two_configurations(monkeypatch):
    # an nd at trunc 16 builds one configuration for the maximizer's
    # report and one for the operator terms that both assemblies (N and 2N)
    # share; the maximizer's other converged starts get no report
    trace, workloads = installed_tracer(monkeypatch)
    op = workloads.build("certify", 7)[2]
    assert op.argv[-2:] == ("--trunc", "16")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(op.argv))
    assert op.check(rc, out.getvalue(), err.getvalue()) == "ok"
    per_layer = trace.per_layer(1)
    assert per_layer["core.validate_configuration.calls"]["value"] == 2
    assert per_layer["critpoint.find_max_hat_w.calls"]["value"] == 1
    assert per_layer["transport.transport_w_hess.calls"]["value"] == 1
