import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vortexw import (
    BOUNDARY_MARGIN,
    DEFAULT_TRUNC,
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    cli,
    core,
    h_half_seminorm_sq,
    hat_w,
    hat_w_grad,
    ndcheck,
    transport_hat_w,
    transport_hat_w_grad,
    transport_w,
    transport_w_grad,
)
from vortexw.cli import run

import reference
from reference import energies_at_twice_the_nodes, glue_signed_values, jsonable


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestEnergy:
    def test_trivial_vortex(self, capsys):
        code, out = capture(capsys, ["energy", "--map", "identity", "--vortex", "0,0,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["hat_w"] == 0.0
        assert payload["hat_w_grad"] == [0.0, 0.0]

    def test_offset_vortex(self, capsys):
        code, out = capture(capsys, ["energy", "--map", "identity", "--vortex", "0.5,0,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["hat_w"] == pytest.approx(np.pi * np.log(0.75))

    def test_deterministic_rerun(self, capsys):
        argv = ["energy", "--map", "0,1,0.05", "--vortex", "0.2,0.1,1"]
        _, first = capture(capsys, argv)
        _, second = capture(capsys, argv)
        assert first == second

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(
            json.dumps(
                {
                    "map": {"coeffs": [[0.0, 0.0], [1.0, 0.0]]},
                    "vortices": [{"re": 0.5, "im": 0.0, "degree": 1}],
                }
            )
        )
        code, out = capture(capsys, ["energy", "--config", str(conf)])
        assert code == 0
        assert json.loads(out)["hat_w"] == pytest.approx(np.pi * np.log(0.75))
        # flag overrides the file's vortex list
        code, out = capture(
            capsys, ["energy", "--config", str(conf), "--vortex", "0,0,1"]
        )
        assert json.loads(out)["hat_w"] == 0.0

    @pytest.mark.parametrize("degree, want", [(1.7, 2), (2.0, 2), (True, 2), ("1", 2), (1, 0)])
    def test_config_degree_must_be_an_integer(self, tmp_path, capsys, degree, want):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"vortices": [{"re": 0.5, "im": 0, "degree": degree}]}))
        code = run(["energy", "--config", str(conf)])
        captured = capsys.readouterr()
        assert code == want
        if want == 2:
            assert captured.err.startswith("error: vortex degree must be an integer")
            assert captured.out == ""
        else:
            assert json.loads(captured.out)["hat_w"] == pytest.approx(np.pi * np.log(0.75))

    def test_w_grad_includes_map_term(self, capsys):
        code, out = capture(
            capsys,
            ["energy", "--map", "0,1,0.1", "--vortex=0.3,0.1,1", "--vortex=-0.2,0.4,-1"],
        )
        assert code == 0
        points = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        degrees = (1, -1)
        f = ConformalPolyMap([0.0, 1.0, 0.1])
        ctx = DiscEnergyContext(VortexConfiguration(points, degrees), trunc=64)

        def w(p):
            return transport_w(f, ctx, VortexConfiguration(p, degrees))

        h = 1e-5
        fd = []
        for j in range(points.size):
            for step in (h, 1j * h):
                e = np.zeros(points.size, dtype=complex)
                e[j] = step
                fd.append((w(points + e) - w(points - e)) / (2 * h))
        np.testing.assert_allclose(json.loads(out)["w_grad"], fd, atol=1e-6)

    @pytest.mark.parametrize("coeffs", ["0,1e160", "0,1e308", "1e308,1e308"])
    def test_huge_affine_map(self, capsys, coeffs):
        # the boundary test must not overflow on a conformal map of any size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = capture(capsys, ["energy", "--map", coeffs, "--vortex", "0.5,0,1"])
        assert code == 0
        payload = json.loads(out)
        scale = float(coeffs.split(",")[1])
        assert payload["hat_w_domain"] == pytest.approx(
            np.pi * (np.log(0.75) + np.log(scale)), rel=1e-12
        )

    def test_translated_disc(self, capsys):
        # 1 + 1e-17 z rounds to 1; the domain is still a disc
        code, out = capture(capsys, ["energy", "--map=1e17,1", "--vortex=0.1,0,1"])
        assert code == 0
        _, disc = capture(capsys, ["energy", "--map=identity", "--vortex=0.1,0,1"])
        assert json.loads(out)["w"] == json.loads(disc)["w"] == -0.03157406128347026

    def test_leading_minus_values(self, capsys):
        glued = ["energy", "--map=-0.1,1", "--vortex=-0.2,0.4,1", "--base=-0.1,0.3,1"]
        split = ["energy", "--map", "-0.1,1", "--vortex", "-0.2,0.4,1", "--base", "-0.1,0.3,1"]
        code, first = capture(capsys, glued)
        assert code == 0
        assert capture(capsys, split) == (0, first)

    @pytest.mark.parametrize(
        "flag, value", [("--vort", "-0.2,0.4,1"), ("--ba", "-0.1,0.3,1"), ("--ma", "-1,1")]
    )
    def test_leading_minus_value_after_abbreviated_flag(self, capsys, flag, value):
        argv = ["energy", "--vortex=0.1,0.2,1"]
        code, glued = capture(capsys, argv + [f"{flag}={value}"])
        assert code == 0
        assert capture(capsys, argv + [flag, value]) == (0, glued)
        assert capture(capsys, argv)[1] != glued


def energy_payload(f, cfg, base, psi):
    """The energy payload composed from the public functions, one call per
    quantity, as energy wrote it before it shared the terms."""
    ctx = DiscEnergyContext(base, DEFAULT_TRUNC, psi)
    payload = {
        "hat_w": hat_w(cfg),
        "hat_w_grad": hat_w_grad(cfg),
        "w": transport_w(f, ctx, cfg),
        "w_grad": transport_w_grad(f, ctx, cfg),
        "psi_seminorm_sq": h_half_seminorm_sq(ctx.psi),
    }
    if not f.is_identity():
        payload["hat_w_domain"] = transport_hat_w(f, cfg)
        payload["hat_w_domain_grad"] = transport_hat_w_grad(f, cfg)
    return payload


class TestEnergyBytes:
    # energy evaluates each term once and sums the terms as the public
    # functions do, so its bytes are those of the one-call-per-quantity
    # composition

    MAP = [0.0, 1.0, 0.1, 0.02j]
    PSI = {"cos": [0.1, 0.05], "sin": [0.02]}

    @staticmethod
    def configuration(k, turn):
        rng = np.random.default_rng(k)
        pts, degrees = reference.alternating_polygon(k, 0.5)
        pts = pts * np.exp(1j * turn) + 0.01 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k))
        return VortexConfiguration(pts, degrees if k > 1 else (1,))

    @pytest.mark.parametrize("with_base", [False, True])
    @pytest.mark.parametrize("with_psi", [False, True])
    @pytest.mark.parametrize("with_map", [False, True])
    @pytest.mark.parametrize("k", [1, 16, 64])
    def test_matches_the_public_functions(self, capsys, k, with_map, with_psi, with_base):
        cfg = self.configuration(k, 0.0)
        base = self.configuration(k, 0.2) if with_base else cfg
        f = ConformalPolyMap(self.MAP if with_map else [0.0, 1.0])
        psi = FourierSeries.from_real(cos=self.PSI["cos"], sin=self.PSI["sin"], trunc=DEFAULT_TRUNC)
        argv = ["energy"] + [f"--vortex={p.real!r},{p.imag!r},{d}" for p, d in zip(cfg.points, cfg.degrees)]
        if with_map:
            argv.append("--map=" + ",".join(map(str, self.MAP)))
        if with_psi:
            argv += ["--psi", json.dumps(self.PSI)]
        else:
            psi = FourierSeries.zeros(DEFAULT_TRUNC)
        if with_base:
            argv += [f"--base={p.real!r},{p.imag!r},{d}" for p, d in zip(base.points, base.degrees)]
        code, out = capture(capsys, argv)
        assert code == 0
        want = energy_payload(f, cfg, base, psi)
        assert out == json.dumps(jsonable(want), indent=2, sort_keys=True) + "\n"

    def test_vortex_at_the_origin_on_a_map(self, capsys):
        cfg = VortexConfiguration([0.0], (1,))
        f = ConformalPolyMap(self.MAP)
        code, out = capture(capsys, ["energy", "--vortex=0,0,1", "--map=" + ",".join(map(str, self.MAP))])
        assert code == 0
        want = energy_payload(f, cfg, cfg, FourierSeries.zeros(DEFAULT_TRUNC))
        assert out == json.dumps(jsonable(want), indent=2, sort_keys=True) + "\n"
        assert '"hat_w_grad": [\n    0.0,\n    -0.0\n  ]' in out


class TestCrit:
    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (
                ["crit", "--vortex=-0.0,-0.0,1"],
                "de3d8abbf995199268e09f88508fa897f3329d8bd11d59efd5627c19f5349d6c",
            ),
            (
                ["crit", "--vortex=-0.0,-0.0,1", "--psi", "zero"],
                "115dd9b9d362e2cb8fb61979732a781f2247e74b7c71e1db4aaef055eae995f2",
            ),
            (
                ["crit", "--vortex=0.3,-0.0,1", "--vortex=-0.3,-0.0,-1"],
                "46e20bbc03919b5e4de7d1e671db79cd096e2bee95466e151a724c81bec8f31e",
            ),
            (
                ["crit", "--vortex=-0.0,0.2,1", "--map", "0,1,0.1"],
                "6c91036f86a284e23cc6fc59e69bb06000756a4a847b53138ecdde6e6c87ab80",
            ),
        ],
    )
    def test_signed_zero_coordinates_keep_their_bytes(self, capsys, argv, digest):
        # the kernels read the Newton iterates as complex views, which keep a
        # -0.0 coordinate; the digests of repr((exit code, stdout, stderr))
        # were recorded when the iterates were unpacked, which made a -0.0
        # imaginary part +0.0
        code = run(argv)
        captured = capsys.readouterr()
        got = hashlib.sha256(repr((code, captured.out, captured.err)).encode()).hexdigest()
        assert got == digest

    def test_disc_critical_point(self, capsys):
        code, out = capture(capsys, ["crit", "--map", "identity", "--vortex", "0.3,0,1"])
        assert code == 0
        payload = json.loads(out)
        assert abs(complex(payload["location"][0]["re"], payload["location"][0]["im"])) < 1e-9
        assert payload["nondegenerate"] is True

    def test_bad_trunc_without_psi_is_input_error(self, capsys):
        code = run(["crit", "--vortex=0.1,0,1", "--trunc", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_bytes_of_a_benchmark_operation(self, capsys):
        # eight vortices of degree one near a regular octagon, psi = 0; the
        # reprs are those the Newton iterates of the full energy gave when
        # they were pinned
        octagon = [
            (0.13588022722313045, 0.677311623870283),
            (-0.38284981211650493, 0.575013472313794),
            (-0.677311623870283, 0.13588022722313048),
            (-0.575013472313794, -0.38284981211650493),
            (-0.1358802272231302, -0.6773116238702831),
            (0.3828498121165046, -0.5750134723137941),
            (0.6773116238702831, -0.13588022722313026),
            (0.5750134723137942, 0.3828498121165046),
        ]
        start = [
            (0.1838516234684014, 0.9151006649992468),
            (-0.5176998681289087, 0.7769545336230166),
            (-0.9150856086290462, 0.18383274455171272),
            (-0.7771712000361123, -0.5177269500602304),
            (-0.18383710217623464, -0.9150888875474278),
            (0.5170895685235286, -0.7772134994548022),
            (0.9152233390208038, -0.18332941858781548),
            (0.777209981508386, 0.5177161611589277),
        ]
        argv = ["crit", "--map=identity", "--psi", "zero"]
        argv += [f"--base={x!r},{y!r},1" for x, y in octagon]
        argv += [f"--vortex={x!r},{y!r},1" for x, y in start]
        code, out = capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert [(repr(p["re"]), repr(p["im"])) for p in payload["location"]] == [
            ("0.18363528650893787", "0.9153525619368472"),
            ("-0.5174022473664194", "0.7771017600776285"),
            ("-0.9153525619368472", "0.18363528650893796"),
            ("-0.7771017600776285", "-0.5174022473664195"),
            ("-0.18363528650893768", "-0.9153525619368473"),
            ("0.5174022473664192", "-0.7771017600776285"),
            ("0.9153525619368472", "-0.18363528650893773"),
            ("0.7771017600776288", "0.517402247366419"),
        ]
        assert repr(payload["value"]) == "-32.91294875851295"
        assert repr(payload["residual_norm"]) == "2.2016794704048256e-13"


class TestNd:
    def test_identity(self, capsys):
        code, out = capture(capsys, ["nd", "--map", "identity", "--trunc", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["nd1"] == "pass"
        assert payload["nd2"] == "pass"
        assert payload["sigma_min"] == pytest.approx(1.0, abs=1e-5)

    def test_bytes_of_a_benchmark_operation(self, capsys):
        # the first cubic map of the seed-7 certify pass; the reprs are those
        # the batched Newton solve from the lattice starts gave when they
        # were pinned
        argv = [
            "nd",
            "--map=0.0,1.0,0.015137621738702534+0.09638712605731306j,"
            "0.008761047569823141-0.008921770610729785j",
            "--trunc",
            "16",
        ]
        code, out = capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert (repr(payload["alpha0"]["re"]), repr(payload["alpha0"]["im"])) == (
            "0.01267916339129765",
            "-0.09124229104973938",
        )
        assert (repr(payload["a0"]["re"]), repr(payload["a0"]["im"])) == (
            "0.012782217712988448",
            "-0.09205518179689437",
        )
        assert repr(payload["sigma_min"]) == "0.897266367563946"
        assert repr(payload["sigma_min_refined"]) == "0.8972663675639458"

    def test_bad_trunc_exits_before_the_search(self, capsys, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("check_nd1 ran")

        monkeypatch.setattr(ndcheck, "check_nd1", search)
        code = run(["nd", "--map", "0,1,0.1", "--trunc", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


class Reached(Exception):
    """Raised by a stub in place of the computation: the size was accepted."""


class TestSizeBounds:
    """Each bound at its edge; a stub stops the run before anything of that
    size is allocated."""

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_trunc(self, tmp_path, capsys, monkeypatch, source):
        def search(f):
            raise Reached

        def argv(trunc):
            if source == "flag":
                return ["nd", "--trunc", str(trunc)]
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"trunc": trunc}))
            return ["nd", "--config", str(conf)]

        monkeypatch.setattr(ndcheck, "check_nd1", search)
        with pytest.raises(Reached):
            run(argv(cli.MAX_TRUNC))
        assert run(argv(cli.MAX_TRUNC + 1)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: trunc must be an integer from 1 to 512, got 513\n"
        assert captured.out == ""

    def test_grid(self, capsys, monkeypatch):
        linspace = np.linspace

        def grid_axis(start, stop, num, **kwargs):
            if num >= cli.MAX_GRID:
                raise Reached
            return linspace(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", grid_axis)
        with pytest.raises(Reached):
            run(["landscape", "--grid", str(cli.MAX_GRID)])
        assert run(["landscape", "--grid", str(cli.MAX_GRID + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid must be an integer from 1 to 1001, got 1002\n"
        assert captured.out == ""


    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_map_degree(self, tmp_path, capsys, monkeypatch, source):
        def check(f):
            raise Reached

        def argv(degree):
            coeffs = [0.0, 1.0] + [0.0] * (degree - 1)
            if source == "flag":
                return ["energy", "--vortex=0.1,0,1", "--map=" + ",".join(map(str, coeffs))]
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"map": {"coeffs": [[c, 0.0] for c in coeffs]}}))
            return ["energy", "--vortex=0.1,0,1", "--config", str(conf)]

        monkeypatch.setattr(core, "validate_map", check)
        with pytest.raises(Reached):
            run(argv(cli.MAX_MAP_DEGREE))
        assert run(argv(cli.MAX_MAP_DEGREE + 1)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: map degree must be at most 64, got 65\n"
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "config", "landscape"])
    def test_degree(self, tmp_path, capsys, monkeypatch, source):
        def compute(*args):
            raise Reached

        def argv(degree):
            if source == "flag":
                return ["energy", f"--vortex=0.1,0,{degree}"]
            if source == "landscape":
                return ["landscape", "--grid", "3", f"--degree={degree}"]
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"vortices": [{"re": 0.1, "im": 0, "degree": degree}]}))
            return ["energy", "--config", str(conf)]

        monkeypatch.setattr(cli, "_hat_w", compute)
        monkeypatch.setattr(cli, "_transport_hat_w", compute)
        for sign in (1, -1):
            with pytest.raises(Reached):
                run(argv(sign * cli.MAX_DEGREE))
            assert run(argv(sign * (cli.MAX_DEGREE + 1))) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: vortex degree must be an integer from -1000 to 1000, got {sign * 1001}\n"
            )
            assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "config", "base"])
    def test_vortex_count(self, tmp_path, capsys, monkeypatch, source):
        def compute(*args):
            raise Reached

        def argv(k):
            # a sunflower of k points, about 0.9 sqrt(pi / k) apart
            i = np.arange(k)
            pts = (0.9 * np.sqrt((i + 0.5) / k) * np.exp(2.399963229728653j * i)).tolist()
            degrees = [1] + [0] * (k - 1)
            flags = [f"={p.real!r},{p.imag!r},{d}" for p, d in zip(pts, degrees)]
            if source == "flag":
                return ["energy"] + ["--vortex" + f for f in flags]
            if source == "base":
                return ["energy", "--vortex=0.1,0,1"] + ["--base" + f for f in flags]
            conf = tmp_path / "conf.json"
            vortices = [{"re": p.real, "im": p.imag, "degree": d} for p, d in zip(pts, degrees)]
            conf.write_text(json.dumps({"vortices": vortices}))
            return ["energy", "--config", str(conf)]

        monkeypatch.setattr(cli, "_hat_w", compute)
        with pytest.raises(Reached):
            run(argv(cli.MAX_VORTICES))
        assert run(argv(cli.MAX_VORTICES + 1)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: at most 256 vortices are accepted, got 257\n"
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_radius_count(self, tmp_path, capsys, monkeypatch, source):
        def compute(*args):
            raise Reached

        def argv(n):
            radii = [0.01 * 0.9**i for i in range(n)]
            if source == "flag":
                return ["expand", "--vortex=0.1,0,1", "--rho", ",".join(map(repr, radii))]
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"rho": radii}))
            return ["expand", "--vortex=0.1,0,1", "--config", str(conf)]

        monkeypatch.setattr(cli, "expansion_report", compute)
        with pytest.raises(Reached):
            run(argv(cli.MAX_RADII))
        assert run(argv(cli.MAX_RADII + 1)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: at most 32 rho values are accepted, got 33\n"
        assert captured.out == ""


def check_expand_fit(points, degrees, trunc, fractions):
    """expand at the given fractions of the margin of the points exits 0,
    writes nothing to stderr, and fits W to the closed form within the
    expand benchmark's tolerance, 1e-2."""
    margin = reference.margin(points)
    argv = ["expand", f"--trunc={trunc}", "--rho", ",".join(repr(f * margin) for f in fractions)]
    argv += [f"--vortex={p.real!r},{p.imag!r},{d}" for p, d in zip(np.asarray(points, dtype=complex).tolist(), degrees)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    payload = json.loads(out.getvalue())
    assert payload["abs_err"] <= 1e-2
    assert payload["slope_check"] is True


class TestExpand:
    def test_offset_vortex(self, capsys):
        code, out = capture(
            capsys,
            [
                "expand",
                "--map",
                "identity",
                "--vortex",
                "0.5,0,1",
                "--psi",
                "zero",
                "--rho",
                "0.02,0.01,0.005",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["w_estimate"] == pytest.approx(-np.pi * np.log(0.75), abs=5e-3)
        assert payload["abs_err"] <= 5e-3
        assert payload["slope_check"] is True

    def test_bytes_of_a_benchmark_operation(self, capsys, monkeypatch):
        # three vortices, four radii; the reprs are those the summation
        # order of the punctured-energy rule gave when it was pinned
        code, out = capture(
            capsys,
            [
                "expand",
                "--map=identity",
                "--vortex=-0.11272645038628784,-0.22505744017870793,2",
                "--vortex=-0.3683592693024358,-0.03426079919646207,-1",
                "--vortex=0.19521006021448217,0.028573767378831626,1",
                "--psi",
                "zero",
                "--rho",
                "0.01,0.005,0.0025,0.00125",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert [repr(e) for e in payload["energies"]] == [
            "79.5194169441896",
            "92.59436810239407",
            "105.66224221264282",
            "118.7283480787455",
        ]
        assert repr(payload["w_estimate"]) == "-7.2707686899220905"
        # each pinned energy is its rule's value at twice the nodes
        cfg = VortexConfiguration(
            [-0.11272645038628784 - 0.22505744017870793j, -0.3683592693024358 - 0.03426079919646207j,
             0.19521006021448217 + 0.028573767378831626j],
            (2, -1, 1),
        )
        twice = energies_at_twice_the_nodes(monkeypatch, DiscEnergyContext(cfg), cfg, payload["rho"])
        np.testing.assert_allclose(payload["energies"], twice, rtol=1e-12, atol=0)

    def test_bytes_of_a_benchmark_operation_with_psi(self, capsys, monkeypatch):
        # the (1, -1) operation of the seed-7 expand pass: two psi modes run
        # the kernel's Horner loop, and the base is the configuration itself
        code, out = capture(
            capsys,
            [
                "expand",
                "--map=identity",
                "--vortex=0.26649965159847616,0.06057881911806078,1",
                "--vortex=0.4057917896655264,-0.26828593805711193,-1",
                "--psi",
                '{"cos": [0.1383457817241346, -0.06304545449803722], '
                '"sin": [-0.05491332938303625, 0.008553418659028145]}',
                "--rho",
                "0.01,0.005,0.0025",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert [repr(e) for e in payload["energies"]] == [
            "21.990098833411214",
            "26.346630412163",
            "30.70214227173344",
        ]
        assert repr(payload["w_estimate"]) == "-6.94266004007053"
        cfg = VortexConfiguration([0.26649965159847616 + 0.06057881911806078j, 0.4057917896655264 - 0.26828593805711193j], (1, -1))
        psi = FourierSeries.from_real(
            cos=[0.1383457817241346, -0.06304545449803722], sin=[-0.05491332938303625, 0.008553418659028145], trunc=64
        )
        twice = energies_at_twice_the_nodes(monkeypatch, DiscEnergyContext(cfg, 64, psi), cfg, payload["rho"])
        np.testing.assert_allclose(payload["energies"], twice, rtol=1e-12, atol=0)

    def test_same_stdout_with_blas_pinned_and_unpinned(self):
        # the expand path makes no BLAS call, so the thread count of the
        # BLAS pool cannot reach its bytes
        argv = [
            "expand", "--map=identity",
            "--vortex=-0.11272645038628784,-0.22505744017870793,2",
            "--vortex=-0.3683592693024358,-0.03426079919646207,-1",
            "--vortex=0.19521006021448217,0.028573767378831626,1",
            "--psi", "zero", "--rho", "0.01,0.005,0.0025,0.00125",
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for pinned in (True, False):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            if pinned:
                env["OPENBLAS_NUM_THREADS"] = "1"
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from vortexw.cli import run; sys.exit(run(sys.argv[1:]))", *argv],
                env=env, capture_output=True, check=True,
            )
            assert proc.stderr == b""
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["slope_check"] is True

    @pytest.mark.parametrize("name", list(reference.CROWDED))
    def test_crowded_and_near_boundary_sweeps(self, name):
        # radii of 0.02, 0.01 and 0.005 of the margin; the area rule read
        # abs_err 6.3e-3, 0.246, 0.107, 2.13, 0.107 and 0.589 on these
        # cases, and the boundary rule 1.2e-4 ... 3.9e-4
        points, degrees, trunc = reference.CROWDED[name]
        check_expand_fit(points, degrees, trunc, reference.CROWDED_RADII)

    @given(reference.crowded_configuration())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_crowded_and_near_boundary_configurations(self, case):
        check_expand_fit(*case)

    def test_beyond_the_node_cap_exits_1(self, capsys):
        # a vortex at 0.998 needs more than expansion.MAX_NODES nodes on
        # the unit circle
        code = run(["expand", "--vortex=0.998,0,1", "--rho", "4e-5,2e-5,1e-5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        payload = json.loads(captured.out)
        assert payload["error"] == "QuadratureNotConverged"
        assert payload["message"].startswith("the trapezoid rule on the unit circle has not converged")

    def test_non_identity_map_rejected(self, capsys):
        code, _ = capture(
            capsys,
            ["expand", "--map", "0,1,0.05", "--vortex", "0.5,0,1", "--rho", "0.02,0.01,0.005"],
        )
        assert code == 2

    @pytest.mark.parametrize("tiny", ["1e-17", "1e-50", "1e-160"])
    @pytest.mark.parametrize("a", ["0.1", "0"])
    def test_tiny_radius_is_right_or_refused(self, capsys, a, tiny):
        code = run(["expand", f"--vortex={a},0,1", "--rho", f"0.01,0.005,{tiny}"])
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if code == 1:
            assert payload["error"] == "InvalidRadius"
        else:
            assert code == 0
            # the fit tolerance of the expand benchmark
            assert payload["abs_err"] <= 1e-2


def _map_coeff(bound):
    part = st.floats(-bound, bound, allow_subnormal=False)
    return st.builds(complex, part, part)


# the identity (no tail), z + c z^2 and a small cubic: |f' - 1| < 1 on the
# disc, so each map is univalent and passes the map check
_map_tail = st.one_of(
    st.just(()),
    st.tuples(_map_coeff(0.28)),
    st.tuples(_map_coeff(0.07), _map_coeff(0.07)),
)


class TestLandscape:
    def test_csv_grid(self, capsys):
        code, out = capture(
            capsys, ["landscape", "--map", "identity", "--grid", "7", "--csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,hat_w"
        assert len(lines) == 1 + 7 * 7
        # center cell holds the max (0), corners are outside the disc (nan)
        values = {}
        for line in lines[1:]:
            x, y, v = line.split(",")
            values[(float(x), float(y))] = float(v)
        assert values[(0.0, 0.0)] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(values[(0.95, 0.95)])

    def test_json_grid(self, capsys):
        code, out = capture(capsys, ["landscape", "--map", "identity", "--grid", "5"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 25

    def test_json_grid_is_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        code, out = capture(capsys, ["landscape", "--grid", "21"])
        assert code == 0
        rows = json.loads(out, parse_constant=reject)["rows"]
        assert len(rows) == 21 * 21
        for r in rows:
            outside = np.hypot(r["x"], r["y"]) >= 1.0 - 1e-3
            assert (r["hat_w"] is None) == outside

    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 1.0, 0.05, 0.02j]])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_same_bytes_as_pointwise_evaluation(self, capsys, coeffs, degree):
        # one closed-form call per grid point, as the grid used to be built
        f = ConformalPolyMap(coeffs)
        xs = np.linspace(-0.95, 0.95, 21)
        records = []
        for y in xs:
            for x in xs:
                p = complex(x, y)
                v = float("nan")
                if abs(p) < 1.0 - BOUNDARY_MARGIN:
                    v = transport_hat_w(f, VortexConfiguration([p], (degree,)))
                records.append((float(x), float(y), v))
        csv = "".join(["x,y,hat_w\n"] + [f"{x:.6f},{y:.6f},{v}\n" for x, y, v in records])
        rows = [{"x": x, "y": y, "hat_w": None if np.isnan(v) else v} for x, y, v in records]
        json_text = json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"

        argv = ["landscape", "--map", ",".join(map(str, coeffs)), "--grid", "21"]
        argv += ["--degree", str(degree)]
        assert capture(capsys, argv + ["--csv"]) == (0, csv)
        assert capture(capsys, argv) == (0, json_text)

    @pytest.mark.parametrize(
        "coeffs, grid, degree",
        [
            ([0.0, 1.0], 20, 1),  # even grid: no centre point
            ([0.0, 1.0, 0.1], 1, 1),
            ([0.0, 1.0, 0.05, 0.02j], 15, 2),
        ],
    )
    def test_same_bytes_as_generic_encoder(self, capsys, tmp_path, coeffs, grid, degree):
        f = ConformalPolyMap(coeffs)
        xs = np.linspace(-0.95, 0.95, grid)
        records = []
        for y in xs:
            for x in xs:
                p = complex(x, y)
                v = float("nan")
                if abs(p) < 1.0 - BOUNDARY_MARGIN:
                    v = transport_hat_w(f, VortexConfiguration([p], (degree,)))
                records.append((float(x), float(y), v))
        csv = "".join(["x,y,hat_w\n"] + [f"{x:.6f},{y:.6f},{v}\n" for x, y, v in records])
        rows = [{"x": x, "y": y, "hat_w": v} for x, y, v in records]
        json_text = json.dumps(jsonable({"rows": rows}), indent=2, sort_keys=True) + "\n"

        argv = ["landscape", "--map", ",".join(map(str, coeffs)), "--grid", str(grid)]
        argv += ["--degree", str(degree)]
        assert capture(capsys, argv + ["--csv"]) == (0, csv)
        assert capture(capsys, argv) == (0, json_text)
        for extra, want in (["--csv"], csv), ([], json_text):
            target = tmp_path / "landscape.out"
            assert capture(capsys, argv + extra + ["--out", str(target)]) == (0, "")
            assert target.read_text() == want

    def test_writes_without_the_generic_encoder(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("landscape went through the generic encoder")

        monkeypatch.setattr(cli, "_json", refuse)
        monkeypatch.setattr(cli.json, "dumps", refuse)
        argv = ["landscape", "--map", "0,1,0.1", "--grid", "9"]
        code, out = capture(capsys, argv)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 9 * 9
        code, out = capture(capsys, argv + ["--csv"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 9 * 9

    @given(st.integers(1, 48), st.integers(-3, 3), _map_tail, st.booleans())
    @example(1, 1, (), False)
    @example(1, -2, (0.2j,), True)
    @example(2, 1, (0.05, 0.02j), False)
    @example(2, 3, (), True)
    @example(3, 1, (0.1,), False)
    @example(3, 0, (0.05, 0.02j), True)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_same_bytes_as_the_meshgrid_writer(self, grid, degree, tail, csv):
        coeffs = [0j, 1 + 0j, *tail]
        spec = ",".join(map(repr, coeffs)) if tail else "identity"
        argv = ["landscape", "--map", spec, "--grid", str(grid), f"--degree={degree}"]
        argv += ["--csv"] if csv else []
        want = reference.landscape_output(ConformalPolyMap(coeffs), grid, degree, csv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(argv) == 0
        assert out.getvalue() == want
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
            target = Path(tmp) / "landscape.out"
            assert run(argv + ["--out", str(target)]) == 0
            assert target.read_text() == want
        assert out.getvalue() == want

    @pytest.mark.parametrize("grid", [1, 2])
    def test_every_point_outside(self, capsys, grid):
        # the axis is -0.95 or -0.95, 0.95: every point lies at |p| > 1
        argv = ["landscape", "--grid", str(grid)]
        code, out = capture(capsys, argv)
        assert code == 0
        assert [r["hat_w"] for r in json.loads(out)["rows"]] == [None] * grid**2
        code, out = capture(capsys, argv + ["--csv"])
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["nan"] * grid**2

    @pytest.mark.parametrize("grid", [1, 2, 20, 161])
    def test_same_grid_as_the_meshgrid_fill(self, monkeypatch, grid):
        seen = {}
        admissible = cli.configuration_is_admissible

        def record_points(configs):
            seen["points"] = configs.copy()
            return admissible(configs)

        def record_values(axis, values, csv):
            seen["values"] = values.copy()
            return ""

        monkeypatch.setattr(cli, "configuration_is_admissible", record_points)
        monkeypatch.setattr(cli, "_landscape_text", record_values)
        assert run(["landscape", "--map", "0,1,0.1", "--grid", str(grid)]) == 0
        _, points = reference.meshgrid_points(grid)
        assert seen["points"].tobytes() == points[:, None].tobytes()
        _, values = reference.landscape_values(ConformalPolyMap([0.0, 1.0, 0.1]), grid, 1)
        assert seen["values"].tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "config, flags, grid, degree",
        [
            ({"grid": 11}, [], 11, 1),
            ({"degree": -2}, [], 61, -2),
            ({"grid": 11, "degree": 2}, [], 11, 2),
            ({"grid": 11, "degree": 2}, ["--grid", "5", "--degree=-1"], 5, -1),
            ({"grid": 11, "degree": 2}, ["--grid", "5"], 5, 2),
        ],
    )
    def test_config_grid_and_degree(self, tmp_path, capsys, config, flags, grid, degree):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"map": "0,1,0.1", **config}))
        want = reference.landscape_output(ConformalPolyMap([0.0, 1.0, 0.1]), grid, degree, True)
        argv = ["landscape", "--config", str(conf), "--csv"] + flags
        assert capture(capsys, argv) == (0, want)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"grid": True}, "grid must be an integer from 1 to 1001, got True"),
            ({"grid": 1002}, "grid must be an integer from 1 to 1001, got 1002"),
            ({"grid": 2.0}, "grid must be an integer from 1 to 1001, got 2.0"),
            ({"degree": 1001}, "vortex degree must be an integer from -1000 to 1000, got 1001"),
            ({"degree": True}, "vortex degree must be an integer, got True"),
        ],
    )
    def test_bad_config_grid_or_degree_is_input_error(self, tmp_path, capsys, config, message):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        assert run(["landscape", "--config", str(conf)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestBase:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--vortex=0.3,0,1", "--vortex=-0.3,0,-1", "--base=0.2,0,-1", "--base=-0.2,0,1"],
            ["--vortex=0.3,0,2", "--base=0,0,1", "--base=0.5,0,1"],
        ],
    )
    def test_expand_fit_matches_closed_form(self, capsys, argv):
        code, out = capture(capsys, ["expand", *argv, "--rho", "0.02,0.01,0.005"])
        assert code == 0
        assert json.loads(out)["abs_err"] <= 5e-3

    def test_energy_with_base_of_other_count(self, capsys):
        points, degrees = [0.3, -0.3 + 0.2j], (1, 1)
        base_points, base_degrees = [0.1, 0.2j, -0.2], (1, -1, 2)
        argv = ["energy", "--vortex=0.3,0,1", "--vortex=-0.3,0.2,1"]
        argv += ["--base=0.1,0,1", "--base=0,0.2,-1", "--base=-0.2,0,2", "--trunc", "32"]
        code, out = capture(capsys, argv)
        assert code == 0
        # W = hat_w + 2 pi sum n |b_n|^2 with the base weighed by its own degrees
        n = np.arange(1, 33)
        b = sum(d * np.conj(a) ** n for a, d in zip(points, degrees))
        b = (b - sum(d * np.conj(a) ** n for a, d in zip(base_points, base_degrees))) / n
        cfg = VortexConfiguration(points, degrees)
        expected = hat_w(cfg) + 2 * np.pi * np.sum(n * np.abs(b) ** 2)
        assert json.loads(out)["w"] == pytest.approx(expected, rel=1e-12)

    def test_crit_with_base_of_other_count(self, capsys):
        base_points, base_degrees = [0.1, -0.1 + 0.1j], (2, -1)
        argv = ["crit", "--vortex=0.1,0,1", "--base=0.1,0,2", "--base=-0.1,0.1,-1"]
        code, out = capture(capsys, argv + ["--psi", "zero", "--trunc", "32"])
        assert code == 0
        loc = json.loads(out)["location"][0]
        n = np.arange(1, 33)
        b0 = sum(d * np.conj(a) ** n for a, d in zip(base_points, base_degrees))

        def w(p):
            b = (np.conj(p) ** n - b0) / n
            return np.pi * np.log(1 - abs(p) ** 2) + 2 * np.pi * np.sum(n * np.abs(b) ** 2)

        p, h = complex(loc["re"], loc["im"]), 1e-6
        grad = [(w(p + s) - w(p - s)) / (2 * h) for s in (h, 1j * h)]
        np.testing.assert_allclose(grad, 0.0, atol=1e-7)

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--vortex=0.3,0,1", "--base=0.1,0,2"],
            ["energy", "--vortex=0.3,0,1", "--vortex=-0.3,0,1", "--base=0.1,0,1"],
            ["crit", "--vortex=0.3,0,1", "--base=0.1,0,-1"],
            ["crit", "--vortex=0.3,0,1", "--base=0.1,0,1", "--base=0.2,0,1", "--psi", "zero"],
            ["expand", "--vortex=0.3,0,2", "--base=0,0,1", "--rho", "0.02,0.01,0.005"],
        ],
    )
    def test_base_of_other_total_degree_is_input_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""


class TestSelfcheckAndErrors:
    def test_selfcheck_passes(self, capsys):
        code, out = capture(capsys, ["selfcheck"])
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_selfcheck_fails_on_a_broken_assembly(self, capsys, monkeypatch):
        def assemble(f, nd1, trunc):
            m = ndcheck.du_star_matrix_analytic_disc(trunc)
            m[4, 4] += 1e-3
            return m

        monkeypatch.setattr(ndcheck, "assemble_du_matrix", assemble)
        code, out = capture(capsys, ["selfcheck"])
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert code == 1
        assert checks["du_star_diagonal"] is False
        assert sum(not ok for ok in checks.values()) == 1

    def test_bad_vortex_is_input_error(self, capsys):
        code, _ = capture(capsys, ["energy", "--map", "identity", "--vortex", "nope"])
        assert code == 2

    def test_missing_vortex_is_input_error(self, capsys):
        code, _ = capture(capsys, ["energy", "--map", "identity"])
        assert code == 2

    def test_invalid_map_is_computation_error(self, capsys):
        # f' vanishes inside the disc: machine-readable failure, exit 1
        code, out = capture(capsys, ["energy", "--map", "0,1,0.6", "--vortex", "0,0,1"])
        assert code == 1
        assert json.loads(out)["error"] == "DegenerateDerivative"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = run(
            ["energy", "--map", "identity", "--vortex", "0,0,1", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["hat_w"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--vortex=0,0,1"],
            ["landscape", "--grid", "3", "--csv"],
            ["selfcheck"],
            # Newton diverges: the error payload cannot be written either
            ["crit", "--vortex=0.5,0,1", "--vortex=-0.5,0,1"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing_dir/out.json", "."])
    def test_out_that_cannot_be_written_is_input_error(self, tmp_path, capsys, argv, where):
        code = run(argv + ["--out", str(tmp_path / where)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot write output")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["nd", "--vortex=0.5,0,1"],
            ["landscape", "--vortex=0.5,0,1", "--trunc", "99"],
            ["landscape", "--trunc", "99"],
        ],
    )
    def test_flag_the_command_does_not_read_is_input_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def rebuild():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "_make_parser", rebuild)
        assert capture(capsys, ["energy", "--vortex", "0,0,1"])[0] == 0
        assert run(["energy", "--trunc", "0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["energy", "--vortex", "nan,0,1"],
            ["energy", "--vortex=1e308,0,1", "--vortex=-1e308,0,1"],
            ["energy", "--map", "nan,1", "--vortex", "0,0,1"],
            ["energy", "--map", "0,inf", "--vortex", "0,0,1"],
            ["energy", "--vortex", "0,0,1", "--trunc", "-3"],
            ["energy", "--vortex", "0,0,1", "--trunc", "0"],
            ["nd", "--trunc", "0"],
            ["landscape", "--grid", "-2"],
            ["expand", "--vortex", "0.5,0,1", "--rho", "nan,0.01,0.005"],
            ["expand", "--vortex", "0.5,0,1", "--rho", "0.02,0.01"],
        ],
    )
    def test_bad_number_is_input_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        # one line, however large the number
        assert captured.err.count("\n") == 1 and len(captured.err) < 120
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, want",
        [
            # f' = 1 + 2e308 z: its coefficient overflows, and f' vanishes at -5e-309
            (["energy", "--map", "0,1,1e308", "--vortex", "0,0,1"], 1),
            (["energy", "--vortex", "inf,0,1", "--vortex=0,inf,1"], 2),
            # every c_m (m >= 1) subnormal: dividing by their largest modulus
            # overflows, so the map is refused before it
            (["energy", "--map", "0,1e-320", "--vortex", "0.5,0,1"], 1),
            (["crit", "--map", "0,1e-320", "--vortex", "0.5,0,1"], 1),
            (["nd", "--map", "1e-320,1e-320"], 1),
            (["landscape", "--map", "0,1e-320", "--grid", "3"], 1),
            # f' reaches 1.8e308 on the unit circle: f''/f' = 8e307/inf = 0
            # would drop the map term near it
            (["energy", "--map", "0,1e308,4e307", "--vortex", "0.998,0,1"], 1),
            # f' and its derivatives are in range, but a0 = f(alpha0) is not
            (["nd", "--map", "1.79e308,1e307,3e306"], 1),
        ],
    )
    def test_overflowing_input_prints_no_warning(self, capsys, argv, want):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert code == want
        if want == 1:
            assert json.loads(captured.out)["error"] == "DegenerateDerivative"
        else:
            assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, config",
        [
            # not UTF-8
            (["energy", "--vortex=0,0,1"], b"\xff\xfe{}"),
            # past Python's limit on converting integer strings
            (["energy", "--vortex=0,0,1"], b'{"trunc": ' + b"9" * 5000 + b"}"),
            (["energy", "--vortex=0,0,1", "--psi", '{"cos": [' + "9" * 5000 + "]}"], None),
            # integers too large for a float
            (["energy"], b'{"vortices": [{"re": 1' + b"0" * 400 + b', "im": 0, "degree": 1}]}'),
            (["energy", "--vortex=0,0,1"], b'{"map": {"coeffs": [[0, 0], [1' + b"0" * 400 + b", 0]]}}"),
            (["energy", "--vortex=0,0,1", "--psi", '{"cos": [1' + "0" * 400 + "]}"], None),
            (["expand", "--vortex=0,0,1"], b'{"rho": [1' + b"0" * 400 + b", 0.01, 0.005]}"),
        ],
    )
    def test_undecodable_input_is_input_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_bytes(config)
            argv = argv + ["--config", str(path)]
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            # a degree too large for a float, and one whose square overflows
            (["energy", "--vortex=0,0,1" + "0" * 400], None),
            (["energy", "--vortex=0.1,0,1" + "0" * 200], None),
            (["energy"], b'{"vortices": [{"re": 0.1, "im": 0, "degree": 1' + b"0" * 400 + b"}]}"),
            (["landscape", "--grid", "3", "--degree=1" + "0" * 400], None),
        ],
    )
    def test_huge_degree_is_input_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "conf.json"
            path.write_bytes(config)
            argv = argv + ["--config", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: vortex degree must be an integer from -1000 to 1000")
        assert captured.err.count("\n") == 1

    def test_psi_without_finite_seminorm_is_input_error(self, capsys):
        argv = ["energy", "--vortex", "0.5,0,1", "--trunc", "3", "--psi"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ['{"cos": [1e308]}'])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err.startswith("error:")
            assert captured.out == ""
            code, out = capture(capsys, argv + ['{"cos": [1e150]}'])
        assert code == 0
        payload = json.loads(out)
        values = [payload["w"], payload["psi_seminorm_sq"], *payload["w_grad"]]
        assert all(v is not None and np.isfinite(v) for v in values)


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


_number = st.one_of(
    st.floats(),
    st.floats(-1.0, 1.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308]),
)
_numbers = st.lists(_number, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
_count = st.one_of(st.integers(1, 4).map(str), _number.map(repr))
_point = st.one_of(st.floats(-0.6, 0.6), _number)
# radii of the benchmark's size, or log-uniform down to 1e-300, far below the
# smallest radius expand resolves
_radius = st.one_of(st.floats(1e-3, 0.2), st.floats(-300.0, np.log10(0.2)).map(lambda e: 10.0**e))
_radii = st.lists(_radius, min_size=3, max_size=3, unique=True).map(
    lambda rs: ",".join(map(repr, sorted(rs, reverse=True)))
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["energy", "crit", "expand", "landscape"]))
    argv = [command, "--map", draw(st.one_of(st.just("identity"), _numbers))]
    if command == "landscape":
        argv += ["--grid=" + draw(_count), f"--degree={draw(st.integers(-2, 2))}"]
        return argv + (["--csv"] if draw(st.booleans()) else [])
    argv.append("--trunc=" + draw(_count))
    # configuration and base of 1 to 3 and 0 to 3 vortices
    for flag, least in (("--vortex", 1), ("--base", 0)):
        for _ in range(draw(st.integers(least, 3))):
            re, im = draw(_point), draw(_point)
            argv.append(f"{flag}={re!r},{im!r},{draw(st.sampled_from([-1, 1, 2]))}")
    if draw(st.booleans()):
        modes = st.lists(_number, max_size=3)
        argv += ["--psi", json.dumps({"cos": draw(modes), "sin": draw(modes)})]
    if command == "expand":
        argv += ["--rho", draw(st.one_of(_numbers, _radii))]
    return argv


_degree = st.sampled_from([-2, -1, 1, 2])
_disc_flag = st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), _degree)


@st.composite
def _base_argv(draw):
    """A valid configuration and base of 1 to 3 vortices each, of any degrees."""
    command = draw(st.sampled_from(["energy", "crit", "expand"]))
    argv = [command, "--trunc=8"]
    degrees = {}
    for flag in ("--vortex", "--base"):
        vortices = draw(st.lists(_disc_flag, min_size=1, max_size=3))
        argv += [f"{flag}={re!r},{im!r},{d}" for re, im, d in vortices]
        degrees[flag] = sum(d for _, _, d in vortices)
    if command == "crit":
        argv += ["--psi", "zero"]
    if command == "expand":
        argv += ["--rho", "0.004,0.002,0.001"]
    return argv, degrees["--vortex"] != degrees["--base"]


def _run_strict(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    elif code == 0 and "--csv" in argv:
        n = int(next(a for a in argv if a.startswith("--grid=")).partition("=")[2])
        lines = out.getvalue().split("\n")
        assert lines[0] == "x,y,hat_w"
        assert len(lines) == n * n + 2 and lines[-1] == ""
        for line in lines[1:-1]:
            x, y, v = map(float, line.split(","))
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    return code


class TestFuzz:
    @given(_argv())
    @example(["energy", "--map", "0,1,1e308", "--vortex", "0,0,1"])
    @example(["energy", "--vortex", "inf,0,1", "--vortex=0,inf,1"])
    @example(["landscape", "--map", "0,1,0.1", "--grid=4", "--degree=-2", "--csv"])
    @example(["landscape", "--map", "0,1,0.1,0.02j", "--grid=3", "--degree=2"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exit_code_and_strict_json(self, argv):
        _run_strict(argv)

    @given(_base_argv())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_base_of_any_count_and_degrees(self, drawn):
        argv, degrees_differ = drawn
        code = _run_strict(argv)
        if degrees_differ:
            assert code == 2


def _outcome(argv, parse=None):
    """Exit code, stdout and stderr of run(argv), parsed by parse if given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if parse is not None:
            stack.enter_context(mock.patch.object(cli, "_parse_args", parse))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _argparse_only(argv):
    return cli._PARSER.parse_args(glue_signed_values(argv))


_SIGNED_FLAGS = ("--vortex", "--base", "--map")
# every spelling that argparse takes for a flag of _SIGNED_FLAGS
_SPELLINGS = {flag: [flag[:n] for n in range(3, len(flag) + 1)] for flag in _SIGNED_FLAGS}
_ABBREVIATIONS = tuple(s for spellings in _SPELLINGS.values() for s in spellings[:-1])

_point_value = st.one_of(
    st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.sampled_from([1, 1, 1, -1, 2])).map(
        lambda t: f"{t[0]!r},{t[1]!r},{t[2]}"
    ),
    st.sampled_from(["", "-", "-x", "-1", " -0.1,0,1", "0,0", "nan,0,1", "0.1,0=1,1", "--vortex"]),
)
# mostly tokens that parse, and now and then one that argparse rejects or
# reads otherwise
_other_tokens = st.sampled_from(
    [["--trunc", "4"], ["--trunc=4"], ["--psi", "zero"], ["--map", "identity"], ["--map", "-0.1,1"]] * 3
    + [["--ma", "-0.1,1"], ["--m=0,1,0.05"], ["--tr", "-3"], ["--trunc"], ["--psi"], ["--grid=3"]]
    + [["--csv"], ["--"], ["-h"], ["--he"], ["stray"], ["--unknown"]]
)
_POINT_FLAG_NAMES = ("--vortex", "--base")


@st.composite
def _point_tokens(draw):
    flag = draw(st.sampled_from(_POINT_FLAG_NAMES * 3 + ("--vortex",) * 4))
    odd = [flag + "x", "-" + flag[2:]]
    spelling = draw(st.sampled_from(_SPELLINGS[flag] * 3 + odd))
    value = draw(_point_value)
    form = draw(st.sampled_from(["="] * 3 + ["split"] * 3 + ["bare"]))
    if form == "=":
        return [f"{spelling}={value}"]
    return [spelling, value] if form == "split" else [spelling]


@st.composite
def _any_argv(draw):
    """Subcommands with --vortex/--base tokens of every spelling and form,
    mixed with other flags, values that look like flags, "--", -h, a flag
    with no value and tokens the subcommand does not read."""
    argv = draw(st.sampled_from([[]] * 12 + [["-h"], ["--vortex=0,0,1"]]))
    commands = ["energy", "crit", "expand"] * 3 + ["nd", "landscape", "selfcheck"]
    argv = argv + [draw(st.sampled_from(commands))]
    argv += ["--trunc=4"] if draw(st.booleans()) else []
    drawn = st.one_of(_point_tokens(), _point_tokens(), _other_tokens)
    for tokens in draw(st.lists(drawn, min_size=1, max_size=7)):
        argv += tokens
    if "expand" in argv and draw(st.booleans()):
        argv += ["--rho", "0.02,0.01,0.005"]
    return argv


def _mended(argv) -> bool:
    """Whether argv holds an abbreviated flag followed by a signed value,
    which argparse alone read as a flag with no value."""
    return glue_signed_values(argv, _ABBREVIATIONS) != argv


class TestArgvOracle:
    """run parses argv with one pass over the tokens and argparse on the
    rest. Every argv gives what argparse alone gave: the same exit code,
    output and error text. An abbreviated flag followed by a signed value
    now reads it, as its "=" form does."""

    @given(_any_argv())
    @example(["energy", "--vortex", "0.1,0,1", "--vortex"])
    @example(["energy", "--vortex=0.1,0,1", "--", "--vortex=0.2,0,1"])
    @example(["energy", "--vortex=0.1,0,1", "--", "stray", "--vortex=0.2,0,1"])
    @example(["energy", "--trunc", "--vortex=0.1,0,1", "4"])
    @example(["energy", "--b", "0.1,0,1", "--vo=0.2,0,1", "--base=-0.3,0,0", "--v", "-0.2,0,1"])
    @example(["crit", "--vort=0.1,0,1", "--psi", "zero", "--trunc=4", "--b", "0,0,1", "-h"])
    @example(["expand", "--vortex", "-", "--rho", "0.02,0.01,0.005"])
    @example(["nd", "--vortex=0.5,0,1"])
    @example(["landscape", "--v", "0.5,0,1", "--grid=3"])
    @example(["energy", "--vort", "-0.2,0.4,1"])
    @example(["energy", "--vortex=0.1,0,1", "--ma", "-1,1"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_outcome_as_argparse_alone(self, argv):
        want = glue_signed_values(argv, _ABBREVIATIONS) if _mended(argv) else argv
        assert _outcome(argv) == _outcome(want, _argparse_only)


_scalar = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_array = st.one_of(
    hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    hnp.arrays(np.int64, st.integers(0, 4)),
)
_payload = st.recursive(
    st.one_of(_scalar, _array),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestWriterOracle:
    """_emit writes what the generic JSON encoder writes for the plain JSON
    form of the payload."""

    @given(_payload)
    @example({"error": "NewtonDiverged", "message": "α → ∞\x00\n\t\"q\"\\ \x7f"})
    @example({"hessian": np.array([[1.5, -0.0], [np.inf, np.nan]]), "empty": [], "none": {}})
    @example([np.float64(-0.0), np.int64(-(2**63)), np.bool_(True), (), 1e-310, 1j])
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_bytes_as_generic_encoder(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(payload, None)
        want = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert out.getvalue() == want
