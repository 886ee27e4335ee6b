import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexw import (
    BOUNDARY_MARGIN,
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    cli,
    hat_w,
    ndcheck,
    transport_hat_w,
    transport_w,
)
from vortexw.cli import _jsonable, run


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
        psi = FourierSeries.zeros(64)

        def w(p):
            return transport_w(f, ctx, VortexConfiguration(p, degrees), psi)

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

    def test_leading_minus_values(self, capsys):
        glued = ["energy", "--map=-0.1,1", "--vortex=-0.2,0.4,1", "--base=-0.1,0.3,1"]
        split = ["energy", "--map", "-0.1,1", "--vortex", "-0.2,0.4,1", "--base", "-0.1,0.3,1"]
        code, first = capture(capsys, glued)
        assert code == 0
        assert capture(capsys, split) == (0, first)


class TestCrit:
    def test_disc_critical_point(self, capsys):
        code, out = capture(capsys, ["crit", "--map", "identity", "--vortex", "0.3,0,1"])
        assert code == 0
        payload = json.loads(out)
        assert abs(complex(payload["location"][0]["re"], payload["location"][0]["im"])) < 1e-9
        assert payload["nondegenerate"] is True


class TestNd:
    def test_identity(self, capsys):
        code, out = capture(capsys, ["nd", "--map", "identity", "--trunc", "8"])
        assert code == 0
        payload = json.loads(out)
        assert payload["nd1"] == "pass"
        assert payload["nd2"] == "pass"
        assert payload["sigma_min"] == pytest.approx(1.0, abs=1e-5)

    def test_bad_trunc_exits_before_the_search(self, capsys, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("check_nd1 ran")

        monkeypatch.setattr(ndcheck, "check_nd1", search)
        code = run(["nd", "--map", "0,1,0.1", "--trunc", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")


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

    def test_non_identity_map_rejected(self, capsys):
        code, _ = capture(
            capsys,
            ["expand", "--map", "0,1,0.05", "--vortex", "0.5,0,1", "--rho", "0.02,0.01,0.005"],
        )
        assert code == 2


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
        json_text = json.dumps(_jsonable({"rows": rows}), indent=2, sort_keys=True) + "\n"

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

        monkeypatch.setattr(cli, "_jsonable", refuse)
        monkeypatch.setattr(cli.json, "dumps", refuse)
        argv = ["landscape", "--map", "0,1,0.1", "--grid", "9"]
        code, out = capture(capsys, argv)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 9 * 9
        code, out = capture(capsys, argv + ["--csv"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 9 * 9


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

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

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
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, want",
        [
            # f' = 1 + 2e308 z: its coefficient overflows, and f' vanishes at -5e-309
            (["energy", "--map", "0,1,1e308", "--vortex", "0,0,1"], 1),
            (["energy", "--vortex", "inf,0,1", "--vortex=0,inf,1"], 2),
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
_radii = st.lists(st.floats(1e-3, 0.2), min_size=3, max_size=3, unique=True).map(
    lambda rs: ",".join(map(repr, sorted(rs, reverse=True)))
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["energy", "crit", "expand", "landscape"]))
    argv = [command, "--map", draw(st.one_of(st.just("identity"), _numbers))]
    argv.append("--trunc=" + draw(_count))
    if command == "landscape":
        argv += ["--grid=" + draw(_count), f"--degree={draw(st.integers(-2, 2))}"]
        return argv + (["--csv"] if draw(st.booleans()) else [])
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
    @example(["landscape", "--map", "0,1,0.1", "--trunc=2", "--grid=4", "--degree=-2", "--csv"])
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
