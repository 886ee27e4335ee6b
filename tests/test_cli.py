import json

import numpy as np
import pytest

from vortexw import (
    ConformalPolyMap,
    DiscEnergyContext,
    FourierSeries,
    VortexConfiguration,
    transport_w,
)
from vortexw.cli import run


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
        ],
    )
    def test_bad_number_is_input_error(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""
