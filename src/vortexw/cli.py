"""Batch command-line front-end.

Subcommands: energy, crit, nd, expand, landscape, selfcheck. Inputs come
from flags and/or a JSON config file (flags win). Output is JSON on
stdout (CSV for landscape with --csv), or to --out. Exit codes: 0 on
success, 1 on computation failure (the payload carries the error name),
2 on bad input.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import ndcheck
from .core import (
    ConformalPolyMap,
    FourierSeries,
    VortexConfiguration,
    configuration_is_admissible,
    validate_configuration,
    validate_map,
)
from .critpoint import find_critical_hat_w, find_critical_w
from .disc_energy import (
    DiscEnergyContext,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    w_disc_hess,
)
from .errors import VortexwError
from .expansion import expansion_report
from .harmonic import h_half_seminorm_sq, harmonic_conjugate
from .transport import (
    _transport_hat_w,
    transport_hat_w,
    transport_hat_w_grad,
    transport_w,
    transport_w_grad,
)


# ---------------------------------------------------------------- input


class InputError(Exception):
    """Bad user input; maps to exit code 2."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError("config file must hold a JSON object")
    return cfg


def _parse_vortex_flag(items) -> list:
    out = []
    for item in items:
        parts = item.split(",")
        if len(parts) != 3:
            raise InputError(f"vortex flag needs re,im,degree: {item!r}")
        try:
            out.append(
                {"re": float(parts[0]), "im": float(parts[1]), "degree": int(parts[2])}
            )
        except ValueError as exc:
            raise InputError(f"bad vortex {item!r}: {exc}") from exc
    return out


def _build_configuration(entries) -> VortexConfiguration:
    if not entries:
        raise InputError("no vortices given (flag --vortex or config 'vortices')")
    try:
        pts = [complex(e["re"], e["im"]) for e in entries]
        degs = [int(e["degree"]) for e in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad vortex entry: {exc}") from exc
    cfg = VortexConfiguration(pts, degs)
    try:
        validate_configuration(cfg)
    except VortexwError as exc:
        raise InputError(str(exc)) from exc
    return cfg


def _build_base(args, cfg: VortexConfiguration, default: VortexConfiguration) -> VortexConfiguration:
    """The reference configuration: --base if given, default otherwise. W
    is defined only when its total degree equals that of cfg."""
    if not args.base:
        return default
    base = _build_configuration(_parse_vortex_flag(args.base))
    if base.total_degree != cfg.total_degree:
        raise InputError(
            f"base total degree {base.total_degree} differs from the "
            f"configuration's {cfg.total_degree}"
        )
    return base


def _build_map(spec) -> ConformalPolyMap:
    if spec is None or spec == "identity":
        return ConformalPolyMap.identity()
    if isinstance(spec, dict):
        try:
            coeffs = [complex(x, y) for x, y in spec["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad map spec: {exc}") from exc
    else:
        try:
            coeffs = [complex(tok) for tok in str(spec).split(",")]
        except ValueError as exc:
            raise InputError(f"bad map coefficients {spec!r}: {exc}") from exc
    if len(coeffs) < 2:
        raise InputError("map needs at least coefficients c0,c1")
    if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
        raise InputError(f"map coefficients must be finite: {spec!r}")
    return ConformalPolyMap(coeffs)


def _build_psi(spec, trunc: int) -> FourierSeries:
    if spec is None or spec == "zero":
        return FourierSeries.zeros(trunc)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad psi spec {spec!r}: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError("psi must be 'zero' or an object with cos/sin lists")
    try:
        a0 = float(spec.get("a0", 0.0))
        cos = [float(v) for v in spec.get("cos", [])]
        sin = [float(v) for v in spec.get("sin", [])]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad psi spec: {exc}") from exc
    if not all(math.isfinite(v) for v in [a0, *cos, *sin]):
        raise InputError("psi coefficients must be finite")
    psi = FourierSeries.from_real(a0=a0, cos=cos, sin=sin, trunc=trunc)
    with np.errstate(over="ignore"):
        seminorm_sq = h_half_seminorm_sq(psi)
    if not math.isfinite(seminorm_sq):
        raise InputError("psi has no finite H^1/2 seminorm")
    return psi


def _positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return value


def _trunc(args, conf, default: int) -> int:
    value = args.trunc if args.trunc is not None else conf.get("trunc", default)
    return _positive_int("trunc", value)


# --------------------------------------------------------------- output


def _jsonable(x):
    """Plain JSON types; a value that is not a finite number becomes null."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": _jsonable(x.real), "im": _jsonable(x.imag)}
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _emit(payload, out_path: str | None):
    _write(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n",
        out_path,
    )


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------- subcommands


def _cmd_energy(args, conf):
    f = _build_map(args.map or conf.get("map"))
    validate_map(f)
    cfg = _build_configuration(
        _parse_vortex_flag(args.vortex) if args.vortex else conf.get("vortices", [])
    )
    trunc = _trunc(args, conf, 64)
    psi = _build_psi(args.psi or conf.get("psi"), trunc)
    ctx = DiscEnergyContext(_build_base(args, cfg, cfg), trunc=trunc)
    payload = {
        "hat_w": hat_w(cfg),
        "hat_w_grad": hat_w_grad(cfg),
        "w": transport_w(f, ctx, cfg, psi),
        "w_grad": transport_w_grad(f, ctx, cfg, psi).tolist(),
        "psi_seminorm_sq": h_half_seminorm_sq(harmonic_conjugate(psi)),
    }
    if not f.is_identity():
        payload["hat_w_domain"] = transport_hat_w(f, cfg)
        payload["hat_w_domain_grad"] = transport_hat_w_grad(f, cfg)
    _emit(payload, args.out)
    return 0


def _cmd_crit(args, conf):
    f = _build_map(args.map or conf.get("map"))
    validate_map(f)
    init = _build_configuration(
        _parse_vortex_flag(args.vortex) if args.vortex else conf.get("vortices", [])
    )
    base = _build_base(args, init, init)
    psi_spec = args.psi or conf.get("psi")
    if psi_spec is None:
        rep = find_critical_hat_w(f, init)
    else:
        trunc = _trunc(args, conf, 64)
        ctx = DiscEnergyContext(base, trunc=trunc)
        rep = find_critical_w(f, ctx, _build_psi(psi_spec, trunc), init)
    _emit(
        {
            "location": list(rep.location.points),
            "degrees": list(rep.location.degrees),
            "value": rep.value,
            "residual_norm": rep.residual_norm,
            "iterations": rep.iterations,
            "nondegenerate": rep.nondegenerate,
            "hessian": rep.hessian,
        },
        args.out,
    )
    return 0


def _cmd_nd(args, conf):
    f = _build_map(args.map or conf.get("map"))
    trunc = _trunc(args, conf, 16)
    nd1 = ndcheck.check_nd1(f)  # validates the map
    nd2 = ndcheck.check_nd2(f, nd1, trunc=trunc)
    _emit(
        {
            "nd1": "pass" if nd1.passed else "fail",
            "nd2": "pass" if nd2.passed else "fail",
            "a0": nd1.a0,
            "alpha0": nd1.alpha0,
            "sigma_min": nd2.smallest_singular_value,
            "sigma_min_refined": nd2.smallest_singular_value_refined,
            "stable": nd2.stable,
        },
        args.out,
    )
    return 0 if (nd1.passed and nd2.passed) else 1


def _cmd_expand(args, conf):
    f = _build_map(args.map or conf.get("map"))
    if not f.is_identity():
        raise InputError("expand supports only --map identity")
    cfg = _build_configuration(
        _parse_vortex_flag(args.vortex) if args.vortex else conf.get("vortices", [])
    )
    trunc = _trunc(args, conf, 64)
    psi = _build_psi(args.psi or conf.get("psi"), trunc)
    default = VortexConfiguration([0.0], cfg.degrees) if cfg.k == 1 else cfg
    ctx = DiscEnergyContext(_build_base(args, cfg, default), trunc=trunc)
    rho_spec = args.rho or conf.get("rho")
    if not rho_spec:
        raise InputError("expand needs --rho r1,r2,r3 (decreasing)")
    try:
        tokens = rho_spec.split(",") if isinstance(rho_spec, str) else rho_spec
        rho_list = [float(t) for t in tokens]
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad rho list {rho_spec!r}") from exc
    if (
        len(rho_list) < 3
        or not all(0.0 < r < 1.0 for r in rho_list)
        or any(r2 >= r1 for r1, r2 in zip(rho_list, rho_list[1:]))
    ):
        raise InputError(
            f"rho needs at least three strictly decreasing values in (0, 1): {rho_spec!r}"
        )
    rep = expansion_report(ctx, cfg, psi, rho_list)
    _emit(
        {
            "rho": rep.rho,
            "energies": rep.energies,
            "w_estimate": rep.w_estimate,
            "w_formula": rep.w_formula,
            "abs_err": abs(rep.w_estimate - rep.w_formula),
            "fitted_slope": rep.fitted_slope,
            "slope_check": rep.slope_check,
            "residuals": rep.residuals,
        },
        args.out,
    )
    return 0


def _cmd_landscape(args, conf):
    f = _build_map(args.map or conf.get("map"))
    validate_map(f)
    n = _positive_int("grid", args.grid)
    xs = np.linspace(-0.95, 0.95, n)
    gx, gy = np.meshgrid(xs, xs)  # rows run over y, columns over x
    p = np.empty(gx.size, dtype=complex)
    p.real, p.imag = gx.ravel(), gy.ravel()
    # every grid point is a configuration of one vortex
    configs = p[:, None]
    ok = configuration_is_admissible(configs)
    values = np.full(p.size, np.nan)
    values[ok] = _transport_hat_w(f, configs[ok], np.array([float(args.degree)]))
    _write(_landscape_text(xs.tolist(), values.tolist(), args.csv), args.out)
    return 0


# The rows of {"rows": [{"x": x, "y": y, "hat_w": v}, ...]} as _emit would
# write them, keys sorted; a row of the CSV is "{x:.6f},{y:.6f},{v}".
_JSON_ROW = '    {\n      "hat_w": %s,\n      "x": %s,\n      "y": %s\n    }'


def _landscape_text(axis: list, values: list, csv: bool) -> str:
    """The landscape output without the generic encoder: the n coordinates
    of an axis are formatted once and shared by x and y, and only the n^2
    values one by one. Rows run over y, x fastest."""
    n = len(axis)
    ax = ["{:.6f}".format(t) for t in axis] if csv else list(map(repr, axis))
    xs, ys = ax * n, [t for t in ax for _ in range(n)]
    if csv:
        rows = map(",".join, zip(xs, ys, map(repr, values)))
        return "x,y,hat_w\n" + "\n".join(rows) + "\n"
    vs = [repr(v) if math.isfinite(v) else "null" for v in values]
    rows = map(_JSON_ROW.__mod__, zip(vs, xs, ys))
    return '{\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def _cmd_selfcheck(args, conf):
    checks = []

    def add(name, fn):
        try:
            ok = bool(fn())
        except Exception:  # noqa: BLE001 - verdict, not control flow
            ok = False
        checks.append({"name": name, "passed": ok})

    origin = VortexConfiguration([0.0], (1,))
    add("hat_w_origin_zero", lambda: abs(hat_w(origin)) < 1e-14)
    add(
        "hat_w_grad_origin_zero",
        lambda: np.max(np.abs(hat_w_grad(origin))) < 1e-12,
    )
    add(
        "hat_w_hess_origin",
        lambda: np.allclose(
            hat_w_hess(origin), -2 * np.pi * np.eye(2), atol=1e-10
        ),
    )
    add(
        "w_hess_origin",
        lambda: np.allclose(
            w_disc_hess(DiscEnergyContext(origin), origin, FourierSeries.zeros(8)),
            2 * np.pi * np.eye(2),
            atol=1e-8,
        ),
    )
    add(
        "du_star_diagonal",
        lambda: np.allclose(
            ndcheck.du_star_matrix_analytic_disc(8),
            np.diag([-1.0, -1.0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8]),
        ),
    )
    add(
        "determinant_identity",
        lambda: all(
            ndcheck.magic_determinant_check(w) for w in (0.0, 1 + 1j, 3 + 4j, -2.5j)
        ),
    )
    probe = FourierSeries.from_real(cos=[1.0, 0.5], sin=[0.3])
    add(
        "conjugate_involution",
        lambda: np.allclose(
            harmonic_conjugate(harmonic_conjugate(probe)).coeffs,
            -probe.with_zero_mean().coeffs,
            atol=1e-14,
        ),
    )
    all_passed = all(c["passed"] for c in checks)
    _emit({"checks": checks, "all_passed": all_passed}, args.out)
    return 0 if all_passed else 1


# -------------------------------------------------------------- parsing


def _make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="vortexw", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, rho=False, base=True, psi=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--map", help="'identity' or comma-separated coefficients c0,c1,...")
        p.add_argument("--vortex", action="append", help="re,im,degree (repeatable)")
        p.add_argument("--trunc", type=int, help="Fourier truncation order")
        p.add_argument("--out", help="write output to file instead of stdout")
        if base:
            p.add_argument(
                "--base", action="append", help="reference vortex re,im,degree"
            )
        if psi:
            p.add_argument(
                "--psi", help="'zero' or JSON {\"cos\": [...], \"sin\": [...]}"
            )
        if rho:
            p.add_argument("--rho", help="comma-separated decreasing radii")

    common(sub.add_parser("energy", help="energy values and gradients"))
    common(sub.add_parser("crit", help="Newton search for a critical point"))
    p_nd = sub.add_parser("nd", help="nondegeneracy certification")
    common(p_nd, base=False, psi=False)
    common(sub.add_parser("expand", help="small-core expansion fit"), rho=True)
    p_land = sub.add_parser("landscape", help="grid of energy values")
    common(p_land, base=False, psi=False)
    p_land.add_argument("--grid", type=int, default=61, help="grid points per axis")
    p_land.add_argument("--degree", type=int, default=1, help="vortex degree")
    p_land.add_argument("--csv", action="store_true", help="emit CSV rows x,y,hat_w")
    p_self = sub.add_parser("selfcheck", help="run the analytic fixtures")
    p_self.add_argument("--out", help="write output to file instead of stdout")
    return top


_PARSER = _make_parser()

_DISPATCH = {
    "energy": _cmd_energy,
    "crit": _cmd_crit,
    "nd": _cmd_nd,
    "expand": _cmd_expand,
    "landscape": _cmd_landscape,
    "selfcheck": _cmd_selfcheck,
}


# argparse reads a token that starts with "-" as a flag, so a value such as
# "-0.2,0.4,1" is glued to its flag before parsing.
_SIGNED_VALUE_FLAGS = ("--vortex", "--base", "--map")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _glue_signed_values(argv) -> list:
    out = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_FLAGS and _SIGNED_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(_glue_signed_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        conf = _load_config(getattr(args, "config", None))
        return _DISPATCH[args.command](args, conf)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VortexwError as exc:
        _emit(
            {"error": type(exc).__name__, "message": str(exc)},
            getattr(args, "out", None),
        )
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
