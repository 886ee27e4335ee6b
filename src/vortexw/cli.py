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
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ndcheck
from ._calculus import grad_to_vec
from .core import (
    DEFAULT_TRUNC,
    ConformalPolyMap,
    FourierSeries,
    VortexConfiguration,
    configuration_is_admissible,
)
from .critpoint import find_critical_hat_w, find_critical_w
from .disc_energy import (
    DiscEnergyContext,
    _composite_coeffs,
    _hat_w,
    _hat_w_derivs,
    _seminorm,
    _seminorm_derivs,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    w_disc_hess,
)
from .errors import VortexwError
from .expansion import expansion_report
from .harmonic import h_half_seminorm_sq, harmonic_conjugate
from .transport import _log_fprime, _log_fprime_derivs, _transport_hat_w


# ---------------------------------------------------------------- input

# Largest --trunc and --grid accepted, checked before anything is allocated:
# nd at trunc 512 takes seconds, and a grid of 1001 writes a million rows,
# 96 MB of JSON or 35 MB of CSV, at a peak RSS of about 274 or 212 MB.
MAX_TRUNC = 512
MAX_GRID = 1001
# Largest |degree| of a vortex accepted: the energies grow as the squared
# degrees, and a degree too large for a float would overflow them.
MAX_DEGREE = 1000
# Largest degree of a --map accepted (one more coefficient than this): the
# map check finds the roots of f' from a companion matrix of that size.
MAX_MAP_DEGREE = 64
# Most vortices accepted in one configuration (--vortex or --base, flag or
# config): the configuration check builds a k x k table of pairwise gaps,
# and crit solves 2k x 2k systems.
MAX_VORTICES = 256
# Most --rho radii accepted (flag or config): expand integrates over k
# core circles of up to expansion.MAX_NODES nodes per radius, in kernel
# calls of at most k expansion.MAX_NODES / 2 points whatever the count.
MAX_RADII = 32


class InputError(Exception):
    """Bad user input; maps to exit code 2."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    # ValueError covers bad JSON, bytes that are not UTF-8 and integers
    # longer than Python converts
    except (OSError, ValueError) as exc:
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
        degs = [e["degree"] for e in entries]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad vortex entry: {exc}") from exc
    if len(pts) > MAX_VORTICES:
        raise InputError(f"at most {MAX_VORTICES} vortices are accepted, got {len(pts)}")
    for deg in degs:
        _degree(deg)
    try:
        return VortexConfiguration(pts, degs)
    except VortexwError as exc:
        raise InputError(str(exc)) from exc


def _degree(deg) -> int:
    if isinstance(deg, bool) or not isinstance(deg, int):
        raise InputError(f"vortex degree must be an integer, got {deg!r}")
    if abs(deg) > MAX_DEGREE:
        raise InputError(
            f"vortex degree must be an integer from {-MAX_DEGREE} to {MAX_DEGREE}, got {deg!r}"
        )
    return deg


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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad map spec: {exc}") from exc
    else:
        try:
            coeffs = [complex(tok) for tok in str(spec).split(",")]
        except ValueError as exc:
            raise InputError(f"bad map coefficients {spec!r}: {exc}") from exc
    if len(coeffs) < 2:
        raise InputError("map needs at least coefficients c0,c1")
    if len(coeffs) > MAX_MAP_DEGREE + 1:
        raise InputError(f"map degree must be at most {MAX_MAP_DEGREE}, got {len(coeffs) - 1}")
    if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in coeffs):
        raise InputError(f"map coefficients must be finite: {spec!r}")
    return ConformalPolyMap(coeffs)


def _build_psi(spec, trunc: int) -> FourierSeries:
    if spec is None or spec == "zero":
        return FourierSeries.zeros(trunc)
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except ValueError as exc:
            raise InputError(f"bad psi spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError("psi must be 'zero' or an object with cos/sin lists")
    try:
        a0 = float(spec.get("a0", 0.0))
        cos = [float(v) for v in spec.get("cos", [])]
        sin = [float(v) for v in spec.get("sin", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad psi spec: {exc}") from exc
    if not all(math.isfinite(v) for v in [a0, *cos, *sin]):
        raise InputError("psi coefficients must be finite")
    psi = FourierSeries.from_real(a0=a0, cos=cos, sin=sin, trunc=trunc)
    with np.errstate(over="ignore"):
        seminorm_sq = h_half_seminorm_sq(psi)
    if not math.isfinite(seminorm_sq):
        raise InputError("psi has no finite H^1/2 seminorm")
    return psi


def _size(name: str, value, largest: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= largest:
        raise InputError(f"{name} must be an integer from 1 to {largest}, got {value!r}")
    return value


def _setting(args, conf, name: str, default):
    """The flag's value if it was given, else the config's, else default."""
    value = getattr(args, name)
    return conf.get(name, default) if value is None else value


def _trunc(args, conf, default: int) -> int:
    return _size("trunc", _setting(args, conf, "trunc", default), MAX_TRUNC)


# --------------------------------------------------------------- output


def _float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


def _json(x, pad: str = "\n") -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes its plain JSON
    form: tuples and arrays as lists, a complex number as {"im", "re"},
    numpy scalars as Python ones, and a number that is not finite as null.
    pad is the newline and indent of x's own level."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        if all(type(v) is float for v in x):  # a gradient or a Hessian row
            items = map(_float, x)
        else:
            items = (_json(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = (encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(x.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, complex):
        return _json({"im": x.imag, "re": x.real}, pad)
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        x = x.item()
    if isinstance(x, float):
        return _float(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"cannot write {type(x).__name__} as JSON")


def _emit(payload, out_path: str | None):
    _write(_json(payload) + "\n", out_path)


def _write(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------- subcommands


def _cmd_energy(args, conf):
    f = _build_map(args.map or conf.get("map"))
    cfg = _build_configuration(
        _parse_vortex_flag(args.vortex) if args.vortex else conf.get("vortices", [])
    )
    trunc = _trunc(args, conf, DEFAULT_TRUNC)
    psi = _build_psi(args.psi or conf.get("psi"), trunc)
    ctx = DiscEnergyContext(_build_base(args, cfg, cfg), trunc, psi)
    # each term once, summed as hat_w(_grad), transport_w(_grad) and
    # transport_hat_w(_grad) sum it: W = (hat_w + S) + map term, and so on
    a, d = cfg.points_array(), cfg.degrees_array()
    hw, du_h = _hat_w(a, d), _hat_w_derivs(a, d)[0]
    u = _composite_coeffs(ctx, a, d)
    lf, du_m = _log_fprime(f, a, d), _log_fprime_derivs(f, a, d)[0]
    payload = {
        "hat_w": float(hw),
        "hat_w_grad": grad_to_vec(du_h),
        "w": float(hw + _seminorm(u) + lf),
        "w_grad": grad_to_vec(du_h + _seminorm_derivs(a, d, u)[0] + du_m).tolist(),
        "psi_seminorm_sq": h_half_seminorm_sq(ctx.psi),
    }
    if not f.is_identity():
        payload["hat_w_domain"] = float(hw + lf)
        payload["hat_w_domain_grad"] = grad_to_vec(du_h + du_m)
    _emit(payload, args.out)
    return 0


def _cmd_crit(args, conf):
    f = _build_map(args.map or conf.get("map"))
    init = _build_configuration(
        _parse_vortex_flag(args.vortex) if args.vortex else conf.get("vortices", [])
    )
    base = _build_base(args, init, init)
    trunc = _trunc(args, conf, DEFAULT_TRUNC)  # validated even when unread
    psi_spec = args.psi or conf.get("psi")
    if psi_spec is None:
        rep = find_critical_hat_w(f, init)
    else:
        rep = find_critical_w(f, DiscEnergyContext(base, trunc, _build_psi(psi_spec, trunc)), init)
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
    nd1 = ndcheck.check_nd1(f)
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
    trunc = _trunc(args, conf, DEFAULT_TRUNC)
    psi = _build_psi(args.psi or conf.get("psi"), trunc)
    default = VortexConfiguration([0.0], cfg.degrees) if cfg.k == 1 else cfg
    ctx = DiscEnergyContext(_build_base(args, cfg, default), trunc, psi)
    rho_spec = args.rho or conf.get("rho")
    if not rho_spec:
        raise InputError("expand needs --rho r1,r2,r3 (decreasing)")
    try:
        tokens = rho_spec.split(",") if isinstance(rho_spec, str) else rho_spec
        rho_list = [float(t) for t in tokens]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad rho list {rho_spec!r}") from exc
    if len(rho_list) > MAX_RADII:
        raise InputError(f"at most {MAX_RADII} rho values are accepted, got {len(rho_list)}")
    if (
        len(rho_list) < 3
        or not all(0.0 < r < 1.0 for r in rho_list)
        or any(r2 >= r1 for r1, r2 in zip(rho_list, rho_list[1:]))
    ):
        raise InputError(
            f"rho needs at least three strictly decreasing values in (0, 1): {rho_spec!r}"
        )
    rep = expansion_report(ctx, cfg, rho_list)
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
    n = _size("grid", _setting(args, conf, "grid", 61), MAX_GRID)
    degree = _degree(_setting(args, conf, "degree", 1))
    xs = np.linspace(-0.95, 0.95, n)
    p = np.empty((n, n), dtype=complex)  # rows run over y, columns over x
    p.real[...] = xs
    p.imag[...] = xs[:, None]
    # every grid point is a configuration of one vortex
    configs = p.reshape(-1, 1)
    ok = configuration_is_admissible(configs)
    values = np.full(n * n, np.nan)
    values[ok] = _transport_hat_w(f, configs[ok], np.array([float(degree)]))
    _write(_landscape_text(xs.tolist(), values, args.csv), args.out)
    return 0


# A row of {"rows": [{"x": x, "y": y, "hat_w": v}, ...]} as _emit would
# write it, keys sorted, is _ROW_HEAD v _ROW_X x _ROW_Y y _ROW_END; a row of
# the CSV is "{x:.6f},{y:.6f},{v}".
_ROW_HEAD = '    {\n      "hat_w": '
_ROW_X = ',\n      "x": '
_ROW_Y = ',\n      "y": '
_ROW_END = "\n    }"


def _landscape_text(axis: list, values: np.ndarray, csv: bool) -> str:
    """The landscape output in one join: a header, three slots per row (x,
    y, value for CSV; value, x, y for JSON, where a y part closes its row and
    opens the next) and a footer. Only the n^2 values are formatted one by one."""
    n, end = len(axis), 3 * len(axis) ** 2 + 1  # end: the footer's index
    if csv:
        head, foot, v0, x0, y0 = "x,y,hat_w", "\n", 3, 1, 2
        xparts = ["\n{:.6f},".format(t) for t in axis]
        yparts = ["{:.6f},".format(t) for t in axis]
    else:
        head, foot, v0, x0, y0 = '{\n  "rows": [\n' + _ROW_HEAD, "\n  ]\n}\n", 1, 2, 3
        xparts = [_ROW_X + repr(t) + _ROW_Y for t in axis]
        yparts = [repr(t) + _ROW_END + ",\n" + _ROW_HEAD for t in axis]
    pieces = [foot] * (end + 1)
    pieces[0] = head
    pieces[v0:end:3] = map(repr, values.tolist())
    pieces[x0:end:3] = xparts * n  # rows run over y, x fastest
    for i, y in enumerate(yparts):
        pieces[y0 + 3 * n * i : y0 + 3 * n * (i + 1) : 3] = [y] * n
    if not csv:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            pieces[v0 + 3 * i] = "null"
        pieces[end - 1] = repr(axis[-1]) + _ROW_END  # the last row opens none
    return "".join(pieces)


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
            w_disc_hess(DiscEnergyContext(origin), origin),
            2 * np.pi * np.eye(2),
            atol=1e-8,
        ),
    )
    # the operator as nd assembles it, against its exact disc spectrum
    identity = ConformalPolyMap.identity()
    add(
        "du_star_diagonal",
        lambda: np.allclose(
            ndcheck.assemble_du_matrix(identity, ndcheck.check_nd1(identity), 8),
            ndcheck.du_star_matrix_analytic_disc(8),
            rtol=0.0,
            atol=1e-6,
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


_FLAGS = {
    "--config": dict(help="JSON config file; flags override it"),
    "--map": dict(help="'identity' or comma-separated coefficients c0,c1,..."),
    "--vortex": dict(action="append", help="re,im,degree (repeatable)"),
    "--trunc": dict(type=int, help="Fourier truncation order"),
    "--out": dict(help="write output to file instead of stdout"),
    "--base": dict(action="append", help="reference vortex re,im,degree"),
    "--psi": dict(help="'zero' or JSON {\"cos\": [...], \"sin\": [...]}"),
    "--rho": dict(help="comma-separated decreasing radii"),
    "--grid": dict(type=int, help="grid points per axis (default 61)"),
    "--degree": dict(type=int, help="vortex degree (default 1)"),
    "--csv": dict(action="store_true", help="emit CSV rows x,y,hat_w"),
}
_ENERGY_FLAGS = ("--config", "--map", "--vortex", "--trunc", "--out", "--base", "--psi")


def _make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="vortexw", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    for name, help_text, flags in (
        ("energy", "energy values and gradients", _ENERGY_FLAGS),
        ("crit", "Newton search for a critical point", _ENERGY_FLAGS),
        ("nd", "nondegeneracy certification", ("--config", "--map", "--trunc", "--out")),
        ("expand", "small-core expansion fit", _ENERGY_FLAGS + ("--rho",)),
        (
            "landscape",
            "grid of energy values",
            ("--config", "--map", "--out", "--grid", "--degree", "--csv"),
        ),
        ("selfcheck", "run the analytic fixtures", ("--out",)),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
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
# "-0.2,0.4,1" is glued to its flag, named whole or by a prefix, before
# parsing.
_SIGNED_VALUE_FLAGS = ("--vortex", "--base", "--map")
_SIGNED_VALUE = re.compile(r"-[0-9.]")
_POINT_FLAGS = ("--vortex", "--base")
_POINT_COMMANDS = ("energy", "crit", "expand")


def _flag_named(head: str, flags) -> str | None:
    """The flag of flags that head names, whole or by a prefix as argparse
    takes it: no other flag of a subcommand starts as these do."""
    if len(head) > 2:
        for flag in flags:
            if flag.startswith(head):
                return flag
    return None


def _parse_args(argv) -> argparse.Namespace:
    """The parsed argv. argparse takes tens of microseconds per token, and a
    many-vortex run passes one --vortex per vortex. So for the subcommands
    that read them, the --vortex and --base values are collected here, in
    order, and argparse parses the other tokens. Where argparse could read a
    point flag otherwise (after "--", or with no value, or right after a
    flag that waits for one), it parses all of argv and writes its own
    error."""
    glued = []
    for tok in argv:
        if glued and _SIGNED_VALUE.match(tok) and _flag_named(glued[-1], _SIGNED_VALUE_FLAGS):
            glued[-1] += "=" + tok
        else:
            glued.append(tok)
    if not glued or glued[0] not in _POINT_COMMANDS or "--" in glued:
        return _PARSER.parse_args(glued)
    rest, points = glued[:1], {flag: [] for flag in _POINT_FLAGS}
    i = 1
    while i < len(glued):
        head, eq, value = glued[i].partition("=")
        flag = _flag_named(head, _POINT_FLAGS)
        if flag is None:
            rest.append(glued[i])
        elif glued[i - 1].startswith("-") and "=" not in glued[i - 1]:
            return _PARSER.parse_args(glued)  # glued[i - 1] may wait for a value
        elif eq:
            points[flag].append(value)
        elif i + 1 < len(glued) and not glued[i + 1].startswith("-"):
            i += 1
            points[flag].append(glued[i])
        else:
            return _PARSER.parse_args(glued)  # a point flag with no value
        i += 1
    args = _PARSER.parse_args(rest)
    args.vortex = points["--vortex"] or None
    args.base = points["--base"] or None
    return args


def run(argv) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        conf = _load_config(getattr(args, "config", None))
        try:
            return _DISPATCH[args.command](args, conf)
        except VortexwError as exc:
            _emit(
                {"error": type(exc).__name__, "message": str(exc)},
                getattr(args, "out", None),
            )
            return 1
    except InputError as exc:
        # also an --out path that cannot be written, even for an error payload
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
