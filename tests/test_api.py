"""Guards for the public surface: the exported names, and the functions
that the benchmark's per-layer tracer (vwbench/tracer.py) reports."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import vortexw

KEPT = {
    "AnnulusQuadrature", "BACKEND", "BOUNDARY_MARGIN", "BoundaryNotSimple",
    "ConformalPolyMap", "CriticalPointReport", "DEFAULT_TRUNC",
    "DegenerateDerivative", "DegreeMismatch", "DiscEnergyContext", "EmptyConfiguration",
    "ExpansionReport", "FourierSeries", "InvalidRadius",
    "LeftAdmissibleRegion", "ND_TOL", "Nd1Report", "Nd2Report", "NewtonDiverged",
    "NoCriticalPointFound", "QuadratureNotConverged", "SEPARATION_MARGIN", "VortexConfiguration",
    "VortexTooCloseToBoundary", "VortexwError", "VorticesCollide",
    "assemble_du_matrix", "check_nd1", "check_nd2", "du_star_matrix_analytic_disc",
    "expansion_report", "find_critical_hat_w", "find_critical_w", "find_max_hat_w",
    "h_half_seminorm_sq", "harmonic_conjugate", "hat_w",
    "hat_w_grad", "hat_w_hess", "magic_determinant_check", "n_disc",
    "punctured_energy", "transport_hat_w", "transport_hat_w_grad", "transport_w",
    "transport_w_grad", "transport_w_hess", "validate_configuration",
    "validate_map", "w_disc", "w_disc_hess",
}

TRACER = Path(__file__).resolve().parents[1] / "vwbench" / "tracer.py"


def test_exports_are_the_kept_set():
    assert len(vortexw.__all__) == len(set(vortexw.__all__))
    assert set(vortexw.__all__) == KEPT


def test_every_export_imports():
    namespace = {}
    exec("from vortexw import *", namespace)
    assert KEPT <= set(namespace)


def traced_names():
    """The tracer module, and the dotted names its per_layer reads: the
    arguments of st(...) and the names of its `for fn in (...)` loops."""
    spec = importlib.util.spec_from_file_location("vwbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tree = ast.parse(inspect.getsource(tracer.Tracer.per_layer).lstrip())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "st":
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            names.update(e.value for e in node.iter.elts if isinstance(e, ast.Constant))
    return tracer, {n for n in names if "." in n}


def test_traced_functions_are_module_functions_of_their_layer():
    tracer, names = traced_names()
    assert {"cli.run", "transport.transport_hat_w", "harmonic.AnnulusQuadrature.build"} <= names
    layers = {layer.lstrip("_"): layer for layer in tracer.LAYERS}
    for name in names:
        layer, *path = name.split(".")
        mod = importlib.import_module(f"vortexw.{layers[layer]}")
        if path == ["AnnulusQuadrature", "build"]:
            # the tracer rebinds this classmethod on the class
            assert isinstance(inspect.getattr_static(mod.AnnulusQuadrature, "build"), classmethod)
            continue
        (attr,) = path
        obj = getattr(mod, attr, None)
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name


def test_only_core_runs_the_domain_checks():
    # a configuration or a map is checked once, when it is built, so no
    # other module calls the checks
    for path in sorted(Path(vortexw.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                assert name not in ("validate_map", "validate_configuration"), (path.name, node.lineno)
