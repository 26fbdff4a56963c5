"""The package namespace: the public names, built from the module lists,
the layering of the modules, and the library names the benchmark's tracer
wraps."""

import ast
import importlib
import importlib.util
from pathlib import Path

import conjresp

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CoVectorForm", "ConfigError", "ConjugatedMap", "ConstructionError",
    "ConvergenceError", "ConvergenceReport", "ExpansionError",
    "FlowEvaluation", "FlowMap", "MoserFlow", "NormalizationError", "PositivityError",
    "QualityError", "ScalarField", "SolutionStrategy", "TorusGrid", "TorusMap",
    "VectorFieldT", "VolumeDensity", "add_closed_form", "contract", "contract_inverse",
    "deformation_derivative", "derivative_check", "divergence",
    "exact_primitive", "exterior_derivative", "field_from_json",
    "field_to_csv", "field_to_json", "flow_map", "gradient",
    "invariance_defect", "lie_derivative_density", "load_field",
    "make_warped_doubling", "moser_transport",
    "pushforward_density", "remove_weighted_mean", "response_check", "save_field",
    "solve_exactness", "solve_for_field", "solve_laplace", "solve_weighted_poisson",
    "transfer_check", "transported_density", "wrap_difference",
]

# module-level names kept out of the package namespace
MODULE_ONLY = {
    "fields": ["MIN_RESOLUTION", "as_points", "mod1", "sample_coefficients"],
    "exactness": ["MEAN_ZERO_TOL", "weighted_response"],
    "flow": ["MOSER_STABILITY_LIMIT", "MOSER_SUBMAP_STRETCH", "SERIES_REACH", "SERIES_TERMS",
             "SERIES_TOL", "SUBMAP_STRETCH", "TAIL_TOL", "flow_maps", "integrate_flow"],
    "verify": ["NOISE_FLOOR", "ORDER_RANGE"],
}


def test_public_names_are_pinned():
    assert sorted(conjresp.__all__) == PUBLIC
    assert len(set(conjresp.__all__)) == len(conjresp.__all__)


def test_every_public_name_resolves():
    for name in conjresp.__all__:
        value = getattr(conjresp, name)
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_module_only_names_stay_importable_but_private_to_the_package():
    for module_name, names in MODULE_ONLY.items():
        module = importlib.import_module(f"conjresp.{module_name}")
        for name in names:
            assert hasattr(module, name)
            assert not hasattr(conjresp, name)


# each module imports only from modules before it
LAYERS = ["errors", "fields", "exactness", "flow", "dynamics", "verify", "config", "cli"]


def test_modules_import_only_from_lower_layers():
    source = Path(conjresp.__file__).parent
    modules = sorted(p.stem for p in source.glob("*.py"))
    assert sorted(LAYERS + ["__init__", "__main__"]) == modules
    upward = []
    for module in LAYERS:
        tree = ast.parse((source / f"{module}.py").read_text())
        # every relative import, those inside functions too
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported = node.module or ""
                if imported not in LAYERS[:LAYERS.index(module)]:
                    upward.append(f"{module}:{node.lineno} imports from .{imported}")
    assert not upward


def _bench_tracing():
    """bench/tracing.py as a module object of its own, outside sys.modules;
    nothing is installed, only its tables are read."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owners_own_namespace():
    # the traced benchmark runs replace each entry through vars(owner); tier-1
    # runs no traced benchmark, so this is where a library rename shows
    tracing = _bench_tracing()
    entries = ([(module, qualname) for _, module, qualname, _ in tracing.TARGETS]
               + [(module, qualname) for _, _, module, qualname in tracing.COUNTERS])
    assert entries
    missing = []
    for module_name, qualname in entries:
        owner = importlib.import_module(module_name)
        *path, name = qualname.split(".")
        for part in path:
            owner = vars(owner).get(part)
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
    assert not missing
