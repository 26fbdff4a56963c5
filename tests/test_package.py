"""The package namespace: the public names, built from the module lists,
and the layering of the modules."""

import ast
import importlib
from pathlib import Path

import conjresp

PUBLIC = [
    "CoVectorForm", "ConfigError", "ConjugatedMap", "ConstructionError",
    "ConvergenceError", "ConvergenceReport", "DeformedMap", "ExpansionError",
    "FlowEvaluation", "FlowMap", "MoserFlow", "NormalizationError", "PositivityError",
    "QualityError", "ScalarField", "SolutionStrategy", "TorusGrid", "TorusMap",
    "VectorFieldT", "VolumeDensity", "add_closed_form", "contract", "contract_inverse",
    "default_steps", "deformation_derivative", "derivative_check", "divergence",
    "divide", "exact_primitive", "exterior_derivative", "field_from_json",
    "field_to_csv", "field_to_json", "flow_map", "gradient", "integrate_flow",
    "invariance_defect", "lie_derivative_density", "load_field",
    "make_linear", "make_warped_doubling", "moser_transport", "multiply",
    "pushforward_density", "remove_weighted_mean", "response_check", "save_field",
    "solve_exactness", "solve_for_field", "solve_laplace", "solve_weighted_poisson",
    "transfer_check", "transported_density", "wrap_difference",
]

# module-level names kept out of the package namespace
MODULE_ONLY = {
    "fields": ["MIN_RESOLUTION", "as_points", "mod1", "sample_coefficients"],
    "exactness": ["MEAN_ZERO_TOL", "weighted_response"],
    "flow": ["RK4_STABILITY_LIMIT", "SUBMAP_STRETCH", "TAIL_TOL", "flow_maps"],
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
