"""The public surface: what ``qfilter`` exports and what its callers use.

The top level holds the stage functions, their value types and the
errors.  The benchmark (``perfbench/``) and the scripts call the package
as ``qf.<name>``, and the benchmark's tracer rebinds the functions named
in its ``TRACED`` table inside the modules that define them, so a name
dropped from either place would break them without any other test
noticing.
"""

import ast
import importlib
import pathlib
import re

import qfilter

ROOT = pathlib.Path(__file__).resolve().parent.parent

PUBLIC = [
    "__version__",
    # stage functions
    "solve",
    "design",
    "decompose",
    "recompose",
    "sample",
    "port_probabilities",
    "von_neumann_baseline",
    "compare",
    "three_state_Q",
    "two_state_Q",
    "brute_force_filter",
    "appendix_residuals",
    "overlaps",
    "parallel_component_norm2",
    "ensemble_from_overlaps",
    # value types
    "StateVector",
    "Ensemble",
    "OverlapSet",
    "Regime",
    "FilterSolution",
    "MeasurementDesign",
    "BeamSplitterLayer",
    "MeshProgram",
    "SimulationReport",
    "OracleResult",
    "ComparisonRecord",
    # errors
    "QFilterError",
    "InvalidStateError",
    "InvalidEnsembleError",
    "DegenerateSubspaceError",
    "DegeneratePriorError",
    "InternalConsistencyError",
    "InconsistentSolutionError",
    "InfeasibleError",
    "NoUnitaryError",
    "DomainError",
]


def test_all_is_the_declared_list_and_every_name_resolves():
    assert len(PUBLIC) == len(set(PUBLIC)) == 37
    assert sorted(qfilter.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(qfilter, name) is not None


def test_every_qf_name_used_by_the_benchmark_and_scripts_exists():
    paths = [ROOT / "perfbench" / "worker.py", *sorted((ROOT / "scripts").glob("*.py"))]
    used = {
        (str(path.relative_to(ROOT)), name)
        for path in paths
        for name in re.findall(r"\bqf\.([A-Za-z_]\w*)", path.read_text())
    }
    assert {"solve", "design", "decompose"} <= {name for _, name in used}
    assert sorted(use for use in used if not hasattr(qfilter, use[1])) == []


def test_every_traced_name_is_defined_in_its_module():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert "complete_unitary" in traced
    for name, layer in traced.items():
        module = importlib.import_module(f"qfilter.{layer}")
        assert getattr(module, name).__module__ == module.__name__


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from qfilter import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
