"""The public surface: what ``qfilter`` exports and what its callers use.

The top level holds the stage functions, their value types and the
errors.  The benchmark (``perfbench/``) and the scripts call the package
as ``qf.<name>``, and the benchmark's tracer rebinds the functions named
in its ``TRACED`` table inside the modules that define them, so a name
dropped from either place would break them without any other test
noticing.
"""

import ast
import copy
import gc
import importlib
import pathlib
import pickle
import re
import weakref

import pytest

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
    "DomainError",
]


def test_all_is_the_declared_list_and_every_name_resolves():
    assert len(PUBLIC) == len(set(PUBLIC)) == 36
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


#: Traced names that the program no longer defines (``design`` writes its
#: POVM unitary down and completes none): their spans and per-layer figures
#: read 0 until the benchmark stops tracing them.
RETIRED_TRACED = {"complete_unitary"}


def test_every_traced_name_is_defined_in_its_module():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert RETIRED_TRACED <= set(traced)
    for name, layer in traced.items():
        module = importlib.import_module(f"qfilter.{layer}")
        if name in RETIRED_TRACED:
            assert not hasattr(module, name)
            continue
        assert getattr(module, name).__module__ == module.__name__


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from qfilter import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)


#: The ten value types and their fields, in constructor order.
VALUE_FIELDS = {
    "StateVector": ("amplitudes",),
    "Ensemble": ("states", "priors"),
    "OverlapSet": ("O12", "O13", "O23", "alpha"),
    "FilterSolution": ("q1", "q2", "q3", "Q", "regime", "A", "parallel_norm2"),
    "MeasurementDesign": (
        "success_vectors", "failure_vectors", "unitary", "theta", "chi",
        "solution", "embedded_inputs", "state1_port",
    ),
    "BeamSplitterLayer": ("p", "q", "t", "r", "phi"),
    "MeshProgram": ("layers", "output_phases"),
    "SimulationReport": (
        "exact_probabilities", "counts", "trials", "violations", "empirical_Q", "seed",
    ),
    "OracleResult": ("q1_star", "Q_star", "grid_resolution", "residuals"),
    "ComparisonRecord": ("Q", "Q_prime", "Q_double_prime", "ratio", "resolution"),
}
#: The types that compare and hash by their fields; the others by identity.
BY_VALUE = {"OverlapSet", "FilterSolution", "BeamSplitterLayer", "MeshProgram", "ComparisonRecord"}


def value_of(name: str):
    """One instance of the value type `name`, from the stages."""
    e = qfilter.ensemble_from_overlaps(0.3, 0.3, 0.3, (0.5, 0.25, 0.25))
    sol = qfilter.solve(e)
    dsn = qfilter.design(e, sol)
    program = qfilter.decompose(dsn.unitary)
    return {
        "StateVector": lambda: e.states[1],
        "Ensemble": lambda: e,
        "OverlapSet": lambda: qfilter.overlaps(e),
        "FilterSolution": lambda: sol,
        "MeasurementDesign": lambda: dsn,
        "BeamSplitterLayer": lambda: program.layers[0],
        "MeshProgram": lambda: program,
        "SimulationReport": lambda: qfilter.sample(dsn, e, 1000, 7),
        "OracleResult": lambda: qfilter.brute_force_filter(e, 1e-3),
        "ComparisonRecord": lambda: qfilter.compare(e),
    }[name]()


@pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
def test_value_type_contract(name):
    """Read-only fields, copies that keep every field, comparison by fields
    or by identity, and a ``Name(field=value, ...)`` repr."""
    obj, fields = value_of(name), VALUE_FIELDS[name]
    assert type(obj) is getattr(qfilter, name)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        for field in fields:
            # pickled bytes: equal for ndarrays and identity-compared values alike
            assert pickle.dumps(getattr(twin, field)) == pickle.dumps(getattr(obj, field))
        if name in BY_VALUE:
            assert twin == obj and hash(twin) == hash(obj)
        else:
            assert twin != obj
    args = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
    assert repr(obj) == f"{name}({args})"
    if name == "Ensemble":
        keys = weakref.WeakKeyDictionary()
        twin = copy.copy(obj)
        keys[obj], keys[twin] = "original", "copy"
        assert keys[obj] == "original" and len(keys) == 2
        del twin
        gc.collect()
        assert list(keys.items()) == [(obj, "original")]
