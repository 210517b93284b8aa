"""Optimal unambiguous quantum-state filtering.

Given three pure states with prior probabilities, this package answers,
end to end, the question "is the system in state 1, or in the set
{state 2, state 3}?" with zero error tolerance:

* :mod:`qfilter.filter_core` — closed-form optimal failure probabilities
  and the measurement-regime classification;
* :mod:`qfilter.designer` — success/failure vectors and the 4x4 unitary
  realizing the optimal measurement on four optical modes;
* :mod:`qfilter.multiport` — beam-splitter mesh synthesis for that
  unitary (and resynthesis for verification);
* :mod:`qfilter.simulator` — exact port statistics and Monte Carlo
  audit of the designed measurement;
* :mod:`qfilter.oracle` — independent brute-force verification plus
  comparisons against full three-state identification;
* :mod:`qfilter.cli` — the ``qfilter`` command-line tool.

The top level exports the stage functions, their value types and the
errors.  Importing it does not import numpy: the closed forms, the design,
the mesh, ``compare`` and ``sample`` run on Python scalars (``sample``
draws from ``random.Random(seed)`` through the geometric and BTRS binomials
of :mod:`qfilter._stream`), and a state's ``amplitudes``, an ensemble's ``priors`` and
``recompose``'s result are Python tuples and lists.  numpy is imported on
first use only by ``brute_force_filter`` and the ndarray views of
:class:`MeasurementDesign` and :class:`SimulationReport` (``unitary``,
``counts``, ...).  The building blocks of the stages (``gram_matrix``,
``average_overlap_A``, ``failure_phases``, ``embed_inputs`` and the
like) are imported from their modules.
"""

from .designer import MeasurementDesign, design
from .errors import (
    DegeneratePriorError,
    DegenerateSubspaceError,
    DomainError,
    InconsistentSolutionError,
    InfeasibleError,
    InternalConsistencyError,
    InvalidEnsembleError,
    InvalidStateError,
    QFilterError,
)
from .filter_core import FilterSolution, Regime, solve
from .multiport import BeamSplitterLayer, MeshProgram, decompose, recompose
from .oracle import (
    ComparisonRecord,
    OracleResult,
    appendix_residuals,
    brute_force_filter,
    compare,
    three_state_Q,
    two_state_Q,
)
from .simulator import (
    SimulationReport,
    port_probabilities,
    sample,
    von_neumann_baseline,
)
from .states import (
    Ensemble,
    OverlapSet,
    StateVector,
    ensemble_from_overlaps,
    overlaps,
    parallel_component_norm2,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # states
    "StateVector",
    "Ensemble",
    "OverlapSet",
    "overlaps",
    "parallel_component_norm2",
    "ensemble_from_overlaps",
    # filter core
    "Regime",
    "FilterSolution",
    "solve",
    # designer
    "MeasurementDesign",
    "design",
    # multiport
    "BeamSplitterLayer",
    "MeshProgram",
    "decompose",
    "recompose",
    # simulator
    "SimulationReport",
    "port_probabilities",
    "sample",
    "von_neumann_baseline",
    # oracle
    "OracleResult",
    "ComparisonRecord",
    "brute_force_filter",
    "appendix_residuals",
    "three_state_Q",
    "two_state_Q",
    "compare",
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
