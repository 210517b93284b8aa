"""Exact detection statistics and Monte-Carlo audit of a measurement design.

A single photon entering the network in state psi_i leaves through output
port j with probability ``|(U @ input_i)_j|^2``.  :func:`port_probabilities`
evaluates these exactly; :func:`sample` draws input states from the priors
and ports from the exact distributions, counting clicks per (state, port)
and auditing the zero-error property: the target state must never click on
the "not target" ports and vice versa.  Port 4 is the inconclusive
outcome, so the port-4 fraction estimates the average failure probability.
:func:`sample` does not import numpy: it draws from ``random.Random(seed)``
through the geometric and BTRS binomials of :mod:`qfilter._stream`.  Only
the ndarray views of :class:`SimulationReport` import numpy, on first read.
"""

from __future__ import annotations

import math
import operator

from .designer import MeasurementDesign, embed_inputs
from .errors import DomainError
from .filter_core import average_overlap_A
from .states import Ensemble, Frozen, _entries, frozen_array, parallel_component_norm2

__all__ = [
    "SimulationReport",
    "port_probabilities",
    "sample",
    "von_neumann_baseline",
]

#: Exact probabilities below this are treated as hard zeros when sampling,
#: so floating dust can never produce a spurious forbidden-port click.
ZERO_PROB_TOL = 1e-14
#: Guard against absurd trial counts (memory/time overflow).
MAX_TRIALS = 10**9


_ROW_FIELDS = {"exact_probabilities": (float, "numbers"), "counts": (operator.index, "integers")}


class SimulationReport(Frozen):
    """Outcome statistics of a Monte-Carlo run, compared by identity.

    The constructor reads ``exact_probabilities`` and ``counts``, an ndarray
    or Python rows, as 3 rows of 4 Python ``float`` and ``int`` (through
    ``operator.index``) under their names with a leading underscore
    (:func:`sample` builds them directly).  A string, a float count or any
    other shape is refused with :class:`DomainError` naming the field.  So
    is a value no run can give: ``trials`` and ``seed`` as :func:`sample`
    refuses them, a negative or non-finite probability, a negative count,
    counts that do not sum to ``trials``, ``violations`` outside [0, trials]
    and ``empirical_Q`` outside [0, 1].  The row fields themselves read as
    read-only ndarrays built on first access.

    Attributes
    ----------
    exact_probabilities:
        (3, 4) array; row i is the exact output-port distribution for
        input state i.
    counts:
        (3, 4) integer array of sampled clicks per (input state, port).
    trials:
        Total number of sampled photons; equals ``counts.sum()``.
    violations:
        Clicks observed at ports that certify the wrong answer: the
        target's certifying port hit by states 2 or 3, or a
        "not target" port hit by state 1.  Zero for every valid design.
    empirical_Q:
        Fraction of trials that ended on the failure port (port 4).
    seed:
        Seed the run can be replayed with; a fixed seed gives fixed counts.
    """

    _fields = ("exact_probabilities", "counts", "trials", "violations", "empirical_Q", "seed")

    def __init__(self, exact_probabilities, counts, trials, violations, empirical_Q, seed) -> None:
        trials, seed = _trials_and_seed(trials, seed)
        for (name, (cast, kind)), rows in zip(_ROW_FIELDS.items(), (exact_probabilities, counts)):
            refusal = f"{name} must be 3 rows of 4 {kind}"
            try:
                if isinstance(rows, (str, bytes)):  # iterable, but not rows
                    raise TypeError
                rows = tuple([tuple(_entries(row, cast, refusal, DomainError)) for row in rows])
            except TypeError:  # not a sequence of rows
                raise DomainError(f"{refusal}, got {rows!r}") from None
            if len(rows) != 3 or any(len(row) != 4 for row in rows):
                raise DomainError(f"{refusal}, got rows of {[len(row) for row in rows]} entries")
            self.__dict__["_" + name] = rows
        if not all(0.0 <= p < math.inf for row in self._exact_probabilities for p in row):
            raise DomainError("exact_probabilities must be finite and nonnegative")
        if any(n < 0 for row in self._counts for n in row) or sum(map(sum, self._counts)) != trials:
            raise DomainError(f"counts must be nonnegative integers summing to trials = {trials}")
        violations = _integer(violations, "violations")
        if not 0 <= violations <= trials:
            raise DomainError(f"violations must lie in [0, trials = {trials}], got {violations}")
        try:  # ``+x`` refuses the strings and bytes that ``float()`` would parse.
            q = float(+empirical_Q)
        except (TypeError, ValueError, OverflowError):
            q = math.nan
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"empirical_Q must be a number in [0, 1], got {empirical_Q!r}")
        self.__dict__.update(trials=trials, violations=violations, empirical_Q=q, seed=seed)

    def __getattr__(self, name: str):
        """Build the ndarray view of a row field on first read."""
        if name not in _ROW_FIELDS:
            raise AttributeError(name)
        dtype = "float64" if name == "exact_probabilities" else "int64"
        view = self.__dict__[name] = frozen_array(self.__dict__["_" + name], dtype)
        return view


def port_probabilities(design: MeasurementDesign, i: int) -> list[float]:
    """Exact output-port distribution for input state `i` (0-based), as a list.

    The four probabilities are nonnegative, sum to 1 within 1e-12, and the
    port-4 entry equals the failure probability q_i of the realized
    optimum within 1e-10.  Each is ``re^2 + im^2`` of an amplitude summed
    from ``0j`` in mode order.
    """
    if i not in (0, 1, 2):
        raise DomainError(f"state index must be 0, 1 or 2, got {i!r}")
    x0, x1, x2, x3 = design._embedded_inputs[i]
    amps = [0j + u0 * x0 + u1 * x1 + u2 * x2 + u3 * x3 for u0, u1, u2, u3 in design._unitary]
    return [a.real * a.real + a.imag * a.imag for a in amps]


def _integer(value, name: str) -> int:
    """``value`` read through ``operator.index``: an integral value (like
    ``numpy.int64``) is accepted, a float or a string refused."""
    try:
        return int(operator.index(value))
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _trials_and_seed(trials, seed) -> tuple[int, int]:
    """``trials`` in [1, ``MAX_TRIALS``] and ``seed`` >= 0, read by :func:`_integer`."""
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must not exceed {MAX_TRIALS:g}, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return trials, seed


def sample(
    design: MeasurementDesign, e: Ensemble, trials: int, seed: int
) -> SimulationReport:
    """Draw `trials` photons and tabulate clicks, failures, and violations.

    Each trial draws an input state from the priors and an output port
    from that state's exact port distribution.  The draws come from
    ``random.Random(seed)``, whose stream Python keeps fixed for an int
    seed, so a fixed seed reproduces the run exactly.  Each multinomial is
    a chain of binomials, drawn by Devroye's geometric method or by BTRS
    (see :mod:`qfilter._stream`).  Probabilities below ``ZERO_PROB_TOL``
    are clamped to exact zeros before sampling, and each row is
    renormalized; a zero entry never gets a count.  ``trials``
    and ``seed`` must be integers (anything with ``__index__``): a float
    or a string is refused, not truncated.  ``e`` must be the design's
    ensemble: its states, padded by :func:`qfilter.designer.embed_inputs`,
    must match ``design.embedded_inputs`` within 1e-9.  The report is built
    directly from the float and int rows computed here.
    """
    import random

    from ._stream import multinomial

    trials, seed = _trials_and_seed(trials, seed)
    for (g0, g1, g2, g3), (b0, b1, b2, b3) in zip(embed_inputs(e), design._embedded_inputs):
        if max(abs(g0 - b0), abs(g1 - b1), abs(g2 - b2), abs(g3 - b3)) > 1e-9:
            raise DomainError(
                "the design was built for a different ensemble than the one "
                "being sampled"
            )
    exact = [port_probabilities(design, i) for i in range(3)]
    clean = []
    for i, row in enumerate(exact):
        kept = [0.0 if p < ZERO_PROB_TOL else p for p in row]
        total = 0.0 + kept[0] + kept[1] + kept[2] + kept[3]  # in port order
        if not 0.0 < total < math.inf:
            raise DomainError(
                f"the port probabilities of state {i + 1} sum to {total!r}, "
                "not to a positive finite number"
            )
        clean.append([p / total for p in kept])
    rnd = random.Random(seed).random
    per_state = multinomial(rnd, trials, e.priors)
    counts = [
        multinomial(rnd, n, row) if n else [0, 0, 0, 0]
        for n, row in zip(per_state, clean)
    ]
    claim = design.state1_port - 1
    set_ports = [m - 1 for m in design.set_ports]
    violations = (
        counts[0][set_ports[0]]
        + counts[0][set_ports[1]]
        + counts[1][claim]
        + counts[2][claim]
    )
    empirical_q = (counts[0][3] + counts[1][3] + counts[2][3]) / trials
    return SimulationReport._built(
        _exact_probabilities=tuple(map(tuple, exact)),
        _counts=tuple(map(tuple, counts)),
        trials=trials,
        violations=violations,
        empirical_Q=empirical_q,
        seed=seed,
    )


def von_neumann_baseline(e: Ensemble) -> float:
    """Average failure probability of the projective comparison strategy.

    Two projective strategies bracket the generalized measurement: always
    failing on the target (q1 = 1, Q = eta1 + A) and projecting onto the
    complement of span{psi2, psi3} (q1 = w, Q = eta1*w + A/w, where w is
    the parallel-component squared norm).  The baseline reported is the
    one acting on the same side of the optimum as the instance itself:
    ``eta1 + A`` when A >= eta1 (where it is the true optimum), and the
    projection value ``eta1*w + A/w`` otherwise.  Orthogonal targets
    (A = 0) return 0.
    """
    A = average_overlap_A(e)
    if A == 0.0:
        return 0.0
    eta1 = e.priors[0]
    if A >= eta1:
        return eta1 + A
    w = parallel_component_norm2(e)
    if w == 0.0:
        # A > 0 forces w > 0 in exact arithmetic; only a w rounded to zero
        # lands here, where A/w would divide by zero.
        return eta1 + A
    return eta1 * w + A / w
