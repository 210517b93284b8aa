"""Closed-form optimum of the unambiguous filtering problem.

Given three states and priors, the task is to decide "psi1 vs. {psi2, psi3}"
with zero error, allowing an inconclusive outcome with probability q_i for
input psi_i.  Zero-error operation forces the unitarity constraints

    q1 * q2 = |O12|^2,        q1 * q3 = |O13|^2,

so the whole family is parametrized by q1 alone, bounded below by the
squared norm ``w`` of psi1's component inside span{psi2, psi3} and above
by 1.  Minimizing the average failure Q = eta1*q1 + eta2*q2 + eta3*q3 under
positive semidefiniteness of the residual operator yields three regimes,
classified by where ``A = eta2*|O12|^2 + eta3*|O13|^2`` falls relative to
``eta1 * w^2`` and ``eta1``:

* ``POVM`` (interior optimum): q1 = sqrt(A/eta1), Q = 2*sqrt(eta1*A);
* ``VN_LARGE_OVERLAP`` (boundary q1 = 1): Q = eta1 + A;
* ``VN_SMALL_OVERLAP`` (boundary q1 = w): Q = eta1*w + A/w.

The two boundary regimes are realized by projective measurements; the
interior regime needs a genuine generalized measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneratePriorError, DomainError, InternalConsistencyError
from .states import (
    Ensemble,
    _parallel_norm2_formula,
    overlaps,
    parallel_component_norm2,
)

__all__ = [
    "Regime",
    "FilterSolution",
    "average_overlap_A",
    "classify_regime",
    "solve",
    "m_matrix",
]

#: Regime boundaries closer than this are resolved to POVM (the closed
#: forms coincide there, so the tag choice is cosmetic but deterministic).
TIE_TOL = 1e-12


class Regime(str, Enum):
    """Which of the three closed-form branches is optimal."""

    POVM = "POVM"
    VN_LARGE_OVERLAP = "VN_LARGE_OVERLAP"
    VN_SMALL_OVERLAP = "VN_SMALL_OVERLAP"


@dataclass(frozen=True)
class FilterSolution:
    """Optimal failure probabilities for one filtering instance.

    Attributes
    ----------
    q1, q2, q3:
        Failure (inconclusive-outcome) probabilities per input state.
    Q:
        Prior-weighted average failure probability.
    regime:
        Which closed-form branch produced the optimum.
    A:
        The weighted overlap ``eta2*|O12|^2 + eta3*|O13|^2``.
    parallel_norm2:
        Squared norm of psi1's component inside span{psi2, psi3}; the
        lower bound on q1.
    """

    q1: float
    q2: float
    q3: float
    Q: float
    regime: Regime
    A: float
    parallel_norm2: float

    @property
    def failure_probabilities(self) -> tuple[float, float, float]:
        """The triple (q1, q2, q3)."""
        return (self.q1, self.q2, self.q3)


def average_overlap_A(e: Ensemble) -> float:
    """Weighted overlap A = eta2*|O12|^2 + eta3*|O13|^2 (lies in [0, 1])."""
    ov = overlaps(e)
    return float(e.priors[1] * abs(ov.O12) ** 2 + e.priors[2] * abs(ov.O13) ** 2)


def _classify(A: float, w: float, eta1: float) -> Regime:
    if A > eta1 + TIE_TOL:
        return Regime.VN_LARGE_OVERLAP
    if A < eta1 * w * w - TIE_TOL:
        return Regime.VN_SMALL_OVERLAP
    return Regime.POVM


def _check_target_prior(eta1: float) -> None:
    if eta1 <= 0.0:
        raise DegeneratePriorError(
            "the filter target has zero prior probability; the optimal "
            "failure trade-off is undefined"
        )


def classify_regime(e: Ensemble) -> Regime:
    """Classify which closed-form branch applies to the ensemble.

    Boundary ties within ``TIE_TOL`` resolve to ``POVM``, where the
    adjacent formulas agree.

    Raises
    ------
    DegeneratePriorError
        If the filter target has zero prior (eta1 = 0): there is nothing
        to filter and the optimum is ill-posed.
    """
    eta1 = float(e.priors[0])
    _check_target_prior(eta1)
    return _classify(average_overlap_A(e), parallel_component_norm2(e), eta1)


def _solve_ordered(priors, o12: complex, o13: complex, w: float) -> FilterSolution:
    """The closed forms for priors (eta1, eta2, eta3), overlaps O12, O13 and w."""
    eta1, eta2, eta3 = priors
    a12 = abs(o12) ** 2
    a13 = abs(o13) ** 2
    A = eta2 * a12 + eta3 * a13
    if A == 0.0:
        if w > 1e-12:
            raise InternalConsistencyError(
                "weighted overlap A is zero although the target state has a "
                f"component of squared norm {w:.3g} inside span{{psi2, psi3}}; "
                "this requires zero prior weight on an overlapping state and "
                "the closed-form optimum does not apply"
            )
        # Perfectly filterable: every state can be identified without failure.
        return FilterSolution(0.0, 0.0, 0.0, 0.0, Regime.POVM, 0.0, w)
    regime = _classify(A, w, eta1)
    if regime is Regime.POVM:
        q1 = math.sqrt(A / eta1)
        scale = math.sqrt(eta1 / A)
        q2, q3 = scale * a12, scale * a13
        Q = 2.0 * math.sqrt(eta1 * A)
    elif regime is Regime.VN_LARGE_OVERLAP:
        q1, q2, q3 = 1.0, a12, a13
        Q = eta1 + A
    else:
        q1 = w
        q2, q3 = a12 / w, a13 / w
        Q = eta1 * w + A / w
    return FilterSolution(q1, q2, q3, Q, regime, A, w)


def solve(e: Ensemble) -> FilterSolution:
    """Compute the optimal failure probabilities and average failure Q.

    States 2 and 3 are ordered internally so that |O12| >= |O13| before the
    closed forms are evaluated, and the results are mapped back, making the
    output invariant under interchanging (psi2, eta2) and (psi3, eta3).
    The exchange reorders the ensemble's overlaps and priors; w is then
    evaluated in the exchanged order, on (O13, O12, conj(O23)).

    Special cases
    -------------
    * A = 0 with no parallel component: all q_i = 0, Q = 0 (the target is
      orthogonal to both other states, so filtering never fails).
    * A = 0 with a parallel component present signals zero prior weight on
      an overlapping state and raises :class:`InternalConsistencyError`.

    Raises
    ------
    DegeneratePriorError
        If eta1 = 0.
    DegenerateSubspaceError
        If states 2 and 3 are numerically parallel.
    """
    ov = overlaps(e)
    eta1, eta2, eta3 = e.priors.tolist()
    _check_target_prior(eta1)
    if abs(ov.O13) > abs(ov.O12):
        w = _parallel_norm2_formula(ov.O13, ov.O12, ov.O23.conjugate())
        sol = _solve_ordered((eta1, eta3, eta2), ov.O13, ov.O12, w)
        return FilterSolution(
            sol.q1, sol.q3, sol.q2, sol.Q, sol.regime, sol.A, sol.parallel_norm2
        )
    w = parallel_component_norm2(e)
    return _solve_ordered((eta1, eta2, eta3), ov.O12, ov.O13, w)


def m_matrix(e: Ensemble, q1: float) -> np.ndarray:
    """Residual operator whose positivity makes a candidate q1 feasible.

    For the failure probabilities implied by q1 through the unitarity
    constraints, returns the 3x3 Hermitian matrix

    ``diag(1-q1, 1-|O12|^2/q1, 1-|O13|^2/q1)`` with off-diagonal (2,3)
    entry ``O23 - conj(O12)*O13/q1`` and zero first row/column
    off-diagonals.  q1 is feasible exactly when this matrix is positive
    semidefinite.

    Raises
    ------
    DomainError
        If q1 <= 0 (the constraint ratios are undefined) or q1 > 1.
    """
    q1 = float(q1)
    if q1 <= 0.0:
        raise DomainError(f"q1 must be positive, got {q1!r}")
    if q1 > 1.0 + 1e-12:
        raise DomainError(f"q1 must not exceed 1, got {q1!r}")
    ov = overlaps(e)
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0 - q1
    m[1, 1] = 1.0 - abs(ov.O12) ** 2 / q1
    m[2, 2] = 1.0 - abs(ov.O13) ** 2 / q1
    m[1, 2] = ov.O23 - np.conj(ov.O12) * ov.O13 / q1
    m[2, 1] = np.conj(m[1, 2])
    return m
