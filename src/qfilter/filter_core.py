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
from enum import Enum

from .errors import DegeneratePriorError, InternalConsistencyError
from .states import Ensemble, FrozenRecord, overlaps, parallel_component_norm2

__all__ = ["Regime", "FilterSolution", "average_overlap_A", "solve"]


class Regime(str, Enum):
    """Which of the three closed-form branches is optimal."""

    POVM = "POVM"
    VN_LARGE_OVERLAP = "VN_LARGE_OVERLAP"
    VN_SMALL_OVERLAP = "VN_SMALL_OVERLAP"


class FilterSolution(FrozenRecord):
    """Optimal failure probabilities for one instance, compared by their fields.

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

    _fields = ("q1", "q2", "q3", "Q", "regime", "A", "parallel_norm2")

    def __init__(self, q1, q2, q3, Q, regime, A, parallel_norm2) -> None:
        self.__dict__.update(
            q1=q1, q2=q2, q3=q3, Q=Q, regime=regime, A=A, parallel_norm2=parallel_norm2
        )

    @property
    def failure_probabilities(self) -> tuple[float, float, float]:
        """The triple (q1, q2, q3)."""
        return (self.q1, self.q2, self.q3)


def average_overlap_A(e: Ensemble) -> float:
    """Weighted overlap A = eta2*|O12|^2 + eta3*|O13|^2 (lies in [0, 1])."""
    ov = overlaps(e)
    _, eta2, eta3 = e.priors
    return eta2 * abs(ov.O12) ** 2 + eta3 * abs(ov.O13) ** 2


def solve(e: Ensemble) -> FilterSolution:
    """Compute the optimal failure probabilities and average failure Q.

    ``w`` is :func:`parallel_component_norm2` of the ensemble, so
    ``parallel_norm2`` of the result is that same value, bit for bit.  The
    output is invariant under interchanging (psi2, eta2) and (psi3, eta3):
    A is a two-term sum, q2 and q3 are the same expressions in a12 and a13,
    and w keeps its bits under the exchange whenever |O12| != |O13|.

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
    eta1, eta2, eta3 = e.priors
    if eta1 <= 0.0:
        raise DegeneratePriorError(
            "the filter target has zero prior probability; the optimal "
            "failure trade-off is undefined"
        )
    w = parallel_component_norm2(e)
    a12 = abs(ov.O12) ** 2
    a13 = abs(ov.O13) ** 2
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
    # Exact comparisons, a tie going to POVM: the closed forms meet at both
    # boundaries, and a slack would put q1 = sqrt(A/eta1) outside [w, 1].
    if A > eta1:
        return FilterSolution(1.0, a12, a13, eta1 + A, Regime.VN_LARGE_OVERLAP, A, w)
    if A < eta1 * w * w:
        Q = eta1 * w + A / w
        return FilterSolution(w, a12 / w, a13 / w, Q, Regime.VN_SMALL_OVERLAP, A, w)
    scale = math.sqrt(eta1 / A)
    Q = 2.0 * math.sqrt(eta1 * A)
    return FilterSolution(math.sqrt(A / eta1), scale * a12, scale * a13, Q, Regime.POVM, A, w)
