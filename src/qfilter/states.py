"""Complex state-vector algebra for three-state filtering problems.

This module defines the immutable value types (:class:`StateVector`,
:class:`Ensemble`, :class:`OverlapSet`) and the geometric primitives the
rest of the package builds on: pairwise overlaps, Gram matrices, the
projector onto span{psi2, psi3}, and the squared norm of the component of
psi1 lying inside that span.

Conventions
-----------
Inner products are conjugate-linear in the **first** slot:
``inner(a, b) = sum(conj(a_k) * b_k)``.  All tolerances follow one scheme:
1e-10 for normalization/Hermiticity checks, 1e-12 for scalar identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSubspaceError,
    InvalidEnsembleError,
    InvalidStateError,
)

__all__ = [
    "StateVector",
    "Ensemble",
    "OverlapSet",
    "overlaps",
    "gram_matrix",
    "projector_23",
    "parallel_component_norm2",
    "ensemble_from_overlaps",
]

#: Constructors refuse to "normalize away" errors larger than this.
NORM_REJECT_TOL = 1e-6
#: |O23| closer to 1 than this means states 2,3 span only one dimension.
SUBSPACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit-norm complex vector of probability amplitudes.

    The constructor accepts any sequence of (complex) numbers whose
    Euclidean norm is within ``NORM_REJECT_TOL`` of 1, renormalizes it
    exactly, and stores a read-only copy.  Zero vectors and badly
    normalized inputs are rejected rather than silently rescaled.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.ndim != 1:
            raise InvalidStateError(
                f"state amplitudes must form a 1-D sequence, got shape {arr.shape}"
            )
        # The squared norm exactly as np.linalg.norm forms it.  It is finite
        # whenever every amplitude is, unless it overflows, so only then are
        # the amplitudes themselves inspected.
        re, im = arr.real, arr.imag
        sqnorm = float(re.dot(re) + im.dot(im))
        if not math.isfinite(sqnorm) and not np.isfinite(arr).all():
            raise InvalidStateError("state amplitudes must be finite")
        if arr.size < 2:
            raise InvalidStateError(
                f"state vectors must have dimension >= 2, got {arr.size}"
            )
        norm = math.sqrt(sqnorm)
        if abs(norm - 1.0) > NORM_REJECT_TOL:
            raise InvalidStateError(
                "state vector norm deviates from 1 by more than "
                f"{NORM_REJECT_TOL:g} (norm={norm:.9g}); normalize explicitly"
            )
        arr = arr / norm
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        """Dimension of the underlying mode space."""
        return int(self.amplitudes.size)

    def inner(self, other: "StateVector") -> complex:
        """Inner product with `other`, conjugating this vector's amplitudes."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def padded(self, dim: int) -> np.ndarray:
        """Return a writable copy embedded into `dim` modes (zero padding)."""
        if dim < self.dim:
            raise InvalidStateError(
                f"cannot pad a {self.dim}-dimensional state into {dim} modes"
            )
        out = np.zeros(dim, dtype=complex)
        out[: self.dim] = self.amplitudes
        return out


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Three states with a-priori probabilities: one filtering instance.

    ``states[0]`` is the filter target; the task downstream is to decide
    "target vs. {states[1], states[2]}" without error.  Priors must lie in
    [0, 1] and sum to 1 within 1e-12; all states must share one dimension.

    The priors are copied and, like the amplitudes of the states, made
    read-only, so an ensemble never changes after construction.  That is
    why its overlaps and parallel-component norm (see :func:`overlaps` and
    :func:`parallel_component_norm2`) are computed at most once per
    instance, on first use.
    """

    states: tuple[StateVector, StateVector, StateVector]
    priors: np.ndarray

    def __post_init__(self) -> None:
        states = tuple(
            s if isinstance(s, StateVector) else StateVector(s) for s in self.states
        )
        if len(states) != 3:
            raise InvalidEnsembleError(
                f"an ensemble needs exactly 3 states, got {len(states)}"
            )
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise InvalidEnsembleError(
                f"all states must share one dimension, got sizes {sorted(dims)}"
            )
        # A copy: freezing the caller's own array would be a side effect.
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (3,):
            raise InvalidEnsembleError(
                f"priors must be 3 real numbers, got shape {priors.shape}"
            )
        eta1, eta2, eta3 = values = priors.tolist()
        if not all(map(math.isfinite, values)):
            raise InvalidEnsembleError("priors must be finite")
        if not all(0.0 <= x <= 1.0 for x in values):
            raise InvalidEnsembleError(f"priors must lie in [0, 1], got {values}")
        total = 0.0 + eta1 + eta2 + eta3  # the order of priors.sum()
        if abs(total - 1.0) > 1e-12:
            raise InvalidEnsembleError(
                f"priors must sum to 1 within 1e-12, got sum {total!r}"
            )
        priors.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    @property
    def dim(self) -> int:
        """Common dimension of the three states."""
        return self.states[0].dim

    def swapped_23(self) -> "Ensemble":
        """Return the ensemble with states/priors 2 and 3 interchanged."""
        return Ensemble(
            (self.states[0], self.states[2], self.states[1]),
            np.array([self.priors[0], self.priors[2], self.priors[1]]),
        )

    # Memos behind overlaps() and parallel_component_norm2().  A raised
    # error is not cached: the next access computes and raises again.

    @cached_property
    def _overlaps(self) -> "OverlapSet":
        s1, s2, s3 = self.states
        o12 = s1.inner(s2)
        o13 = s1.inner(s3)
        o23 = s2.inner(s3)
        alpha = -float(np.angle(o12 * np.conj(o13)))
        return OverlapSet(o12, o13, o23, alpha)

    @cached_property
    def _parallel_norm2(self) -> float:
        ov = self._overlaps
        return _parallel_norm2_formula(ov.O12, ov.O13, ov.O23)


@dataclass(frozen=True)
class OverlapSet:
    """The three pairwise overlaps O_ij = <psi_i|psi_j> plus their phase alpha.

    ``alpha = -arg(O12 * conj(O13))`` is the relative phase that enters the
    stationarity analysis of the optimal failure probabilities.
    """

    O12: complex
    O13: complex
    O23: complex
    alpha: float

    def __post_init__(self) -> None:
        for name in ("O12", "O13", "O23"):
            if abs(getattr(self, name)) > 1.0 + 1e-12:
                raise InvalidEnsembleError(
                    f"|{name}| exceeds 1 beyond tolerance: {abs(getattr(self, name))!r}"
                )


def overlaps(e: Ensemble) -> OverlapSet:
    """The pairwise overlaps of an ensemble.

    The inner product conjugates the first argument, so
    ``O12 = sum(conj(psi1) * psi2)``.  They are computed once per ensemble
    and then reused: the amplitudes they come from are read-only.
    """
    return e._overlaps


def gram_matrix(vectors) -> np.ndarray:
    """Gram matrix G[i, j] = <v_i|v_j> of a sequence of vectors.

    Accepts :class:`StateVector` instances or plain arrays.
    """
    arrs = [
        v.amplitudes if isinstance(v, StateVector) else np.asarray(v, dtype=complex)
        for v in vectors
    ]
    n = len(arrs)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = np.vdot(arrs[i], arrs[j])
    return g


def projector_23(e: Ensemble) -> np.ndarray:
    """Orthogonal projector onto span{psi2, psi3}.

    Built from psi2 and the Gram-Schmidt complement of psi3 against psi2;
    the result is Hermitian, idempotent, and has rank 2.

    Raises
    ------
    DegenerateSubspaceError
        If |<psi2|psi3>| is within ``SUBSPACE_TOL`` of 1, i.e. the two
        states span only a single direction.
    """
    ov = overlaps(e)
    if abs(ov.O23) >= 1.0 - SUBSPACE_TOL:
        raise DegenerateSubspaceError(
            f"states 2 and 3 are numerically parallel (|O23|={abs(ov.O23):.12g}); "
            "their span is not two-dimensional"
        )
    v2 = e.states[1].amplitudes
    v3 = e.states[2].amplitudes
    tilde3 = (v3 - ov.O23 * v2) / np.sqrt(1.0 - abs(ov.O23) ** 2)
    return np.outer(v2, np.conj(v2)) + np.outer(tilde3, np.conj(tilde3))


def parallel_component_norm2(e: Ensemble) -> float:
    """Squared norm of the component of psi1 inside span{psi2, psi3}.

    Evaluates the closed form

    ``(|O12|^2 + |O13|^2 - 2 Re(O12 O23 conj(O13))) / (1 - |O23|^2)``

    which agrees with the explicit projection route
    ``|| projector_23(e) @ psi1 ||^2`` to within 1e-10.  The result is
    clipped into [0, 1] (floating dust only).  Like :func:`overlaps` it is
    computed once per ensemble, which is read-only, and then reused.

    Raises
    ------
    DegenerateSubspaceError
        If states 2 and 3 are numerically parallel (on every call).
    """
    return e._parallel_norm2


def _parallel_norm2_formula(o12: complex, o13: complex, o23: complex) -> float:
    """The closed form of :func:`parallel_component_norm2`, from the overlaps.

    ``solve`` also evaluates it with states 2 and 3 exchanged, on
    ``(O13, O12, conj(O23))``.
    """
    if abs(o23) >= 1.0 - SUBSPACE_TOL:
        raise DegenerateSubspaceError(
            f"states 2 and 3 are numerically parallel (|O23|={abs(o23):.12g}); "
            "the parallel-component formula is singular"
        )
    num = abs(o12) ** 2 + abs(o13) ** 2 - 2.0 * (o12 * o23 * np.conj(o13)).real
    val = num / (1.0 - abs(o23) ** 2)
    return float(min(max(val, 0.0), 1.0))


def ensemble_from_overlaps(o12, o13, o23, priors=(1 / 3, 1 / 3, 1 / 3)) -> Ensemble:
    """Construct a concrete 3-dimensional ensemble realizing given overlaps.

    The states are read off a Cholesky factor of the target Gram matrix,
    so they are exact to floating precision.  The overlap triple must form
    a positive-definite Gram matrix (linearly independent states).
    """
    g = np.array(
        [
            [1.0, o12, o13],
            [np.conj(o12), 1.0, o23],
            [np.conj(o13), np.conj(o23), 1.0],
        ],
        dtype=complex,
    )
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise InvalidEnsembleError(
            "overlaps do not define three linearly independent unit vectors "
            "(Gram matrix is not positive definite)"
        ) from exc
    states = tuple(StateVector(np.conj(low[i, :])) for i in range(3))
    return Ensemble(states, np.asarray(priors, dtype=float))
