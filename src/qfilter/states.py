"""Complex state-vector algebra for three-state filtering problems.

This module defines the immutable value types (:class:`StateVector`,
:class:`Ensemble`, :class:`OverlapSet`), the bases of every value type
(:class:`Frozen`, :class:`FrozenRecord`), and the geometric primitives the
rest of the package builds on: pairwise overlaps, Gram matrices, and the
squared norm of the component of psi1 lying inside span{psi2, psi3}.  The
bases replace ``dataclasses``, whose import (with ``inspect``) took most of
the time of ``import qfilter``.

A state has a handful of amplitudes, so it stores them as a tuple of
Python ``complex`` and the overlaps and that squared norm are formed on
those scalars: on vectors this short numpy's per-call overhead costs more
than the arithmetic.  Every sum runs left to right in a fixed order (never
``sum()``, whose float rounding changed in Python 3.12), so the bits do
not depend on the Python version or on the BLAS kernel numpy selects.
Constructors take ndarrays or plain sequences and keep only those
scalars; nothing here imports numpy but :func:`frozen_array`, the helper
behind the ndarray views of the downstream value types.

Conventions
-----------
Inner products are conjugate-linear in the **first** slot:
``inner(a, b) = sum(conj(a_k) * b_k)``.  A state whose norm is within
``NORM_REJECT_TOL`` = 1e-6 of 1 is renormalized, one further off is refused;
priors must sum to 1 within 1e-12, and an overlap magnitude may exceed 1
by at most 1e-12.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .errors import (
    DegenerateSubspaceError,
    InvalidEnsembleError,
    InvalidStateError,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "StateVector",
    "Ensemble",
    "OverlapSet",
    "overlaps",
    "gram_matrix",
    "parallel_component_norm2",
    "ensemble_from_overlaps",
]

#: Constructors refuse to "normalize away" errors larger than this.
NORM_REJECT_TOL = 1e-6
#: |O23| closer to 1 than this means states 2,3 span only one dimension.
SUBSPACE_TOL = 1e-10


class Frozen:
    """Base of the value types compared by identity.  A subclass names its
    fields, in constructor order, in the tuple ``_fields``; its ``__init__``
    validates its arguments, then stores them through ``__dict__`` (as
    :meth:`_store` does).  Setting or deleting an attribute raises
    ``AttributeError``; the repr is ``Name(field=value, ...)``."""

    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Frozen):
    """A :class:`Frozen` value compared and hashed as the tuple of its fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class memo:
    """``functools.cached_property`` without the lock it takes before 3.12;
    a raised error is not kept."""

    def __init__(self, func) -> None:
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def frozen_array(values, dtype=complex) -> np.ndarray:
    """``values`` as a new read-only ndarray (imports numpy)."""
    import numpy as np

    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _entries(values, cast, refusal: str, error: type[Exception]) -> list:
    """``[cast(x) for x in values]`` of a flat sequence (an ndarray is read
    through ``tolist``).  Anything else, a string, a value that is not a
    sequence, an entry without unary plus (a string or bytes among them)
    or one ``cast`` refuses, is refused with ``error``."""
    entries = values.tolist() if hasattr(values, "tolist") else values
    if not isinstance(entries, (str, bytes)):
        try:
            # ``+x`` keeps a number's bits and raises TypeError for the
            # strings and bytes that ``complex()`` and ``float()`` would parse.
            return [cast(+x) for x in entries]
        except (TypeError, ValueError):
            pass
    raise error(f"{refusal}, got {values!r}")


def _vdot(a, b) -> complex:
    """``<a|b>``: the products ``conj(a_k) * b_k`` added to ``0j`` in mode order."""
    acc = 0j
    for x, y in zip(a, b):
        acc += x.conjugate() * y
    return acc


def _cholesky(g, shift: float = 0.0) -> list[list[complex]] | None:
    """Lower Cholesky factor of ``g - shift*I``, g Hermitian rows (None if it
    is not positive definite), column by column as LAPACK's ``potf2``."""
    n = len(g)
    low = [[0j] * n for _ in range(n)]
    for j in range(n):
        left, sq = low[j][:j], 0.0
        for x in left:
            sq += x.real * x.real + x.imag * x.imag
        pivot = g[j][j].real - shift - sq
        if not pivot > 0.0:
            return None
        low[j][j] = complex(math.sqrt(pivot), 0.0)
        scale = complex(1.0 / low[j][j].real, 0.0)
        for i in range(j + 1, n):
            acc = complex(g[i][j])
            for x, y in zip(low[i], left):
                acc -= x * y.conjugate()
            low[i][j] = acc * scale
    return low


def _least_eigenvalue(mat: list[list[complex]]) -> float:
    """Least eigenvalue of a Hermitian 3x3 matrix, closed-form when its
    first-row off-diagonals nearly vanish, as in :func:`.designer.build_L`.

    Without them it is that of ``mat[0][0]`` (+) a 2x2 block, and they move
    it by at most ``r = hypot(|mat[0][1]|, |mat[0][2]|)`` (Weyl).  For r >
    1e-13 it is bisected in that bracket: ``mat - x*I`` has a Cholesky
    factor exactly when x lies below it."""
    (a, b, c), (_, d, f), (_, _, g) = mat
    d, g = d.real, g.real
    least = min(a.real, 0.5 * (d + g - math.hypot(d - g, 2.0 * abs(f))))
    radius = math.hypot(abs(b), abs(c))
    if radius <= 1e-13:
        return least
    lo, hi = least - radius, least + radius
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _cholesky(mat, mid) else (lo, mid)
    return lo


class StateVector(Frozen):
    """A unit-norm complex vector of probability amplitudes, compared by identity.

    The constructor accepts any flat sequence of (complex) numbers whose
    Euclidean norm is within ``NORM_REJECT_TOL`` of 1, renormalizes it
    exactly, and keeps the result in ``amplitudes``, a tuple of Python
    ``complex``.  Zero vectors and badly normalized inputs are rejected
    rather than silently rescaled.
    """

    _fields = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        refusal = "state amplitudes must form a 1-D sequence of numbers"
        values = _entries(amplitudes, complex, refusal, InvalidStateError)
        # The squared real parts, then the squared imaginary parts, each
        # summed left to right.  The result is finite whenever every
        # amplitude is, unless it overflows, so only then are the amplitudes
        # themselves inspected.
        re2 = im2 = 0.0
        for x in values:
            re2 += x.real * x.real
            im2 += x.imag * x.imag
        sqnorm = re2 + im2
        if not math.isfinite(sqnorm) and not all(map(cmath.isfinite, values)):
            raise InvalidStateError("state amplitudes must be finite")
        if len(values) < 2:
            raise InvalidStateError(
                f"state vectors must have dimension >= 2, got {len(values)}"
            )
        norm = math.sqrt(sqnorm)
        if abs(norm - 1.0) > NORM_REJECT_TOL:
            raise InvalidStateError(
                "state vector norm deviates from 1 by more than "
                f"{NORM_REJECT_TOL:g} (norm={norm:.9g}); normalize explicitly"
            )
        # Times the reciprocal norm, which is how numpy divides a complex
        # array by a real scalar.  The factor is a complex number so that
        # every Python version rounds the product alike: from 3.14 on, a
        # complex times a float is taken componentwise, which can change
        # the sign of a zero part.
        scale = complex(1.0 / norm, 0.0)
        self.__dict__["amplitudes"] = tuple([x * scale for x in values])

    @property
    def dim(self) -> int:
        """Dimension of the underlying mode space."""
        return len(self.amplitudes)

    def inner(self, other: "StateVector") -> complex:
        """Inner product with `other`, conjugating this vector's amplitudes.

        The products ``conj(a_k) * b_k`` are added to ``0j`` one mode at a
        time, first mode first.
        """
        return _vdot(self.amplitudes, other.amplitudes)


class Ensemble(Frozen):
    """Three states with a-priori probabilities: one filtering instance.

    ``states[0]`` is the filter target; the task downstream is to decide
    "target vs. {states[1], states[2]}" without error.  Priors must lie in
    [0, 1] and sum to 1 within 1e-12; all states must share one dimension.

    The priors are kept in ``priors`` as a tuple of Python floats.  Like
    the states, they never change after construction, so the overlaps and
    parallel-component norm (see :func:`overlaps` and
    :func:`parallel_component_norm2`) are computed at most once per
    instance, on first use.  Ensembles compare and hash by identity.
    """

    _fields = ("states", "priors")

    def __init__(self, states, priors) -> None:
        states = tuple([s if isinstance(s, StateVector) else StateVector(s) for s in states])
        if len(states) != 3:
            raise InvalidEnsembleError(
                f"an ensemble needs exactly 3 states, got {len(states)}"
            )
        dims = {len(s.amplitudes) for s in states}
        if len(dims) != 1:
            raise InvalidEnsembleError(
                f"all states must share one dimension, got sizes {sorted(dims)}"
            )
        # Read into floats: a copy, so the caller's sequence is left alone.
        refusal = "priors must be 3 real numbers"
        values = _entries(priors, float, refusal, InvalidEnsembleError)
        if len(values) != 3:
            raise InvalidEnsembleError(f"{refusal}, got {len(values)}")
        eta1, eta2, eta3 = values
        if not all(map(math.isfinite, values)):
            raise InvalidEnsembleError("priors must be finite")
        if min(values) < 0.0 or max(values) > 1.0:
            raise InvalidEnsembleError(f"priors must lie in [0, 1], got {values}")
        total = 0.0 + eta1 + eta2 + eta3  # the order of numpy's sum()
        if abs(total - 1.0) > 1e-12:
            raise InvalidEnsembleError(
                f"priors must sum to 1 within 1e-12, got sum {total!r}"
            )
        self._store(states, (eta1, eta2, eta3))

    @property
    def dim(self) -> int:
        """Common dimension of the three states."""
        return self.states[0].dim

    # Memos behind overlaps() and parallel_component_norm2().  A raised
    # error is not cached: the next access computes and raises again.

    @memo
    def _overlaps(self) -> "OverlapSet":
        s1, s2, s3 = self.states
        o12 = s1.inner(s2)
        o13 = s1.inner(s3)
        o23 = s2.inner(s3)
        return OverlapSet(o12, o13, o23, -cmath.phase(o12 * o13.conjugate()))

    @memo
    def _parallel_norm2(self) -> float:
        ov = self._overlaps
        o12, o13, o23 = ov.O12, ov.O13, ov.O23
        if abs(o23) >= 1.0 - SUBSPACE_TOL:
            raise DegenerateSubspaceError(
                f"states 2 and 3 are numerically parallel (|O23|={abs(o23):.12g}); "
                "the parallel-component formula is singular"
            )
        # Evaluated with the larger of |O12|, |O13| first, so the bits do not
        # depend on which of states 2 and 3 comes first.
        if abs(o13) > abs(o12):
            o12, o13, o23 = o13, o12, o23.conjugate()
        num = abs(o12) ** 2 + abs(o13) ** 2 - 2.0 * (o12 * o23 * o13.conjugate()).real
        val = num / (1.0 - abs(o23) ** 2)
        return min(max(val, 0.0), 1.0)


class OverlapSet(FrozenRecord):
    """The three pairwise overlaps O_ij = <psi_i|psi_j> plus their phase alpha.

    ``alpha = -arg(O12 * conj(O13))`` is the relative phase that enters the
    stationarity analysis of the optimal failure probabilities.  Overlap
    sets compare and hash by their fields.
    """

    _fields = ("O12", "O13", "O23", "alpha")

    def __init__(self, O12, O13, O23, alpha) -> None:
        for name, o in (("O12", O12), ("O13", O13), ("O23", O23)):
            if abs(o) > 1.0 + 1e-12:
                raise InvalidEnsembleError(f"|{name}| exceeds 1 beyond tolerance: {abs(o)!r}")
        self._store(O12, O13, O23, alpha)


def overlaps(e: Ensemble) -> OverlapSet:
    """The pairwise overlaps of an ensemble.

    The inner product conjugates the first argument, so
    ``O12 = sum(conj(psi1) * psi2)``.  They are computed once per ensemble
    and then reused: the amplitudes they come from are read-only.
    """
    return e._overlaps


def gram_matrix(vectors) -> list[list[complex]]:
    """Gram matrix G[i][j] = <v_i|v_j> of a sequence of vectors, as rows.

    Accepts :class:`StateVector` instances or plain sequences of one
    length.  Each entry is the fixed-order sum of :meth:`StateVector.inner`.
    """
    rows = [v.amplitudes if isinstance(v, StateVector) else v for v in vectors]
    return [[_vdot(a, b) for b in rows] for a in rows]


def _overlap_gram(o12, o13, o23) -> list[list[complex]]:
    """Gram matrix of three unit vectors with overlaps O12, O13 and O23, as rows."""
    return [
        [1.0, o12, o13],
        [o12.conjugate(), 1.0, o23],
        [o13.conjugate(), o23.conjugate(), 1.0],
    ]


def parallel_component_norm2(e: Ensemble) -> float:
    """Squared norm of the component of psi1 inside span{psi2, psi3}.

    Evaluates the closed form

    ``(|O12|^2 + |O13|^2 - 2 Re(O12 O23 conj(O13))) / (1 - |O23|^2)``

    which agrees with ``|| P @ psi1 ||^2``, P the orthogonal projector onto
    span{psi2, psi3}, to within 1e-10.  When |O13| > |O12| it is evaluated
    on ``(O13, O12, conj(O23))``, the overlaps with states 2 and 3
    exchanged, so exchanging (psi2, eta2) and (psi3, eta3) leaves the bits
    unchanged whenever |O12| != |O13|.  The result is clipped into [0, 1]
    (floating dust only).  Like :func:`overlaps` it is computed once per
    ensemble, which is read-only, and then reused; ``solve`` returns
    this same value as ``FilterSolution.parallel_norm2``.

    Raises
    ------
    DegenerateSubspaceError
        If states 2 and 3 are numerically parallel (on every call).
    """
    return e._parallel_norm2


def ensemble_from_overlaps(o12, o13, o23, priors=(1 / 3, 1 / 3, 1 / 3)) -> Ensemble:
    """Construct a concrete 3-dimensional ensemble realizing given overlaps.

    The states are read off a Cholesky factor of the target Gram matrix,
    so they are exact to floating precision.  The overlap triple must form
    a positive-definite Gram matrix (linearly independent states).
    """
    low = _cholesky(_overlap_gram(o12, o13, o23))
    if low is None:
        raise InvalidEnsembleError(
            "overlaps do not define three linearly independent unit vectors "
            "(Gram matrix is not positive definite)"
        )
    states = tuple(StateVector([x.conjugate() for x in row]) for row in low)
    return Ensemble(states, priors)
