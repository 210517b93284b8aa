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
not depend on the Python version or on the BLAS kernel numpy selects.  An
ensemble forms its three overlaps in one pass over the modes, each added
to ``0j`` in mode order exactly as :meth:`StateVector.inner` adds it.
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
    fields, in constructor order, in the tuple ``_fields``; its ``__init__``,
    the boundary for values from outside, validates them and writes them
    into ``__dict__`` by name, and the stages build records of values they
    have just computed with :meth:`_built`.  Setting or deleting an attribute
    raises ``AttributeError``; the repr is ``Name(field=value, ...)``."""

    _fields: tuple[str, ...] = ()

    @classmethod
    def _built(cls, **fields):
        """A record of ``fields``, stored as the constructor stores them, unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self

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
    or one ``cast`` refuses (an int past the float range), raises ``error``."""
    entries = values.tolist() if hasattr(values, "tolist") else values
    if not isinstance(entries, (str, bytes)):
        try:
            # ``+x`` keeps a number's bits and raises TypeError for the
            # strings and bytes that ``complex()`` and ``float()`` would parse.
            return [cast(+x) for x in entries]
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{refusal}, got {values!r}")


def _vdot(a, b) -> complex:
    """``<a|b>``: the products ``conj(a_k) * b_k`` added to ``0j`` in mode order."""
    acc = 0j
    for x, y in zip(a, b):
        acc += x.conjugate() * y
    return acc


def _cholesky(g, shift: float = 0.0) -> list[list[complex]] | None:
    """Lower Cholesky factor of ``g - shift*I``, g Hermitian 3x3 rows (None if
    it is not positive definite): LAPACK's ``potf2`` written out for n = 3,
    column by column, in its order of operations and with its ``complex(1/l_jj,
    0)`` scale, so that every factor and every decision keeps potf2's bits."""
    (g00, _, _), (g10, g11, _), (g20, g21, g22) = g
    pivot = g00.real - shift
    if not pivot > 0.0:
        return None
    l00 = math.sqrt(pivot)
    scale = complex(1.0 / l00, 0.0)
    l10, l20 = complex(g10) * scale, complex(g20) * scale
    pivot = g11.real - shift - (l10.real * l10.real + l10.imag * l10.imag)
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (complex(g21) - l20 * l10.conjugate()) * complex(1.0 / l11, 0.0)
    sq = l20.real * l20.real + l20.imag * l20.imag + (l21.real * l21.real + l21.imag * l21.imag)
    pivot = g22.real - shift - sq
    if not pivot > 0.0:
        return None
    l22 = complex(math.sqrt(pivot), 0.0)
    return [[complex(l00, 0.0), 0j, 0j], [l10, complex(l11, 0.0), 0j], [l20, l21, l22]]


def _least_eigenvalue(mat: list[list[complex]]) -> float:
    """Least eigenvalue of a Hermitian 3x3 matrix, closed-form when its
    first-row off-diagonals nearly vanish.

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


def checked_priors(priors) -> tuple[float, float, float]:
    """``priors`` as 3 Python floats in [0, 1] that sum to 1 within 1e-12;
    anything else is refused with :class:`InvalidEnsembleError`."""
    # Read into floats: a copy, so the caller's sequence is left alone.
    refusal = "priors must be 3 real numbers"
    values = _entries(priors, float, refusal, InvalidEnsembleError)
    if len(values) != 3:
        raise InvalidEnsembleError(f"{refusal}, got {len(values)}")
    eta1, eta2, eta3 = values
    # A NaN fails the range test too; then the messages are picked in order.
    if not (0.0 <= eta1 <= 1.0 and 0.0 <= eta2 <= 1.0 and 0.0 <= eta3 <= 1.0):
        if not all(map(math.isfinite, values)):
            raise InvalidEnsembleError("priors must be finite")
        raise InvalidEnsembleError(f"priors must lie in [0, 1], got {values}")
    total = 0.0 + eta1 + eta2 + eta3  # the order of numpy's sum()
    if abs(total - 1.0) > 1e-12:
        raise InvalidEnsembleError(f"priors must sum to 1 within 1e-12, got sum {total!r}")
    return eta1, eta2, eta3


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
        s1, s2, s3 = states
        if not len(s1.amplitudes) == len(s2.amplitudes) == len(s3.amplitudes):
            dims = sorted({len(s.amplitudes) for s in states})
            raise InvalidEnsembleError(f"all states must share one dimension, got sizes {dims}")
        self.__dict__.update(states=states, priors=checked_priors(priors))

    @property
    def dim(self) -> int:
        """Common dimension of the three states."""
        return self.states[0].dim

    # Memos behind overlaps() and parallel_component_norm2().  A raised
    # error is not cached: the next access computes and raises again.

    @memo
    def _overlaps(self) -> "OverlapSet":
        s1, s2, s3 = self.states
        o12 = o13 = o23 = 0j
        for x, y, z in zip(s1.amplitudes, s2.amplitudes, s3.amplitudes):
            x = x.conjugate()
            o12 += x * y
            o13 += x * z
            o23 += y.conjugate() * z
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
        s2, s3 = self.states[1].amplitudes, self.states[2].amplitudes
        # The state of larger overlap with psi1 spans first, so the bits do not
        # depend on which of states 2 and 3 comes first; then ||u||^2, u = psi3 - O23 psi2.
        if abs(o13) > abs(o12):
            o12, o13, o23, s2, s3 = o13, o12, o23.conjugate(), s3, s2
        norm2 = 0.0
        for x, y in zip(s2, s3):
            r = abs(y - o23 * x)
            norm2 += r * r
        val = abs(o12) ** 2 + abs(o13 - o23 * o12) ** 2 / norm2  # <psi1|u> = O13 - O23 O12
        return min(max(val, 0.0), 1.0)


class OverlapSet(FrozenRecord):
    """The three pairwise overlaps O_ij = <psi_i|psi_j> plus their phase alpha.

    ``alpha = -arg(O12 * conj(O13))`` is the relative phase that enters the
    stationarity analysis of the optimal failure probabilities.  Overlap
    sets compare and hash by their fields.  An overlap above 1 + 1e-12 in
    magnitude, a NaN overlap and a NaN ``alpha`` are refused.
    """

    _fields = ("O12", "O13", "O23", "alpha")

    def __init__(self, O12, O13, O23, alpha) -> None:
        limit = 1.0 + 1e-12
        # `<=` and `==` are False for a NaN, so the one chain refuses it too.
        if not (abs(O12) <= limit and abs(O13) <= limit and abs(O23) <= limit and alpha == alpha):
            named = (("O12", O12), ("O13", O13), ("O23", O23))
            for name, o in named:
                if abs(o) > limit:
                    raise InvalidEnsembleError(f"|{name}| exceeds 1 beyond tolerance: {abs(o)!r}")
            for name, x in named + (("alpha", alpha),):
                if x != x:
                    raise InvalidEnsembleError(f"{name} must not be NaN, got {x!r}")
        self.__dict__.update(O12=O12, O13=O13, O23=O23, alpha=alpha)


def overlaps(e: Ensemble) -> OverlapSet:
    """The pairwise overlaps of an ensemble.

    The inner product conjugates the first argument, so
    ``O12 = sum(conj(psi1) * psi2)``.  All three are accumulated in one
    pass over the modes, each from ``0j`` in mode order, so each has the
    bits of :meth:`StateVector.inner` of its pair.  They are computed once
    per ensemble and then reused: the amplitudes they come from are
    read-only.
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

    Read off the Gram-Schmidt frame of (psi2, psi3): with
    ``u = psi3 - O23 psi2``, formed on the amplitudes,

    ``w = |O12|^2 + |O13 - O23 O12|^2 / ||u||^2``.

    ``||u||^2`` is 1 - |O23|^2 without its cancellation, so the error of w
    grows as u / ||u|| (unit roundoff u), not as u / (1 - |O23|^2).  When
    |O13| > |O12| it is evaluated with states 2 and 3 exchanged, so
    exchanging (psi2, eta2) and (psi3, eta3) leaves the bits unchanged
    whenever |O12| != |O13|.  The result is clipped into [0, 1]
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
