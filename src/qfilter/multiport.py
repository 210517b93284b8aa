"""Beam-splitter mesh synthesis for small unitaries.

A lossless linear-optical multiport implementing an N x N unitary can be
built from two-mode beam-splitter layers.  A layer acting on modes
``(p, q)`` with transmissivity ``t``, reflectivity ``r`` (``t^2 + r^2 = 1``)
and phase ``phi`` embeds into the identity as

    rows/cols p, q  ->  [[t*e^{i phi}, r*e^{i phi}],
                         [-r,          t         ]]

so a real layer (phi = 0) is an ordinary rotation.  :func:`decompose`
factors a unitary by triangular nulling (last column first, two-row updates
on Python scalars) into at most N(N-1)/2 such layers plus residual phases in
(-pi, pi] applied on the input side; :func:`recompose`, an independent
check, multiplies back ``L_1 @ ... @ L_k @ diag(exp(i * phases))`` with
two-column updates on Python scalars, into rows.  Nothing here imports
numpy.

The nulling itself is one private kernel on Python rows.  :func:`decompose`
wraps it with its input checks, layer objects and phases; the designer's
gauge search calls it through ``_layer_count``, which only counts the kept
layers of a unitary it has just built.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import DomainError, InternalConsistencyError
from .states import FrozenRecord, _entries

__all__ = [
    "BeamSplitterLayer",
    "MeshProgram",
    "decompose",
    "recompose",
]

#: Layers with |r| below this are numerically the identity and are dropped.
IDENTITY_DROP_TOL = 1e-12
#: Inputs to decompose must be unitary to within this residual.
UNITARITY_TOL = 1e-9


class BeamSplitterLayer(FrozenRecord):
    """One two-mode mixing layer of a mesh, compared and hashed by its fields.

    Attributes
    ----------
    p, q:
        1-based mode indices with p < q.  Any integral value (one with
        ``__index__``, like ``numpy.int64``) is accepted and kept as a
        Python ``int``; floats and strings are refused.
    t, r:
        Real transmissivity and reflectivity, ``t^2 + r^2 = 1`` within
        1e-12.  ``r`` may be negative; the sign convention keeps the layer
        phase inside (-pi/2, pi/2].
    phi:
        Phase applied to the p-row of the mixing block, radians.  ``t``,
        ``r`` and ``phi`` are kept as Python floats; strings are refused.
    """

    _fields = ("p", "q", "t", "r", "phi")

    def __init__(self, p, q, t, r, phi=0.0) -> None:
        try:
            p, q = int(operator.index(p)), int(operator.index(q))
        except TypeError:
            raise DomainError("mode indices must be integers") from None
        if not 1 <= p < q:
            raise DomainError(f"mode indices must satisfy 1 <= p < q, got p={p}, q={q}")
        try:
            # ``+x`` refuses the strings ``float()`` would parse, as in _entries.
            t, r, phi = float(+t), float(+r), float(+phi)
        except (TypeError, ValueError):
            raise DomainError(f"t, r and phi must be real numbers, got {(t, r, phi)!r}") from None
        closure = t * t + r * r
        if abs(closure - 1.0) > 1e-12:
            raise DomainError(
                f"a lossless layer needs t^2 + r^2 = 1 within 1e-12, got {closure!r}"
            )
        self._store(p, q, t, r, phi)


class MeshProgram(FrozenRecord):
    """An ordered beam-splitter factorization of a unitary, compared by its fields.

    ``recompose(program)`` multiplies the embedded layers in list order
    (so the *last* layer in the list acts on the input state first) and
    then applies ``diag(exp(i * output_phases))`` on the input side.
    :func:`decompose` returns output phases in (-pi, pi].  Layers that are
    not :class:`BeamSplitterLayer` instances and phases that are not real
    numbers are refused.
    """

    _fields = ("layers", "output_phases")

    def __init__(self, layers, output_phases) -> None:
        refusal = "output phases must be real numbers"
        phases = tuple(_entries(output_phases, float, refusal, DomainError))
        layers = tuple(layers)
        dim = len(phases)
        if dim < 2:
            raise DomainError("a mesh program needs at least 2 modes")
        for layer in layers:
            if not isinstance(layer, BeamSplitterLayer):
                raise DomainError(f"layers must be BeamSplitterLayer instances, got {layer!r}")
            if layer.q > dim:
                raise DomainError(
                    f"layer acts on mode {layer.q} but the program has {dim} modes"
                )
        self._store(layers, phases)

    @property
    def dim(self) -> int:
        """Number of optical modes."""
        return len(self.output_phases)


def _nulling_pairs(dim: int) -> list[tuple[int, int]]:
    """Triangular nulling order: clear the last column first, top-down pairs."""
    return [(p, q) for q in range(dim, 1, -1) for p in range(q - 1, 0, -1)]


def _null(work: list[list[complex]]) -> list[tuple[int, int, float, float, float]]:
    """Triangular nulling of the rows of a unitary; returns the kept layers.

    Each kept layer is ``(p, q, t, r, phi)``, in :class:`BeamSplitterLayer`
    field order.  ``work`` is left holding the phase diagonal: its entries
    are rebound to new row lists, and no row list is mutated.

    Raises
    ------
    InternalConsistencyError
        If an off-diagonal entry above 1e-9 survives the nulling.
    """
    dim = len(work)
    layers = []
    for p, q in _nulling_pairs(dim):
        a, b = work[p - 1][q - 1], work[q - 1][q - 1]
        if abs(a) < 1e-15 and abs(b) < 1e-15:
            continue
        if abs(b) < 1e-15:
            t, r, phi = 0.0, 1.0, 0.0
        else:
            phi0 = cmath.phase(a) - cmath.phase(b) if abs(a) > 0.0 else 0.0
            phi0 = (phi0 + math.pi) % (2.0 * math.pi) - math.pi
            scale = math.hypot(abs(a), abs(b))
            t, r = abs(b) / scale, abs(a) / scale
            # Fold the phase into (-pi/2, pi/2] by flipping the sign of r.
            phi = phi0
            if not -math.pi / 2 < phi0 <= math.pi / 2:
                phi, r = phi0 - math.copysign(math.pi, phi0), -r
        if abs(r) < IDENTITY_DROP_TOL:
            continue
        layers.append((p, q, t, r, phi))
        t_phase, r_phase = t * cmath.exp(-1j * phi), r * cmath.exp(-1j * phi)
        row_p, row_q = work[p - 1], work[q - 1]
        work[p - 1] = [t_phase * x - r * y for x, y in zip(row_p, row_q)]
        work[q - 1] = [r_phase * x + t * y for x, y in zip(row_p, row_q)]
    off_diag = max(abs(work[i][j]) for i in range(dim) for j in range(dim) if i != j)
    if off_diag > UNITARITY_TOL:
        raise InternalConsistencyError(
            f"triangular nulling left off-diagonal residue {off_diag:.3e}"
        )
    return layers


def _layer_count(rows: list[list[complex]]) -> int:
    """``len(decompose(U).layers)`` for a unitary given as Python rows.

    Skips :func:`decompose`'s input checks, layer objects and phases; the
    caller vouches that ``rows`` is unitary.  ``rows`` is not modified.
    """
    return len(_null(list(rows)))


def _unitarity_residual(rows: list[list[complex]]) -> float:
    """``max |(U^H U - I)[i][j]|`` of a square matrix given as rows; each
    entry is summed from ``0j`` down the columns, first row first."""
    cols = list(zip(*rows))
    worst = 0.0
    for i, a in enumerate(cols):
        for j in range(i, len(cols)):
            acc = -1.0 + 0j if i == j else 0j
            for x, y in zip(a, cols[j]):
                acc += x.conjugate() * y
            worst = max(worst, abs(acc))
    return worst


def decompose(unitary) -> MeshProgram:
    """Factor a unitary (an ndarray or rows) into beam-splitter layers plus
    residual phases.

    Uses triangular nulling: for each mode pair, a layer is chosen so that
    left-multiplying by its adjoint, a two-row update on Python scalars,
    zeroes one above-diagonal entry; what remains is a phase diagonal, read
    off in (-pi, pi] whatever the sign of a zero imaginary part.  Layers that
    are numerically the identity (|r| < 1e-12) are omitted, so the result has
    at most N(N-1)/2 layers and ``recompose`` reproduces the input within 1e-9.
    Its shape and unitarity are checked on the same Python scalars.

    Raises
    ------
    DomainError
        If the input is not a square matrix of numbers (N >= 2) or not
        unitary within 1e-9; the message reports the unitarity residual.
    """
    rows = unitary.tolist() if hasattr(unitary, "tolist") else unitary
    if isinstance(rows, (str, bytes)) or not hasattr(rows, "__iter__"):
        raise DomainError("expected a square matrix of size >= 2, got ()")
    refusal = "matrix rows must be 1-D sequences of numbers"
    work = [_entries(row, complex, refusal, DomainError) for row in rows]
    if len(work) < 2 or any(len(row) != len(work) for row in work):
        lengths = [len(row) for row in work]
        raise DomainError(
            f"expected a square matrix of size >= 2, got rows of lengths {lengths}"
        )
    residual = _unitarity_residual(work)
    if residual > UNITARITY_TOL:
        raise DomainError(
            f"matrix is not unitary within {UNITARITY_TOL:g} "
            f"(unitarity residual {residual:.3e})"
        )
    layers = tuple(BeamSplitterLayer(*layer) for layer in _null(work))
    phases = (cmath.phase(work[i][i]) for i in range(len(work)))
    return MeshProgram(layers, tuple(-x if x == -math.pi else x for x in phases))


def recompose(program: MeshProgram) -> list[list[complex]]:
    """Multiply a mesh program back into its unitary matrix, as rows.

    Each layer updates two columns of the running product, and the phases
    scale the columns last.
    """
    dim = program.dim
    mat = [[complex(i == j) for j in range(dim)] for i in range(dim)]
    for layer in program.layers:
        p, q, phase = layer.p - 1, layer.q - 1, cmath.exp(1j * layer.phi)
        tp, rp = layer.t * phase, layer.r * phase
        for row in mat:
            x, y = row[p], row[q]
            row[p], row[q] = x * tp - y * layer.r, x * rp + y * layer.t
    phases = [cmath.exp(1j * phi) for phi in program.output_phases]
    return [[x * z for x, z in zip(row, phases)] for row in mat]
