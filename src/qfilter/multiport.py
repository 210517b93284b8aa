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
wraps it with its input checks, layer objects and phases; the designer
counts the kept layers of the two placements it scores for a POVM-regime
design through ``_layer_count``.  The kernel and the
unitarity residual write out a 4x4 matrix (every network the designer builds)
entry by entry and loop over any other size, with the same operations in the
same order.
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
        ``r`` and ``phi`` are kept as Python floats; strings and a
        non-finite ``phi`` are refused.
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
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"t, r and phi must be real numbers, got {(t, r, phi)!r}") from None
        closure = t * t + r * r
        if not abs(closure - 1.0) <= 1e-12:  # a NaN is refused too
            raise DomainError(
                f"a lossless layer needs t^2 + r^2 = 1 within 1e-12, got {closure!r}"
            )
        if not math.isfinite(phi):
            raise DomainError(f"phi must be finite, got {phi!r}")
        self.__dict__.update(p=p, q=q, t=t, r=r, phi=phi)


class MeshProgram(FrozenRecord):
    """An ordered beam-splitter factorization of a unitary, compared by its fields.

    ``recompose(program)`` multiplies the embedded layers in list order
    (so the *last* layer in the list acts on the input state first) and
    then applies ``diag(exp(i * output_phases))`` on the input side.
    :func:`decompose` returns output phases in (-pi, pi].  Layers that are
    not :class:`BeamSplitterLayer` instances and phases that are not finite
    real numbers are refused.
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
        if not all(map(math.isfinite, phases)):
            raise DomainError(f"output phases must be finite, got {phases!r}")
        self.__dict__.update(layers=layers, output_phases=phases)

    @property
    def dim(self) -> int:
        """Number of optical modes."""
        return len(self.output_phases)


def _nulling_pairs(dim: int) -> list[tuple[int, int, int, int]]:
    """Triangular nulling order: clear the last column first, top-down pairs,
    each as ``(p, q)`` 1-based and then 0-based."""
    return [(p, q, p - 1, q - 1) for q in range(dim, 1, -1) for p in range(q - 1, 0, -1)]


#: The nulling order of the 4-mode networks the designer builds.
_NULLING_PAIRS_4 = _nulling_pairs(4)


def _null(work: list[list[complex]]) -> list[tuple[int, int, float, float, float]]:
    """Triangular nulling of the rows of a unitary; returns the kept layers.

    Each kept layer is ``(p, q, t, r, phi)``, in :class:`BeamSplitterLayer`
    field order.  ``work`` is left holding the phase diagonal: its entries
    are rebound to new row lists, and no row list is mutated.  On 4 rows the
    two-row update and the final check are written out; other sizes loop.

    Raises
    ------
    InternalConsistencyError
        If an off-diagonal entry above 1e-9 survives the nulling.
    """
    dim = len(work)
    layers = []
    for p, q, i, j in _NULLING_PAIRS_4 if dim == 4 else _nulling_pairs(dim):
        row_p, row_q = work[i], work[j]
        a, b = row_p[j], row_q[j]
        abs_a, abs_b = abs(a), abs(b)
        if abs_b < 1e-15:
            if abs_a < 1e-15:
                continue
            t, r, phi = 0.0, 1.0, 0.0
        else:
            phi0 = cmath.phase(a) - cmath.phase(b) if abs_a > 0.0 else 0.0
            phi0 = (phi0 + math.pi) % (2.0 * math.pi) - math.pi
            scale = math.hypot(abs_a, abs_b)
            t, r = abs_b / scale, abs_a / scale
            # Fold the phase into (-pi/2, pi/2] by flipping the sign of r.
            phi = phi0
            if not -math.pi / 2 < phi0 <= math.pi / 2:
                phi, r = phi0 - math.copysign(math.pi, phi0), -r
        if abs(r) < IDENTITY_DROP_TOL:
            continue
        layers.append((p, q, t, r, phi))
        phase = cmath.exp(-1j * phi)
        t_phase, r_phase = t * phase, r * phase
        if dim == 4:
            x0, x1, x2, x3 = row_p
            y0, y1, y2, y3 = row_q
            work[i] = [t_phase * x0 - r * y0, t_phase * x1 - r * y1,
                       t_phase * x2 - r * y2, t_phase * x3 - r * y3]
            work[j] = [r_phase * x0 + t * y0, r_phase * x1 + t * y1,
                       r_phase * x2 + t * y2, r_phase * x3 + t * y3]
        else:
            work[i] = [t_phase * x - r * y for x, y in zip(row_p, row_q)]
            work[j] = [r_phase * x + t * y for x, y in zip(row_p, row_q)]
    if dim == 4:
        (_, w01, w02, w03), (w10, _, w12, w13), (w20, w21, _, w23), (w30, w31, w32, _) = work
        off_diag = max(abs(w01), abs(w02), abs(w03), abs(w10), abs(w12), abs(w13),
                       abs(w20), abs(w21), abs(w23), abs(w30), abs(w31), abs(w32))
    else:
        off_diag = max([abs(x) for i, row in enumerate(work) for j, x in enumerate(row) if i != j])
    if not off_diag <= UNITARITY_TOL:
        raise InternalConsistencyError(
            f"triangular nulling left off-diagonal residue {off_diag:.3e}"
        )
    return layers


def _layer_count(rows: list[list[complex]]) -> int:
    """``len(decompose(U).layers)`` of a unitary the caller vouches for, as Python
    rows (left as they are), without :func:`decompose`'s checks, layers or phases."""
    return len(_null(list(rows)))


def _unitarity_residual(rows: list[list[complex]]) -> float:
    """``max |(U^H U - I)[i][j]|`` of a square matrix given as rows; each
    entry is summed from ``0j`` down the columns, first row first.  A NaN
    entry makes it NaN unless a number is above ``UNITARITY_TOL``.  On 4x4
    the ten entries are written out, each ``U`` entry conjugated once."""
    if len(rows) == 4:
        (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3) = rows
        A0, B0, C0, D0, A1, B1, C1, D1, A2, B2, C2, D2, A3, B3, C3, D3 = [
            x.conjugate() for row in rows for x in row
        ]
        aa = -1.0 + 0j + A0 * a0 + A1 * a1 + A2 * a2 + A3 * a3
        ab = 0j + A0 * b0 + A1 * b1 + A2 * b2 + A3 * b3
        ac = 0j + A0 * c0 + A1 * c1 + A2 * c2 + A3 * c3
        ad = 0j + A0 * d0 + A1 * d1 + A2 * d2 + A3 * d3
        bb = -1.0 + 0j + B0 * b0 + B1 * b1 + B2 * b2 + B3 * b3
        bc = 0j + B0 * c0 + B1 * c1 + B2 * c2 + B3 * c3
        bd = 0j + B0 * d0 + B1 * d1 + B2 * d2 + B3 * d3
        cc = -1.0 + 0j + C0 * c0 + C1 * c1 + C2 * c2 + C3 * c3
        cd = 0j + C0 * d0 + C1 * d1 + C2 * d2 + C3 * d3
        dd = -1.0 + 0j + D0 * d0 + D1 * d1 + D2 * d2 + D3 * d3
        worst = max(0.0, abs(aa), abs(ab), abs(ac), abs(ad), abs(bb), abs(bc), abs(bd),
                    abs(cc), abs(cd), abs(dd))
        nan = (aa != aa or ab != ab or ac != ac or ad != ad or bb != bb or bc != bc
               or bd != bd or cc != cc or cd != cd or dd != dd)
        return math.nan if nan and worst <= UNITARITY_TOL else worst
    cols = list(zip(*rows))
    worst, nan = 0.0, False
    for i, a in enumerate(cols):
        for j in range(i, len(cols)):
            acc = -1.0 + 0j if i == j else 0j
            for x, y in zip(a, cols[j]):
                acc += x.conjugate() * y
            worst, nan = max(worst, abs(acc)), nan or acc != acc
    return math.nan if nan and worst <= UNITARITY_TOL else worst


def decompose(unitary) -> MeshProgram:
    """Factor a unitary (an ndarray or rows) into beam-splitter layers plus
    residual phases.

    Uses triangular nulling: for each mode pair, a layer is chosen so that
    left-multiplying by its adjoint, a two-row update on Python scalars,
    zeroes one above-diagonal entry; what remains is a phase diagonal, read
    off in (-pi, pi] whatever the sign of a zero imaginary part.  Layers that
    are numerically the identity (|r| < 1e-12) are omitted, so the result has
    at most N(N-1)/2 layers and ``recompose`` reproduces the input within 1e-9.
    Its shape and unitarity are checked on the same Python scalars; the layers
    and program are built directly from the values the nulling computed.

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
    if not residual <= UNITARITY_TOL:
        raise DomainError(
            f"matrix is not unitary within {UNITARITY_TOL:g} "
            f"(unitarity residual {residual:.3e})"
        )
    layers = tuple([BeamSplitterLayer._built(p=p, q=q, t=t, r=r, phi=phi) for p, q, t, r, phi in _null(work)])
    phases = (cmath.phase(work[i][i]) for i in range(len(work)))
    return MeshProgram._built(layers=layers, output_phases=tuple(-x if x == -math.pi else x for x in phases))


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
