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
matrix-path check, multiplies back ``L_1 @ ... @ L_k @ diag(exp(i * phases))``.

The nulling itself is one private kernel on Python rows.  :func:`decompose`
wraps it with its input checks, layer objects and phases; the designer's
gauge search calls it through ``_layer_count``, which only counts the kept
layers of a unitary it has just built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalConsistencyError

__all__ = [
    "BeamSplitterLayer",
    "MeshProgram",
    "embed_layer",
    "decompose",
    "recompose",
]

#: Layers with |r| below this are numerically the identity and are dropped.
IDENTITY_DROP_TOL = 1e-12
#: Inputs to decompose must be unitary to within this residual.
UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class BeamSplitterLayer:
    """One two-mode mixing layer of a mesh.

    Attributes
    ----------
    p, q:
        1-based mode indices with p < q.
    t, r:
        Real transmissivity and reflectivity, ``t^2 + r^2 = 1`` within
        1e-12.  ``r`` may be negative; the sign convention keeps the layer
        phase inside (-pi/2, pi/2].
    phi:
        Phase applied to the p-row of the mixing block, radians.
    """

    p: int
    q: int
    t: float
    r: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise DomainError("mode indices must be integers")
        if not 1 <= self.p < self.q:
            raise DomainError(
                f"mode indices must satisfy 1 <= p < q, got p={self.p}, q={self.q}"
            )
        closure = self.t * self.t + self.r * self.r
        if abs(closure - 1.0) > 1e-12:
            raise DomainError(
                f"a lossless layer needs t^2 + r^2 = 1 within 1e-12, got {closure!r}"
            )


@dataclass(frozen=True)
class MeshProgram:
    """An ordered beam-splitter factorization of a unitary.

    ``recompose(program)`` multiplies the embedded layers in list order
    (so the *last* layer in the list acts on the input state first) and
    then applies ``diag(exp(i * output_phases))`` on the input side.
    :func:`decompose` returns output phases in (-pi, pi].
    """

    layers: tuple[BeamSplitterLayer, ...]
    output_phases: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(
            self, "output_phases", tuple(float(p) for p in self.output_phases)
        )
        dim = len(self.output_phases)
        if dim < 2:
            raise DomainError("a mesh program needs at least 2 modes")
        for layer in self.layers:
            if layer.q > dim:
                raise DomainError(
                    f"layer acts on mode {layer.q} but the program has {dim} modes"
                )

    @property
    def dim(self) -> int:
        """Number of optical modes."""
        return len(self.output_phases)


def embed_layer(layer: BeamSplitterLayer, dim: int = 4) -> np.ndarray:
    """Embed a two-mode layer into a `dim` x `dim` identity.

    With phi = 0 the embedded block is the real rotation
    ``[[t, r], [-r, t]]``.
    """
    if layer.q > dim:
        raise DomainError(
            f"layer acts on mode {layer.q} but the embedding has {dim} modes"
        )
    mat = np.eye(dim, dtype=complex)
    phase = np.exp(1j * layer.phi)
    p, q = layer.p - 1, layer.q - 1
    mat[p, p] = layer.t * phase
    mat[p, q] = layer.r * phase
    mat[q, p] = -layer.r
    mat[q, q] = layer.t
    return mat


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


def decompose(unitary: np.ndarray) -> MeshProgram:
    """Factor a unitary into beam-splitter layers plus residual phases.

    Uses triangular nulling: for each mode pair, a layer is chosen so that
    left-multiplying by its adjoint, a two-row update on Python scalars,
    zeroes one above-diagonal entry; what remains is a phase diagonal, read
    off in (-pi, pi] whatever the sign of a zero imaginary part.  Layers that
    are numerically the identity (|r| < 1e-12) are omitted, so the result has
    at most N(N-1)/2 layers and ``recompose`` reproduces the input within 1e-9.

    Raises
    ------
    DomainError
        If the input is not square (N >= 2) or not unitary within 1e-9;
        the message reports the unitarity residual.
    """
    mat = np.asarray(unitary, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
        raise DomainError(f"expected a square matrix of size >= 2, got {mat.shape}")
    dim = mat.shape[0]
    residual = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim, dtype=complex))))
    if residual > UNITARITY_TOL:
        raise DomainError(
            f"matrix is not unitary within {UNITARITY_TOL:g} "
            f"(unitarity residual {residual:.3e})"
        )
    work = mat.tolist()
    layers = tuple(BeamSplitterLayer(*layer) for layer in _null(work))
    phases = (cmath.phase(work[i][i]) for i in range(dim))
    return MeshProgram(layers, tuple(-x if x == -math.pi else x for x in phases))


def recompose(program: MeshProgram) -> np.ndarray:
    """Multiply a mesh program back into its unitary matrix."""
    dim = program.dim
    mat = np.eye(dim, dtype=complex)
    for layer in program.layers:
        mat = mat @ embed_layer(layer, dim)
    return mat @ np.diag(np.exp(1j * np.asarray(program.output_phases)))
