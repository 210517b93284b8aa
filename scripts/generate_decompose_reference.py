#!/usr/bin/env python3
"""Write tests/golden/decompose_reference.json: unitaries and their meshes.

Each entry holds one unitary, as the hex of its complex128 ``tobytes()``,
and what ``qfilter.decompose`` of the checked-out source returns for it:
the ``(p, q, t, r, phi)`` of every layer and the output phases.  Floats are
written with Python's shortest round-trip repr, so they parse back to the
same doubles.  The set covers

* designs of the benchmark's ``pipeline`` pool, in all 6 orders of their
  three signal rows (the row orders the gauge search scores);
* the answered designs of the benchmark's near-parallel stratum, in all 6
  row orders;
* real orthogonal, permutation and diagonal-phase matrices;
* almost-identity layers above and below the drop tolerance;
* a few Haar-random unitaries of sizes 2, 3 and 5.

Run from the repository root::

    python3 scripts/generate_decompose_reference.py
"""

from __future__ import annotations

import itertools
import json
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import qfilter as qf  # noqa: E402
from qfilter.multiport import embed_layer  # noqa: E402
from perfbench.inputs import near_parallel, pipeline_pool  # noqa: E402

OUT = ROOT / "tests" / "golden" / "decompose_reference.json"
PIPELINE_SEED = 11
PIPELINE_DESIGNS = 30
ROW_ORDERS = [perm + (3,) for perm in itertools.permutations(range(3))]


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _design_unitaries(items, label: str, limit: int | None = None):
    out = []
    for k, item in enumerate(items):
        try:
            unitary = qf.design(qf.Ensemble(item.states, item.priors)).unitary
        except qf.QFilterError:
            continue
        for perm in ROW_ORDERS:
            out.append((f"{label}[{k}] rows {perm}", unitary[list(perm), :]))
        if limit is not None and len(out) >= 6 * limit:
            break
    return out


def unitaries() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(20261018)
    cases = _design_unitaries(
        pipeline_pool(PIPELINE_SEED), f"pipeline seed {PIPELINE_SEED}", PIPELINE_DESIGNS
    )
    cases += _design_unitaries(near_parallel(), "near_parallel")
    for k in range(20):
        q, r = np.linalg.qr(rng.normal(size=(4, 4)))
        cases.append((f"real orthogonal {k}", (q * np.sign(np.diag(r))).astype(complex)))
    for perm in itertools.permutations(range(4)):
        cases.append((f"permutation {perm}", np.eye(4, dtype=complex)[list(perm), :]))
    signs = [complex(-1.0, 0.0), complex(-1.0, -0.0), 1.0, 1j, -1j]
    for k in range(5):
        cases.append((f"diagonal signs {k}", np.diag(np.roll(signs, k)[:4])))
    for k in range(5):
        cases.append((f"diagonal phases {k}", np.diag(np.exp(1j * rng.uniform(-4, 4, 4)))))
    for r in (1e-16, 5e-15, 1e-11, 1e-8):
        for p, q in ((1, 2), (2, 4)):
            layer = qf.BeamSplitterLayer(p, q, float(np.sqrt(1.0 - r * r)), r, 0.4)
            cases.append((f"almost identity ({p}, {q}) r={r:g}", embed_layer(layer)))
    for dim in (2, 3, 5):
        for k in range(3):
            cases.append((f"haar {dim}x{dim} {k}", _haar(dim, rng)))
    return cases


def main() -> None:
    entries = []
    for label, unitary in unitaries():
        unitary = np.ascontiguousarray(unitary, dtype=complex)
        program = qf.decompose(unitary)
        entries.append(
            {
                "label": label,
                "dim": unitary.shape[0],
                "unitary": unitary.tobytes().hex(),
                "layers": [[l.p, l.q, l.t, l.r, l.phi] for l in program.layers],
                "output_phases": list(program.output_phases),
            }
        )
    # One entry per line.
    text = "[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n"
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} entries to {OUT}")


if __name__ == "__main__":
    main()
