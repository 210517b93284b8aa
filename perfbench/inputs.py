"""Seeded input generators for the benchmark workloads.

Every generator is pure numpy and depends only on its seed, so the same
seed always yields bit-identical arrays.  The program under test receives
only these arrays (three state vectors and three priors per item); nothing
here calls into ``qfilter``.

Strata
------
* ``unstructured``, ``large_overlap``, ``coplanar_dominant`` — the
  stratified random mix: every fourth draw is pushed toward large overlaps
  (shared base vector plus a small perturbation), every fourth toward a
  nearly coplanar triple with a dominant first prior, the rest are
  unstructured complex triples with Dirichlet priors.  Each draw is then
  oriented (states and priors 2 and 3 exchanged if needed) so that exactly
  one in four has |O13| > |O12|, which sends ``solve`` down its swapped
  path (about 20% dearer).  Left to chance that share is 50% +- 2.5%, and
  the median latency of ``solve_scan`` jumped between the two paths from
  seed to seed.
* ``structured`` — real triples with overlaps (s, s, s/sqrt2) and equal
  priors on the grid s = 0.02, 0.04, ..., 0.98 (the 45 feasible points).
  Their residual overlap L23 vanishes, which sends ``design`` down its
  16-candidate gauge path for the POVM-regime points.
* ``near_parallel`` — psi3 = normalize(psi2 + eps * x) for eps = 1e-3 ...
  1e-12 and eps = 0, four draws per eps.
* ``sym_unequal``, ``two_overlap_unequal`` — the symmetric (s, s, s) and
  two-overlap (s1, s1, s2) families with unequal priors, the
  ``sweep --priors`` path.
* ``sym_equal``, ``two_overlap_equal`` — the same families with equal
  priors, where the identification optimum Q' has a closed form.

The ``structured``, ``near_parallel`` and equal-prior strata do not depend
on the seed.  They are the reference strata on which ``max_abs_err`` is
measured, so that figure compares like with like across seeds; the seeded
strata vary the rest of each pool.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Seed of the fixed near-parallel stratum (independent of --seed).
NEAR_PARALLEL_SEED = 20011203
NEAR_PARALLEL_EPS = tuple(10.0**-k for k in range(3, 13)) + (0.0,)
NEAR_PARALLEL_DRAWS = 4

PIPELINE_MIX = 180
SOLVE_SCAN_MIX = 400
COMPARE_SEEDED_PER_FAMILY = 24

#: Every stratified-mix stratum, in the order the draw index cycles them.
MIX_STRATA = ("unstructured", "large_overlap", "coplanar_dominant", "unstructured")

EQUAL_PRIORS = np.full(3, 1.0 / 3.0)


@dataclass(frozen=True, eq=False)
class Item:
    """One generated input: three states (rows) and their priors."""

    stratum: str
    states: np.ndarray
    priors: np.ndarray
    #: Stratum parameters (eps, s, s1, s2, closed-form Q', ...).
    params: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    # One independent stream per use, so resizing one stratum or pool leaves
    # the draws of the others unchanged.
    return np.random.default_rng([int(seed), stream])


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def states_from_overlaps(o12: float, o13: float, o23: float) -> np.ndarray | None:
    """Rows of a lower Cholesky factor realize the overlaps; None if singular."""
    gram = np.array(
        [[1.0, o12, o13], [o12, 1.0, o23], [o13, o23, 1.0]], dtype=complex
    )
    if np.linalg.eigvalsh(gram).min() <= 1e-6:
        return None
    low = np.linalg.cholesky(gram)
    return np.conj(low)


def swap_path(states: np.ndarray) -> bool:
    """Whether ``solve`` exchanges states 2 and 3 first (|O13| > |O12|)."""
    return abs(np.vdot(states[0], states[2])) > abs(np.vdot(states[0], states[1]))


def stratified_mix(seed: int, count: int) -> list[Item]:
    rng = _rng(seed, 1)
    out = []
    for k in range(count):
        mode = k % 4
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if mode == 1:
            base = rng.normal(size=3) + 1j * rng.normal(size=3)
            z = 0.25 * z + base[None, :]
        if mode == 2:
            z[0] = z[1] + z[2] + 0.1 * z[0]
        priors = rng.dirichlet([1.0, 1.0, 1.0])
        if mode == 2:
            priors = (
                np.array([0.9, 0.05, 0.05])
                if rng.random() < 0.5
                else rng.dirichlet([8.0, 1.0, 1.0])
            )
        states = _unit_rows(z)
        if swap_path(states) != (mode == 3):
            states, priors = states[[0, 2, 1]], priors[[0, 2, 1]]
        out.append(Item(MIX_STRATA[mode], states, priors))
    return out


def structured() -> list[Item]:
    out = []
    for k in range(1, 50):
        s = 0.02 * k
        states = states_from_overlaps(s, s, s / math.sqrt(2.0))
        if states is not None:
            out.append(Item("structured", states, EQUAL_PRIORS.copy(), {"s": s}))
    return out


def near_parallel() -> list[Item]:
    rng = np.random.default_rng(NEAR_PARALLEL_SEED)
    out = []
    for _ in range(NEAR_PARALLEL_DRAWS):
        for eps in NEAR_PARALLEL_EPS:
            z = _unit_rows(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            psi3 = z[1] + eps * z[2]
            states = np.array([z[0], z[1], psi3 / np.linalg.norm(psi3)])
            priors = rng.dirichlet([1.0, 1.0, 1.0])
            out.append(Item("near_parallel", states, priors, {"eps": eps}))
    return out


def _unequal_priors(rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet([5.0, 3.0, 2.0])


def compare_families(seed: int) -> list[Item]:
    rng = _rng(seed, 2)
    out = []
    for _ in range(COMPARE_SEEDED_PER_FAMILY):
        s = float(rng.uniform(0.05, 0.95))
        out.append(
            Item("sym_unequal", states_from_overlaps(s, s, s), _unequal_priors(rng), {"s": s})
        )
    while len(out) < 2 * COMPARE_SEEDED_PER_FAMILY:
        s1, s2 = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.3, 0.9))
        states = states_from_overlaps(s1, s1, s2)
        if states is not None:
            out.append(
                Item("two_overlap_unequal", states, _unequal_priors(rng), {"s1": s1, "s2": s2})
            )
    for k in range(1, 10):
        s = 0.1 * k
        out.append(
            Item("sym_equal", states_from_overlaps(s, s, s), EQUAL_PRIORS.copy(),
                 {"s": s, "q_prime": s})
        )
    for s2, s1_values in ((0.5, (0.2, 0.4, 0.6)), (0.8, (0.3, 0.5, 0.7, 0.85))):
        for s1 in s1_values:
            q_prime = (s1 * s1 / s2 + 2.0 * s2) / 3.0
            out.append(
                Item("two_overlap_equal", states_from_overlaps(s1, s1, s2),
                     EQUAL_PRIORS.copy(), {"s1": s1, "s2": s2, "q_prime": q_prime})
            )
    return out


def _symmetric_states(s: float) -> np.ndarray:
    a = math.sqrt((1.0 + 2.0 * s) / 3.0)
    b = math.sqrt(2.0 / 3.0) * math.sqrt(1.0 - s)
    c = math.sqrt(1.0 - s) / math.sqrt(6.0)
    d = math.sqrt(1.0 - s) / math.sqrt(2.0)
    return np.array([[a, b, 0.0], [a, -c, d], [a, -c, -d]], dtype=complex)


def cli_ensembles() -> dict[str, Item]:
    """The four fixture ensembles, rebuilt from their closed forms."""
    r = math.sqrt(0.5)
    s23, s13 = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)
    return {
        "fifty_fifty": Item(
            "fixture",
            np.array([[s23, 0.0, s13], [0.0, s13, s23], [0.0, -s13, s23]], dtype=complex),
            EQUAL_PRIORS.copy(),
        ),
        "orthogonal": Item(
            "fixture",
            np.array([[1.0, 0.0, 0.0], [0.0, r, r], [0.0, r, -r]], dtype=complex),
            EQUAL_PRIORS.copy(),
        ),
        "symmetric_s030": Item("fixture", _symmetric_states(0.3), EQUAL_PRIORS.copy()),
        "symmetric_s050": Item("fixture", _symmetric_states(0.5), EQUAL_PRIORS.copy()),
    }


def ensemble_json(item: Item, label: str) -> str:
    """The ``qfilter.ensemble/1`` file for an item (floats round-trip exactly)."""
    return json.dumps(
        {
            "schema": "qfilter.ensemble/1",
            "label": label,
            "states": [
                [{"re": float(a.real), "im": float(a.imag)} for a in row]
                for row in item.states
            ],
            "priors": [float(p) for p in item.priors],
        }
    )


def _interleave(seed: int, items: list[Item]) -> list[Item]:
    order = _rng(seed, 3).permutation(len(items))
    return [items[i] for i in order]


def pipeline_pool(seed: int) -> list[Item]:
    return _interleave(seed, stratified_mix(seed, PIPELINE_MIX) + structured())


def solve_scan_pool(seed: int) -> list[Item]:
    return _interleave(seed, stratified_mix(seed, SOLVE_SCAN_MIX) + near_parallel())


def compare_pool(seed: int) -> list[Item]:
    return _interleave(seed, compare_families(seed))


CLI_COMMANDS = ("solve", "design", "synthesize", "simulate", "compare")


def cli_schedule(seed: int) -> list[tuple[str, str | None]]:
    """(command, fixture) pairs of one cycle, in a seed-dependent order.

    ``sweep --priors`` is left out: it takes seconds per process, and the
    ``compare`` workload covers its three_state_Q path in-process.
    """
    pairs = [(cmd, name) for name in cli_ensembles() for cmd in CLI_COMMANDS]
    pairs.append(("sweep", None))
    order = _rng(seed, 4).permutation(len(pairs))
    return [pairs[i] for i in order]
