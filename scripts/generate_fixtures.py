#!/usr/bin/env python3
"""Regenerate the ensemble fixture files under fixtures/.

Each fixture is written with full-precision floats (Python's shortest
round-trip repr), so the committed files are bit-exact regression inputs:
parsing them reproduces the intended IEEE-754 doubles exactly.
"""

from __future__ import annotations

import json
import math
import pathlib

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _entry(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _payload(label: str, states: list[list[complex]], priors: list[float]) -> dict:
    return {
        "schema": "qfilter.ensemble/1",
        "label": label,
        "states": [[_entry(complex(a)) for a in state] for state in states],
        "priors": priors,
    }


def symmetric_states(s: float) -> list[list[float]]:
    """Real 3-D triple with all pairwise overlaps equal to s."""
    a = math.sqrt((1.0 + 2.0 * s) / 3.0)
    b = math.sqrt(2.0 / 3.0) * math.sqrt(1.0 - s)
    c = math.sqrt(1.0 - s) / math.sqrt(6.0)
    d = math.sqrt(1.0 - s) / math.sqrt(2.0)
    return [[a, b, 0.0], [a, -c, d], [a, -c, -d]]


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    third = 1.0 / 3.0
    s23, s13 = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)
    specs = {
        "fifty_fifty.json": _payload(
            "two 50-50 beam splitters suffice for this instance",
            [
                [s23, 0.0, s13],
                [0.0, s13, s23],
                [0.0, -s13, s23],
            ],
            [third, third, third],
        ),
        "symmetric_s030.json": _payload(
            "symmetric triple, all overlaps 0.3",
            symmetric_states(0.3),
            [third, third, third],
        ),
        "symmetric_s050.json": _payload(
            "symmetric triple, all overlaps 0.5",
            symmetric_states(0.5),
            [third, third, third],
        ),
        "vn_large_overlap.json": _payload(
            "large overlaps, rare target: a projective filter on which state 1 always fails",
            [
                [0.9, 0.3, math.sqrt(0.1)],
                [0.8, 0.6, 0.0],
                [0.8, 0.0, 0.6j],
            ],
            [0.2, 0.4, 0.4],
        ),
        "vn_small_overlap.json": _payload(
            "small overlaps, frequent target: a projective filter with q1 = w",
            [
                [0.4, -0.2j, math.sqrt(0.8)],
                [1.0, 0.0, 0.0],
                [0.6, 0.8j, 0.0],
            ],
            [0.8, 0.1, 0.1],
        ),
        "orthogonal.json": _payload(
            "mutually orthogonal triple (trivially filterable)",
            [
                [1.0, 0.0, 0.0],
                [0.0, math.sqrt(0.5), math.sqrt(0.5)],
                [0.0, math.sqrt(0.5), -math.sqrt(0.5)],
            ],
            [third, third, third],
        ),
    }
    for name, payload in specs.items():
        path = FIXTURES / name
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
