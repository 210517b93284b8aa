"""Every fixture x command artifact stays byte-identical.

The files in ``tests/golden/`` are the stdout of these commands, run from
the repository root::

    for f in fifty_fifty orthogonal symmetric_s030 symmetric_s050 \\
        vn_large_overlap vn_small_overlap; do
      for c in solve design synthesize compare; do
        qfilter $c --input fixtures/$f.json > tests/golden/$f.$c.json
      done
      qfilter simulate --input fixtures/$f.json --trials 1000000 --seed 7 \\
        > tests/golden/$f.simulate.json
    done
    qfilter sweep > tests/golden/sweep.csv
    qfilter sweep --family two_overlap --stop 0.9 \\
      > tests/golden/sweep_two_overlap.csv
    qfilter sweep --priors 0.5 0.3 0.2 --start 0.1 --stop 0.9 --step 0.1 \\
      > tests/golden/sweep_priors.csv
    qfilter sweep --family two_overlap --priors 0.5 0.3 0.2 --stop 0.9 \\
      > tests/golden/sweep_two_overlap_priors.csv
    qfilter sweep --family two_overlap --priors 0.2 0.5 0.3 --stop 0.9 \\
      > tests/golden/sweep_two_overlap_straddle.csv

A change that alters an artifact on purpose regenerates the affected files
with the same commands and says why in its change record.

The files were written with numpy's bundled OpenBLAS running its SkylakeX
kernels; ``OPENBLAS_VERBOSE=2 python -c "import numpy"`` prints the kernel
(``Core: ...``) on stderr.  No artifact depends on it any more: the
overlaps, w, the Cholesky factor of ``ensemble_from_overlaps``, the design,
the port probabilities and the mesh recomposition are all formed on Python
scalars, and so is the identification search of ``compare`` and of the
sweeps.  Every artifact reads the same under ``OPENBLAS_CORETYPE=Haswell``
and ``Prescott`` (before, 1 and 6 of the then 25 differed); the kernel test
below checks that.  No command imports numpy, ``simulate`` included: its counts
come from ``random.Random(seed)`` through the binomials of
``qfilter._stream``, and the last test checks that all 35 artifacts come out of one
process that never imports numpy.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import qfilter
from qfilter.cli import main

from conftest import FIXTURES_DIR

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

FIXTURES = [
    "fifty_fifty", "orthogonal", "symmetric_s030", "symmetric_s050",
    "vn_large_overlap", "vn_small_overlap",
]

SIMULATE_ARGS = ["--trials", "1000000", "--seed", "7"]

CASES = [
    (
        f"{fixture}.{command}.json",
        [command, "--input", str(FIXTURES_DIR / f"{fixture}.json")]
        + (SIMULATE_ARGS if command == "simulate" else []),
    )
    for fixture in FIXTURES
    for command in ("solve", "design", "synthesize", "simulate", "compare")
] + [
    ("sweep.csv", ["sweep"]),
    ("sweep_two_overlap.csv", ["sweep", "--family", "two_overlap", "--stop", "0.9"]),
    (
        "sweep_priors.csv",
        ["sweep", "--priors", "0.5", "0.3", "0.2"]
        + ["--start", "0.1", "--stop", "0.9", "--step", "0.1"],
    ),
    (
        "sweep_two_overlap_priors.csv",
        ["sweep", "--family", "two_overlap", "--priors", "0.5", "0.3", "0.2", "--stop", "0.9"],
    ),
    (
        "sweep_two_overlap_straddle.csv",
        ["sweep", "--family", "two_overlap", "--priors", "0.2", "0.5", "0.3", "--stop", "0.9"],
    ),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_is_byte_identical(golden, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()


#: Every artifact: none of them reaches a BLAS routine (see the docstring).
KERNEL_FREE = CASES

#: The artifacts of the commands that run without numpy: every one.
NUMPY_FREE = CASES

#: Modules no ``qfilter`` process should load, for their start-up cost:
#: numpy; ``dataclasses`` with the ``inspect`` chain it imports; and
#: ``argparse`` with the ``gettext`` and ``locale`` it imports.
WATCHED = ("numpy", "dataclasses", "inspect", "argparse", "gettext", "locale")

#: Runs each (name, argv) of its first argument through the CLI in one
#: process and prints {name: stdout} as JSON, plus under each module of
#: :data:`WATCHED` whether it was imported, after ``import qfilter`` (and
#: any prelude) and after the runs.
RUN_CASES = """
import contextlib, io, json, sys
import qfilter
from qfilter.cli import main
watched = json.loads(sys.argv[2])
out = {module: [module in sys.modules] for module in watched}
for name, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = buf.getvalue() if code == 0 else f"exit {code}"
for module in watched:
    out[module].append(module in sys.modules)
print(json.dumps(out))
"""


def run_cases(cases, prelude: str = "", **env) -> dict:
    """:data:`RUN_CASES` in a fresh process that imports this ``qfilter``."""
    src = str(pathlib.Path(qfilter.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + RUN_CASES, json.dumps(cases), json.dumps(WATCHED)],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, check=True, timeout=300,
    )
    return {"stderr": proc.stderr, **json.loads(proc.stdout)}


def assert_golden(got: dict, cases) -> None:
    for name, _ in cases:
        assert got[name].encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_solve_and_compare_do_not_depend_on_the_blas_kernel(coretype):
    """Every artifact, not only solve and compare, under another kernel."""
    # numpy first: the commands that do not import it would not print the kernel.
    got = run_cases(
        KERNEL_FREE, "import numpy\n", OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2"
    )
    if "Core:" not in got["stderr"]:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its kernel")
    assert_golden(got, KERNEL_FREE)


#: The library's stages on values built from lists, and the refusals of
#: malformed input.
LIBRARY_CHAIN = """
from qfilter import (
    DomainError, Ensemble, InvalidEnsembleError, InvalidStateError, StateVector,
    decompose, design, port_probabilities, recompose, sample, solve,
)
states = ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.6, 0.0, 0.8])
e = Ensemble(tuple(StateVector(s) for s in states), [0.5, 0.25, 0.25])
sol = solve(e)
dsn = design(e, sol)
assert abs(port_probabilities(dsn, 1)[3] - sol.q2) <= 1e-12
assert sample(dsn, e, 1000, 7).violations == 0
rows = [[0.6, 0.8j], [0.8j, 0.6]]
back = recompose(decompose(rows))
assert max(abs(a - b) for r, s in zip(rows, back) for a, b in zip(r, s)) <= 1e-12
refusals = [
    (StateVector, [[1, 0], [0]], InvalidStateError),
    (StateVector, 'ab', InvalidStateError),
    (StateVector, [None, 1], InvalidStateError),
    (lambda p: Ensemble(states, p), [[0.5], [0.5, 0]], InvalidEnsembleError),
    (StateVector, ['1', '0'], InvalidStateError),
    (lambda p: Ensemble(states, p), ['0.5', '0.25', '0.25'], InvalidEnsembleError),
    (lambda p: Ensemble(states, p), [b'0.5', 0.25, 0.25], InvalidEnsembleError),
    (decompose, [[1, 0], [0]], DomainError),
    (decompose, 'ab', DomainError),
    (decompose, [['1', '0'], ['0', '1']], DomainError),
]
for call, arg, error in refusals:
    try:
        call(arg)
    except error:
        continue
    raise AssertionError(f'{arg!r} was not refused')
"""


def test_every_command_never_imports_a_watched_module():
    """solve, design, synthesize, simulate and compare on each fixture, and
    every sweep (unequal priors included), reproduce their goldens in one
    process that never imports a module of :data:`WATCHED`; so does
    :data:`LIBRARY_CHAIN`, run first in that process."""
    got = run_cases(NUMPY_FREE, LIBRARY_CHAIN)
    assert {module: got[module] for module in WATCHED} == {
        module: [False, False] for module in WATCHED
    }
    assert_golden(got, NUMPY_FREE)
