"""Every fixture x command artifact stays byte-identical.

The files in ``tests/golden/`` are the stdout of these commands, run from
the repository root::

    for f in fifty_fifty orthogonal symmetric_s030 symmetric_s050; do
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

A change that alters an artifact on purpose regenerates the affected files
with the same commands and says why in its change record.

The files were written with numpy's bundled OpenBLAS running its SkylakeX
kernels; ``OPENBLAS_VERBOSE=2 python -c "import numpy"`` prints the kernel
(``Core: ...``) on stderr.  Other kernels sum in another order, and the
last digits of some artifacts follow: 1 of the 23 differs under
``OPENBLAS_CORETYPE=Haswell`` (``sweep_two_overlap.csv``, whose states come
from the Cholesky factor in ``ensemble_from_overlaps``) and 6 under
``Prescott`` (that file, the design and simulate files of ``fifty_fifty``
and ``symmetric_s030``, and ``symmetric_s050.synthesize``), through the
Cholesky factor and the matrix products that still run in numpy.  A
mismatch on another machine should first be checked against that kernel.
The overlaps, w and the closed forms are formed on Python scalars, so the
solve and compare artifacts are the same under every kernel; the last test
below checks that under Haswell and Prescott.
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

FIXTURES = ["fifty_fifty", "orthogonal", "symmetric_s030", "symmetric_s050"]

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
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_is_byte_identical(golden, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()


#: Every solve and compare artifact: their overlaps, w and closed forms are
#: formed on Python scalars, so their bits must not depend on BLAS.
KERNEL_FREE = [
    (name, argv)
    for name, argv in CASES
    if name.endswith((".solve.json", ".compare.json"))
]

#: Runs each (name, argv) of its first argument through the CLI in one
#: process and prints {name: stdout} as JSON.
RUN_CASES = """
import contextlib, io, json, sys
from qfilter.cli import main
out = {}
for name, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = buf.getvalue() if code == 0 else f"exit {code}"
print(json.dumps(out))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_solve_and_compare_do_not_depend_on_the_blas_kernel(coretype):
    src = str(pathlib.Path(qfilter.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2")
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CASES, json.dumps(KERNEL_FREE)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    if "Core:" not in proc.stderr:
        pytest.skip("numpy's BLAS is not an OpenBLAS that reports its kernel")
    got = json.loads(proc.stdout)
    for name, _ in KERNEL_FREE:
        assert got[name].encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name
