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
last digits of some artifacts follow: 9 of the 23 differ under
``OPENBLAS_CORETYPE=Haswell`` and 11 under ``Prescott``, all of them among
the design, synthesize and simulate files of ``fifty_fifty``,
``symmetric_s030`` and ``symmetric_s050``, ``orthogonal.solve``,
``orthogonal.design`` and ``sweep_two_overlap.csv``.  A mismatch on another
machine should first be checked against that kernel.
"""

import pathlib

import pytest

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
