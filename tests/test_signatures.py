"""Smoke test of ``scripts/signatures.py``, the bit-for-bit check of the
benchmark's in-process operations: it runs on seed 1 from this repository's
``src`` by default and through ``--src``, and both runs print the same
counts, a digest per workload and one overall digest.  No digest's value is
pinned: each changes with any declared change of results."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = [
    "pipeline: 225 items, 0 refused",
    "solve_scan: 444 items, 36 refused",
    "compare: 64 items, 0 refused",
]


def run_signatures(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "signatures.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_signatures_print_the_counts_and_one_digest_with_and_without_src():
    default, given = run_signatures("1"), run_signatures("--src", "src", "1")
    assert given == default
    counts, digests = zip(*(line.rsplit(", ", 1) for line in default[:-1]))
    assert list(counts) == COUNTS
    for digest in [*digests, default[-1]]:
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert len(set(digests)) == len(digests)
