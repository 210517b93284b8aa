"""Smoke test of ``scripts/signatures.py``, the bit-for-bit check of the
benchmark's in-process operations: it runs on seed 1 from this repository's
``src`` by default and through ``--src``, and both runs print the same
counts, a digest per workload, the mean mesh layers of the ``pipeline``
designs and one overall digest.  No digest's value is pinned: each changes
with any declared change of results.  The mean layers are bounded above."""

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


#: The mean mesh layers of the ``pipeline`` designs, per regime and overall.
LAYERS = re.compile(
    r"pipeline mesh layers: POVM (\d+\.\d{4}) \((\d+)\), "
    r"VN_LARGE_OVERLAP \d+\.\d{4} \((\d+)\), VN_SMALL_OVERLAP \d+\.\d{4} \((\d+)\), "
    r"all (\d+\.\d{4}) \((\d+)\)"
)


def test_signatures_print_the_counts_and_one_digest_with_and_without_src():
    default, given = run_signatures("1"), run_signatures("--src", "src", "1")
    assert given == default
    counts, digests = zip(*(line.rsplit(", ", 1) for line in default[:3]))
    assert list(counts) == COUNTS
    for digest in [*digests, default[-1]]:
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert len(set(digests)) == len(digests)
    layers = LAYERS.fullmatch(default[3])
    assert layers and len(default) == 5
    povm_mean, povm, large, small, mean, total = layers.groups()
    assert int(povm) + int(large) + int(small) == int(total) == 225
    # The seed-1 means when the POVM designs were first written down from
    # the frame: a design that gains a layer on the benchmark's pool fails.
    assert int(povm) == 56 and float(povm_mean) <= 4.3750
    assert float(mean) <= 3.6889
