"""The committed benchmark records: every root-level ``BENCH_*.json``.

A record pairs runs of ``perfbench/run.py`` on a parent tree and a change
tree.  It must parse, name both trees by commit and by the hash of their
``src/`` files, and use only the workloads and end-to-end metrics that
``BENCHMARK.json`` declares, which this test only reads.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared() -> tuple[set, set]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_both_trees_and_declared_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", record[side]["sha"]), side
        assert re.fullmatch(r"[0-9a-f]{64}", record[side]["source_sha256"]), side
    assert record["parent"]["sha"] != record["change"]["sha"]
    workloads, metrics = declared()
    assert record["workloads"] and set(record["workloads"]) <= workloads
    for name, workload in record["workloads"].items():
        assert workload["runs"], name
        for run in workload["runs"]:
            for side in ("parent", "change"):
                assert set(run[side]) <= metrics, (name, run["seed"], side)
        assert set(workload["summary"]) <= metrics, name
