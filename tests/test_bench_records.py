"""The committed benchmark records: every root-level ``BENCH_*.json``.

A record pairs runs of ``perfbench/run.py`` on a parent tree and a change
tree.  It must parse, name both trees by commit and by the hash of their
``src/`` files, and use only the workloads and end-to-end metrics that
``BENCHMARK.json`` declares, which this test only reads.
"""

import json
import pathlib
import re
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


#: Records that claim a gain: the workload, the metric, and the end-to-end
#: metrics that the change must leave identical in every pair.
CLAIMS = {
    "BENCH_32.json": ("pipeline", "throughput_ops_s", ("answered_ratio", "max_abs_err", "mesh_layers_mean")),
    # The projective designs take fewer layers there, so mesh_layers_mean moves by design.
    "BENCH_33.json": ("pipeline", "throughput_ops_s", ("answered_ratio", "max_abs_err")),
    # POVM designs take fewer layers, so mesh_layers_mean moves by design here too.
    "BENCH_34.json": ("pipeline", "latency_tail_ms", ("answered_ratio", "max_abs_err")),
}


def declared() -> tuple[set, set]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


def better() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


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


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_summary_is_recomputed_from_the_runs(path):
    """Medians and inclusive quartiles by ``statistics.quantiles``; a win is a
    pair where the change reads better, and ties count for neither."""
    record = json.loads(path.read_text(encoding="utf-8"))
    direction = better()
    for name, workload in record["workloads"].items():
        for metric, summary in workload["summary"].items():
            sides = {side: [run[side][metric] for run in workload["runs"]] for side in ("parent", "change")}
            for side, values in sides.items():
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                got = summary[side]
                assert got["median"] == pytest.approx(statistics.median(values), rel=1e-12), (name, metric)
                assert got["q1"] == pytest.approx(q1, rel=1e-12) and got["q3"] == pytest.approx(q3, rel=1e-12)
            sign = 1 if direction[metric] == "higher" else -1
            gains = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
            assert summary["change_wins"] == sum(g > 0 for g in gains), (name, metric)
            assert summary["change_losses"] == sum(g < 0 for g in gains), (name, metric)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_claimed_gain_is_met(name):
    """At least 9 of 10 pairs won, a median gap above the parent's IQR, no
    failed operation, and the listed metrics identical in every pair."""
    record = json.loads((ROOT / name).read_text(encoding="utf-8"))
    workload_name, metric, identical = CLAIMS[name]
    workload = record["workloads"][workload_name]
    summary = workload["summary"][metric]
    assert len(workload["runs"]) >= 10
    assert summary["change_wins"] >= 0.9 * len(workload["runs"])
    gap = summary["change"]["median"] - summary["parent"]["median"]
    assert (gap if better()[metric] == "higher" else -gap) > summary["parent_iqr"]
    for run in workload["runs"]:
        assert run["parent_failed"] == run["change_failed"] == 0
        for other in identical:
            assert run["change"][other] == run["parent"][other], (run["seed"], other)
