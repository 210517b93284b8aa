"""End-to-end command-line behavior, artifact formats, and diagnostics."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qfilter import BeamSplitterLayer, cli, design
from qfilter.cli import main

from conftest import FIXTURES_DIR, fifty_fifty_ensemble, rebuilt

RT2 = math.sqrt(2.0)

FIFTY_FIFTY = str(FIXTURES_DIR / "fifty_fifty.json")
SYM_030 = str(FIXTURES_DIR / "symmetric_s030.json")
SYM_050 = str(FIXTURES_DIR / "symmetric_s050.json")
ORTHOGONAL = str(FIXTURES_DIR / "orthogonal.json")


def run_json(capsys, argv: list[str]) -> dict:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def amplitude(value):
    """An edit of an ensemble document that sets ``states[0][1]`` to `value`."""

    def edit(doc: dict) -> dict:
        doc["states"][0][1] = value
        return doc

    return edit


def all_floats(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from all_floats(value)
    elif isinstance(node, list):
        for value in node:
            yield from all_floats(value)
    elif isinstance(node, float):
        yield node


class TestSolveCommand:
    def test_fifty_fifty_values_and_schema(self, capsys):
        doc = run_json(capsys, ["solve", "--input", FIFTY_FIFTY])
        assert doc["schema"] == "qfilter.solution/1"
        assert doc["regime"] == "POVM"
        assert doc["q1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert doc["q2"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["q3"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["Q"] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert doc["von_neumann_baseline"] == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_symmetric_fixture(self, capsys):
        doc = run_json(capsys, ["solve", "--input", SYM_050])
        assert doc["Q"] == pytest.approx(2.0 * RT2 * 0.5 / 3.0, abs=1e-12)

    def test_orthogonal_fixture(self, capsys):
        doc = run_json(capsys, ["solve", "--input", ORTHOGONAL])
        assert doc["Q"] == 0.0

    def test_floats_are_printed_at_15_significant_digits(self, capsys):
        doc = run_json(capsys, ["solve", "--input", FIFTY_FIFTY])
        for value in all_floats(doc):
            assert value == float(f"{value:.15g}")

    def test_output_file_round_trips(self, tmp_path, capsys):
        target = tmp_path / "solution.json"
        code = main(["solve", "--input", FIFTY_FIFTY, "--output", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        reparsed = json.loads(target.read_text())
        assert reparsed["schema"] == "qfilter.solution/1"
        assert reparsed["label"]


class TestDiagnostics:
    def test_missing_file(self, capsys):
        assert main(["solve", "--input", "/nonexistent.json"]) == 1
        err = capsys.readouterr().err
        assert "error: solve:" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": [\n  [')
        assert main(["solve", "--input", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_bad_field_reports_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "states": [[1, 0], [0, 1], [{"re": 0.6, "im": "oops"}, 0.8]],
                    "priors": [0.4, 0.3, 0.3],
                }
            )
        )
        assert main(["solve", "--input", str(bad)]) == 1
        assert "states[2][0]" in capsys.readouterr().err

    def test_non_normalized_state_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "states": [[1, 0.5], [0, 1], [1, 0]],
                    "priors": [1 / 3, 1 / 3, 1 / 3],
                }
            )
        )
        assert main(["solve", "--input", str(bad)]) == 1
        assert "states[0]" in capsys.readouterr().err

    def test_bad_priors_are_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"states": [[1, 0], [0, 1], [1, 0]], "priors": [1, 1, 1]})
        )
        assert main(["solve", "--input", str(bad)]) == 1
        assert capsys.readouterr().err


    @pytest.mark.parametrize("priors", [[True, False, False], [0.5, 0.5, False]])
    def test_boolean_priors_are_rejected(self, tmp_path, capsys, priors):
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(FIFTY_FIFTY).read_text(encoding="utf-8"))
        bad.write_text(json.dumps(dict(doc, priors=priors)))
        assert main(["solve", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "field 'priors' contains a non-number" in captured.err

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_boolean_re_im_is_rejected(self, tmp_path, capsys, part):
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(FIFTY_FIFTY).read_text(encoding="utf-8"))
        doc["states"][0][1] = {"re": 0.0, "im": 0.0, part: False}
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "states[0][1]: non-numeric re/im value" in captured.err

    @pytest.mark.parametrize(
        "where, message",
        [
            ("priors", "field 'priors' contains a non-number"),
            ("re", "states[0][1]: non-numeric re/im value"),
            ("im", "states[0][1]: non-numeric re/im value"),
        ],
    )
    def test_numeric_strings_are_rejected(self, tmp_path, capsys, where, message):
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(FIFTY_FIFTY).read_text(encoding="utf-8"))
        if where == "priors":
            doc["priors"] = [str(p) for p in doc["priors"]]
        else:
            doc["states"][0][1] = {"re": 0.0, "im": 0.0, where: "0.0"}
        bad.write_text(json.dumps(doc))
        assert main(["solve", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    #: Each malformed file: the edit made to the fifty-fifty fixture, and the
    #: message that follows the file's path.
    MALFORMED = {
        "top_level_array": (lambda doc: [doc], "top level must be a JSON object"),
        "no_states": (
            lambda doc: {k: v for k, v in doc.items() if k != "states"},
            "missing required field 'states'",
        ),
        "no_priors": (
            lambda doc: {k: v for k, v in doc.items() if k != "priors"},
            "missing required field 'priors'",
        ),
        "two_states": (
            lambda doc: dict(doc, states=doc["states"][:2]),
            "field 'states' must be an array of exactly 3 states",
        ),
        "empty_state": (
            lambda doc: dict(doc, states=[doc["states"][0], [], doc["states"][2]]),
            "states[1] must be a non-empty array of amplitudes",
        ),
        "priors_object": (
            lambda doc: dict(doc, priors={"p1": 0.5}),
            "field 'priors' must be an array of 3 reals",
        ),
        "label_number": (lambda doc: dict(doc, label=7), "field 'label' must be a string"),
        "amplitude_fields": (
            amplitude({"re": 0.0, "im": 0.0, "phase": 0.0}),
            "states[0][1]: unknown amplitude fields ['phase']",
        ),
        "amplitude_boolean": (
            amplitude(True), "states[0][1]: expected a number or {re, im} object"
        ),
        "amplitude_string": (
            amplitude("0.5"), "states[0][1]: expected a number or {re, im} object, got str"
        ),
        "amplitude_array": (
            amplitude([0.5]), "states[0][1]: expected a number or {re, im} object, got list"
        ),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_refused_with_its_field(self, tmp_path, capsys, case):
        edit, message = self.MALFORMED[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(Path(FIFTY_FIFTY).read_text()))))
        assert main(["solve", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: solve: {bad}: {message}\n"


class TestDesignCommand:
    def test_artifact_contents(self, capsys):
        doc = run_json(capsys, ["design", "--input", FIFTY_FIFTY])
        assert doc["schema"] == "qfilter.design/1"
        assert doc["theta"] == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert doc["state1_port"] == 1
        assert doc["set_ports"] == [2, 3]
        unitary = np.array(
            [[c["re"] + 1j * c["im"] for c in row] for row in doc["unitary"]]
        )
        np.testing.assert_allclose(
            unitary.conj().T @ unitary, np.eye(4), atol=1e-9
        )
        probs = np.array(doc["port_probabilities"])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert probs[0][3] == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("excess", [1e-7, 1e-5])
    def test_output_norm_error_is_reported_as_a_gram_gap(self, excess):
        e = fifty_fifty_ensemble()
        dsn = design(e)
        assert cli._design_checks(e, dsn, cli.DEFAULT_TOLERANCE) is None
        scale = 1.0 + excess
        scaled = rebuilt(
            dsn,
            success_vectors=(scale * dsn.success_vectors[0],) + dsn.success_vectors[1:],
            failure_vectors=(scale * dsn.failure_vectors[0],) + dsn.failure_vectors[1:],
        )
        problem = cli._design_checks(e, scaled, cli.DEFAULT_TOLERANCE)
        assert problem is not None
        assert problem.startswith("input/output Gram matrices differ")


class TestSynthesizeCommand:
    def test_fifty_fifty_needs_two_balanced_layers(self, capsys):
        doc = run_json(capsys, ["synthesize", "--input", FIFTY_FIFTY])
        assert doc["schema"] == "qfilter.mesh/1"
        assert doc["layer_count"] == 2
        assert [(l["p"], l["q"]) for l in doc["layers"]] == [(3, 4), (1, 4)]
        for layer in doc["layers"]:
            assert abs(layer["t"]) == pytest.approx(1.0 / RT2, abs=1e-12)
            assert abs(layer["r"]) == pytest.approx(1.0 / RT2, abs=1e-12)
        assert doc["recomposition_residual"] <= 1e-9

    def test_orthogonal_fixture_needs_no_layers(self, capsys):
        doc = run_json(capsys, ["synthesize", "--input", ORTHOGONAL])
        assert doc["layer_count"] == 0
        assert doc["layers"] == []


class TestSimulateCommand:
    def test_clean_audit(self, capsys):
        doc = run_json(
            capsys,
            [
                "simulate", "--input", FIFTY_FIFTY,
                "--trials", "50000", "--seed", "7",
            ],
        )
        assert doc["schema"] == "qfilter.simulation/1"
        assert doc["trials"] == 50000
        assert doc["seed"] == 7
        assert doc["violations"] == 0
        assert abs(doc["empirical_Q"] - 4.0 / 9.0) <= doc["five_sigma_band"]

    def test_out_of_band_warning_reports_the_worst_per_entry_excess(
        self, monkeypatch, capsys
    ):
        real_sample = cli.sample
        reports = []

        def out_of_band(*args, **kwargs):
            report = real_sample(*args, **kwargs)
            counts = np.rint(report.exact_probabilities * 3000).astype(int)
            # Input 2 fails 140 times too often in its 3000 draws (about 6
            # sigma on its failure port, whose band is the narrowest of all
            # entries).
            counts[1] = [counts[1, 0] - 70, 0, counts[1, 2] - 70, counts[1, 3] + 140]
            reports.append(rebuilt(report, counts=counts))
            return reports[-1]

        monkeypatch.setattr(cli, "sample", out_of_band)
        code = main(
            ["simulate", "--input", SYM_030, "--trials", "9000", "--seed", "1"]
        )
        err = capsys.readouterr().err
        assert code == 0
        worst = float(re.search(r"worst excess ([-+.e0-9]+)\)", err).group(1))
        exact, counts = reports[0].exact_probabilities, reports[0].counts
        deviation = np.abs(counts / counts.sum(axis=1, keepdims=True) - exact)
        bands = 5.0 * np.sqrt(exact * (1.0 - exact) / counts.sum(axis=1, keepdims=True))
        assert worst == pytest.approx(float((deviation - bands).max()), rel=1e-3)
        # Pairing the largest deviation with the widest band understates it.
        assert worst > deviation.max() - bands.max() + 1e-3

    def test_a_correct_design_at_skewed_priors_stays_in_band(self, tmp_path, capsys):
        # States 2 and 3 are each drawn about 1000 times in 1e5 trials; bands
        # over all trials were ten times too narrow for them.
        doc = json.loads(Path(SYM_030).read_text())
        doc["priors"] = [0.98, 0.01, 0.01]
        skewed = tmp_path / "skewed.json"
        skewed.write_text(json.dumps(doc))
        for seed in range(60):
            code = main(
                ["simulate", "--input", str(skewed), "--trials", "100000", "--seed", str(seed)]
            )
            assert code == 0
            assert capsys.readouterr().err == ""

    def test_invalid_trials_fail(self, capsys):
        # The range sample() enforces, refused as a usage error at parse time.
        for trials in ("0", "1000000001"):
            with pytest.raises(SystemExit) as exit_info:
                main(["simulate", "--input", FIFTY_FIFTY, "--trials", trials])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (
                "argument --trials: must be an integer from 1 to 1000000000, "
                f"got '{trials}'" in captured.err
            )

    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "must be an integer >= 0, got '-1'"), ("x", "invalid int value: 'x'")],
    )
    def test_invalid_seed_is_refused_before_any_stage(self, capsys, seed, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--input", FIFTY_FIFTY, f"--seed={seed}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: {message}" in captured.err


class TestCompareCommand:
    def test_fifty_fifty_comparison(self, capsys):
        doc = run_json(capsys, ["compare", "--input", FIFTY_FIFTY])
        assert doc["schema"] == "qfilter.comparison/1"
        assert doc["Q"] == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert doc["Q_double_prime"] == pytest.approx(RT2 / 3.0, abs=1e-12)
        assert doc["ratio"] <= 1.0 + 1e-3

    def test_orthogonal_ratio_convention(self, capsys):
        doc = run_json(capsys, ["compare", "--input", ORTHOGONAL])
        assert doc["Q_prime"] == 0.0
        assert doc["ratio"] == 1.0

    @pytest.mark.parametrize(
        "value, message",
        [
            ("5", "must be a value in (0, 1e-2], got '5'"),
            ("0", "must be a value in (0, 1e-2], got '0'"),
            ("nan", "must be a value in (0, 1e-2], got 'nan'"),
            ("x", "invalid float value: 'x'"),
        ],
    )
    def test_invalid_resolution_is_refused_before_any_stage(self, capsys, value, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--input", FIFTY_FIFTY, f"--resolution={value}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --resolution: {message}" in captured.err

    def test_resolution_is_recorded(self, capsys):
        doc = run_json(capsys, ["compare", "--input", FIFTY_FIFTY, "--resolution", "1e-2"])
        assert doc["resolution"] == 1e-2


class TestSweepCommand:
    @staticmethod
    def parse_rows(text: str) -> tuple[str, list[list[float]]]:
        lines = [ln for ln in text.strip().splitlines() if ln]
        assert lines[0] == "# qfilter.sweep/1"
        header = lines[1]
        rows = [[float(x) for x in ln.split(",")] for ln in lines[2:]]
        return header, rows

    def test_symmetric_family_columns_and_monotonicity(self, capsys):
        code = main(
            ["sweep", "--start", "0.1", "--stop", "0.9", "--step", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = self.parse_rows(out)
        assert header == "s,Q,Q_prime,Q_double_prime"
        assert len(rows) == 9
        for s, q, qp, qpp in rows:
            expected = (
                2.0 * RT2 * s / 3.0
                if s <= 1.0 / RT2
                else 1.0 / 3.0 + 2.0 * s * s / 3.0
            )
            assert q == pytest.approx(expected, abs=1e-9)
            assert qp == pytest.approx(s, abs=1e-12)
            assert qpp == pytest.approx(s, abs=1e-12)
            assert q < qp
        assert all(b[1] >= a[1] for a, b in zip(rows, rows[1:]))

    def test_two_overlap_family(self, capsys):
        code = main(
            [
                "sweep", "--family", "two_overlap",
                "--start", "0.28", "--stop", "0.29", "--step", "0.005",
                "--s2", "0.8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, rows = self.parse_rows(out)
        assert header == "s1,s2,Q,Q_prime,ratio"
        for s1, s2, q, qp, ratio in rows:
            assert s2 == 0.8
            assert q == pytest.approx(2.0 * RT2 * s1 / 3.0, abs=1e-9)
            assert qp == pytest.approx((s1 * s1 / s2 + 2.0 * s2) / 3.0, abs=1e-12)
            assert ratio == pytest.approx(q / qp, abs=1e-12)

    def test_infeasible_point_is_reported_with_its_location(self, capsys):
        code = main(
            [
                "sweep", "--family", "two_overlap",
                "--start", "0.93", "--stop", "0.96", "--step", "0.01",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: sweep: s1=0.95, s2=0.8: overlaps do not define" in err

    def test_unequal_priors_use_the_exact_identification_optimum(self, capsys):
        code = main(["sweep", "--priors", "0.5", "0.3", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        _, rows = self.parse_rows(out)
        assert len(rows) == 99
        for s, q, qp, qpp in rows:
            assert q <= qp + 1e-9
            assert qpp == pytest.approx(s, abs=1e-12)
        assert all(b[2] >= a[2] for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("family", ["symmetric_s", "two_overlap"])
    def test_only_the_symmetric_family_checks_monotonicity(
        self, family, monkeypatch, capsys
    ):
        falling = iter([0.5, 0.4, 0.3])
        monkeypatch.setattr(cli, "three_state_Q", lambda e: next(falling))
        code = main(
            [
                "sweep", "--family", family, "--priors", "0.5", "0.3", "0.2",
                "--start", "0.2", "--stop", "0.4", "--step", "0.1",
            ]
        )
        err = capsys.readouterr().err
        if family == "symmetric_s":
            assert code == 1
            assert err == "error: sweep: Q_prime is not monotone nondecreasing in s\n"
        else:
            assert code == 0, err

    def test_writes_csv_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--start", "0.2", "--stop", "0.4", "--step", "0.1",
                "--output", str(target),
            ]
        )
        assert code == 0
        header, rows = self.parse_rows(target.read_text())
        assert len(rows) == 3

    def test_range_validation(self, capsys):
        assert main(["sweep", "--start", "0.0", "--stop", "0.5"]) == 1
        assert main(["sweep", "--start", "0.5", "--stop", "1.0"]) == 1
        assert main(["sweep", "--start", "0.5", "--stop", "0.4"]) == 1
        assert main(["sweep", "--step", "-0.01"]) == 1
        assert main(
            ["sweep", "--family", "two_overlap", "--s2", "1.5"]
        ) == 1
        err = capsys.readouterr().err
        assert err.count("error: sweep:") == 5

    @pytest.mark.parametrize("s2", ["0.5", "1.5"])
    def test_s2_is_refused_on_the_symmetric_family(self, capsys, s2):
        code = main(["sweep", "--s2", s2, "--start", "0.5", "--stop", "0.6"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: sweep: --s2 applies only to the two_overlap family" in captured.err


class TestToleranceFlag:
    COMMANDS = {
        "solve": ["--input", FIFTY_FIFTY],
        "design": ["--input", FIFTY_FIFTY],
        "synthesize": ["--input", FIFTY_FIFTY],
        "simulate": ["--input", FIFTY_FIFTY, "--trials", "100"],
    }

    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_finite_or_negative_tolerance_is_refused(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, *self.COMMANDS[command], f"--tolerance={value}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tolerance: must be a finite value >= 0" in captured.err

    def test_tolerance_is_accepted_everywhere(self, capsys):
        for argv in (
            ["solve", "--input", FIFTY_FIFTY, "--tolerance", "1e-8"],
            ["design", "--input", FIFTY_FIFTY, "--tolerance", "1e-8"],
            ["synthesize", "--input", FIFTY_FIFTY, "--tolerance", "1e-8"],
            [
                "simulate", "--input", FIFTY_FIFTY,
                "--trials", "100", "--tolerance", "1e-8",
            ],
        ):
            assert main(argv) == 0, argv
            capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--input", FIFTY_FIFTY, "--tolerance", "1e-8"],
            ["sweep", "--start", "0.3", "--stop", "0.3", "--tolerance", "1e-8"],
            ["sweep", "--start", "0.3", "--stop", "0.3", "--resolution", "1e-3"],
        ],
    )
    def test_options_that_select_nothing_are_not_accepted(self, argv, capsys):
        # compare and sweep validate nothing by a tolerance, and Q' is exact,
        # so sweep has no step to set.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


class TestStageFailures:
    """A failing validation exits 1, names its stage and writes no artifact."""

    PIPELINE = ("solve", "design", "synthesize", "simulate")
    #: Each check: the attribute of ``cli`` patched, what it returns, and
    #: the stage it validates.  The mesh is recomposed on Python rows.
    CHECKS = {
        "_validate_solution": ("_validate_solution", lambda *args: "forced failure", "solve"),
        "_design_checks": ("_design_checks", lambda *args: "forced failure", "design"),
        "recompose": ("recompose", lambda program: [[0j] * 4] * 4, "synthesize"),
    }
    #: Which checks each command runs.
    RUNS = {
        "solve": ("_validate_solution",),
        "design": ("_validate_solution", "_design_checks"),
        "synthesize": ("_validate_solution", "_design_checks", "recompose"),
        "simulate": ("_validate_solution", "_design_checks"),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("command", PIPELINE)
    def test_failure_is_reported_under_its_stage(
        self, command, check, monkeypatch, capsys
    ):
        attribute, replacement, stage = self.CHECKS[check]
        monkeypatch.setattr(cli, attribute, replacement)
        argv = [command, "--input", FIFTY_FIFTY]
        if command == "simulate":
            argv += ["--trials", "1000"]
        code = main(argv)
        captured = capsys.readouterr()
        if check not in self.RUNS[command]:
            assert code == 0, captured.err
            return
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {stage}: ")
        assert captured.err.count("\n") == 1

    #: Each check, reached by one wrong field in the result of the call that
    #: feeds it: the command, the attribute of ``cli`` whose result is edited,
    #: the edit, and the message printed after ``error: ``.
    EDITS = {
        "q_range": (
            "solve", "solve", lambda sol: rebuilt(sol, q1=1.5),
            "solve: q1=1.5 outside [0, 1]",
        ),
        "zero_error": (
            "solve", "solve", lambda sol: rebuilt(sol, q2=0.5),
            "solve: zero-error constraint q1*q2 = |O12|^2 violated by 1.111e-01",
        ),
        "weighted_Q": (
            "solve", "solve", lambda sol: rebuilt(sol, Q=0.5),
            "solve: Q does not equal the weighted failure average (diff 5.556e-02)",
        ),
        "parallel_bound": (
            "solve", "solve", lambda sol: rebuilt(sol, parallel_norm2=0.9),
            "solve: q1=0.6666666666666666 below the parallel-component bound 0.9",
        ),
        "unitarity": (
            "design", "design",
            lambda dsn: rebuilt(dsn, unitary=np.multiply(dsn.unitary, 1.000001)),
            "design: unitary deviates from unitarity by 2.000e-06",
        ),
        "leak": (
            "design", "design", lambda dsn: rebuilt(dsn, state1_port=2),
            "design: input 1 leaks probability 3.333e-01 into a forbidden port",
        ),
        "failure_port": (
            "design", "design",
            lambda dsn: rebuilt(
                dsn, solution=rebuilt(dsn.solution, q1=0.5)
            ),
            "design: input 1 failure-port probability 0.6666666666666666 does not "
            "match q1=0.5",
        ),
        "layer_budget": (
            "synthesize", "decompose",
            lambda program: rebuilt(
                program, layers=program.layers + (BeamSplitterLayer(1, 2, t=1.0, r=0.0),) * 5
            ),
            "synthesize: 7 layers exceed the 6-layer budget",
        ),
        "failure_average": (
            "simulate", "sample",
            lambda report: rebuilt(
                report, exact_probabilities=report.exact_probabilities + [0.0, 0.0, 0.0, 0.01]
            ),
            "simulate: exact failure-port average 0.4544444444444445 does not match "
            "Q=0.4444444444444444",
        ),
        "violations": (
            "simulate", "sample", lambda report: rebuilt(report, violations=3),
            "simulate: 3 forbidden-port clicks in 1000 trials",
        ),
        "Q_above_Q_prime": (
            "compare", "oracle_compare", lambda record: rebuilt(record, Q_prime=0.4),
            "compare: filtering failure 0.4444444444444444 exceeds identification "
            "failure 0.4 by more than 1e-9",
        ),
    }

    @pytest.mark.parametrize("check", sorted(EDITS))
    def test_each_check_prints_its_own_message(self, check, monkeypatch, capsys):
        command, attribute, edit, message = self.EDITS[check]
        real = getattr(cli, attribute)
        monkeypatch.setattr(cli, attribute, lambda *args, **kwargs: edit(real(*args, **kwargs)))
        argv = [command, "--input", FIFTY_FIFTY]
        if command == "simulate":
            argv += ["--trials", "1000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        # No command writes its artifact once a check has failed.
        assert captured.out == ""
