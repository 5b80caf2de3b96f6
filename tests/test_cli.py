"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from uecsm.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NOT_UECSM,
    EXIT_UECSM,
    MatrixDocument,
    Report,
    analyze,
    document_to_text,
    exit_code_for,
    load_matrix_document,
    main,
    parse_document_text,
    write_gallery_fixtures,
    write_matrix_document,
)
import uecsm.cli
from uecsm.errors import NoConvergence, ParseError
from uecsm.gallery import GALLERY, WAT_COUNTEREXAMPLE

from _util import random_unitary, rng

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text()
)


@pytest.fixture()
def fixture_dir(tmp_path):
    write_gallery_fixtures(tmp_path)
    return tmp_path


class TestDocuments:
    def test_round_trip_bytes(self, tmp_path):
        doc = MatrixDocument(matrix=WAT_COUNTEREXAMPLE, label="round-trip")
        path = tmp_path / "m.json"
        write_matrix_document(doc, path)
        first = path.read_bytes()
        loaded = load_matrix_document(path)
        write_matrix_document(loaded, path)
        assert path.read_bytes() == first
        assert np.array_equal(loaded.matrix, WAT_COUNTEREXAMPLE)
        assert loaded.label == "round-trip"

    def test_label_defaults_to_stem(self, tmp_path):
        doc = MatrixDocument(matrix=np.eye(2, dtype=complex))
        path = tmp_path / "plain.json"
        write_matrix_document(doc, path)
        assert load_matrix_document(path).label == "plain"

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            '{"n": 2, "entries": [[[1, 0]], [[0, 0]]]}',  # ragged
            '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], ["x", 0]]]}',
            '{"n": "2", "entries": []}',
            "[1, 2, 3]",
            pytest.param('{"n": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}', id="beyond-float"),
            pytest.param('{"n": 1, "entries": [[[1' + "0" * 5000 + ', 0]]]}', id="beyond-int-digits"),
            pytest.param("[" * 100_000, id="deep-nesting"),
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_document_text(text)

    def test_shipped_fixtures_match_gallery(self):
        # the repository fixtures are exactly the canonical gallery documents
        for label, (matrix, _) in GALLERY.items():
            path = FIXTURES / f"{label.replace('-', '_')}.json"
            assert path.exists(), path
            expected = document_to_text(MatrixDocument(matrix=matrix, label=label))
            assert path.read_text(encoding="utf-8") == expected


#: documents that once escaped the parser as OverflowError, RecursionError
#: and UnicodeDecodeError
UNPARSABLE = {
    "huge_int.json": ('{"n": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}').encode(),
    "deep.json": b"[" * 100_000,
    "utf16_bom.json": b"\xff\xfe",
}


class TestExitCodes:
    def test_exit_code_pure_mapping(self):
        base = Report(label="x", dimension=4, tol=1e-8)
        base.uecsm = True
        assert exit_code_for(base) == EXIT_UECSM
        base.uecsm = False
        assert exit_code_for(base) == EXIT_NOT_UECSM
        base.conflicts = [("uecsm", "sat")]
        assert exit_code_for(base) == EXIT_INCONCLUSIVE
        err = Report(label="x", dimension=0, tol=1e-8, error="boom")
        assert exit_code_for(err) == EXIT_INCONCLUSIVE

    def test_cmd_test_uecsm(self, fixture_dir, capsys):
        code = main(["test", str(fixture_dir / "nilpotent_e6.json")])
        assert code == EXIT_UECSM
        assert "uecsm" in capsys.readouterr().out

    def test_cmd_test_not_uecsm(self, fixture_dir, capsys):
        code = main(["test", str(fixture_dir / "wat_counterexample.json")])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_UECSM
        assert "sat" in out

    def test_cmd_test_malformed(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["test", str(bad)])
        assert code == EXIT_INCONCLUSIVE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(UNPARSABLE))
    def test_cmd_test_unparsable_bytes(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(UNPARSABLE[name])
        assert main(["test", str(path)]) == EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_cmd_test_unsupported_dimension(self, tmp_path):
        doc = MatrixDocument(matrix=np.eye(5, dtype=complex), label="big")
        path = tmp_path / "big.json"
        write_matrix_document(doc, path)
        assert main(["test", str(path)]) == EXIT_INCONCLUSIVE


class TestJsonOutput:
    def test_report_validates_against_schema(self, fixture_dir, capsys):
        main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["verdicts"]["wat"]["passed"] is True
        assert payload["verdicts"]["sat"]["passed"] is False
        assert payload["uecsm"] is False

    def test_degenerate_report_validates(self, fixture_dir, capsys):
        main(["test", str(fixture_dir / "nilpotent_e6.json"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["spectral_status"] == "degenerate"
        assert payload["uecsm"] is True

    def test_oracle_section_validates(self, fixture_dir, capsys):
        main(
            [
                "test",
                str(fixture_dir / "scalar_plus_shift_22.json"),
                "--json",
                "--oracle",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["oracle"]["status"] == "witness"


class TestClassifyNilpotent:
    def test_passing_member(self, capsys):
        code = main(["classify-nilpotent", "--params", "2,9,1,0,6,7"])
        out = capsys.readouterr().out
        assert code == EXIT_UECSM
        assert "[2]" in out

    def test_zero_params(self, capsys):
        code = main(["classify-nilpotent", "--params", "0,0,0,0,0,0", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_UECSM
        assert payload["satisfied"] == [1, 2, 3, 4, 5, 6]
        assert payload["agree"] is True

    def test_generic_params_agree(self, capsys):
        code = main(["classify-nilpotent", "--params", "1,2,3,1,5,9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NOT_UECSM
        assert payload["agree"] is True
        assert payload["satisfied"] == []

    def test_complex_components(self, capsys):
        code = main(["classify-nilpotent", "--params", "0:1,2,3:-1,1,5,9", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"][0] == [0.0, 1.0]
        assert payload["agree"] is True
        assert code in (EXIT_UECSM, EXIT_NOT_UECSM)

    def test_bad_params(self, capsys):
        assert main(["classify-nilpotent", "--params", "1,2,3"]) == EXIT_INCONCLUSIVE

    def test_non_numeric_params(self, capsys):
        assert main(["classify-nilpotent", "--params", "a,b,c,d,e,f"]) == EXIT_INCONCLUSIVE
        assert "error" in capsys.readouterr().err

    def test_negative_leading_params(self, capsys):
        code = main(["classify-nilpotent", "--params", "-1,2,3,4,5,6", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"][0] == [-1.0, 0.0]
        assert code in (EXIT_UECSM, EXIT_NOT_UECSM)


class TestConstruct:
    def test_sig22_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "made.json"
        code = main(
            ["construct", "--sig", "2,2", "--diag", "-1,0,1,2", "--seed", "7", "--out", str(out)]
        )
        assert code == EXIT_UECSM
        capsys.readouterr()
        verdict = main(["test", str(out)])
        report = capsys.readouterr().out
        assert verdict == EXIT_NOT_UECSM
        assert "wat" in report

    def test_sig31_is_uecsm(self, tmp_path, capsys):
        out = tmp_path / "made31.json"
        assert (
            main(["construct", "--sig", "3,1", "--diag", "-1,0,1,2", "--seed", "3", "--out", str(out)])
            == EXIT_UECSM
        )
        capsys.readouterr()
        assert main(["test", str(out)]) == EXIT_UECSM

    def test_sig12_3x3_is_uecsm(self, tmp_path, capsys):
        out = tmp_path / "made12.json"
        assert (
            main(["construct", "--sig", "1,2", "--diag", "-1,0,1", "--seed", "5", "--out", str(out)])
            == EXIT_UECSM
        )
        capsys.readouterr()
        assert main(["test", str(out)]) == EXIT_UECSM

    def test_stdout_document_parses(self, capsys):
        code = main(["construct", "--sig", "2,2", "--diag", "-1,0,1,2", "--seed", "9"])
        captured = capsys.readouterr()
        assert code == EXIT_UECSM
        doc = parse_document_text(captured.out)
        assert doc.matrix.shape == (4, 4)

    def test_wrong_diag_length(self, capsys):
        assert (
            main(["construct", "--sig", "2,2", "--diag", "-1,0,1", "--seed", "1"])
            == EXIT_INCONCLUSIVE
        )

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "m.json"
        code = main(
            ["construct", "--sig", "2,2", "--diag", "-1,0,1,2", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_INCONCLUSIVE
        assert "cannot write" in capsys.readouterr().err


class TestBatch:
    def test_fixture_directory(self, fixture_dir, capsys):
        code = main(["batch", str(fixture_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_UECSM  # no conflicts
        assert "8 files" in out
        assert "2 uecsm" in out
        assert "0 conflicts" in out

    def test_expected_statuses(self, fixture_dir, capsys):
        main(["batch", str(fixture_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        for label, (_, expected) in GALLERY.items():
            name = f"{label.replace('-', '_')}.json"
            assert payload["reports"][name]["uecsm"] is expected
            jsonschema.validate(payload["reports"][name], SCHEMA)
        assert payload["summary"]["conflicts"] == 0
        assert payload["summary"]["errors"] == 0

    def test_empty_directory(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_UECSM
        assert "0 files" in out

    def test_malformed_file_counted(self, fixture_dir, capsys):
        (fixture_dir / "zz_broken.json").write_text("{nope")
        code = main(["batch", str(fixture_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["conflicts"] == 0
        assert code == EXIT_INCONCLUSIVE  # a file that was not analyzed leaves the sweep open

    def test_unparsable_files_counted(self, fixture_dir, capsys):
        for name, data in UNPARSABLE.items():
            (fixture_dir / name).write_bytes(data)
        code = main(["batch", str(fixture_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_INCONCLUSIVE
        assert payload["summary"]["files"] == len(GALLERY) + len(UNPARSABLE)
        assert payload["summary"]["errors"] == len(UNPARSABLE)
        assert payload["summary"]["uecsm"] + payload["summary"]["not_uecsm"] == len(GALLERY)
        for name in UNPARSABLE:
            assert payload["reports"][name]["error"]

    def test_json_is_byte_stable_apart_from_timings(self, fixture_dir, capsys):
        (fixture_dir / "zz_broken.json").write_text("{nope")
        outputs = []
        for _ in range(2):
            main(["batch", str(fixture_dir), "--json"])
            outputs.append(json.loads(capsys.readouterr().out))
        assert set(outputs[0]["timings"]["runtime_seconds"]) == set(outputs[0]["reports"])
        assert "runtime_seconds" not in outputs[0]["summary"]
        stable = [json.dumps({k: v for k, v in p.items() if k != "timings"}) for p in outputs]
        assert stable[0] == stable[1]

    def test_conflict_code_outranks_errors(self, fixture_dir, capsys):
        # --tol-angle 10 makes sat pass on the counterexample: a conflict
        (fixture_dir / "zz_broken.json").write_text("{nope")
        code = main(["batch", str(fixture_dir), "--json", "--tol-angle", "10.0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["conflicts"] >= 1
        assert code == EXIT_NOT_UECSM

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope")]) == EXIT_INCONCLUSIVE


class TestTolerancePlumbing:
    def test_env_override(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("UECSM_TOL", "1e-2")
        main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tol"] == 1e-2

    def test_flag_beats_env(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("UECSM_TOL", "1e-2")
        main(["test", str(fixture_dir / "wat_counterexample.json"), "--json", "--tol", "1e-7"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tol"] == 1e-7

    def test_bad_env_ignored(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("UECSM_TOL", "banana")
        main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tol"] == 1e-8

    @pytest.mark.parametrize(
        "flag", ["--tol", "--tol-trace", "--tol-angle", "--tol-transpose", "--tol-oracle"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_a_usage_error(self, fixture_dir, capsys, flag, value):
        path = str(fixture_dir / "wat_counterexample.json")
        with pytest.raises(SystemExit) as exc:
            main(["test", path, "--json", f"{flag}={value}"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_env_tolerance_ignored(self, fixture_dir, capsys, monkeypatch, value):
        monkeypatch.setenv("UECSM_TOL", value)
        main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["tol"] == 1e-8
        assert "UECSM_TOL" in captured.err

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "many"])
    def test_bad_restarts_is_a_usage_error(self, fixture_dir, capsys, value):
        path = str(fixture_dir / "wat_counterexample.json")
        with pytest.raises(SystemExit) as exc:
            main(["test", path, "--oracle", f"--restarts={value}"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        assert "--restarts" in capsys.readouterr().err

    def test_one_restart_is_accepted(self, fixture_dir, capsys):
        path = str(fixture_dir / "scalar_plus_shift_22.json")
        assert main(["test", path, "--json", "--oracle", "--restarts", "1"]) == EXIT_UECSM
        payload = json.loads(capsys.readouterr().out)
        # the closed-form witness comes before any restart
        assert (payload["oracle"]["restarts_used"], payload["oracle"]["iterations"]) == (0, 0)

    def test_oracle_text_names_the_closed_form(self, fixture_dir, capsys):
        path = str(fixture_dir / "scalar_plus_shift_22.json")
        assert main(["test", path, "--oracle"]) == EXIT_UECSM
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle"))
        assert line.startswith("oracle   : witness (closed form, residual ")
        assert "restarts" not in line
        path = str(fixture_dir / "wat_counterexample.json")
        assert main(["test", path, "--oracle", "--restarts", "1"]) == EXIT_NOT_UECSM
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle"))
        assert line.startswith("oracle   : inconclusive (residual ") and line.endswith(", restarts 1)")

    def test_small_override_is_kept(self):
        # an override is used as given, never replaced by the common tol
        report = analyze(WAT_COUNTEREXAMPLE, "x", tol=1e-8, trace_tol=1e-300)
        assert report.verdicts["uecsm"].tol == 1e-300
        assert analyze(WAT_COUNTEREXAMPLE, "x", trace_tol=0.0).verdicts["uecsm"].tol == 0.0

    def test_per_criterion_override(self, fixture_dir, capsys):
        # a huge angle tolerance flips the sat verdict without touching the
        # trace criteria; the report then shows a conflict
        code = main(
            [
                "test",
                str(fixture_dir / "wat_counterexample.json"),
                "--json",
                "--tol-angle",
                "10.0",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"]["sat"]["passed"] is True
        assert payload["verdicts"]["uecsm"]["passed"] is False
        assert ["uecsm", "sat"] in payload["conflicts"]
        assert code == EXIT_INCONCLUSIVE


def test_solver_failure_is_not_called_degenerate(monkeypatch, fixture_dir, capsys):
    def no_convergence(*args, **kwargs):
        raise NoConvergence("eigenvector residual too large")

    monkeypatch.setattr(uecsm.cli, "angle_suite", no_convergence)
    report = analyze(WAT_COUNTEREXAMPLE, "x")
    assert report.spectral_status == "no_convergence"
    assert report.uecsm is False
    main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["spectral_status"] == "no_convergence"


@pytest.mark.parametrize("label", ["scalar-plus-shift-12", "scalar-plus-shift-22"])
def test_repeated_eigenvalue_off_centre_is_degenerate(label):
    # the triple eigenvalue sits away from the centroid of the spectrum
    matrix, expected = GALLERY[label]
    u = random_unitary(rng(64), 4)
    for t in (matrix, u @ matrix @ u.conj().T):
        report = analyze(t, label)
        assert report.spectral_status == "degenerate"
        assert report.conflicts == []
        assert report.uecsm is expected


def test_analyze_conflict_detection():
    # a fabricated report with disagreeing criteria maps to exit 2
    report = analyze(WAT_COUNTEREXAMPLE, "x")
    assert report.conflicts == []
    assert report.uecsm is False
