"""End-to-end tests of the command-line interface."""

import argparse
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
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
    analyze_stack,
    build_parser,
    document_to_text,
    exit_code_for,
    load_matrix_document,
    main,
    parse_document_text,
    write_gallery_fixtures,
    write_matrix_document,
)
import uecsm.angletests
import uecsm.cli
import uecsm.constructors
import uecsm.nilpotent4
import uecsm.spectra
from uecsm.errors import ParseError
from uecsm.gallery import GALLERY, WAT_COUNTEREXAMPLE
from uecsm.matcore import cmatrix, normalize
from uecsm.tracetests import DEFAULT_TOL, Verdict

from _util import near_parallel_inputs, one_matrix_inputs, random_complex_matrix, random_unitary, rng

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text()
)


@pytest.fixture()
def fixture_dir(tmp_path):
    write_gallery_fixtures(tmp_path)
    return tmp_path


def _write_conflict(directory: Path) -> Path:
    """Write ``conflict.json``, draw 0 of the near-parallel corpus, into ``directory``.

    At the default tolerance its trace verdict passes while SAT and WAT
    fail: the conflicts ``uecsm<->sat`` and ``uecsm<->wat``.
    """
    path = directory / "conflict.json"
    write_matrix_document(MatrixDocument(cmatrix(near_parallel_inputs(1)[0][1]), "conflict"), path)
    return path


def _document_with(cell: str, at: tuple[int, int] = (1, 0)) -> str:
    """A 2x2 document whose entry ``at`` is the JSON text ``cell``."""
    rows = [["[1, 0]", "[0, 0]"], ["[0, 0]", "[1, 0]"]]
    rows[at[0]][at[1]] = cell
    entries = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return '{"n": 2, "entries": [' + entries + "]}"


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

    def test_empty_label_is_the_stem_everywhere(self, tmp_path, capsys):
        path = tmp_path / "blank.json"
        write_matrix_document(MatrixDocument(matrix=np.eye(2, dtype=complex), label=""), path)
        assert load_matrix_document(path).label == "blank"
        main(["test", str(path), "--json"])
        assert json.loads(capsys.readouterr().out)["label"] == "blank"
        main(["batch", str(tmp_path), "--json"])
        assert json.loads(capsys.readouterr().out)["reports"]["blank.json"]["label"] == "blank"

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

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}',
                "row 1 must be a list of 2 entries",
                id="ragged-row",
            ),
            *(
                pytest.param(_document_with(cell), "entry (1,0) must be a [re, im] pair", id=name)
                for name, cell in [
                    ("bool", "[true, 0]"),
                    ("null", "[null, 0]"),
                    ("string", '["1", 0]'),
                    ("triple", "[1, 0, 0]"),
                    ("bare-number", "7"),
                ]
            ),
            pytest.param(
                _document_with("[1" + "0" * 400 + ", 0]"),
                "entry (1,0) is too large for a float",
                id="beyond-float",
            ),
        ],
    )
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_document_text(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cell", ["[1e400, 0]", "[0, -1e400]", "[NaN, 0]", "[0, Infinity]"])
    def test_non_finite_entry_is_named(self, cell):
        # json.loads reads each of these as a float that is not finite
        with pytest.raises(ParseError) as exc:
            parse_document_text(_document_with(cell, at=(1, 1)))
        assert str(exc.value) == "entry (1,1) is not finite"

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


def _run_uecsm(*argv: str, input: bytes = b"", stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m uecsm ARGV`` in a child process, which fails the test if it hangs."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "uecsm", *argv],
        env=env, input=input, stdout=stdout, stderr=subprocess.PIPE, timeout=20,
    )


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

    def test_cmd_test_conflict(self, tmp_path, capsys):
        # the trace verdict passes where sat and wat fail: a conflict, exit 2
        code = main(["test", str(_write_conflict(tmp_path)), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"]["uecsm"]["passed"] is True
        assert payload["verdicts"]["sat"]["passed"] is False
        assert payload["conflicts"] == [["uecsm", "sat"], ["uecsm", "wat"]]
        assert payload["uecsm"] is None
        assert code == EXIT_INCONCLUSIVE

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

    @pytest.mark.parametrize(
        "argv", [("test", str(FIXTURES / "wat_counterexample.json")), ("batch", str(FIXTURES), "--json")]
    )
    def test_closed_stdout_is_an_error_without_a_traceback(self, argv):
        # the read end is closed before the child starts, so its first write fails
        read, write = os.pipe()
        os.close(read)
        try:
            result = _run_uecsm(*argv, stdout=write)
        finally:
            os.close(write)
        assert result.returncode == EXIT_INCONCLUSIVE
        lines = result.stderr.decode().splitlines()
        assert len(lines) <= 1 and all(line.startswith("error:") for line in lines), result.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["classify-nilpotent", "--params", "1:2:3,1,1,1,1,1"],
                "cannot parse complex component '1:2:3' (use re or re:im)",
            ),
            (["construct", "--sig", "a,b", "--diag", "1,2,3"], "--sig must be 'k,m' integers, got 'a,b'"),
            (["construct", "--sig", "0,3", "--diag", "1,2,3"], "need 1 <= k <= n, got k=0, n=3"),
        ],
        ids=["params-component", "sig-not-integers", "sig-empty-cone"],
    )
    def test_unparsable_arguments_are_an_error(self, capsys, argv, message):
        assert main(argv) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

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

    def test_scaled_member_agrees(self, capsys):
        # nilpotent-e4 times 1e-9: the zero gates do not read small entries as zero
        code = main(["classify-nilpotent", "--params", "2e-9,9e-9,1e-9,0,4e-9,7e-9", "--json"])
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

    def test_disagreement_is_a_conflict(self, capsys, monkeypatch):
        # a closed form that contradicts the trace test on a passing member
        classify = uecsm.nilpotent4.classify

        def flipped(p, tol):
            result = classify(p, tol)
            return dataclasses.replace(result, uecsm=not result.uecsm)

        monkeypatch.setattr(uecsm.nilpotent4, "classify", flipped)
        assert main(["classify-nilpotent", "--params", "2,9,1,0,6,7"]) == EXIT_INCONCLUSIVE
        lines = capsys.readouterr().out.splitlines()
        assert "uecsm (closed form)  : False" in lines
        assert lines[-1] == "CONFLICT : closed-form classification disagrees with trace test"
        assert main(["classify-nilpotent", "--params", "2,9,1,0,6,7", "--json"]) == EXIT_INCONCLUSIVE
        payload = json.loads(capsys.readouterr().out)
        assert (payload["uecsm_closed_form"], payload["uecsm_trace_test"], payload["agree"]) == (False, True, False)

    @pytest.mark.parametrize(
        "params", ["nan,1,1,1,1,1", "1,inf,1,1,1,1", "1,1,0:nan,1,1,1", "1e400,1,1,1,1,1"]
    )
    def test_non_finite_params_are_an_error(self, capsys, params):
        assert main(["classify-nilpotent", "--params", params]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: complex component")
        assert "is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("params", ["1e200,1,1,1,1,1", "1e100,1e100,1e100,1e100,1e100,1e100"])
    def test_overflowing_params_are_an_error(self, capsys, params):
        # |v|^2 of a finite parameter overflows a float in the closed forms;
        # the overflow is reported in the closed-forms slot, not as a failure
        code = main(["classify-nilpotent", "--params", params])
        captured = capsys.readouterr()
        assert code in (EXIT_UECSM, EXIT_NOT_UECSM)
        assert "closed forms overflow" in captured.out.splitlines()
        assert captured.err == ""
        assert main(["classify-nilpotent", "--params", params, "--json"]) == code
        assert json.loads(capsys.readouterr().out)["closed_forms"] is None

    def test_overflowing_closed_forms_keep_the_decision(self, capsys):
        # the closed forms print as null; classify and the trace test still decide
        runs = {}
        for params in ("1e200,1,1,1,1,1", "1e100,1e100,1e100,1e100,1e100,1e100", "1,1,1,1,1,1"):
            code = main(["classify-nilpotent", "--params", params, "--json"])
            runs[params] = code, json.loads(capsys.readouterr().out)
        for params in ("1e200,1,1,1,1,1", "1e100,1e100,1e100,1e100,1e100,1e100"):
            code, payload = runs[params]
            assert payload["closed_forms"] is None and payload["agree"] is True
            assert code == (EXIT_UECSM if payload["uecsm_closed_form"] else EXIT_NOT_UECSM)
        (scaled_code, scaled), (unit_code, unit) = runs["1e100,1e100,1e100,1e100,1e100,1e100"], runs["1,1,1,1,1,1"]
        assert scaled_code == unit_code
        assert (scaled["satisfied"], scaled["agree"]) == (unit["satisfied"], unit["agree"])

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

    def test_no_verified_construction_is_an_error(self, capsys, monkeypatch):
        # every draw of the one-dimensional cone fails its membership check
        failed = Verdict("su_membership", ("form_preservation", "determinant"), (1.0, 1.0), 1e-8)
        monkeypatch.setattr(uecsm.constructors, "su_membership", lambda q, sig: failed)
        assert main(["construct", "--sig", "3,1", "--diag", "-1,0,1,2"]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err == "error: no verified construction after 50 attempts\n"
        assert captured.out == ""

    @pytest.mark.parametrize("diag", ["nan,0,1,2", "-1,0,inf,2", "-1,0:-inf,1,2"])
    def test_non_finite_diag_is_an_error(self, capsys, diag):
        assert main(["construct", "--sig", "3,1", "--diag", diag]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: complex component")
        assert "is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "sig, diag, pair",
        [("2,2", "1e200,0,1,2", "0 and 1"), ("3,1", "1e-300,0,1e-310,2", "0 and 1e-310")],
    )
    def test_unresolvable_diag_names_its_entries(self, capsys, sig, diag, pair):
        # distinct entries that the spread of the others makes degenerate,
        # through the WAT-not-SAT generator and the one-dimensional cone
        assert main(["construct", "--sig", sig, "--diag", diag]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: diagonal entries {pair} are too close together to tell apart at the spread of the diagonal\n"
        )
        assert captured.out == ""

    def test_overflowing_diag_is_an_error(self, capsys):
        # finite entries whose conjugated product overflows a float
        assert main(["construct", "--sig", "3,1", "--diag", "1e308,0,1,2"]) == EXIT_INCONCLUSIVE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "overflows" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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
        # every value, each float to the last bit, is that of the stacked analysis
        groups: dict[int, list[tuple[str, MatrixDocument]]] = {}
        for path in sorted(fixture_dir.glob("*.json")):
            if path.name == "zz_broken.json":
                continue
            doc = load_matrix_document(path)
            groups.setdefault(doc.matrix.shape[0], []).append((path.name, doc))
        expected = {}
        for members in groups.values():
            stack = np.stack([doc.matrix for _, doc in members])
            reports = analyze_stack(stack, [doc.label for _, doc in members])
            expected.update((name, r.to_dict()) for (name, _), r in zip(members, reports))
        assert {k: v for k, v in outputs[0]["reports"].items() if k != "zz_broken.json"} == expected

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_output_equals_the_frozen_golden(self, capsys, oracle):
        # golden/batch_fixtures*.json are frozen copies of `uecsm batch fixtures
        # --json` (and with --oracle) up to the run-dependent "timings" block;
        # unlike the test above, they do not share code with the analysis
        assert main(["batch", str(FIXTURES), "--json", *oracle]) == EXIT_UECSM
        out = capsys.readouterr().out
        stable = out[: out.rindex(',"timings":')] + "}\n"
        golden = GOLDEN / f"batch_fixtures{'_oracle' if oracle else ''}.json"
        assert stable == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("spelling", ["d/", "./d", "absolute", "."])
    def test_error_rows_and_stems_name_the_joined_path(self, tmp_path, capsys, monkeypatch, spelling):
        # every path in an error reads as the text of Path(DIR) / name, which
        # drops a leading "./" and a trailing "/"
        d = tmp_path / "d"
        d.mkdir()
        (d / "broken.json").write_bytes(b'{"label": "\xff"}')
        (d / "nowhere.json").symlink_to(d / "missing")
        (d / "sub.json").mkdir()
        (d / "no_label.json").write_text(_document_with("[2, 0]"))
        if hasattr(os, "mkfifo"):
            os.mkfifo(d / "pipe.json")
        monkeypatch.chdir(d if spelling == "." else tmp_path)
        directory = str(d) if spelling == "absolute" else spelling
        assert main(["batch", directory, "--json"]) == EXIT_INCONCLUSIVE
        reports = json.loads(capsys.readouterr().out)["reports"]
        for name in ("broken.json", "nowhere.json", "sub.json"):
            path = Path(directory) / name
            with pytest.raises((OSError, UnicodeDecodeError)) as refused:
                path.read_text(encoding="utf-8")
            assert reports[name]["error"] == f"cannot read {path}: {refused.value}"
            assert reports[name]["label"] == name[: -len(".json")]
        if hasattr(os, "mkfifo"):
            pipe = Path(directory) / "pipe.json"
            assert reports["pipe.json"]["error"] == f"cannot read {pipe}: not a regular file"
        assert reports["no_label.json"]["label"] == "no_label"
        assert reports["no_label.json"]["error"] is None

    def test_conflict_code_outranks_errors(self, fixture_dir, capsys):
        _write_conflict(fixture_dir)
        (fixture_dir / "zz_broken.json").write_text("{nope")
        code = main(["batch", str(fixture_dir), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["conflicts"] >= 1
        assert code == EXIT_NOT_UECSM

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope")]) == EXIT_INCONCLUSIVE

    def test_listing_keeps_hidden_files_and_directories(self, fixture_dir, capsys):
        counterexample = (fixture_dir / "wat_counterexample.json").read_text()
        (fixture_dir / ".hidden.json").write_text(counterexample)
        (fixture_dir / "sub.json").mkdir()
        (fixture_dir / "upper.JSON").write_text(counterexample)
        assert main(["batch", str(fixture_dir), "--json"]) == EXIT_INCONCLUSIVE
        payload = json.loads(capsys.readouterr().out)
        gallery_names = [f"{label.replace('-', '_')}.json" for label in GALLERY]
        assert list(payload["reports"]) == sorted([".hidden.json", "sub.json", *gallery_names])
        assert payload["reports"][".hidden.json"]["label"] == "wat-counterexample"
        assert payload["reports"]["sub.json"]["error"].startswith("cannot read ")
        assert payload["summary"] == {
            "files": len(GALLERY) + 2, "uecsm": 2, "not_uecsm": len(GALLERY) - 1,
            "conflicts": 0, "errors": 1,
        }

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_fifo_is_an_error_row(self, fixture_dir):
        # opening a FIFO waits for a writer; the command must not
        os.mkfifo(fixture_dir / "pipe.json")
        (fixture_dir / "nowhere.json").symlink_to(fixture_dir / "missing")
        run = _run_uecsm("batch", str(fixture_dir), "--json")
        assert run.returncode == EXIT_INCONCLUSIVE
        payload = json.loads(run.stdout)
        reports = payload["reports"]
        assert reports["pipe.json"]["error"] == f"cannot read {fixture_dir / 'pipe.json'}: not a regular file"
        # a link to nothing keeps the error its opening gives
        assert reports["nowhere.json"]["error"].startswith(f"cannot read {fixture_dir / 'nowhere.json'}: [Errno")
        assert payload["summary"]["errors"] == 2

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin on this platform")
    def test_cmd_test_reads_a_pipe(self):
        # as in `uecsm test <(cat m.json)`
        document = (FIXTURES / "wat_counterexample.json").read_bytes()
        run = _run_uecsm("test", "/dev/stdin", "--json", input=document)
        assert run.returncode == EXIT_NOT_UECSM
        assert json.loads(run.stdout)["label"] == "wat-counterexample"

    def test_unreadable_directory_is_an_error(self, fixture_dir, capsys, monkeypatch):
        def refused(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "scandir", refused)
        assert main(["batch", str(fixture_dir), "--json"]) == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot list {fixture_dir}: ") and "Permission denied" in err

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_no_number_becomes_null(self, tmp_path, capsys, oracle):
        # orjson writes a non-finite float as null, which the schema refuses
        t3, t4 = random_complex_matrix(rng(41), 3), random_complex_matrix(rng(42), 4)
        matrices = {
            "tiny3": t3 * 1e-300,
            "huge3": t3 * 4e307,
            "tiny4": t4 * 1e-300,
            "huge4": t4 * 4e307,
            "edge": np.array([[1.7e308, -1.7e308], [1.7e308, 0]], dtype=complex),
            "scalar": 3.5 * np.eye(4, dtype=complex),
            "jordan": np.eye(4, k=1, dtype=complex),
        }
        for label, matrix in matrices.items():
            write_matrix_document(MatrixDocument(cmatrix(matrix), label), tmp_path / f"{label}.json")
        assert main(["batch", str(tmp_path), "--json", *oracle]) == EXIT_UECSM
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["files"] == len(matrices)
        assert payload["summary"]["errors"] == 0
        for report in payload["reports"].values():
            jsonschema.validate(report, SCHEMA)

    def test_reports_are_encoded_without_the_fallback(self, fixture_dir, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a report fell back to json.dumps")

        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", refused)
            assert main(["batch", str(fixture_dir), "--json", "--oracle"]) == EXIT_UECSM
            counterexample = str(fixture_dir / "wat_counterexample.json")
            assert main(["test", counterexample, "--json", "--oracle"]) == EXIT_NOT_UECSM
            assert main(["classify-nilpotent", "--params", "1,2,3,4,5,6", "--json"]) == EXIT_NOT_UECSM

    def test_text_error_row_shows_the_reason(self, fixture_dir, capsys):
        (fixture_dir / "zz_broken.json").write_text("{nope")
        (fixture_dir / "zz_infinite.json").write_text(_document_with("[1e400, 0]", at=(1, 1)))
        assert main(["batch", str(fixture_dir)]) == EXIT_INCONCLUSIVE
        rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert " ERROR " in rows["zz_broken.json"]
        assert " ms  invalid JSON: " in rows["zz_broken.json"]
        assert rows["zz_infinite.json"].endswith("ms  entry (1,1) is not finite")
        assert rows["wat_counterexample.json"].endswith(" ms")

    def test_oracle_refutes_in_closed_form(self, fixture_dir, capsys):
        assert main(["batch", str(fixture_dir), "--oracle", "--json"]) == EXIT_UECSM
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["conflicts"] == 0
        for label, (_, expected) in GALLERY.items():
            report = payload["reports"][f"{label.replace('-', '_')}.json"]
            jsonschema.validate(report, SCHEMA)
            assert report["oracle"]["status"] == ("witness" if expected else "refuted"), label
            assert (report["oracle"]["restarts_used"], report["oracle"]["iterations"]) == (0, 0)


SURROGATE_DOCUMENT = '{"label": "\\ud800", "n": 2, "entries": [[[1, 0], [2, 0]], [[0, 0], [3, 0]]]}'


class TestInvalidUnicode:
    """Text that orjson cannot encode is written by the stdlib encoder."""

    def _check(self, directory: Path, name: str, capsys) -> None:
        doc = load_matrix_document(directory / name)
        report = analyze(doc.matrix, doc.label)
        assert main(["test", str(directory / name), "--json"]) == EXIT_UECSM
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert json.loads(out) == json.loads(json.dumps(report.to_dict()))

        assert main(["batch", str(directory), "--json"]) == EXIT_UECSM
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        payload = json.loads(out)
        del payload["timings"]
        summary = {"files": 1, "uecsm": 1, "not_uecsm": 0, "conflicts": 0, "errors": 0}
        expected = {"reports": {name: report.to_dict()}, "summary": summary}
        assert payload == json.loads(json.dumps(expected))

    def test_lone_surrogate_in_label(self, tmp_path, capsys):
        (tmp_path / "m.json").write_text(SURROGATE_DOCUMENT)
        assert load_matrix_document(tmp_path / "m.json").label == "\ud800"
        self._check(tmp_path, "m.json", capsys)

    def test_undecodable_file_name(self, tmp_path, capsys):
        name = os.fsdecode(b"\xff.json")
        try:
            write_matrix_document(MatrixDocument(np.diag([1, 3]).astype(complex)), tmp_path / name)
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses a name that is not valid UTF-8")
        self._check(tmp_path, name, capsys)

    def test_stream_that_cannot_encode_the_label(self, tmp_path, monkeypatch):
        (tmp_path / "m.json").write_text(SURROGATE_DOCUMENT.replace("\\ud800", "caf\\u00e9"))
        stream = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr("sys.stdout", stream)
        assert main(["test", str(tmp_path / "m.json"), "--json"]) == EXIT_UECSM
        stream.seek(0)
        assert json.loads(stream.read())["label"] == "caf\u00e9"

    def test_text_output_escapes_what_the_stream_cannot_encode(self, tmp_path, capsys):
        accented = SURROGATE_DOCUMENT.replace("\\ud800", "caf\\u00e9")
        (tmp_path / "surrogate.json").write_text(SURROGATE_DOCUMENT)
        (tmp_path / "accented.json").write_text(accented)
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "caf\u00e9.json").write_text(accented)
        (tmp_path / "dir" / "broken.json").write_text("{")
        cases = [
            (["test", str(tmp_path / "surrogate.json")], "matrix   : \\ud800 (2x2)\n"),
            (["test", str(tmp_path / "accented.json")], "matrix   : caf\\xe9 (2x2)\n"),
            (["batch", str(tmp_path / "dir")], "\ncaf\\xe9.json "),
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONIOENCODING": "ascii", "PYTHONPATH": src}
        for argv, line in cases:
            text = subprocess.run(
                [sys.executable, "-m", "uecsm", *argv], env=env, capture_output=True, text=True
            )
            assert "Traceback" not in text.stderr
            assert line in text.stdout
            assert text.returncode == main([*argv, "--json"])
            capsys.readouterr()


class TestRepeatedCalls:
    """Calls of ``main`` in one process, which reuse one parser, behave like fresh ones."""

    def test_options_do_not_carry_over(self, fixture_dir, capsys):
        # --tol 10 passes every verdict, so the conflict of the default tol goes
        _write_conflict(fixture_dir)
        assert main(["batch", str(fixture_dir), "--json", "--tol", "10"]) == EXIT_UECSM
        assert json.loads(capsys.readouterr().out)["summary"]["conflicts"] == 0
        assert main(["batch", str(fixture_dir), "--json"]) == EXIT_NOT_UECSM
        assert json.loads(capsys.readouterr().out)["summary"]["conflicts"] == 1

    def test_usage_error_leaves_the_next_call_working(self, fixture_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(fixture_dir), "--tol", "0"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        capsys.readouterr()
        assert main(["batch", str(fixture_dir)]) == EXIT_UECSM
        assert "8 files" in capsys.readouterr().out

    def test_parser_is_built_once(self, fixture_dir, capsys, monkeypatch):
        main(["batch", str(fixture_dir)])

        def rebuilt():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr("uecsm.cli.build_parser", rebuilt)
        assert main(["batch", str(fixture_dir)]) == EXIT_UECSM


ANALYSIS_OPTIONS = {"--tol", "--json", "--oracle"}


class TestOptionSurface:
    def test_each_subcommand_takes_only_the_options_it_reads(self):
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            name: {
                flag
                for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings
            }
            for name, sub in subparsers.choices.items()
        }
        assert options == {
            "test": ANALYSIS_OPTIONS,
            "batch": ANALYSIS_OPTIONS,
            "classify-nilpotent": {"--params", "--tol", "--json"},
            "construct": {"--sig", "--diag", "--out", "--seed"},
        }

    @pytest.mark.parametrize(
        "flags, values",
        [
            ([], {"tol": DEFAULT_TOL, "run_oracle": False}),
            (["--tol", "1e-6", "--oracle"], {"tol": 1e-6, "run_oracle": True}),
        ],
        ids=["defaults", "set"],
    )
    @pytest.mark.parametrize("command", ["test", "batch"])
    def test_analysis_options_forward_exactly_the_analyze_stack_keywords(
        self, fixture_dir, capsys, monkeypatch, command, flags, values
    ):
        # every analysis call gets each keyword of analyze_stack but the
        # matrices and labels, by name, with the value its flag set
        calls = []

        def recorder(analysis):
            def record(*args, **keywords):
                calls.append(keywords)
                return analysis(*args, **keywords)

            return record

        monkeypatch.setattr(uecsm.cli, "analyze", recorder(analyze))
        monkeypatch.setattr(uecsm.cli, "analyze_stack", recorder(analyze_stack))
        target = fixture_dir / "wat_counterexample.json" if command == "test" else fixture_dir
        main([command, str(target), *flags])
        capsys.readouterr()
        assert set(values) == set(inspect.signature(analyze_stack).parameters) - {"ts", "labels"}
        assert calls and all(keywords == values for keywords in calls)

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--sig", "2,1", "--diag", "1,2,3", "--json"],
            ["construct", "--sig", "2,1", "--diag", "1,2,3", "--tol", "1e-3"],
            ["classify-nilpotent", "--params", "1,2,3,4,5,6", "--oracle"],
            ["classify-nilpotent", "--params", "1,2,3,4,5,6", "--restarts", "3"],
            # transpose equivalence is not an analysis criterion, so it has no tolerance
            ["batch", "fixtures", "--tol-transpose", "1e-6"],
            # the oracle's starts are fixed: no seed (test_bad_restarts_is_a_usage_error
            # refuses the old restart budget)
            ["batch", "fixtures", "--seed", "1"],
            # one tolerance governs every criterion, and the oracle's is a constant
            ["test", "x.json", "--tol-trace", "1e-6"],
            ["batch", "fixtures", "--tol-angle", "1e-6"],
            ["test", "x.json", "--oracle", "--tol-oracle", "1e-6"],
        ],
    )
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INCONCLUSIVE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTolerancePlumbing:
    def test_uecsm_tol_is_not_read(self, fixture_dir, capsys, monkeypatch):
        # the tolerance comes from the command line alone: the variable that
        # once set it changes no report and writes nothing to stderr
        def run(argv):
            code, captured = main(argv), capsys.readouterr()
            out = captured.out.split(',"timings":')[0]  # only batch timings vary between runs
            return code, out, captured.err

        monkeypatch.delenv("UECSM_TOL", raising=False)
        commands = (
            ["test", str(fixture_dir / "wat_counterexample.json"), "--json"],
            ["batch", str(fixture_dir), "--json"],
            ["construct", "--sig", "2,1", "--diag", "1,2,3"],  # prints its triples to stderr
        )
        plain = [run(argv) for argv in commands]
        for value in ("1e-2", "banana"):
            monkeypatch.setenv("UECSM_TOL", value)
            assert [run(argv) for argv in commands] == plain

    @pytest.mark.parametrize(
        "flag", ["--tol", "--tol-trace", "--tol-angle", "--tol-oracle"]
    )
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    def test_bad_tolerance_is_a_usage_error(self, fixture_dir, capsys, flag, value):
        # --tol refuses the value; no other --tol* flag exists, so argparse
        # refuses those whatever their value
        path = str(fixture_dir / "wat_counterexample.json")
        with pytest.raises(SystemExit) as exc:
            main(["test", path, "--json", f"{flag}={value}"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        message = "argument --tol:" if flag == "--tol" else f"unrecognized arguments: {flag}"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "many", "3"])
    def test_bad_restarts_is_a_usage_error(self, fixture_dir, capsys, value):
        # the oracle has no restart budget, so every value is refused
        path = str(fixture_dir / "wat_counterexample.json")
        with pytest.raises(SystemExit) as exc:
            main(["test", path, "--oracle", f"--restarts={value}"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        assert "unrecognized arguments: --restarts" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "batch", "construct"])
    def test_negative_seed_is_a_usage_error(self, fixture_dir, capsys, command):
        # only construct draws at random; test and batch take no seed at all
        args, message = {
            "test": (["test", str(fixture_dir / "wat_counterexample.json"), "--oracle"], "unrecognized arguments: --seed"),
            "batch": (["batch", str(fixture_dir), "--oracle"], "unrecognized arguments: --seed"),
            "construct": (["construct", "--sig", "3,1", "--diag", "-1,0,1,2"], "--seed: must be a non-negative integer"),
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--seed", "-1"])
        assert exc.value.code == EXIT_INCONCLUSIVE
        assert message in capsys.readouterr().err

    def test_oracle_text_names_the_closed_form(self, fixture_dir, capsys):
        # a scalar matrix is a witness at once, also before the second stage
        scalar = fixture_dir / "scalar.json"
        write_matrix_document(MatrixDocument(cmatrix((2 - 1j) * np.eye(3)), "scalar"), scalar)
        for path in (str(fixture_dir / "scalar_plus_shift_22.json"), str(scalar)):
            assert main(["test", path, "--oracle"]) == EXIT_UECSM
            line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle"))
            assert line.startswith("oracle   : witness (closed form, residual ")
            assert "restarts" not in line
        # a refutation is decided in closed form too
        path = str(fixture_dir / "wat_counterexample.json")
        assert main(["test", path, "--oracle"]) == EXIT_NOT_UECSM
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle"))
        assert line.startswith("oracle   : refuted (closed form, residual ")
        assert "restarts" not in line

    def test_oracle_text_names_the_intertwiner(self, tmp_path, capsys):
        # a normal matrix with a repeated eigenvalue has no simple Re(cT),
        # so the closed form declines and the second stage, the symmetric
        # intertwiner, finds the witness; the line names that stage
        q = random_unitary(rng(103), 3)
        normal = cmatrix(q @ np.diag([1.0, 1.0, 2.0]) @ q.conj().T)
        path = tmp_path / "normal.json"
        write_matrix_document(MatrixDocument(normal, "normal"), path)
        assert main(["test", str(path), "--oracle"]) == EXIT_UECSM
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("oracle"))
        assert line.startswith("oracle   : witness (intertwiner, residual ") and "restarts" not in line

    def test_refutation_against_a_passing_trace_is_a_conflict(self, fixture_dir, capsys):
        # --tol 10 makes every verdict pass on the counterexample, which the
        # closed form refutes at the oracle's own WITNESS_TOL
        path = str(fixture_dir / "wat_counterexample.json")
        assert main(["test", path, "--oracle", "--tol", "10"]) == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert "oracle   : refuted (closed form" in out
        line = next(l for l in out.splitlines() if l.startswith("CONFLICT"))
        assert "uecsm<->oracle" in line


def test_solver_failure_is_not_called_degenerate(monkeypatch, fixture_dir, capsys):
    # LAPACK fails on this one matrix, whether alone or in a stack
    bad = normalize(WAT_COUNTEREXAMPLE)[0]
    eig = np.linalg.eig

    def failing_eig(a):
        if any(np.array_equal(m, bad) for m in a.reshape(-1, 4, 4)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(uecsm.spectra.np.linalg, "eig", failing_eig)
    report = analyze(WAT_COUNTEREXAMPLE, "x")
    assert report.spectral_status == "no_convergence"
    assert report.uecsm is False
    main(["test", str(fixture_dir / "wat_counterexample.json"), "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["spectral_status"] == "no_convergence"


def test_failed_cross_check_is_an_error_report(monkeypatch, tmp_path, capsys):
    # every 3x3 determinant identity cross-check fails below a negative bound
    monkeypatch.setattr(uecsm.angletests, "_IDENTITY_CHECK_TOL", -1.0)
    t = random_complex_matrix(rng(31), 3)
    report = analyze(t, "x")
    assert report.error.startswith("determinant identity cross-check failed")
    assert exit_code_for(report) == EXIT_INCONCLUSIVE
    path = tmp_path / "gauss3.json"
    write_matrix_document(MatrixDocument(cmatrix(t), "gauss3"), path)
    assert main(["test", str(path), "--json"]) == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["error"] == report.error


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


def _hexed(value):
    """``value`` with every float, nested in dicts and lists, replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def test_one_matrix_reports_equal_the_frozen_golden():
    # golden/one_matrix_reports.json: label -> [to_dict() of analyze(T), of
    # analyze(T, run_oracle=True)], every float by float.hex, one label a
    # line, frozen before the spectral layer computed its values lazily; the
    # inputs reach ill-conditioned and overflowing refusals and a witness of
    # the oracle's second stage
    record = {
        label: [_hexed(analyze(t, label, run_oracle=oracle).to_dict()) for oracle in (False, True)]
        for label, t in one_matrix_inputs()
    }
    text = "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record.items()) + "\n}\n"
    assert text == (GOLDEN / "one_matrix_reports.json").read_text(encoding="utf-8")


def test_analyze_conflict_detection():
    # a fabricated report with disagreeing criteria maps to exit 2
    report = analyze(WAT_COUNTEREXAMPLE, "x")
    assert report.conflicts == []
    assert report.uecsm is False
