"""Matrix documents are read exactly as the stdlib json reader read them.

``load_matrix_document`` decodes a file with orjson and falls back to
``parse_document_text``, which decodes a string with ``json.loads``
alone, wherever the two might disagree.  Every case here checks both
entry points against the json-only reader kept in
``_document_reference``: the same entries to the last bit and the same
label, or a ``ParseError`` with the same text.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uecsm.cli
from uecsm.cli import MatrixDocument, load_matrix_document, parse_document_text, write_matrix_document
from uecsm.errors import ParseError
from uecsm.matcore import cmatrix

import _document_reference as reference

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
PERFBENCH = ROOT / "perfbench"


def _document(cell: str = "[1, 0]", n: str = "2", label: str = '"m"', extra: str = "") -> str:
    """A 2x2 document with ``cell`` at (1, 0), as JSON text with the given fields."""
    entries = f"[[[1, 0], [0, 0]], [{cell}, [1, 0]]]"
    return f'{{"label": {label}, "n": {n}, "entries": {entries}{extra}}}'


def _square(n: int) -> str:
    rows = [[[i + 0.5, j * 1e-3] for j in range(n)] for i in range(n)]
    return json.dumps({"label": f"square {n}", "n": n, "entries": rows})


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def _square_with_brackets(total: int) -> str:
    """The 31x31 document of :func:`_square`, its label padded with ``[`` to ``total`` brackets."""
    doc = json.loads(_square(31))
    doc["label"] = "[" * (total - _square(31).count("[") - _square(31).count("{"))
    return json.dumps(doc)


VALID = _document()

#: name -> document bytes; each is read as a file, and as text where it is UTF-8
CASES = {
    **{
        f"entry {text}": _document(f"[{text}, 0]").encode()
        for text in [
            "NaN", "Infinity", "-Infinity", "1e309", "1e400", "-1e400", "1e-400",
            str(2**64), str(10**20 + 1), str(10**400), str(-(2**63) - 1), "1" + "0" * 5000,
            "-0", "-0.0", "0.1", "2.2250738585072011e-308", "4.9406564584124654e-324",
            "1.7976931348623159e308", str(2**1024 - 2**970 - 1), str(2**1024 - 2**970),
            "true", "null", '"1"',
        ]
    },
    "imaginary part NaN": _document("[0, NaN]").encode(),
    # integers that a float64 cannot hold, beside floats and alone
    **{
        f"entry [{text}]": _document(f"[{text}]").encode()
        for text in [
            f"{2**53 + 1}, 0.5", f"{2**63}, 0.5", f"{-(2**63)}, 0.5", f"0.5, {2**63}",
            f"{2**53 + 1}, -7", f"{2**63 - 1}, {-(2**63)}", f"{2**63}, 0", "1.5, true", "false, 0",
        ]
    },
    "entries all integers": _document("[-3, 7]").encode(),
    "entries all floats": b'{"n": 2, "entries": [[[1.0, 0.0], [0.0, 0.5]], [[1.5, -0.0], [1e-300, 2.5]]]}',
    "row with n + 1 cells": _document("[1, 0], [2, 0]").encode(),
    "every row with n + 1 cells": b'{"n": 2, "entries": [[[1, 0], [0, 0], [2, 0]], [[1, 0], [1, 0], [3, 0]]]}',
    "entry nested one level deeper": _document("[[1], [0]]").encode(),
    "entries of n + 1 rows": b'{"n": 2, "entries": [[[1, 0], [0, 0]], [[1, 0], [1, 0]], [[1, 0], [1, 0]]]}',
    "entry as a triple": _document("[1, 0, 0]").encode(),
    **{
        f"n {text}": _document(n=text).encode()
        for text in [str(2**64), str(-(2**63) - 1), "3.0", "2.0", "true", "0", '"2"', "1e400"]
    },
    **{
        f"label {text}": _document(label=text).encode()
        for text in [
            '"\\ud800"', '"\\udc00\\ud800"', '"\\ud83d\\ude00"', '" "', '""', "7", "null",
            '"true"', '"a false start"', "true", "false",
        ]
    },
    "label raw emoji": _document(label='"\U0001f600"').encode(),
    "label with a tab": _document(label='"a\tb"').encode(),
    "UTF-8 BOM": b"\xef\xbb\xbf" + VALID.encode(),
    "invalid UTF-8": _document(label='"caf\xe9"').encode("latin-1"),
    "invalid UTF-8 after CRLF lines": b'{"n": 2,\r\n"label": "\xff",\r\n"entries": []}',
    "UTF-16 file": VALID.encode("utf-16"),
    "empty file": b"",
    "whitespace only": b" \r\n\t",
    "duplicate keys": _document(extra=', "n": 3').encode(),
    "duplicate keys, last valid": _document(n="3", extra=', "n": 2').encode(),
    "trailing comma": _document(extra=",").encode(),
    "syntax error after CRLF lines": (VALID.replace(", ", ",\r\n")[:-1] + ",}").encode(),
    "syntax error after lone CRs": (VALID.replace(", ", ",\r")[:-1] + ",}").encode(),
    "trailing data": (VALID + " 1").encode(),
    "null": b"null",
    "list": b"[1, 2]",
    "extra scalar key": _document(extra=', "note": "kept"').encode(),
    "extra big integer": _document(extra=f', "note": {2**64}').encode(),
    "nesting 1,000 deep": _nested(1000).encode(),
    "nesting 1,000 deep under an extra key": _document(extra=f', "x": {_nested(1000)}').encode(),
    "nesting 1,000 deep as the label": _document(label=_nested(1000)).encode(),
    "nesting 1,000 deep as an entry": _document(_nested(1000)).encode(),
    "nesting 1,500 deep": _nested(1500).encode(),
    "nesting 100,000 deep": _nested(100_000).encode(),
    "nesting 100,000 deep, unclosed": b"[" * 100_000,
    # the extra key's object is one level: 512 levels in all parse, 513 do not
    "nesting 511 deep under an extra key": _document(extra=f', "x": {_nested(511)}').encode(),
    "nesting 512 deep under an extra key": _document(extra=f', "x": {_nested(512)}').encode(),
    "nesting 960 deep under an extra key": _document(extra=f', "x": {_nested(960)}').encode(),
    # brackets inside strings do not nest, and an open string ends the count
    "1,000 brackets in a string after an escaped quote": _document(label='"\\\"' + "[" * 1000 + '"').encode(),
    "1,000 brackets in an unclosed string": (VALID[:-1] + ', "x": "' + "[" * 1000).encode(),
    # 31x31 is the largest matrix orjson decodes, 32x32 goes to json.loads
    **{f"{n}x{n} matrix": _square(n).encode() for n in (31, 32)},
    # brackets inside strings count too: 1024 in all go to orjson, 1025 to json.loads
    **{f"{total} brackets": _square_with_brackets(total).encode() for total in (1024, 1025)},
    "1024 bytes, every one a bracket": b"[" * 1024,
}


def _outcome(read, source):
    """What a reader makes of ``source``: every entry's ``float.hex`` and the label, or the error."""
    try:
        doc = read(source)
    except ParseError as exc:
        return "error", str(exc)
    parts = doc.matrix.ravel().view(float)
    return "document", doc.matrix.shape, [float.hex(float(x)) for x in parts], doc.label


def _assert_same(path: Path) -> None:
    expected = _outcome(reference.load_matrix_document, path)
    assert _outcome(load_matrix_document, path) == expected
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return
    assert _outcome(parse_document_text, text) == _outcome(reference.parse_document_text, text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_table(tmp_path, name):
    path = tmp_path / "m.json"
    path.write_bytes(CASES[name])
    _assert_same(path)


def test_bracket_cap_routes_documents():
    # orjson decodes a document with at most _ORJSON_MAX_BRACKETS brackets,
    # json.loads one with more; a document that short cannot exceed the cap
    assert uecsm.cli._ORJSON_MAX_BRACKETS == 1024
    assert uecsm.cli._orjson_document(CASES["1024 brackets"]).label == "[" * 30
    assert uecsm.cli._orjson_document(CASES["1025 brackets"]) is None
    assert uecsm.cli._orjson_document(VALID.encode()).label == "m"


def test_array_conversion_agrees_with_the_entry_checks():
    # where the text holds no JSON boolean, converting the entries as one
    # array gives the matrix, or the error, that the entry-by-entry checks
    # give; json.loads also yields the NaN, Infinity and 1e400 that orjson refuses
    compared = 0
    for name, data in CASES.items():
        if b"true" in data or b"false" in data:
            continue
        try:
            raw = json.loads(data)
        except (ValueError, RecursionError):
            continue
        checks = uecsm.cli._document
        assert _outcome(lambda r: checks(r, True), raw) == _outcome(checks, raw), name
        compared += 1
    assert compared >= 40


def test_missing_file_and_directory(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        assert _outcome(load_matrix_document, path) == _outcome(reference.load_matrix_document, path)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_gallery_fixtures(path):
    _assert_same(path)


def _batch_mix() -> dict[str, int]:
    """``BATCH_MIX`` of the benchmark runner, read without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["BATCH_MIX"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no BATCH_MIX")


def test_benchmark_corpus(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    cases = corpus.make_corpus(0, _batch_mix())
    assert len(cases) == 24
    for case in cases:
        path = tmp_path / f"{case.label}.json"
        write_matrix_document(MatrixDocument(cmatrix(case.matrix), case.label), path)
        _assert_same(path)


def test_nesting_too_deep_for_the_c_stack(tmp_path):
    # orjson 3.8 overflows the C stack on about 150,000 nested lists, so
    # both entry points run in a child process: a crash fails this test
    # without ending the rest of the test run
    path = tmp_path / "deep.json"
    path.write_bytes(_nested(300_000).encode())
    script = (
        "import sys; from pathlib import Path\n"
        "from uecsm.cli import load_matrix_document, parse_document_text\n"
        "from uecsm.errors import ParseError\n"
        "path = Path(sys.argv[1])\n"
        "for read, source in ((load_matrix_document, path), (parse_document_text, path.read_text())):\n"
        "    try:\n"
        "        read(source)\n"
        "    except ParseError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    expected = _outcome(reference.load_matrix_document, path)
    assert expected[0] == "error"
    assert run.stdout.splitlines() == [expected[1]] * 2


def _nested_calls(depth: int, call):
    """``call()`` from under ``depth`` more Python frames."""
    return call() if depth == 0 else _nested_calls(depth - 1, call)


def test_nesting_refusal_does_not_depend_on_the_stack(tmp_path):
    # json.loads refuses nesting at a depth that shrinks with each frame on
    # the caller's stack; the bound refuses the same text wherever it is read
    for depth, parses in ((960, False), (500, True)):
        text = _document(extra=f', "x": {_nested(depth)}')
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        script = (
            "import sys\n"
            "from uecsm.cli import parse_document_text\n"
            "from uecsm.errors import ParseError\n"
            "try:\n"
            "    print(parse_document_text(open(sys.argv[1], encoding='utf-8').read()).label)\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        top_level = run.stdout.strip()
        for read, source in ((parse_document_text, text), (load_matrix_document, path)):
            here = _outcome(read, source)
            assert _nested_calls(300, lambda: _outcome(read, source)) == here
            if parses:
                assert here[0] == "document" and here[-1] == top_level == "m"
            else:
                assert here == ("error", top_level) == ("error", "invalid JSON: nested deeper than 512 levels")
