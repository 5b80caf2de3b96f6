"""Matrix documents as they were read before decoding moved to orjson.

A verbatim copy of ``parse_document_text`` and ``load_matrix_document``
as ``uecsm.cli`` defined them when every document was decoded by the
stdlib ``json``, with one addition that ``uecsm.cli`` makes too: text
whose brackets outside strings nest deeper than 512 levels is refused
before ``json.loads`` sees it, since whether ``json.loads`` refuses it
depends on the depth of the caller's stack.  The tests compare the
package's outcome with these: each entry to the last bit and the label,
or the identical error text.
"""

import json
import re
from pathlib import Path

import numpy as np

from uecsm.cli import MatrixDocument
from uecsm.errors import ParseError
from uecsm.matcore import cmatrix


MAX_DEPTH = 512


def _too_deep(text: str) -> bool:
    """Whether the brackets outside strings nest deeper than ``MAX_DEPTH``;
    a string left open ends the count."""
    depth = 0
    for token in re.finditer(r'"(?:[^"\\]|\\.)*"|"|[\[{]|[\]}]', text, re.DOTALL):
        bracket = token.group()
        if bracket == '"':
            return False
        if bracket in "[{":
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif bracket in "]}":
            depth -= 1
    return False


def parse_document_text(text: str) -> MatrixDocument:
    if _too_deep(text):
        raise ParseError(f"invalid JSON: nested deeper than {MAX_DEPTH} levels")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers longer than
        # Python's digit limit; RecursionError is nesting too deep to decode
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label must be a string")
    n = raw.get("n")
    entries = raw.get("entries")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"'entries' must be a list of {n} rows")
    # one pass over the entries; json.loads yields exact list, int, float
    # and bool, so exact type checks also refuse true and false
    parts: list[float] = []
    for i, row in enumerate(entries):
        if type(row) is not list or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries")
        for j, cell in enumerate(row):
            if (
                type(cell) is not list
                or len(cell) != 2
                or type(cell[0]) not in (int, float)
                or type(cell[1]) not in (int, float)
            ):
                raise ParseError(f"entry ({i},{j}) must be a [re, im] pair")
            try:
                parts += (float(cell[0]), float(cell[1]))
            except OverflowError as exc:
                raise ParseError(f"entry ({i},{j}) is too large for a float") from exc
    data = np.array(parts).view(complex).reshape(n, n)
    try:
        matrix = cmatrix(data)
    except ValueError as exc:
        # json.loads reads 1e400, Infinity and NaN as floats that are not finite
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"entry ({i},{j}) is not finite") from exc
    return MatrixDocument(matrix=matrix, label=label)


def load_matrix_document(path: Path) -> MatrixDocument:
    """Read the document at ``path``; a missing or empty label becomes the file stem."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    doc = parse_document_text(text)
    if not doc.label:
        doc = MatrixDocument(matrix=doc.matrix, label=path.stem)
    return doc
