"""JSON and CSV wire formats.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]} with row-major
nested lists. A Lindblad spec document is {"dim": d, "hamiltonian":
{...matrix...}, "jumps": [{"rate": g, "operator": {...matrix...}}]}.
Time series go to CSV with a header row and 17 significant digits, which
round-trips doubles exactly.
"""

import json

import numpy as np

from .exceptions import ValidationError
from .lindblad import LindbladSpec

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "spec_to_json",
    "spec_from_json",
    "load_spec",
    "dump_json",
    "write_csv",
]


def matrix_to_json(matrix):
    """Encode a square complex matrix as a JSON-ready dict."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(doc):
    """Decode a {"dim", "re", "im"} dict back into a complex ndarray."""
    try:
        d = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix document: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValidationError(
            f"matrix parts have shape {re.shape}/{im.shape}, expected ({d}, {d})"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("matrix has non-finite entries")
    return re + 1j * im


def spec_to_json(spec):
    """Encode a LindbladSpec as a JSON-ready dict."""
    return {
        "dim": spec.dim,
        "hamiltonian": matrix_to_json(spec.hamiltonian),
        "jumps": [
            {"rate": rate, "operator": matrix_to_json(op)}
            for rate, op in spec.jumps
        ],
    }


def spec_from_json(doc):
    """Decode a spec document; validation happens in LindbladSpec."""
    try:
        d = int(doc["dim"])
        ham = matrix_from_json(doc["hamiltonian"])
        jumps = [
            (float(j["rate"]), matrix_from_json(j["operator"]))
            for j in doc.get("jumps", [])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed spec document: {exc}") from exc
    if ham.shape[0] != d:
        raise ValidationError(
            f"declared dim {d} does not match hamiltonian dim {ham.shape[0]}"
        )
    return LindbladSpec(hamiltonian=ham, jumps=jumps)


def _read_json(path, what):
    """Parse a JSON file; unreadable, non-UTF-8 or bad JSON is a ValidationError.

    Bad JSON includes nesting past the recursion limit and an integer literal
    past Python's int-string digit limit (a plain ValueError)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def load_spec(path):
    """Read a LindbladSpec from a JSON file."""
    return spec_from_json(_read_json(path, "spec"))


def dump_json(doc, path):
    """Write a JSON document with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


_FLOAT_FORMAT = "%.17g"


def write_csv(path, header, rows):
    """Write a 2-D array of floats under a header line, 17 digits per cell.

    The bytes equal those of formatting every cell with "%.17g" and
    joining cells with commas and rows with newlines. Each column is
    formatted once per distinct value, compared by bit pattern so that
    -0.0 and 0.0 stay apart, and the file is written in one call.
    """
    table = np.asarray(rows, dtype=float)
    if table.ndim != 2:
        raise ValidationError(f"expected a 2-D table of rows, got shape {table.shape}")
    columns = []
    for col in table.T:
        keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
        text = [_FLOAT_FORMAT % x for x in keys.view(float).tolist()]
        text = np.array(text, dtype=object)
        columns.append(text[inverse].tolist())
    lines = [",".join(header)] if header else []
    lines += map(",".join, zip(*columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + [""]))
