import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liouqsl as lq
from liouqsl.exceptions import ValidationError

from conftest import philox, rand_spec


def test_matrix_round_trip():
    rng = philox(30)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = lq.matrix_to_json(m)
    assert doc["dim"] == 3
    assert_allclose(lq.matrix_from_json(doc), m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        lq.matrix_from_json({"dim": 2, "re": [[0.0]]})
    with pytest.raises(ValidationError):
        lq.matrix_from_json({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(ValidationError):
        lq.matrix_to_json(np.zeros((2, 3)))
    for bad in (float("nan"), float("inf"), -float("inf")):
        for part in ("re", "im"):
            doc = lq.matrix_to_json(np.eye(2))
            doc[part][1][0] = bad
            with pytest.raises(ValidationError):
                lq.matrix_from_json(doc)


def test_spec_round_trip():
    rng = philox(31)
    spec = rand_spec(rng, 3)
    back = lq.spec_from_json(lq.spec_to_json(spec))
    assert back.dim == spec.dim
    L0 = lq.build_liouvillian(spec).full
    L1 = lq.build_liouvillian(back).full
    assert np.abs(L0 - L1).max() == 0.0


def test_spec_from_json_dim_mismatch():
    rng = philox(32)
    doc = lq.spec_to_json(rand_spec(rng, 2))
    doc["dim"] = 3
    with pytest.raises(ValidationError):
        lq.spec_from_json(doc)


def test_load_spec(tmp_path):
    rng = philox(33)
    spec = rand_spec(rng, 2)
    path = tmp_path / "spec.json"
    lq.dump_json(lq.spec_to_json(spec), path)
    back = lq.load_spec(path)
    assert np.abs(back.hamiltonian - spec.hamiltonian).max() == 0.0


def test_load_spec_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        lq.load_spec(path)


def test_dump_json_layout(tmp_path):
    path = tmp_path / "doc.json"
    lq.dump_json({"b": 1, "a": [1.5, 2.5]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [1.5, 2.5], "b": 1}


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    lq.write_csv(path, ["t", "x"], [[0.0, np.pi], [1.0, -1.0 / 3.0]])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[1]) == np.pi
    edge = [-0.0, 5e-324, 1e300, np.nan, np.inf, 7]
    lq.write_csv(path, ["a", "b", "c", "d", "e", "f"], [edge])
    lines = path.read_text().splitlines()
    assert lines[1].split(",") == [f"{float(x):.17g}" for x in edge]


def _reference_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join("%.17g" % float(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


class _CountingFormat(str):
    calls = 0

    def __mod__(self, value):
        _CountingFormat.calls += 1
        return str.__mod__(self, value)


def test_write_csv_matches_per_cell_reference(tmp_path, monkeypatch):
    rng = philox(35)
    zeros = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0]
    specials = [np.nan, np.inf, np.nan, -np.inf, np.inf, np.nan]
    ints = [7, 7, -3, 0, 7, 12]
    small = [5e-324, -5e-324, 1e300, 5e-324, -1e-300, 1e300]
    edge = [list(row) for row in zip(zeros, specials, ints, small)]
    times = np.linspace(0.0, 300.0, 2001)
    alphas, eta, delta = rng.uniform(size=(3, 8))
    mpemba = np.column_stack(
        [
            np.repeat(alphas, 2001),
            np.tile(times, 8),
            np.repeat(eta, 2001),
            rng.uniform(0.0, 1.5, size=8 * 2001),
            np.repeat(delta, 2001),
        ]
    )
    path = tmp_path / "rows.csv"
    for header, rows in ((list("abcd"), edge), (list("abcde"), mpemba)):
        monkeypatch.setattr(lq.serialize, "_FLOAT_FORMAT", _CountingFormat("%.17g"))
        _CountingFormat.calls = 0
        lq.write_csv(path, header, rows)
        assert path.read_bytes() == _reference_csv(header, rows)
        table = np.asarray(rows, dtype=float)
        distinct = sum(np.unique(col.view(np.int64)).size for col in table.T)
        assert _CountingFormat.calls == distinct
    with pytest.raises(ValidationError):
        lq.write_csv(path, ["t"], [0.0, 1.0])
