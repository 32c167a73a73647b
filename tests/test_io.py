import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quadland.io import SCHEMA_VERSION, write_jsonl, write_manifest, write_matrix


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
    )
)
def test_matrix_round_trip_is_exact(tmp_path_factory, M):
    path = tmp_path_factory.mktemp("mat") / "m.csv"
    write_matrix(path, M)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert back.shape == M.shape
    assert np.array_equal(back, M)


def test_matrix_rows_are_17_significant_digits(tmp_path):
    M = np.array([[-0.0, 5e-324, 1e308], [2.0 ** 60, 0.1, -1.5]])
    path = tmp_path / "m.csv"
    write_matrix(path, M)
    rows = path.read_text().splitlines()[1:]
    assert rows == [",".join("%.17g" % v for v in row) for row in M]
    assert rows[0] == "-0,4.9406564584124654e-324,1e+308"


def test_matrix_header_line(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix(path, np.zeros((3, 2)))
    first = path.read_text().splitlines()[0]
    assert first == "# rows=3 cols=2"


def test_jsonl_round_trip(tmp_path):
    rows = [{"a": 1, "b": [1.5, None]}, {"a": 2, "b": "x"}]
    path = tmp_path / "r.jsonl"
    write_jsonl(path, rows)
    assert [json.loads(line) for line in path.read_text().splitlines()] == rows


def test_manifest_schema_and_timestamp_isolation(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    config = {"d": 3, "seed": 7, "dist": "gaussian"}
    write_manifest(d1, "barrier-scan", config)
    write_manifest(d2, "barrier-scan", config)
    m1 = json.loads((d1 / "manifest.json").read_text())
    m2 = json.loads((d2 / "manifest.json").read_text())
    assert m1["schema_version"] == SCHEMA_VERSION == 1
    assert m1["command"] == "barrier-scan"
    assert m1["config"] == config
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2

