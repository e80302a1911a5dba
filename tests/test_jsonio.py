from __future__ import annotations

import json

import numpy as np
import pytest

from ljlab import ValidationError, random_hermitian
from ljlab.jsonio import (
    dumps_report,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
    subspace_from_json,
    subspace_to_json,
)


def test_matrix_roundtrip():
    for i in range(20):
        m = random_hermitian(3, seed=i) + 1j * 0.0
        back = matrix_from_json(matrix_to_json(m))
        np.testing.assert_allclose(back, m, atol=1e-15)


def test_matrix_roundtrip_through_text():
    m = random_hermitian(4, seed=7)
    text = json.dumps(matrix_to_json(m))
    np.testing.assert_allclose(matrix_from_json(json.loads(text)), m, atol=1e-15)


def test_matrix_from_json_validation():
    good = matrix_to_json(np.eye(2))
    for key in ("dim", "re", "im"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ValidationError):
            matrix_from_json(bad)
    with pytest.raises(ValidationError):
        matrix_from_json("not an object")
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 0, "re": [], "im": []})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, "x"]], "im": [[0, 0], [0, 0]]})
    ragged = {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}
    with pytest.raises(ValidationError):
        matrix_from_json(ragged)
    nonfinite = {"dim": 1, "re": [[float("nan")]], "im": [[0.0]]}
    with pytest.raises(ValidationError):
        matrix_from_json(nonfinite)
    # a JSON integer beyond float range: float() raises OverflowError
    huge = json.loads('{"dim": 1, "re": [[1' + "0" * 400 + ']], "im": [[0]]}')
    with pytest.raises(ValidationError, match="not numeric"):
        matrix_from_json(huge)


def test_subspace_roundtrip():
    mats = [random_hermitian(2, seed=i) for i in range(3)]
    dim, back = subspace_from_json(subspace_to_json(2, mats))
    assert dim == 2
    assert len(back) == 3
    for m, b in zip(mats, back):
        np.testing.assert_allclose(b, m, atol=1e-15)


def test_subspace_validation():
    with pytest.raises(ValidationError):
        subspace_from_json({"dim": 2, "matrices": []})
    with pytest.raises(ValidationError):
        subspace_from_json({"dim": 2})
    with pytest.raises(ValidationError):
        subspace_from_json([1, 2])
    mixed = {
        "matrices": [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]
    }
    with pytest.raises(ValidationError):
        subspace_from_json(mixed)


@pytest.mark.parametrize("dim", ["x", None, [2]])
def test_subspace_dim_must_be_an_integer(dim):
    with pytest.raises(ValidationError, match="dim"):
        subspace_from_json({"dim": dim, "matrices": [matrix_to_json(np.eye(2))]})


@pytest.mark.parametrize("dim", [2.7, 2.0, "2", True])
def test_dim_must_be_a_json_integer(dim):
    # sized as int() would read dim, so only the type check can reject it
    m = matrix_to_json(np.eye(int(dim)))
    with pytest.raises(ValidationError, match="dim must be an integer"):
        matrix_from_json({**m, "dim": dim})
    with pytest.raises(ValidationError, match="dim must be an integer"):
        subspace_from_json({"dim": dim, "matrices": [m]})


def test_dumps_report_is_canonical():
    a = dumps_report({"b": 1, "a": {"z": 2, "y": 3}})
    b = dumps_report({"a": {"y": 3, "z": 2}, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_load_json_file_missing(tmp_path):
    with pytest.raises(ValidationError):
        load_json_file(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_json_file(str(bad))


def test_load_json_file_rejects_nesting_too_deep_to_decode(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_json_file(str(deep))


def test_load_json_file_rejects_non_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"dim": "\u00e9"}'.encode("latin-1"))
    with pytest.raises(ValidationError, match="UTF-8"):
        load_json_file(str(bad))
