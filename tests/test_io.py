import numpy as np
import pytest

from ladmc.io import (
    CsvFormatError,
    read_mask_csv,
    read_matrix_csv,
    write_matrix_csv,
    write_pgm,
    write_report,
)


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 6))
    mask = rng.random((4, 6)) < 0.5
    mask[0, 0] = True
    path = tmp_path / "m.csv"
    write_matrix_csv(path, X, mask=mask)
    X2, mask2 = read_matrix_csv(path)
    np.testing.assert_array_equal(mask2, mask)
    np.testing.assert_array_equal(X2[mask], X[mask])
    assert np.all(X2[~mask] == 0.0)


def test_matrix_full_roundtrip_exact(tmp_path):
    X = np.array([[1.5, -2.25], [1e-17, 3.0]])
    path = tmp_path / "full.csv"
    write_matrix_csv(path, X)
    X2, mask = read_matrix_csv(path)
    assert mask.all()
    np.testing.assert_array_equal(X2, X)  # repr() round-trips doubles


def test_read_matrix_nan_as_missing(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("1.0,NaN\n,4.0\n")
    X, mask = read_matrix_csv(path)
    np.testing.assert_array_equal(mask, [[True, False], [False, True]])
    np.testing.assert_array_equal(X, [[1.0, 0.0], [0.0, 4.0]])


def test_read_matrix_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvFormatError, match="bad.csv:2"):
        read_matrix_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(CsvFormatError, match="ragged.csv:2"):
        read_matrix_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        read_matrix_csv(empty)


def test_read_matrix_rejects_infinity(tmp_path):
    for cell in ("inf", "-Infinity", "1e999"):
        path = tmp_path / "inf.csv"
        path.write_text(f"1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(CsvFormatError, match="inf.csv:2"):
            read_matrix_csv(path)


def test_read_mask(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("1,0\n0,1\n")
    mask = read_mask_csv(path)
    np.testing.assert_array_equal(mask, [[True, False], [False, True]])
    bad = tmp_path / "bad_mask.csv"
    bad.write_text("1,2\n0,1\n")
    with pytest.raises(CsvFormatError, match="0 or 1"):
        read_mask_csv(bad)
    holes = tmp_path / "holes.csv"
    holes.write_text("1,\n0,1\n")
    with pytest.raises(CsvFormatError, match="missing"):
        read_mask_csv(holes)


def test_write_report(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, {"a": 1, "b": "x", "c": 0.5})
    assert path.read_text() == "a=1\nb=x\nc=0.5\n"


def test_write_pgm(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [1.0, 2.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "128"]
    assert lines[4].split() == ["255", "255"]  # clipped at maxval
