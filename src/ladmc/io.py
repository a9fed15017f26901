"""CSV matrix interchange and ASCII PGM emission.

Matrices are plain comma-separated reals, one matrix row per line;
missing cells are empty fields or the literal NaN.  Masks are 0/1
integers of the same shape.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class SettingError(ValueError):
    """A caller's setting that a check rejects; ``setting`` is its name, the
    name the library uses for it (``max_iters``, ``K_range``, ``R``)."""

    def __init__(self, setting: str, message: str):
        super().__init__(message)
        self.setting = setting


class CsvFormatError(ValueError):
    """A data file that is not a matrix of the expected form; ``filename``
    is its path."""

    def __init__(self, filename, message: str):
        super().__init__(message)
        self.filename = filename


def read_matrix_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a real matrix; returns (values, observed mask).

    Empty fields and NaN mark missing cells; missing values are stored as
    0.0 with the mask carrying the truth.  Infinite values are rejected.
    """
    rows = []
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            row = []
            for cell in rec:
                cell = cell.strip()
                if cell == "" or cell.lower() == "nan":
                    row.append(np.nan)
                else:
                    try:
                        value = float(cell)
                    except ValueError:
                        raise CsvFormatError(
                            path,
                            f"{path}:{lineno}: cannot parse {cell!r} as a number"
                        ) from None
                    if math.isinf(value):
                        raise CsvFormatError(
                            path,
                            f"{path}:{lineno}: {cell!r} is not a finite number"
                        )
                    row.append(value)
            if rows and len(row) != len(rows[0]):
                raise CsvFormatError(
                    path, f"{path}:{lineno}: row has {len(row)} fields, "
                    f"expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise CsvFormatError(path, f"{path}: empty file")
    X = np.array(rows, dtype=float)
    mask = ~np.isnan(X)
    X = np.where(mask, X, 0.0)
    return X, mask


def read_mask_csv(path) -> np.ndarray:
    X, observed = read_matrix_csv(path)
    if not observed.all():
        raise CsvFormatError(path, f"{path}: mask file has missing cells")
    if not np.isin(X, (0.0, 1.0)).all():
        raise CsvFormatError(path, f"{path}: mask entries must be 0 or 1")
    return X.astype(bool)


def write_matrix_csv(path, X: np.ndarray, mask: np.ndarray | None = None):
    """Write a matrix; cells where mask is False are emitted as empty.

    The bytes are those of ``csv.writer``: ``repr`` of each value, which
    needs no quoting, and CRLF line ends.
    """
    X = np.asarray(X, dtype=float)
    with open(path, "w", newline="") as fh:
        if mask is None:
            for row in X.tolist():
                fh.write(",".join(map(repr, row)) + "\r\n")
            return
        seen_rows = np.asarray(mask, dtype=bool).tolist()
        for row, seen in zip(X.tolist(), seen_rows):
            line = ",".join(repr(v) if m else "" for v, m in zip(row, seen))
            if not line and len(row) == 1:
                line = '""'  # csv quotes a lone empty field: not a blank row
            fh.write(line + "\r\n")


def write_report(path, items: dict):
    """Flat key=value report, one entry per line."""
    with open(path, "w") as fh:
        for k, v in items.items():
            fh.write(f"{k}={v}\n")


def write_pgm(path, values: np.ndarray):
    """ASCII PGM (P2, maxval 255); input values in [0, 1]."""
    img = np.clip(np.rint(np.asarray(values, dtype=float) * 255), 0, 255)
    img = img.astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(v) for v in row) + "\n")
