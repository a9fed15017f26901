"""CSV matrix interchange and ASCII PGM emission.

Matrices are plain comma-separated reals, one matrix row per line;
missing cells are empty fields or the literal NaN.  Masks are 0/1
integers of the same shape.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class CsvFormatError(ValueError):
    pass


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
                            f"{path}:{lineno}: cannot parse {cell!r} as a number"
                        ) from None
                    if math.isinf(value):
                        raise CsvFormatError(
                            f"{path}:{lineno}: {cell!r} is not a finite number"
                        )
                    row.append(value)
            if rows and len(row) != len(rows[0]):
                raise CsvFormatError(
                    f"{path}:{lineno}: row has {len(row)} fields, "
                    f"expected {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    X = np.array(rows, dtype=float)
    mask = ~np.isnan(X)
    X = np.where(mask, X, 0.0)
    return X, mask


def read_mask_csv(path) -> np.ndarray:
    X, observed = read_matrix_csv(path)
    if not observed.all():
        raise CsvFormatError(f"{path}: mask file has missing cells")
    if not np.isin(X, (0.0, 1.0)).all():
        raise CsvFormatError(f"{path}: mask entries must be 0 or 1")
    return X.astype(bool)


def write_matrix_csv(path, X: np.ndarray, mask: np.ndarray | None = None):
    """Write a matrix; cells where mask is False are emitted as empty."""
    X = np.asarray(X, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for i in range(X.shape[0]):
            if mask is None:
                w.writerow([repr(float(v)) for v in X[i]])
            else:
                w.writerow(
                    [repr(float(X[i, j])) if mask[i, j] else ""
                     for j in range(X.shape[1])]
                )


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
