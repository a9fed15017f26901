"""Degree-p tensor lifting of columns, masks, and matrices.

A column x in R^d is lifted to the vector of its degree-p monomials,
one coordinate per sorted multi-index (i_1 <= ... <= i_p), so the lifted
vector lives in R^D with D = C(d+p-1, p); order 1 is the identity lift.
Off-diagonal coordinates are kept at their raw product value (no symmetry
rescaling); the lift of an observation mask marks a monomial observed iff
all of its factors are.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .io import SettingError

# Dense D x N storage is used throughout; refuse lifts that could not
# possibly be materialized.
MAX_TENSOR_DIM = 100_000_000
# entries of the largest factor gather of a lift (1 MB): the lift is formed
# in row blocks, so that no p x D x N stack of factors is ever gathered
_LIFT_FLOATS = 1 << 17


def tensor_dimension(d: int, p: int) -> int:
    """Dimension C(d+p-1, p) of the order-p lifted space over R^d."""
    if d < 1:
        raise SettingError("d", f"ambient dimension must be >= 1, got {d}")
    if p < 1:
        raise SettingError("p", f"tensor order must be >= 1, got {p}")
    D = math.comb(d + p - 1, p)
    if D > MAX_TENSOR_DIM:
        raise OverflowError(
            f"lifted dimension C({d + p - 1},{p}) = {D} exceeds dense limit"
        )
    return D


@dataclass(frozen=True, eq=False)
class TensorIndexMap:
    """Bijection between lifted coordinates and sorted multi-indices.

    ``entries`` is a (D, p) integer array whose q-th row is the q-th sorted
    multi-index (0-based), rows in lexicographic order.
    """

    d: int
    p: int
    entries: np.ndarray

    @property
    def D(self) -> int:
        return self.entries.shape[0]


@functools.lru_cache(maxsize=32)
def build_index_map(d: int, p: int) -> TensorIndexMap:
    """Enumerate all sorted multi-indices of {0..d-1}^p lexicographically.

    Maps are cached per (d, p) and shared, so ``entries`` is read-only.
    """
    D = tensor_dimension(d, p)
    entries = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(d), p)
        ),
        dtype=np.intp,
        count=D * p,
    ).reshape(D, p)
    entries.flags.writeable = False
    return TensorIndexMap(d=d, p=p, entries=entries)


def _check_length(v, imap: TensorIndexMap, name: str) -> None:
    if v.shape[0] != imap.d:
        raise ValueError(
            f"{name} has length {v.shape[0]}, index map expects {imap.d}"
        )


def tensorize_column(x: np.ndarray, imap: TensorIndexMap) -> np.ndarray:
    """Lift a column: coordinate q is the product of x over multi-index q."""
    x = np.asarray(x, dtype=float)
    _check_length(x, imap, "column")
    return np.prod(x[imap.entries], axis=1)


def tensorize_mask(omega: np.ndarray, imap: TensorIndexMap) -> np.ndarray:
    """Lift one sampling pattern (length d) or a d x n matrix of them
    (D x n): a monomial is observed iff all of its factors are."""
    omega = np.asarray(omega, dtype=bool)
    _check_length(omega, imap, "mask column")
    return np.all(omega[imap.entries], axis=1)


def lift_into(out: np.ndarray, X: np.ndarray,
              imap: TensorIndexMap) -> np.ndarray:
    """Write the lift of every column of X (d x N) into out (D x N), any
    layout, and return out: row q is the product of X's rows over
    multi-index q, factor by factor in index order."""
    rows = max(1, _LIFT_FLOATS // (imap.p * max(1, X.shape[1])))
    for lo in range(0, imap.D, rows):
        np.prod(X[imap.entries[lo:lo + rows]], axis=1, out=out[lo:lo + rows])
    return out


def tensorize_matrix(
    X: np.ndarray, mask: np.ndarray, imap: TensorIndexMap
) -> tuple[np.ndarray, np.ndarray]:
    """Lift a d x N matrix and its observation mask to D x N.

    Unobserved input entries are ignored (any placeholder value); unobserved
    output cells are zero, with truth carried by the returned mask.
    """
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if X.shape != mask.shape:
        raise ValueError(f"matrix shape {X.shape} != mask shape {mask.shape}")
    _check_length(X, imap, "matrix")
    Xz = np.where(mask, X, 0.0)
    T = lift_into(np.empty((imap.D, X.shape[1])), Xz, imap)
    Tmask = np.all(mask[imap.entries], axis=1)
    T[~Tmask] = 0.0
    return T, Tmask


def augment_ones(
    X: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Prepend a constant-1 row (always observed) for inhomogeneous varieties."""
    X = np.asarray(X, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    ones = np.ones((1, X.shape[1]))
    return np.vstack([ones, X]), np.vstack([ones.astype(bool), mask])
