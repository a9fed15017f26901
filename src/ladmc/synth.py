"""Synthetic data: unions of random subspaces and sampling masks."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .io import SettingError


def gen_uos(d: int, K: int, r: int, N: int, seed: int = 0) -> np.ndarray:
    """The d x N matrix of N columns drawn from K random r-dimensional
    subspaces of R^d.

    Subspace bases have i.i.d. standard normal entries (regenerated in the
    probability-zero event of rank deficiency); coefficients are standard
    normal.  Column j lies in subspace j mod K, so each subspace gets its
    share of columns exactly and ``X[:, k::K]`` are the columns of the k-th.
    """
    for name, value in (("d", d), ("K", K), ("r", r), ("N", N)):
        if value < 1:
            raise SettingError(name, f"{name} must be >= 1, got {value}")
    if r > d:
        raise SettingError(
            "r", f"subspace dimension r={r} exceeds ambient d={d}")
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(K):
        U = rng.standard_normal((d, r))
        while np.linalg.matrix_rank(U) < r:
            U = rng.standard_normal((d, r))
        bases.append(U)
    labels = np.arange(N) % K
    coeffs = rng.standard_normal((r, N))
    X = np.empty((d, N))
    for k in range(K):
        sel = labels == k
        X[:, sel] = bases[k] @ coeffs[:, sel]
    return X


def _check_rows(d: int, m: int) -> None:
    """Raise unless 1 <= m <= d, naming d when d itself is below 1."""
    if d < 1:
        raise SettingError("d", f"d must be >= 1, got {d}")
    if not 1 <= m <= d:
        raise SettingError("m", f"need 1 <= m <= d, got m={m}, d={d}")


def gen_mask_uniform(d: int, N: int, m: int, seed: int = 0) -> np.ndarray:
    """Exactly m observed rows per column, uniform without replacement."""
    _check_rows(d, m)
    rng = np.random.default_rng(seed)
    order = np.argsort(rng.random((d, N)), axis=0)
    mask = np.zeros((d, N), dtype=bool)
    np.put_along_axis(mask, order[:m], True, axis=0)
    return mask


def gen_all_patterns(d: int, m: int, copies: int = 1) -> np.ndarray:
    """All C(d, m) m-of-d patterns in lexicographic order, each repeated
    ``copies`` times consecutively."""
    _check_rows(d, m)
    n = math.comb(d, m)
    if n * copies > 5_000_000:
        raise OverflowError(f"{n} patterns x {copies} copies is too large")
    mask = np.zeros((d, n * copies), dtype=bool)
    for i, rows in enumerate(itertools.combinations(range(d), m)):
        mask[list(rows), i * copies:(i + 1) * copies] = True
    return mask
