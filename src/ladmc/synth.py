"""Synthetic data: unions of random subspaces and sampling masks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class UoSModel:
    d: int
    K: int
    r: int
    bases: list  # K arrays of shape d x r
    labels: np.ndarray  # per-column subspace index


def gen_uos(
    d: int, K: int, r: int, N: int, seed: int = 0,
    noise_std: float = 0.0,
) -> tuple[np.ndarray, UoSModel]:
    """Columns drawn from K random r-dimensional subspaces of R^d.

    Subspace bases have i.i.d. standard normal entries (regenerated in the
    probability-zero event of rank deficiency); coefficients are standard
    normal; labels are assigned round-robin so each subspace gets its share
    of columns exactly.
    """
    if r > d:
        raise ValueError(f"subspace dimension r={r} exceeds ambient d={d}")
    if N < 1:
        raise ValueError("need at least one column")
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
    if noise_std > 0.0:
        X = X + noise_std * rng.standard_normal((d, N))
    return X, UoSModel(d=d, K=K, r=r, bases=bases, labels=labels)


def gen_mask_uniform(d: int, N: int, m: int, seed: int = 0) -> np.ndarray:
    """Exactly m observed rows per column, uniform without replacement."""
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    rng = np.random.default_rng(seed)
    order = np.argsort(rng.random((d, N)), axis=0)
    mask = np.zeros((d, N), dtype=bool)
    np.put_along_axis(mask, order[:m], True, axis=0)
    return mask


def gen_all_patterns(d: int, m: int, copies: int = 1) -> np.ndarray:
    """All C(d, m) m-of-d patterns in lexicographic order, each repeated
    ``copies`` times consecutively."""
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    n = math.comb(d, m)
    if n * copies > 5_000_000:
        raise OverflowError(f"{n} patterns x {copies} copies is too large")
    mask = np.zeros((d, n * copies), dtype=bool)
    for i, rows in enumerate(itertools.combinations(range(d), m)):
        mask[list(rows), i * copies:(i + 1) * copies] = True
    return mask
