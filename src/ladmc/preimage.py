"""Recover columns from their completed lifted vectors.

For p=2 each lifted vector is unfolded into the symmetric d x d matrix it
came from, and the principal eigenpair gives the column up to sign.  For
p=3 the cubical symmetric tensor is gathered and its best rank-one
approximation is found with the symmetric higher-order power method.  The
sign is fixed from an observed entry.  The one decomposition per column
also gives its rank-one gap.
"""

from __future__ import annotations

import numpy as np

from .tensorize import TensorIndexMap

# Relative scale below which an observed entry is too small to decide a sign.
SIGN_TOL_SCALE = 1e-9

HOPM_ITERS = 100
HOPM_TOL = 1e-12
HOPM_RESTARTS = 5
HOPM_SEED = 0x1AD


def assemble_symmetric(T: np.ndarray, imap: TensorIndexMap) -> np.ndarray:
    """Unfold p=2 lifted vectors into the symmetric matrices they came from.

    A lifted vector of length D gives a d x d matrix; a D x N matrix of
    lifted columns gives an N x d x d stack.
    """
    if imap.p != 2:
        raise ValueError(f"symmetric matrix assembly requires p=2, got p={imap.p}")
    T = np.asarray(T, dtype=float)
    if T.shape[0] != imap.D:
        raise ValueError(f"lifted vector length {T.shape[0]} != D={imap.D}")
    S = np.zeros(T.shape[1:] + (imap.d, imap.d))
    rows, cols = imap.entries[:, 0], imap.entries[:, 1]
    S[..., rows, cols] = T.T
    S[..., cols, rows] = T.T
    return S


def resolve_sign(
    candidate: np.ndarray, values: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Flip each candidate column's global sign to match its largest
    observed entry.

    ``candidate``, ``values`` and ``mask`` are one column each or d x N
    matrices.  A column with no reliably nonzero observed entry keeps its
    convention sign.
    """
    X = np.array(candidate, dtype=float)
    d = X.shape[0]
    C = X.reshape(d, -1)
    values = np.asarray(values, dtype=float).reshape(d, -1)
    mask = np.asarray(mask, dtype=bool).reshape(d, -1)
    cols = np.arange(C.shape[1])
    # unobserved entries never win the argmax over |observed| >= 0
    best = np.argmax(np.where(mask, np.abs(values), -1.0), axis=0)
    v, c = values[best, cols], C[best, cols]
    tol = SIGN_TOL_SCALE * np.maximum(np.abs(C).max(axis=0), 1e-300)
    flip = mask.any(axis=0) & (np.abs(v) > tol) & (v * c < 0)
    C[:, flip] *= -1.0
    return X


def _unlift_p2(T: np.ndarray, imap: TensorIndexMap):
    """Pre-images and gaps of all columns from one stacked ``eigh``.

    Ties in a spectrum are broken deterministically by taking the first
    eigenpair (in ascending-eigenvalue order) attaining the largest
    absolute eigenvalue; each eigenvector has its first nonzero component
    positive.
    """
    N = T.shape[1]
    w, V = np.linalg.eigh(assemble_symmetric(T, imap))
    a = np.abs(w)
    cols = np.arange(N)
    top = np.argmax(a, axis=1)
    U = V[cols, :, top]  # N x d
    nz = np.abs(U) > 1e-12
    first = np.argmax(nz, axis=1)
    U[nz[cols, first] & (U[cols, first] < 0)] *= -1.0
    X = np.ascontiguousarray((np.sqrt(a[cols, top])[:, None] * U).T)
    a.sort(axis=1)
    gaps = np.zeros(N)
    if imap.d > 1:
        np.divide(a[:, -2], a[:, -1], out=gaps, where=a[:, -1] != 0.0)
    return X, gaps


def _cube_index(imap: TensorIndexMap) -> np.ndarray:
    """Lifted coordinate of every ordered triple, as a d x d x d array:
    ``t[_cube_index(imap)]`` is the symmetric cube of a p=3 lift t."""
    d = imap.d
    pos = np.empty((d,) * 3, dtype=np.intp)
    pos[tuple(imap.entries.T)] = np.arange(imap.D)
    return pos[tuple(np.sort(np.indices((d,) * 3), axis=0))]


def _hopm(T: np.ndarray) -> tuple[float, np.ndarray]:
    """Best-of-restarts symmetric higher-order power method, order 3."""
    d = T.shape[0]
    rng = np.random.default_rng(HOPM_SEED)
    best_lam, best_u = 0.0, np.zeros(d)
    for _ in range(HOPM_RESTARTS):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        for _ in range(HOPM_ITERS):
            v = np.einsum("ijk,j,k->i", T, u, u)
            nv = np.linalg.norm(v)
            if nv == 0.0:
                break
            u_new = v / nv
            if np.linalg.norm(u_new - u) < HOPM_TOL:
                u = u_new
                break
            u = u_new
        lam = float(np.einsum("ijk,i,j,k->", T, u, u, u))
        if abs(lam) > abs(best_lam):
            best_lam, best_u = lam, u
    return best_lam, best_u


def _unlift_p3(T: np.ndarray, imap: TensorIndexMap):
    """Pre-images and gaps from one HOPM run per column."""
    idx = _cube_index(imap)
    N = T.shape[1]
    X = np.zeros((imap.d, N))
    gaps = np.zeros(N)
    for n in range(N):
        cube = T[idx, n]
        lam, u = _hopm(cube)
        X[:, n] = np.cbrt(lam) * u
        if lam == 0.0:
            gaps[n] = np.inf if np.any(cube) else 0.0
        else:
            rest = max(float(np.sum(cube * cube) - lam * lam), 0.0)
            gaps[n] = np.sqrt(rest) / abs(lam)
    return X, gaps


def unlift(
    T: np.ndarray,
    imap: TensorIndexMap,
    X_obs: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map each completed lifted column back to R^d, with its rank-one gap.

    ``T`` is D x N; returns the d x N pre-images and the N gaps.  For p=2
    a column's pre-image is sqrt(|w|) u for the principal eigenpair (w, u)
    of its unfolded lift, and its gap is sigma_2 / sigma_1 of that matrix
    (0 for an exact rank-one lift).  For p=3 it is cbrt(lambda) u for the
    dominant HOPM pair, and the gap is sqrt(|T|_F^2 - lambda^2) / |lambda|.
    An all-zero lift gives the zero column and gap 0.

    ``X_obs``/``mask`` (d x N) give the observed entries of the original
    columns and are used only for sign resolution.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != imap.D:
        raise ValueError(f"lifted matrix shape {T.shape} needs {imap.D} rows")
    if imap.p == 2:
        X, gaps = _unlift_p2(T, imap)
    elif imap.p == 3:
        X, gaps = _unlift_p3(T, imap)
    else:
        raise ValueError(f"pre-image supports p in {{2, 3}}, got p={imap.p}")
    if X_obs is not None and mask is not None:
        X = resolve_sign(X, X_obs, mask)
    return X, gaps


def preimage_column(
    t: np.ndarray,
    imap: TensorIndexMap,
    values: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """One column of ``unlift``: the pre-image of a lifted vector t.

    ``values``/``mask`` give the observed entries of the original column.
    """
    return unlift(np.reshape(t, (-1, 1)), imap, values, mask)[0][:, 0]


def rank1_gap(t: np.ndarray, imap: TensorIndexMap) -> float:
    """One column of ``unlift``: the rank-one gap of a lifted vector t."""
    return float(unlift(np.reshape(t, (-1, 1)), imap)[1][0])
