"""Recover columns from their completed lifted vectors.

For p=2 each lifted vector is unfolded into the symmetric d x d matrix S it
came from, and the principal eigenpair gives the column up to sign.  It is
taken from a few power steps batched over the columns, each started at the
column of S that holds its largest |diagonal| entry (for a rank-one lift
lam x x^T that column is proportional to x); a column whose Ritz pair fails
the acceptance test takes a stacked ``eigh`` instead.  For p=3 the cubical
symmetric tensor is gathered and its best rank-one approximation is found
with the symmetric higher-order power method, run for all columns at once.
The sign is fixed from an observed entry.  Each column's rank-one gap is
read from its one decomposition.
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
# columns whose gathered cubes are held at once stay below this many floats
_CUBE_FLOATS = 1 << 20

# Power steps of the p=2 pre-image.  A column is accepted when its Ritz
# residual |S u - lam u| is at most _POWER_TOL |lam| and 2 lam^2 > |S|_F^2,
# which makes lam the dominant eigenvalue whatever the start; every other
# column takes the stacked eigh.
_POWER_STEPS = 8
_POWER_TOL = 1e-12


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


def _convention_sign(U: np.ndarray) -> np.ndarray:
    """Flip each row of U (N x d) in place so that its first component
    above 1e-12 in magnitude is positive; a row with none is kept."""
    rows = np.arange(U.shape[0])
    nz = np.abs(U) > 1e-12
    first = np.argmax(nz, axis=1)
    U[nz[rows, first] & (U[rows, first] < 0)] *= -1.0
    return U


def _eigh_p2(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenpairs (n, n x d) of stacked symmetric matrices S
    (n x d x d) from one stacked ``eigh``.

    Ties in a spectrum are broken deterministically by taking the first
    eigenpair (in ascending-eigenvalue order) attaining the largest
    absolute eigenvalue; each eigenvector gets ``_convention_sign``.
    """
    w, V = np.linalg.eigh(S)
    cols = np.arange(S.shape[0])
    top = np.argmax(np.abs(w), axis=1)
    return w[cols, top], _convention_sign(V[cols, :, top])


def _rank1_gaps(L: np.ndarray, lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """|L - lam u^(x)p|_F / |lam| for stacked symmetric tensors L (n x d^p,
    p = 2 or 3) and their rank-one pairs (n, n x d): 0 for a zero L, inf for
    a nonzero L with lam = 0.  L is overwritten with the residual."""
    n, d = U.shape
    tail = U if L.ndim == 3 else U[:, :, None] * U[:, None, :]
    head = (lam[:, None] * U).reshape((n, d) + (1,) * (L.ndim - 2))
    for i in range(d):  # one slice at a time: no second n x d^p array
        L[:, i] -= head[:, i] * tail
    flat = L.reshape(n, d ** (L.ndim - 1))
    res = np.sqrt(np.einsum("ni,ni->n", flat, flat))
    gaps = np.where(res > 0.0, np.inf, 0.0)
    np.divide(res, np.abs(lam), out=gaps, where=lam != 0.0)
    return gaps


def _unlift_p2(T: np.ndarray, imap: TensorIndexMap):
    """Pre-images and gaps of all columns: _POWER_STEPS power steps on each
    unfolded lift S, batched over columns and started at the column of S
    holding its largest |diagonal| entry, with ``_eigh_p2`` for every
    column whose Ritz pair is not accepted (among them every zero lift)."""
    S = assemble_symmetric(T, imap)
    cols = np.arange(S.shape[0])
    start = np.argmax(np.abs(np.diagonal(S, axis1=1, axis2=2)), axis=1)
    U = S[cols, :, start]  # N x d
    # a zero start or a zero step leaves NaN, which fails the test below
    with np.errstate(invalid="ignore", divide="ignore"):
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        for _ in range(_POWER_STEPS):
            U = np.matmul(S, U[..., None])[..., 0]
            U /= np.linalg.norm(U, axis=1, keepdims=True)
        SU = np.matmul(S, U[..., None])[..., 0]
        lam = np.einsum("ni,ni->n", U, SU)
        SU -= lam[:, None] * U
        ok = ((np.linalg.norm(SU, axis=1) <= _POWER_TOL * np.abs(lam))
              & (2.0 * lam * lam > np.einsum("nij,nij->n", S, S)))
    _convention_sign(U)
    rest = np.flatnonzero(~ok)
    if rest.size:
        lam[rest], U[rest] = _eigh_p2(S[rest])
    X = np.ascontiguousarray((np.sqrt(np.abs(lam))[:, None] * U).T)
    return X, _rank1_gaps(S, lam, U)


def _cube_index(imap: TensorIndexMap) -> np.ndarray:
    """Lifted coordinate of every ordered triple, as a d x d x d array:
    ``t[_cube_index(imap)]`` is the symmetric cube of a p=3 lift t."""
    d = imap.d
    pos = np.empty((d,) * 3, dtype=np.intp)
    pos[tuple(imap.entries.T)] = np.arange(imap.D)
    return pos[tuple(np.sort(np.indices((d,) * 3), axis=0))]


def _hopm(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best-of-restarts symmetric higher-order power method, order 3, on
    stacked cubes C (n x d x d x d); the dominant pairs (n, n x d).

    Every column runs the same HOPM_RESTARTS seeded starts.  A column stops
    a restart once its step vanishes or moves it by less than HOPM_TOL, and
    keeps a restart's pair only if it beats the best so far in |lam|.
    """
    n, d = C.shape[:2]
    rng = np.random.default_rng(HOPM_SEED)
    best_lam, best_U = np.zeros(n), np.zeros((n, d))
    for _ in range(HOPM_RESTARTS):
        u = rng.standard_normal(d)
        U = np.tile(u / np.linalg.norm(u), (n, 1))
        live = np.ones(n, dtype=bool)
        for _ in range(HOPM_ITERS):
            V = np.einsum("nijk,nj,nk->ni", C, U, U)
            nv = np.linalg.norm(V, axis=1)
            live &= nv != 0.0
            V /= np.where(live, nv, 1.0)[:, None]
            moved = np.linalg.norm(V - U, axis=1)
            U[live] = V[live]
            live &= moved >= HOPM_TOL
            if not live.any():
                break
        lam = np.einsum("nijk,ni,nj,nk->n", C, U, U, U)
        better = np.abs(lam) > np.abs(best_lam)
        best_lam[better], best_U[better] = lam[better], U[better]
    return best_lam, best_U


def _unlift_p3(T: np.ndarray, imap: TensorIndexMap):
    """Pre-images and gaps from one batched HOPM run over the columns, in
    blocks whose gathered cubes stay below _CUBE_FLOATS."""
    idx = _cube_index(imap)
    d, N = imap.d, T.shape[1]
    X = np.zeros((d, N))
    gaps = np.zeros(N)
    block = max(1, _CUBE_FLOATS // d**3)
    for lo in range(0, N, block):
        cols = slice(lo, min(lo + block, N))
        C = T.T[cols][:, idx]  # n x d x d x d
        lam, U = _hopm(C)
        X[:, cols] = (np.cbrt(lam)[:, None] * U).T
        gaps[cols] = _rank1_gaps(C, lam, U)
    return X, gaps


def unlift(
    T: np.ndarray,
    imap: TensorIndexMap,
    X_obs: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map each completed lifted column back to R^d, with its rank-one gap.

    ``T`` is D x N; returns the d x N pre-images and the N gaps.  For p=2
    a column's pre-image is sqrt(|lam|) u for the principal eigenpair
    (lam, u) of its unfolded lift L; for p=3 it is cbrt(lam) u for the
    dominant HOPM pair of its symmetric cube L.  The gap is
    |L - lam u^(x)p|_F / |lam|, 0 for an exact rank-one lift.  An all-zero
    lift gives the zero column and gap 0.

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
