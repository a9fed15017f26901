"""Recover columns from their completed lifted vectors.

Each lifted vector is folded into the symmetric tensor L it came from (a
d x d matrix for p=2, a d x d x d cube for p=3), and the column is read
back from a rank-one pair (lam, u) of L.  Every column starts from its own
lift: the fiber L[:, i, ..., i] at L's largest |diagonal| entry, which is
proportional to x for a rank-one lift lam x^(x)p.  For p=2 a few power
steps batched over the columns follow, and a column whose Ritz pair fails
the acceptance test takes a stacked ``eigh`` instead.  For p=3 one run of
the symmetric higher-order power method follows, batched over the columns.
The sign is fixed from an observed entry.  Each column's rank-one gap is
read from its one decomposition.  At p=1, the identity lift, each column
is its own pre-image.
"""

from __future__ import annotations

import itertools

import numpy as np

from .tensorize import TensorIndexMap

# Relative scale below which an observed entry is too small to decide a sign.
SIGN_TOL_SCALE = 1e-9

HOPM_ITERS = 100
HOPM_TOL = 1e-12
# unlift folds the lift in column blocks of at most this many floats (1 MB)
# at both orders: a folded block is about p! times its slice of the lift,
# and at p=2 the eigh fallback copies the rejected matrices and returns as
# many eigenvectors.  The unlift of an iladmc pass runs while the solver's
# buffers are alive, so its blocks stay small next to one D x N buffer.
_BLOCK_FLOATS = 1 << 17

# Power steps of the p=2 pre-image.  A column is accepted when its Ritz
# residual |S u - lam u| is at most _POWER_TOL |lam| and 2 lam^2 > |S|_F^2,
# which makes lam the dominant eigenvalue whatever the start; every other
# column takes the stacked eigh.
_POWER_STEPS = 8
_POWER_TOL = 1e-12


def _fold(T: np.ndarray, imap: TensorIndexMap) -> np.ndarray:
    """The symmetric tensors of lifted vectors T (D, or D x n), as a
    C-contiguous d^p array or n x d^p stack.

    Each lifted coordinate is written at every ordering of its multi-index,
    which covers every entry.  A gather from T.T would copy the whole lift
    first or give a strided stack, whose batched products round otherwise.
    """
    S = np.empty(T.shape[1:] + (imap.d,) * imap.p)
    for perm in itertools.permutations(range(imap.p)):
        S[(...,) + tuple(imap.entries[:, perm].T)] = T.T
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


def _fiber_start(L: np.ndarray) -> np.ndarray:
    """Unit start vectors (n x d) for stacked symmetric tensors L (n x d^p):
    each tensor's fiber L[n, :, i, ..., i] at its largest |diagonal| entry
    L[n, i, ..., i], which for a rank-one lift lam x^(x)p is proportional
    to x.  A zero fiber gives a zero start."""
    n, d = L.shape[:2]
    cols, p = np.arange(n), L.ndim - 1
    diag = L[(cols[:, None],) + (np.arange(d),) * p]
    top = np.argmax(np.abs(diag), axis=1)
    U = L[(cols, slice(None)) + (top,) * (p - 1)]
    norm = np.linalg.norm(U, axis=1, keepdims=True)
    return np.divide(U, norm, out=U, where=norm > 0.0)


def _power_p2(S: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenpairs (n, n x d) of stacked symmetric matrices S
    (n x d x d): _POWER_STEPS power steps from the starts U (n x d),
    batched over the matrices, with ``_eigh_p2`` for every matrix whose
    Ritz pair is not accepted (among them every zero lift and zero start)."""
    # a zero start or a zero step leaves NaN, which fails the test below
    with np.errstate(invalid="ignore", divide="ignore"):
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
    return lam, U


def _hopm(C: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric higher-order power method, order 3, on stacked cubes C
    (n x d x d x d) from the starts U (n x d, overwritten): the pairs
    (n, n x d) where each column stops, once its step vanishes (a zero
    start stays zero, with lam = 0) or moves it by less than HOPM_TOL.
    A column still moving after HOPM_ITERS steps returns its last unit
    iterate u with lam = C(u, u, u) there.  That is not a settled
    eigenpair, and only the column's rank-one gap shows it."""
    live = np.ones(U.shape[0], dtype=bool)
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
    return np.einsum("nijk,ni,nj,nk->n", C, U, U, U), U


def unlift(
    T: np.ndarray,
    imap: TensorIndexMap,
    X_obs: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map each completed lifted column back to R^d, with its rank-one gap.

    ``T`` is D x N; returns the d x N pre-images and the N gaps.  At p=1,
    the identity lift, they are a copy of T, unflipped, and zero gaps.  Each
    column's lift is folded into its symmetric tensor L and started at
    ``_fiber_start``.  For p=2 the pre-image is sqrt(|lam|) u for the
    principal eigenpair (lam, u) of L from ``_power_p2``; for p=3 it is
    cbrt(lam) u for the pair where one ``_hopm`` run stops.  The gap is
    |L - lam u^(x)p|_F / |lam|, 0 for an exact rank-one lift.  An all-zero
    lift gives the zero column and gap 0, a nonzero cube with a zero start
    the zero column and gap inf.  No result depends on the column blocks.

    ``X_obs``/``mask`` (d x N) give the observed entries of the original
    columns and are used only for sign resolution.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != imap.D:
        raise ValueError(f"lifted matrix shape {T.shape} needs {imap.D} rows")
    if imap.p > 3:
        raise ValueError(f"pre-image supports p <= 3, got p={imap.p}")
    N = T.shape[1]
    if imap.p == 1:
        return T.copy(), np.zeros(N)
    X, gaps = np.empty((imap.d, N)), np.empty(N)
    block = max(1, _BLOCK_FLOATS // imap.d**imap.p)
    for lo in range(0, N, block):
        cols = slice(lo, lo + block)
        L = _fold(T[:, cols], imap)
        if imap.p == 2:
            lam, U = _power_p2(L, _fiber_start(L))
            root = np.sqrt(np.abs(lam))
        else:
            lam, U = _hopm(L, _fiber_start(L))
            root = np.cbrt(lam)
        X[:, cols] = (root[:, None] * U).T
        gaps[cols] = _rank1_gaps(L, lam, U)
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
