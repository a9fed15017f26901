"""Low-rank matrix completion by singular value projection (SVP / IHT).

Each iteration takes a gradient step on the observed-entry residual and
hard-thresholds back to the target rank.  The rank-R projection reads the
top-R eigenvectors of the small-side Gram matrix.  From the second
iteration on they come from two warm-started subspace steps and a
Rayleigh–Ritz extraction, seeded with the previous iteration's basis plus
a few extra vectors; whenever the Ritz residual fails a fixed bound the
full eigendecomposition runs instead, so every projection is the exact
one up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-30
# vectors carried in the warm basis beyond the target rank, and the
# subspace steps taken from it before the Rayleigh–Ritz extraction
_OVERSAMPLE = 5
_SUBSPACE_STEPS = 2
# a warm basis is accepted when the Frobenius norm of its top-R Ritz
# residuals |G x - theta x| is at most this fraction of the largest Ritz
# value; otherwise the iteration runs the full eigendecomposition
_RITZ_TOL = 1e-12


@dataclass
class SvpOptions:
    rank: int
    step_size: float = 1.0
    max_iters: int = 500
    rel_tol: float = 1e-6
    # Nesterov momentum with periodic restart.  Off by default: the plain
    # iteration is the reference behavior; acceleration converges far
    # faster on badly conditioned instances at the same per-step cost.
    accel: bool = False
    accel_restart: int = 300

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.accel_restart < 1:
            raise ValueError("accel_restart must be >= 1")


@dataclass
class SolveDiagnostics:
    iterations_run: int
    final_residual: float
    converged: bool
    # iterations whose projection ran the full eigendecomposition rather
    # than accepting the warm-started basis
    full_eigh: int = 0


def _top_eigvecs(G: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of symmetric G and their eigenvectors,
    in descending order; ties keep eigh's order reversed."""
    try:
        w, V = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to converge: {exc}") from exc
    return w[::-1][:k], V[:, ::-1][:, :k]


def _warm_basis(G: np.ndarray, V: np.ndarray, R: int) -> np.ndarray | None:
    """Ritz vectors of G after _SUBSPACE_STEPS subspace steps from V.

    Returns as many Ritz vectors as V has columns, in descending Ritz
    value order, or None when the top-R residuals fail _RITZ_TOL.
    """
    Q = V
    for _ in range(_SUBSPACE_STEPS):
        Q, _ = np.linalg.qr(G @ Q)
    GQ = G @ Q
    theta, S = _top_eigvecs(Q.T @ GQ, V.shape[1])
    X = Q @ S
    resid = GQ @ S[:, :R] - X[:, :R] * theta[:R]
    # a NaN residual fails the comparison and so falls back as well
    if np.linalg.norm(resid) <= _RITZ_TOL * theta[0]:
        return X
    return None


def truncated_svd_project(M: np.ndarray, R: int) -> np.ndarray:
    """Best rank-R approximation in Frobenius norm.

    Computed from an eigendecomposition of the small-side Gram matrix,
    which gives the same projection as a truncated SVD at a fraction of
    the cost, at every aspect ratio.  Ties at sigma_R = sigma_{R+1} keep
    the first R eigenvectors in descending eigenvalue order.

    This is the exact projection; ``svp_complete`` falls back to the same
    eigendecomposition whenever its warm-started basis is not accepted.
    Everything stays on numpy's BLAS/LAPACK: alternating with a second
    BLAS runtime (scipy bundles its own OpenBLAS) leaves two thread pools
    spinning against each other between calls.
    """
    M = np.asarray(M, dtype=float)
    d0, d1 = M.shape
    if R > min(d0, d1):
        raise ValueError(f"rank {R} exceeds min dimension {min(d0, d1)}")
    wide = d0 <= d1
    _, U = _top_eigvecs(M @ M.T if wide else M.T @ M, R)
    return U @ (U.T @ M) if wide else (M @ U) @ U.T


def _observed_rms(M_obs, mask, Z, n_obs):
    return float(np.linalg.norm((M_obs - Z)[mask]) / np.sqrt(n_obs))


def svp_complete(
    M_obs: np.ndarray,
    mask: np.ndarray,
    opts: SvpOptions,
    Z0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Complete M_obs on the given mask by iterative hard thresholding.

    Starts from the zero-filled observed matrix (or Z0 when supplied) and
    iterates Z <- project(Z + step * P_mask(M_obs - Z), R) until the relative
    change drops below rel_tol or max_iters is hit.  With opts.accel the
    gradient step is taken at a Nesterov-extrapolated point instead, with
    the momentum sequence restarted every accel_restart iterations.

    The projection is the one ``truncated_svd_project`` computes.  The
    first iteration, and any iteration whose warm-started Ritz basis fails
    the residual bound, runs the full eigendecomposition; the diagnostics
    count those iterations in ``full_eigh``.  A step whose iterate
    overflows stops the solve unconverged.
    """
    M_obs = np.asarray(M_obs, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if M_obs.shape != mask.shape:
        raise ValueError(f"shape mismatch {M_obs.shape} vs {mask.shape}")
    n_obs = int(mask.sum())
    if n_obs == 0:
        raise ValueError("nothing observed: empty mask")
    R = opts.rank
    if R > min(M_obs.shape):
        raise ValueError(f"rank {R} infeasible for shape {M_obs.shape}")
    wide = M_obs.shape[0] <= M_obs.shape[1]
    n_basis = min(R + _OVERSAMPLE, min(M_obs.shape))

    Z = np.where(mask, M_obs, 0.0) if Z0 is None else np.array(Z0, dtype=float)
    # the gradient step Y + step * P_mask(M_obs - Y) as two dense passes:
    # Y * keep + target, keep = 1 - step on observed entries and 1 elsewhere
    keep = 1.0 - opts.step_size * mask
    target = np.where(mask, opts.step_size * M_obs, 0.0)
    Y = np.empty_like(Z)
    # Z - Z_prev: the stop test's change and the next momentum term
    dZ = np.zeros_like(Z)
    V = None
    full_eigh = 0
    k = 0
    iters = 0
    converged = False
    for iters in range(1, opts.max_iters + 1):
        if opts.accel:
            k += 1
            np.multiply(dZ, (k - 1) / (k + 2), out=Y)
            Y += Z
            Y *= keep
            if k >= opts.accel_restart:
                k = 0
        else:
            np.multiply(Z, keep, out=Y)
        Y += target
        # a diverging iterate overflows the Gram first: a stop, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            G = Y @ Y.T if wide else Y.T @ Y
            diverged = not np.isfinite(np.trace(G))
            warm = None if diverged or V is None else _warm_basis(G, V, R)
        if diverged:
            break  # step size too large; report as unconverged
        if warm is None:
            full_eigh += 1
            _, V = _top_eigvecs(G, n_basis)
        else:
            V = warm
        U = V[:, :R]
        if wide:
            np.matmul(U, U.T @ Y, out=Y)
        else:
            np.matmul(Y @ U, U.T, out=Y)
        np.subtract(Y, Z, out=dZ)
        change = np.linalg.norm(dZ) / max(np.linalg.norm(Z), _EPS)
        Z, Y = Y, Z
        if not np.isfinite(change):
            break
        if change < opts.rel_tol:
            converged = True
            break

    diag = SolveDiagnostics(
        iterations_run=iters,
        final_residual=_observed_rms(M_obs, mask, Z, n_obs),
        converged=converged,
        full_eigh=full_eigh,
    )
    return Z, diag
