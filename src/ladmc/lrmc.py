"""Low-rank matrix completion by singular value projection (SVP / IHT).

Each iteration takes a gradient step on the observed-entry residual and
hard-thresholds back to the target rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-30


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


def truncated_svd_project(M: np.ndarray, R: int) -> np.ndarray:
    """Best rank-R approximation in Frobenius norm.

    Computed from an eigendecomposition of the small-side Gram matrix,
    which gives the same projection as a truncated SVD at a fraction of
    the cost, at every aspect ratio.  Ties at sigma_R = sigma_{R+1} keep
    the first R eigenvectors in descending eigenvalue order.

    This is the projection step of every SVP iteration, so it stays on
    numpy's BLAS/LAPACK like the rest of the iterate: alternating with a
    second BLAS runtime (scipy bundles its own OpenBLAS) leaves two thread
    pools spinning against each other between calls.
    """
    M = np.asarray(M, dtype=float)
    d0, d1 = M.shape
    if R > min(d0, d1):
        raise ValueError(f"rank {R} exceeds min dimension {min(d0, d1)}")
    wide = d0 <= d1
    try:
        _, V = np.linalg.eigh(M @ M.T if wide else M.T @ M)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed to converge: {exc}") from exc
    U = V[:, ::-1][:, :R]
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

    Z = np.where(mask, M_obs, 0.0) if Z0 is None else np.array(Z0, dtype=float)
    # flat observed indices make the gradient step an O(n_obs) update
    obs = np.nonzero(mask.ravel())[0]
    Mv = M_obs.ravel()[obs]

    Z_prev = Z.copy() if opts.accel else None
    k = 0
    iters = 0
    converged = False
    for iters in range(1, opts.max_iters + 1):
        if opts.accel:
            k += 1
            Y = Z + ((k - 1) / (k + 2)) * (Z - Z_prev)
            if k >= opts.accel_restart:
                k = 0
        else:
            Y = Z.copy()
        Yr = Y.ravel()
        Yr[obs] += opts.step_size * (Mv - Yr[obs])
        # a diverging iterate overflows here first: a stop, not a warning
        with np.errstate(over="ignore"):
            diverged = not np.isfinite(Yr @ Yr)
        if diverged:
            break  # step size too large; report as unconverged
        Z_new = truncated_svd_project(Y, R)
        change = np.linalg.norm(Z_new - Z) / max(np.linalg.norm(Z), _EPS)
        Z_prev = Z
        Z = Z_new
        if not np.isfinite(change):
            break
        if change < opts.rel_tol:
            converged = True
            break

    diag = SolveDiagnostics(
        iterations_run=iters,
        final_residual=_observed_rms(M_obs, mask, Z, n_obs),
        converged=converged,
    )
    return Z, diag
