"""End-to-end completion: lift, low-rank complete, unlift.

``ladmc`` runs the three stages once; ``iladmc`` alternates short bursts
of hard thresholding in the lifted space with unlifting and known-entry
refill until the estimate stabilizes.  Both are passes of one driver.
``lrmc_baseline`` completes the raw matrix without lifting, for
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lrmc import SolveDiagnostics, SvpOptions, svp_complete
# preimage_column and rank1_gap stay importable here: perfbench/traced.py wraps them
from .preimage import preimage_column, rank1_gap, unlift  # noqa: F401
from .tensorize import augment_ones, build_index_map, tensorize_matrix

ALGORITHMS = ("ladmc", "iladmc", "lrmc")
# iladmc stops after this many passes, or once a pass changes the
# estimate by less than ILADMC_REL_TOL (relative Frobenius norm)
ILADMC_MAX_OUTER = 100
ILADMC_REL_TOL = 1e-7


@dataclass(frozen=True)
class LadmcConfig:
    """The completion method: lift order, SVP settings, ``iladmc`` burst
    length and constant row.  The rank is each completion's argument."""

    p: int = 2
    svp: SvpOptions = field(default_factory=SvpOptions)
    iladmc_inner_T: int = 30
    augment_ones: bool = False

    def __post_init__(self):
        if self.p not in (2, 3):
            raise ValueError(f"p must be 2 or 3, got {self.p}")
        if self.iladmc_inner_T < 1:
            raise ValueError("iladmc_inner_T must be >= 1")


@dataclass
class CompletionReport:
    X_hat: np.ndarray
    outer_iterations: int
    per_column_rank1_ratio: np.ndarray
    nrmse: float | None = None
    solver: SolveDiagnostics | None = None
    zero_columns: list = field(default_factory=list)


def nrmse(X_hat: np.ndarray, X_true: np.ndarray) -> float:
    """Frobenius-norm relative error |X_hat - X_true|_F / |X_true|_F."""
    X_hat = np.asarray(X_hat, dtype=float)
    X_true = np.asarray(X_true, dtype=float)
    if X_hat.shape != X_true.shape:
        raise ValueError(f"shape mismatch {X_hat.shape} vs {X_true.shape}")
    denom = np.linalg.norm(X_true)
    if denom == 0.0:
        raise ValueError("ground truth has zero norm")
    return float(np.linalg.norm(X_hat - X_true) / denom)


def check_rank(rank) -> None:
    """Raise unless ``rank`` is an int >= 1."""
    # bool is an int subclass, but True is no rank
    if not (isinstance(rank, (int, np.integer))
            and not isinstance(rank, bool) and rank >= 1):
        raise ValueError(f"rank must be an int >= 1, got {rank!r}")


def _checked_input(X_obs, mask, rank):
    """The input as arrays; a bad rank or non-finite observation raises."""
    check_rank(rank)
    X_obs = np.asarray(X_obs, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if X_obs.shape != mask.shape:
        raise ValueError(f"shape mismatch {X_obs.shape} vs {mask.shape}")
    bad = np.argwhere(mask & ~np.isfinite(X_obs))
    if bad.size:
        i, j = map(int, bad[0])
        raise ValueError(
            f"observed entry ({i}, {j}) is not finite: {X_obs[i, j]}")
    return X_obs, mask


def _finalize(X_hat, X_obs_orig, mask_orig, report, X_true):
    X_hat[mask_orig] = X_obs_orig[mask_orig]
    zero_cols = np.nonzero(mask_orig.sum(axis=0) == 0)[0]
    X_hat[:, zero_cols] = 0.0
    report.X_hat = X_hat
    report.zero_columns = list(map(int, zero_cols))
    if X_true is not None:
        report.nrmse = nrmse(X_hat, X_true)
    return report


def _complete_lifted(X_obs, mask, rank, cfg, X_true, max_passes, pass_iters):
    """Up to max_passes rounds of lift / SVP / unlift / refill known entries.

    Each pass runs pass_iters SVP iterations (None: cfg.svp.max_iters).
    The first pass starts SVP from the zero-filled lift; each later pass
    starts it from the lift of the previous estimate.  With augment_ones
    the constant row is refilled to 1 on every pass like any observed
    entry and dropped from the result.  Every pass unlifts its own lifted
    estimate with ``unlift``; the last pass gives the result and the
    rank-one gaps.
    """
    X_obs, mask = _checked_input(X_obs, mask, rank)
    X_in, mask_in = (augment_ones(X_obs, mask) if cfg.augment_ones
                     else (X_obs, mask))
    imap = build_index_map(X_in.shape[0], cfg.p)
    T_obs, T_mask = tensorize_matrix(X_in, mask_in, imap)
    # a burst runs its pass_iters steps whatever cfg.svp.rel_tol says: only
    # a step that leaves the iterate exactly unchanged ends it early
    opts = (replace(cfg.svp, max_iters=pass_iters, rel_tol=math.ulp(0.0))
            if pass_iters else cfg.svp)

    X_cur = np.where(mask_in, X_in, 0.0)
    full = np.ones_like(mask_in)
    Z0 = None
    total_iters = total_eigh = total_restarts = 0
    for outer in range(1, max_passes + 1):
        if outer > 1:
            Z0, _ = tensorize_matrix(X_cur, full, imap)
        T_hat, diag = svp_complete(T_obs, T_mask, int(rank), opts, Z0=Z0)
        total_iters += diag.iterations_run
        total_eigh += diag.full_eigh
        total_restarts += diag.restarts
        X_new, ratios = unlift(T_hat, imap, X_in, mask_in)
        X_new[mask_in] = X_in[mask_in]
        change = np.linalg.norm(X_new - X_cur) / max(np.linalg.norm(X_cur), 1e-30)
        X_cur = X_new
        if change < ILADMC_REL_TOL:
            break
    X_hat = X_cur[1:] if cfg.augment_ones else X_cur
    # the solver fields describe the whole run, not the last pass: a
    # single pass converges with its SVP solve, several passes once a
    # pass meets ILADMC_REL_TOL
    converged = (diag.converged if max_passes == 1
                 else bool(change < ILADMC_REL_TOL))
    report = CompletionReport(
        X_hat=X_hat, outer_iterations=outer, per_column_rank1_ratio=ratios,
        solver=replace(diag, iterations_run=total_iters, full_eigh=total_eigh,
                       restarts=total_restarts, converged=converged),
    )
    return _finalize(X_hat, X_obs, mask, report, X_true)


def ladmc(
    X_obs: np.ndarray,
    mask: np.ndarray,
    rank: int,
    cfg: LadmcConfig | None = None,
    X_true: np.ndarray | None = None,
) -> CompletionReport:
    """One pass of lift / low-rank complete / unlift / refill known entries
    at lifted rank ``rank``."""
    return _complete_lifted(X_obs, mask, rank, cfg or LadmcConfig(), X_true,
                            max_passes=1, pass_iters=None)


def iladmc(
    X_obs: np.ndarray,
    mask: np.ndarray,
    rank: int,
    cfg: LadmcConfig | None = None,
    X_true: np.ndarray | None = None,
) -> CompletionReport:
    """Iterative variant at lifted rank ``rank``: repeat T lifted hard-
    thresholding steps, unlift, refill the known entries, until the outer
    estimate stops changing."""
    cfg = cfg or LadmcConfig()
    return _complete_lifted(X_obs, mask, rank, cfg, X_true,
                            max_passes=ILADMC_MAX_OUTER,
                            pass_iters=cfg.iladmc_inner_T)


def lrmc_baseline(
    X_obs: np.ndarray,
    mask: np.ndarray,
    rank: int,
    cfg: LadmcConfig | None = None,
    X_true: np.ndarray | None = None,
) -> CompletionReport:
    """Plain low-rank completion of the raw matrix, without lifting.

    ``rank`` is the raw matrix's; of ``cfg`` only ``svp`` applies.  The
    report has no rank-one ratios.
    """
    cfg = cfg or LadmcConfig()
    X_obs, mask = _checked_input(X_obs, mask, rank)
    X_zero = np.where(mask, X_obs, 0.0)
    Z, diag = svp_complete(X_zero, mask, int(rank), cfg.svp)
    report = CompletionReport(
        X_hat=Z, outer_iterations=1, per_column_rank1_ratio=np.zeros(0),
        solver=diag,
    )
    return _finalize(Z, X_obs, mask, report, X_true)


def completer(algorithm: str):
    """The completion entry for an algorithm name in ``ALGORITHMS``."""
    return {"ladmc": ladmc, "iladmc": iladmc, "lrmc": lrmc_baseline}[algorithm]
