"""End-to-end completion: lift, low-rank complete, unlift.

``ladmc`` runs the three stages once; ``iladmc`` alternates short bursts
of hard thresholding in the lifted space with unlifting and known-entry
refill until the estimate stabilizes.  ``lrmc_baseline`` completes the
raw matrix, for comparison, as one pass at lift order 1, the identity
lift.  All three are passes of one driver.

An order-2 lift without the constant row, solved with momentum, is solved
under two diagonal scalings, which keep its rank and its mask.  Each row is
multiplied by the square root of its monomial's multinomial count, which
makes the lift an isometry onto symmetric tensors (the polynomial-kernel
geometry of Ongie et al., 2017).  Each column is then divided by its norm,
which undoes the spread that column norms to the power 2 put into the
lift.  On the benchmark's paper-scale input the solve then takes 311
iterations instead of 491.  A plain solve and an order-3 lift slow down
or stall under the scalings, so they are solved raw, and so is a lift with
the constant row.  The lift itself, and everything read from it outside
the solve, stays in raw monomial coordinates.

A completion lifts the observations once and builds one SVP workspace
(``lrmc.SvpWorkspace``) for all its passes.  Every pass solves on the lift
itself, zero-filled and scaled in place; a later ``iladmc`` pass relifts
the estimate straight into a spare buffer of the workspace and starts
there, and a scaled pass's estimate is taken back to raw units in another.
So a pass allocates no D x N array, and the residual is formed once, for
the pass that ends the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .io import SettingError
from .lrmc import SolveDiagnostics, SvpOptions, SvpWorkspace, svp_complete
# preimage_column and rank1_gap stay importable here: perfbench/traced.py wraps them
from .preimage import preimage_column, rank1_gap, unlift  # noqa: F401
from .tensorize import (augment_ones, build_index_map, lift_into,
                        tensorize_matrix)

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
            raise SettingError("p", f"p must be 2 or 3, got {self.p}")
        if self.iladmc_inner_T < 1:
            raise SettingError(
                "iladmc_inner_T",
                f"iladmc_inner_T must be >= 1, got {self.iladmc_inner_T}")


@dataclass
class CompletionReport:
    X_hat: np.ndarray
    outer_iterations: int
    per_column_rank1_ratio: np.ndarray
    nrmse: float | None = None
    solver: SolveDiagnostics | None = None


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


def check_rank(rank, setting="rank") -> None:
    """Raise unless ``rank`` is an int >= 1; the error names ``setting``."""
    # bool is an int subclass, but True is no rank
    if not (isinstance(rank, (int, np.integer))
            and not isinstance(rank, bool) and rank >= 1):
        raise SettingError(setting, f"rank must be an int >= 1, got {rank!r}")


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


def lift_of(algorithm: str, cfg: LadmcConfig) -> tuple[int, bool]:
    """The lift ``algorithm`` completes in: its order and whether a constant
    row is prepended.  ``lrmc`` completes the raw matrix, the order-1 lift
    without the row; the lifted methods take both from ``cfg``."""
    if algorithm == "lrmc":
        return 1, False
    return cfg.p, cfg.augment_ones


def _row_weights(imap):
    """The square root of each order-2 monomial's multinomial count, as a
    D x 1 column: 1 for x_i^2, sqrt 2 for x_i x_j.  Weighted so, the lift
    is an isometry onto symmetric tensors, <w lift x, w lift y> = (x^T y)^2."""
    i, j = imap.entries.T
    return np.where(i == j, 1.0, math.sqrt(2.0))[:, None]


def _observed_rms(T_obs, Z, T_mask, out, w, cols):
    """RMS over the observed entries of T_obs - Z, formed in out and, for a
    scaled solve (w not None), times cols / w: the residual of the solve in
    the lift's own units."""
    out.fill(0.0)
    np.subtract(T_obs, Z, out=out, where=T_mask)
    if w is not None:
        out *= cols
        out /= w
    return float(np.linalg.norm(out) / math.sqrt(np.count_nonzero(T_mask)))


def _complete_lifted(X_obs, mask, rank, cfg, X_true, algorithm, *,
                     max_passes=1, pass_iters=None):
    """Up to max_passes rounds of lift / SVP / unlift / refill known entries.

    The lift is ``lift_of(algorithm, cfg)``; at order 1, the identity lift,
    one pass is plain SVP of the raw matrix.  A rank above either side of
    the lift is rejected before the lift is built.  Each pass runs
    pass_iters SVP iterations (None: cfg.svp.max_iters) in one workspace.
    The first pass starts SVP from the zero-filled lift; each later pass
    starts it from the lift of the previous estimate.  A constant row, when
    the lift has one, is refilled to 1 on every pass like any observed
    entry and dropped from the result.  Every pass unlifts its own lifted
    estimate with ``unlift``; the last pass gives the result, the rank-one
    gaps and the residual.  Unobserved columns come back zero.

    An order-2 lift without the constant row, solved with momentum, is
    solved scaled: each row times its weight (``_row_weights``), each
    column divided by its norm after that, the norm of its observed
    entries on the first pass and of the previous estimate's lift on a
    later one.  The observations are scaled in place, and each pass's
    estimate and the residual are taken back to the lift's own units.
    """
    X_obs, mask = _checked_input(X_obs, mask, rank)
    order, ones = lift_of(algorithm, cfg)
    X_in, mask_in = augment_ones(X_obs, mask) if ones else (X_obs, mask)
    imap = build_index_map(X_in.shape[0], order)
    if rank > min(imap.D, X_in.shape[1]):
        raise SettingError(
            "rank", f"rank {rank} exceeds the order-{order} lift's smaller "
                    f"side: it is {imap.D} x {X_in.shape[1]}")
    T_obs, T_mask = tensorize_matrix(X_in, mask_in, imap)
    ws = SvpWorkspace(T_mask)
    if ws.tall:
        # a tall lift is solved as its transpose: the refill target's rows
        # are then contiguous, as are the workspace's
        T_obs = np.asfortranarray(T_obs)
    # a burst runs its pass_iters steps whatever svp.rel_tol says: only
    # a step that leaves the iterate exactly unchanged ends it early
    opts = (replace(cfg.svp, max_iters=pass_iters, rel_tol=math.ulp(0.0))
            if pass_iters else cfg.svp)

    # the row weights, and the column scales the solve divides out
    w = None
    cols = 1.0
    if order == 2 and not ones and cfg.svp.accel:
        w = _row_weights(imap)
        T_obs *= w

    X_cur = np.where(mask_in, X_in, 0.0)
    Z0 = None
    total_iters = total_eigh = total_restarts = 0
    for outer in range(1, max_passes + 1):
        if outer > 1:
            Z0 = lift_into(ws.spare(), X_cur, imap)
        if w is not None:
            # the weighted lift of a column x has norm |x|^2: the scales
            # are the squared norms of the zero-filled input on the first
            # pass and of the estimate on a later one (1 for a zero column)
            new_cols = np.einsum("ij,ij->j", X_cur, X_cur)
            new_cols[new_cols == 0.0] = 1.0
            T_obs *= cols / new_cols
            if Z0 is not None:
                Z0 *= w
                Z0 /= new_cols
            cols = new_cols
        Z, diag = svp_complete(T_obs, T_mask, int(rank), opts, Z0=Z0,
                               workspace=ws)
        T_hat = Z
        if w is not None:
            # in a spare buffer: Z stays for the residual
            T_hat = np.multiply(Z, cols, out=ws.spare(Z))
            T_hat /= w
        total_iters += diag.iterations_run
        total_eigh += diag.full_eigh
        total_restarts += diag.restarts
        X_new, ratios = unlift(T_hat, imap, X_in, mask_in)
        X_new[mask_in] = X_in[mask_in]
        change = np.linalg.norm(X_new - X_cur) / max(np.linalg.norm(X_cur), 1e-30)
        X_cur = X_new
        if change < ILADMC_REL_TOL:
            break
    X_hat = X_cur[1:] if ones else X_cur
    X_hat[:, ~mask.any(axis=0)] = 0.0
    # the solver fields describe the whole run, not the last pass: a
    # single pass converges with its SVP solve, several passes once a
    # pass meets ILADMC_REL_TOL
    converged = (diag.converged if max_passes == 1
                 else bool(change < ILADMC_REL_TOL))
    return CompletionReport(
        X_hat=X_hat, outer_iterations=outer, per_column_rank1_ratio=ratios,
        nrmse=None if X_true is None else nrmse(X_hat, X_true),
        solver=replace(diag, iterations_run=total_iters, full_eigh=total_eigh,
                       restarts=total_restarts, converged=converged,
                       final_residual=_observed_rms(
                           T_obs, Z, T_mask, ws.spare(Z), w, cols)),
    )


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
                            "ladmc")


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
    return _complete_lifted(X_obs, mask, rank, cfg, X_true, "iladmc",
                            max_passes=ILADMC_MAX_OUTER,
                            pass_iters=cfg.iladmc_inner_T)


def lrmc_baseline(
    X_obs: np.ndarray,
    mask: np.ndarray,
    rank: int,
    cfg: LadmcConfig | None = None,
    X_true: np.ndarray | None = None,
) -> CompletionReport:
    """Plain low-rank completion of the raw matrix: one pass of the driver
    at lift order 1, the identity lift, without a constant row.

    ``rank`` is the raw matrix's; of ``cfg`` only ``svp`` applies.  The
    rank-one gaps are all zero.
    """
    return _complete_lifted(X_obs, mask, rank, cfg or LadmcConfig(), X_true,
                            "lrmc")


def completer(algorithm: str):
    """The completion entry for an algorithm name in ``ALGORITHMS``."""
    return {"ladmc": ladmc, "iladmc": iladmc, "lrmc": lrmc_baseline}[algorithm]
