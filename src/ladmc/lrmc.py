"""Low-rank matrix completion by singular value projection (SVP / IHT).

Each iteration takes a gradient step on the observed-entry residual, with
Nesterov momentum under adaptive restart (plain SVP restarts every step),
and hard-thresholds back to the target rank.  The rank-R projection reads
the top-R eigenvectors of the row Gram matrix.  From the second
iteration on they come from two warm-started subspace steps and a
Rayleigh–Ritz extraction, seeded with the previous iteration's basis plus
a few extra vectors; whenever the Ritz residual fails a fixed bound the
full eigendecomposition runs instead, as it does without a warm attempt
for a fixed number of iterations after such a failure.  So every
projection is the exact one up to rounding.

Everything else an iteration does is one cache-blocked pass over its
D x N buffers after the projection (``svp_complete`` lists its parts),
with the arithmetic of whole-array passes whatever the block size.

A solve's D x N buffers, ``keep`` = 1 - mask, the three buffers the
iteration rotates and the sweep's row blocks, form an ``SvpWorkspace``.
A caller that solves on one mask several times, as ``iladmc``'s passes
do, builds it once and hands it to every ``svp_complete`` call; the solve
then refills from the caller's zero-filled observations themselves, and
can start from an iterate the caller wrote into a spare buffer.  Without
a workspace each call builds its own, so there is one iteration loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import SettingError

_EPS = 1e-30
# vectors carried in the warm basis beyond the target rank, and the
# subspace steps taken from it before the Rayleigh–Ritz extraction
_OVERSAMPLE = 5
_SUBSPACE_STEPS = 2
# a warm basis is accepted when the Frobenius norm of its top-R Ritz
# residuals |G x - theta x| is at most this fraction of the largest Ritz
# value; otherwise the iteration runs the full eigendecomposition
_RITZ_TOL = 1e-12
# iterations after a rejected warm basis that run the full
# eigendecomposition without trying one: rejections come in long runs
# while the iterate is far from rank R, and each costs about half an eigh
_WARM_BACKOFF = 8
# entries of one D x N operand in a row block of the SVP sweep (256 KB):
# the sweep streams five operands, 1.3 MB a block, which stays in a core's
# 2 MB L2 where whole-array passes over the 2.6 MB operands of a 120 x 2700
# lift each go out to memory
_SWEEP_FLOATS = 1 << 15


@dataclass(frozen=True)
class SvpOptions:
    """SVP solver settings; the rank is an argument of ``svp_complete``."""

    # the budget and stop test that recover the paper's instance
    max_iters: int = 4000
    rel_tol: float = 1e-9
    # the longest momentum run between restarts; 1 gives plain SVP
    accel_restart: int = 500

    def __post_init__(self):
        for name in ("max_iters", "accel_restart"):
            value = getattr(self, name)
            if value < 1:
                raise SettingError(name, f"{name} must be >= 1, got {value}")
        if not self.rel_tol > 0:
            raise SettingError(
                "rel_tol", f"rel_tol must be positive, got {self.rel_tol}")


@dataclass
class SolveDiagnostics:
    iterations_run: int
    # the RMS of the observed entries' residual; None from a solve in a
    # caller's workspace, whose caller forms it in its own units
    final_residual: float | None
    # why it stopped: "converged" (rel_tol met), "budget" or "diverged"
    stop: str
    # iterations whose projection ran the full eigendecomposition rather
    # than accepting the warm-started basis
    full_eigh: int = 0
    # momentum restarts, adaptive or at the accel_restart cap
    restarts: int = 0

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


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


def _row_blocks(shape) -> list[slice]:
    """Row slices of a D x N buffer, each at most _SWEEP_FLOATS entries
    (one row when a row alone is longer)."""
    rows = max(1, _SWEEP_FLOATS // shape[1])
    return [slice(i, i + rows) for i in range(0, shape[0], rows)]


class SvpWorkspace:
    """The D x N buffers of SVP solves on one mask, for every
    ``svp_complete`` call it is handed: ``keep`` = 1 - mask, the three
    buffers the iteration rotates, and the sweep's row blocks.  A tall
    mask's are laid out in its transpose's shape, where a tall solve runs.

    The iterate a solve returns is one of the buffers, valid until the next
    solve in the workspace.
    """

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        self.tall = mask.shape[0] > mask.shape[1]
        wide = mask.T if self.tall else mask
        self.keep = np.subtract(1.0, wide, order="C")
        self.buffers = [np.empty(wide.shape) for _ in range(3)]
        self.blocks = _row_blocks(wide.shape)

    def spare(self, *held):
        """A buffer, in the mask's shape, that shares no memory with the
        arrays ``held``: a solve started from it as ``Z0`` starts in place."""
        views = (b.T if self.tall else b for b in self.buffers)
        return next(v for v in views
                    if not any(np.may_share_memory(v, h) for h in held))


def _gradient_step(out, Z, dZ, beta, keep, target):
    """out = (Z + beta * dZ) * keep + target, the gradient step
    Z + P_mask(M_obs - Z) at Z extrapolated by beta along dZ."""
    if beta:
        np.multiply(dZ, beta, out=out)
        out += Z
        Z = out
    np.multiply(Z, keep, out=out)
    out += target


def _sweep(blocks, Z, Y, dZ, beta, keep, target) -> tuple[float, float]:
    """One pass over the row blocks after the projection has written the
    new iterate into Y.  Writes the change Y - Z into Z's buffer and the
    next gradient step, at momentum beta, into dZ's buffer; returns
    <dZ, Y - Z>, left 0 at beta = 0 (a capped restart, as every step of
    a plain solve is, whose restart tests do not need it), and |Y - Z|^2."""
    inner = sq = 0.0
    for b in blocks:
        z, d = Z[b], dZ[b]
        np.subtract(Y[b], z, out=z)
        inner += float(np.vdot(d, z)) if beta else 0.0
        sq += float(np.vdot(z, z))
        _gradient_step(d, Y[b], z, beta, keep[b], target[b])
    return inner, sq


def svp_complete(
    M_obs: np.ndarray,
    mask: np.ndarray,
    rank: int,
    opts: SvpOptions,
    Z0: np.ndarray | None = None,
    *,
    workspace: SvpWorkspace | None = None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Complete M_obs on the given mask at the given rank by iterative hard
    thresholding.

    Starts from the zero-filled observed matrix (or Z0 when supplied) and
    iterates Z <- project(Z + P_mask(M_obs - Z), rank) until the
    relative change |Z_new - Z| / |Z| drops below rel_tol or max_iters is
    hit, each step taken at E = Z + beta * (Z - Z_prev): beta follows
    Nesterov's sequence and restarts at 0, the plain step, after any step
    against the gradient mapping, <E - Z_new, Z_new - Z> > 0 (O'Donoghue &
    Candes, 2015), and after accel_restart iterations without one;
    ``restarts`` counts both kinds, and accel_restart=1 is plain SVP.
    A rank outside 1..min(M_obs.shape) is rejected; a tall input is
    completed as its transpose, whose iterate comes back transposed.

    The projection is the one ``truncated_svd_project`` computes.  The
    first iteration, any iteration whose warm-started Ritz basis fails
    the residual bound, and the _WARM_BACKOFF iterations after such a
    failure run the full eigendecomposition; the diagnostics count those
    iterations in ``full_eigh``.  A step whose iterate overflows stops
    the solve, and ``stop`` reads "diverged".

    Outside the projection each iteration makes one pass over its D x N
    buffers, in row blocks of at most _SWEEP_FLOATS entries: the change
    Z_new - Z, the two sums the stop and restart tests read, and the next
    iteration's gradient step, at the momentum it has unless this one
    restarts.  An adaptive restart takes that step again at beta = 0.  |Z|
    is read from the projection's coefficients, |U^T Y| = |U U^T Y| for
    orthonormal U.  Every entry sees the same operations as in whole-array
    passes, so the iterates do not depend on the block size; only the sums
    of the two tests are added in another order.

    Without a ``workspace`` the solve builds its own and leaves M_obs and
    Z0 as they are.  With one built on this mask it allocates no D x N
    buffer: M_obs, which must then be zero off the mask, is the refill
    target itself, a Z0 that is one of the workspace's buffers (from
    ``spare``) is started from in place, and the residual is not formed
    (``final_residual`` is None).
    """
    M_obs = np.asarray(M_obs, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if M_obs.shape != mask.shape:
        raise ValueError(f"shape mismatch {M_obs.shape} vs {mask.shape}")
    n_obs = int(mask.sum())
    if n_obs == 0:
        raise ValueError("nothing observed: empty mask")
    R = rank
    if not 1 <= R <= min(M_obs.shape):
        raise ValueError(f"rank {R} infeasible for shape {M_obs.shape}: "
                         f"need 1 <= rank <= {min(M_obs.shape)}")
    if Z0 is not None and np.shape(Z0) != M_obs.shape:
        raise ValueError(f"Z0 shape {np.shape(Z0)} != {M_obs.shape}")
    if M_obs.shape[0] > M_obs.shape[1]:
        Z, diag = svp_complete(M_obs.T, mask.T, R, opts,
                               None if Z0 is None else np.transpose(Z0),
                               workspace=workspace)
        return Z.T, diag
    n_basis = min(R + _OVERSAMPLE, min(M_obs.shape))

    # the gradient step Y + P_mask(M_obs - Y), which refills the observed
    # entries, as two dense passes: Y * keep + target, keep = 1 - mask and
    # target the zero-filled observations
    ws = workspace
    if ws is None:
        ws = SvpWorkspace(mask)
        target = np.zeros(M_obs.shape)
        np.copyto(target, M_obs, where=mask)
    elif ws.keep.shape != M_obs.shape:
        raise ValueError(f"workspace of shape {ws.keep.shape} for a solve "
                         f"of shape {M_obs.shape}")
    else:
        target = M_obs
    keep, blocks = ws.keep, ws.blocks
    # Z: the iterate, in a buffer of its own (C order, which keeps the
    # sweep's blocks contiguous); Y: the gradient step, then the projected
    # iterate; dZ: Z - Z_prev, the stop test's change and the next momentum
    # term.  Each sweep turns Z into the new change and dZ into the next
    # gradient step, and the three buffers rotate.
    start = None if Z0 is None else next(
        (b for b in ws.buffers
         if np.may_share_memory(Z0, b) and Z0.strides == b.strides), None)
    Z = ws.buffers[0] if start is None else start
    Y, dZ = (b for b in ws.buffers if b is not Z)
    if start is None:
        np.copyto(Z, target if Z0 is None else Z0)
    dZ.fill(0.0)
    V = None
    full_eigh = restarts = backoff = 0
    # the momentum counter of the iteration about to run and its beta
    k, beta = 1, 0.0
    iters = 0
    stop = "budget"
    # a diverging iterate overflows the Gram first: a stop, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        z_norm = float(np.linalg.norm(Z))
        _gradient_step(Y, Z, dZ, beta, keep, target)
        for iters in range(1, opts.max_iters + 1):
            G = Y @ Y.T
            if not np.isfinite(np.trace(G)):
                stop = "diverged"  # the iterate overflowed
                break
            warm = None
            if backoff:
                backoff -= 1
            elif V is not None:
                warm = _warm_basis(G, V, R)
                if warm is None:
                    backoff = _WARM_BACKOFF
            if warm is None:
                full_eigh += 1
                _, V = _top_eigvecs(G, n_basis)
            else:
                V = warm
            U = V[:, :R]
            W = U.T @ Y
            np.matmul(U, W, out=Y)
            # a run that reaches accel_restart restarts whatever the sweep
            # finds, so the next step's beta is known before it
            capped = k >= opts.accel_restart
            k_next = 1 if capped else k + 1
            beta_next = (k_next - 1) / (k_next + 2)
            inner, sq = _sweep(blocks, Z, Y, dZ, beta_next, keep, target)
            change = math.sqrt(sq) / max(z_norm, _EPS)
            z_norm = float(np.linalg.norm(W))
            Z, dZ, Y = Y, Z, dZ
            if not math.isfinite(change):
                stop = "diverged"
                break
            if change < opts.rel_tol:
                stop = "converged"
                break
            # restart the momentum when the step just taken points against
            # the gradient mapping, <E - Z_new, Z_new - Z_old> > 0 at the
            # point E = Z_old + beta * dZ_old, i.e.
            # beta <dZ_old, dZ_new> > |dZ_new|^2 (never at beta = 0); the
            # sweep took the next step with momentum, so take it again without
            if capped:
                restarts += 1
            elif beta * inner > sq:
                restarts += 1
                k_next, beta_next = 1, 0.0
                _gradient_step(Y, Z, dZ, beta_next, keep, target)
            k, beta = k_next, beta_next

    residual = None
    if workspace is None:
        # the observed-entry RMS, formed in the spare buffer Y, not a
        # gathered copy
        Y.fill(0.0)
        np.subtract(M_obs, Z, out=Y, where=mask)
        residual = float(np.linalg.norm(Y) / np.sqrt(n_obs))
    diag = SolveDiagnostics(
        iterations_run=iters,
        final_residual=residual,
        stop=stop,
        full_eigh=full_eigh,
        restarts=restarts,
    )
    return Z, diag
