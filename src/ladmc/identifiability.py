"""Identifiability of the lifted subspace from sampling patterns.

Tools for deciding whether an R-dimensional subspace of the lifted space
can be pinned down by the canonical projections that a set of original
sampling patterns generates: the rank formula for unions of subspaces,
the constraint-pattern expansion and its kernel-vector matrix, a
combinatorial cover test and a randomized algebraic test, sample-count
bounds, and the residuals of explicit polynomial varieties.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .io import SettingError
from .preimage import _convention_sign
from .tensorize import (TensorIndexMap, build_index_map, tensor_dimension,
                        tensorize_column, tensorize_mask)

RANK_REL_TOL = 1e-8
COMBINATORIAL_MAX = 22  # exhaustive subset check is 2^(D-R)
COMBINATORIAL_RETRIES = 50
# float64 elements (1 MB) of one working array of the streamed check: a
# chunk's kernel matrix, its rotation, one batch of head inverses
_WORK_FLOATS = 1 << 17
# smallest lambda_{D-R} / lambda_1 of the projected Gram that certifies the
# rank; sigma ratio 1e-4, far above both the Gram's and the SVD's rounding
_GRAM_REL_FLOOR = 1e-8


@dataclass
class ConstraintPatterns:
    """Columns with exactly R+1 observed rows, one linear constraint each."""

    D: int
    R: int
    columns: np.ndarray  # bool, D x n_constraints


@dataclass
class VarietyCoefficients:
    """Coefficient vectors in R^D of the degree-p polynomials cutting out
    a variety."""

    D: int
    p: int
    vectors: np.ndarray  # D x n_polys

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if self.vectors.shape[0] != self.D:
            self.vectors = self.vectors.T
        if np.any(np.all(self.vectors == 0.0, axis=0)):
            raise ValueError("variety coefficient vectors must be nonzero")


@dataclass
class IdentifiabilityVerdict:
    identifiable: bool
    method: str  # "combinatorial" | "algebraic"
    kernel_dim: int | None = None
    trials: int = 0
    details: str = ""


def uos_tensor_rank(K: int, r: int, d: int, p: int) -> int:
    """Generic-position dimension of the lifted span of K r-dim subspaces;
    at p=1, the identity lift, min(K r, d)."""
    if K < 1 or r < 1 or r > d:
        raise ValueError(f"invalid UoS shape K={K}, r={r}, d={d}")
    return min(K * math.comb(r + p - 1, p), tensor_dimension(d, p))


def minimal_samples(R: int, p: int) -> int:
    """Smallest l with C(l+p-1, p) >= R; below this no column can help."""
    if R < 1:
        raise SettingError("R", f"R must be >= 1, got {R}")
    if p < 1:
        raise SettingError("p", f"order must be >= 1, got {p}")
    ell = 1
    while math.comb(ell + p - 1, p) < R:
        ell += 1
    return ell


def check_lifted_rank(R: int, d: int, p: int) -> int:
    """The dimension D of the order-p lift of R^d; raises unless 1 <= R <= D,
    as no sampling identifies a subspace larger than the space."""
    D = tensor_dimension(d, p)
    if not 1 <= R <= D:
        raise SettingError(
            "R", f"R={R} must satisfy 1 <= R <= D, the lifted dimension D={D}")
    return D


def spanning_set_uos(bases: list, imap: TensorIndexMap) -> np.ndarray:
    """Symmetrized lifted products of subspace basis vectors.

    For each subspace basis and each sorted tuple of its column indices the
    output column is the sum over all p! orderings of the product of the
    chosen vectors, read off at the sorted multi-indices.  Subspace-major,
    tuples in lexicographic order; the diagonal (j = ... = j) columns carry
    the resulting factor p! rather than being renormalized.
    """
    E = imap.entries
    cols = []
    for U in bases:
        U = np.asarray(U, dtype=float)
        if U.shape[0] != imap.d:
            raise ValueError(f"basis has ambient dimension {U.shape[0]}, "
                             f"expected {imap.d}")
        r = U.shape[1]
        for js in itertools.combinations_with_replacement(range(r), imap.p):
            col = np.zeros(imap.D)
            for perm in itertools.permutations(js):
                term = np.ones(imap.D)
                for t, j in enumerate(perm):
                    term *= U[E[:, t], j]
                col += term
            cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((imap.D, 0))


def numerical_rank(M: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Rank by singular values above rel_tol times the largest."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    # same singular values, but LAPACK is about twice as fast on the tall side
    s = np.linalg.svd(M.T if M.shape[0] < M.shape[1] else M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def dedupe_patterns(patterns: np.ndarray) -> np.ndarray:
    """Drop duplicate pattern columns, keeping first occurrences in order."""
    patterns = np.asarray(patterns, dtype=bool)
    _, first = np.unique(patterns, axis=1, return_index=True)
    dupes = patterns.shape[1] - first.size
    if dupes:
        warnings.warn(f"dropped {dupes} duplicate sampling patterns")
    return patterns[:, np.sort(first)]


def build_constraint_patterns(Upsilon: np.ndarray, R: int,
                              dedupe: bool = True) -> ConstraintPatterns:
    """Expand each lifted pattern with m_i > R rows into m_i - R constraint
    columns: the first R observed rows plus one extra observed row each.
    dedupe=False trusts the patterns to be distinct already, as the lifts
    of distinct raw patterns are (the monomial x_i^p marks row i)."""
    if dedupe:
        Upsilon = dedupe_patterns(Upsilon)
    D = Upsilon.shape[0]
    # 1-based position of each observed row within its pattern
    position = np.cumsum(Upsilon, axis=0)
    head = Upsilon & (position <= R)
    # one constraint per (pattern, extra row), pattern-major, rows ascending
    src, extra = np.nonzero((Upsilon & (position > R)).T)
    columns = head[:, src]
    columns[extra, np.arange(src.size)] = True
    return ConstraintPatterns(D=D, R=R, columns=columns)


def _kernel_vector_svd(block: np.ndarray) -> np.ndarray | None:
    """Unit left null vector of an (R+1) x R block by SVD, first nonzero
    entry positive; None if the block is rank deficient."""
    R = block.shape[1]
    U, s, _ = np.linalg.svd(block, full_matrices=True)
    if s.size < R or s[-1] <= RANK_REL_TOL * s[0]:
        return None
    return _convention_sign(U[None, :, -1])[0]


def _kernel_vectors_by_head(basis_B: np.ndarray, rows: np.ndarray):
    """Left null vectors of the blocks basis_B[rows[j]], one R x R head
    factorization per run of adjacent blocks with equal heads.

    rows is n x (R+1), each row sorted: the first R rows of a block are its
    head H, the last its extra row e, and the null vector is proportional
    to [-H^-T e^T; 1].  ``build_constraint_patterns`` emits the blocks of
    one pattern next to each other, so they form one run; a head that
    recurs in runs that are not adjacent is factored once per run, which
    is correct, only repeated.  Returns the unit vectors with the first-nonzero-
    positive sign rule and a mask of the blocks certified full rank:
    sigma_min(block) >= 1/|H^-1|_F > RANK_REL_TOL |block|_F >= RANK_REL_TOL
    sigma_max(block), so the SVD test would keep them too.  Uncertified
    rows of the result are meaningless.
    """
    n, R = rows.shape[0], rows.shape[1] - 1
    # group is a block's run of equal heads, pos its place within the run
    head_rows = rows[:, :R]
    new_run = np.r_[True, np.any(head_rows[1:] != head_rows[:-1], axis=1)]
    group = np.cumsum(new_run) - 1
    bounds = np.r_[np.flatnonzero(new_run), n]
    heads = head_rows[new_run]
    pos = np.arange(n) - bounds[group]
    width = int(np.diff(bounds).max())
    step = max(1, _WORK_FLOATS // (R * max(R, width)))

    a = np.empty((n, R + 1))  # [-e H^-1, 1] for each block
    a[:, R] = 1.0
    inv_norm = np.empty(heads.shape[0])
    for g0 in range(0, heads.shape[0], step):
        g1 = min(g0 + step, heads.shape[0])
        try:
            H_inv = np.linalg.inv(basis_B[heads[g0:g1]])
        except np.linalg.LinAlgError:  # an exactly singular head
            H_inv = np.full((g1 - g0, R, R), np.nan)
        inv_norm[g0:g1] = np.linalg.norm(H_inv, axis=(1, 2))
        lo, hi = bounds[g0], bounds[g1]
        g, k = group[lo:hi] - g0, pos[lo:hi]
        extra = np.zeros((g1 - g0, width, R))
        extra[g, k] = basis_B[rows[lo:hi, R]]
        a[lo:hi, :R] = -(extra @ H_inv)[g, k]

    a /= np.linalg.norm(a, axis=1, keepdims=True)
    _convention_sign(a)

    row_sq = np.einsum("ij,ij->i", basis_B, basis_B)
    block_norm = np.sqrt(row_sq[rows].sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        certified = 1.0 / inv_norm[group] > RANK_REL_TOL * block_norm
    certified &= np.isfinite(a).all(axis=1)
    return a, certified


def build_A(basis_B: np.ndarray, patterns: ConstraintPatterns) -> np.ndarray:
    """One kernel vector per constraint pattern, scattered into R^D.

    Each constraint restricts the basis to its R+1 rows; the left null
    vector of that (R+1) x R block (unit norm, first nonzero positive) is
    placed at the pattern's rows.  Rank-deficient blocks violate genericity
    and are skipped without a warning; the count skipped is
    patterns.columns.shape[1] - A.shape[1].

    The blocks of one source pattern share their first R rows, so each
    pattern's R x R head is factored once and applied to all of its extra
    rows.  Blocks whose head does not certify full rank, and columns
    without exactly R+1 rows, go through a per-block SVD instead.
    """
    basis_B = np.asarray(basis_B, dtype=float)
    D, R = patterns.D, patterns.R
    if basis_B.shape != (D, R):
        raise ValueError(f"basis shape {basis_B.shape} != ({D}, {R})")
    if numerical_rank(basis_B) < R:
        raise ValueError("basis must have full column rank")
    columns = np.ascontiguousarray(patterns.columns.T)  # one block per row
    n = columns.shape[0]
    A = np.zeros((D, n))
    by_svd = columns.sum(axis=1) != R + 1
    blocks = np.flatnonzero(~by_svd)
    if blocks.size:
        rows = np.nonzero(columns[blocks])[1].reshape(-1, R + 1)
        a, certified = _kernel_vectors_by_head(basis_B, rows)
        A[rows[certified], blocks[certified, None]] = a[certified]
        by_svd[blocks[~certified]] = True
    keep = np.ones(n, dtype=bool)
    for j in np.flatnonzero(by_svd):
        rows_j = np.flatnonzero(columns[j])
        a_j = _kernel_vector_svd(basis_B[rows_j])
        if a_j is None:
            keep[j] = False
        else:
            A[rows_j, j] = a_j
    return A if keep.all() else A[:, keep]


def _pattern_chunks(Upsilon: np.ndarray, R: int) -> list:
    """(lo, hi) column ranges of whole lifted patterns holding about
    _WORK_FLOATS // D constraints each, so that a chunk's D x n kernel
    matrix takes about _WORK_FLOATS floats; always at least one range."""
    counts = np.maximum(Upsilon.sum(axis=0) - R, 0)
    starts = np.cumsum(counts) - counts
    per_chunk = max(1, _WORK_FLOATS // Upsilon.shape[0])
    cuts = np.flatnonzero(np.diff(starts // per_chunk)) + 1
    bounds = [0, *cuts.tolist(), Upsilon.shape[1]]
    return list(zip(bounds[:-1], bounds[1:]))


def _fold_kernel_chunks(Upsilon, chunks, R, bases, fold) -> list:
    """Build each chunk's constraints once and call fold(t, A_c) with the
    chunk's kernel matrix under every trial basis; returns the number of
    rank-deficient blocks skipped per trial, for the caller to report."""
    skipped = [0] * len(bases)
    for lo, hi in chunks:
        cp = build_constraint_patterns(Upsilon[:, lo:hi], R, dedupe=False)
        for t, B in enumerate(bases):
            A_c = build_A(B, cp)
            skipped[t] += cp.columns.shape[1] - A_c.shape[1]
            fold(t, A_c)
    return skipped


def _rank_certified(G: np.ndarray, e2: float) -> bool:
    """True when A is certified to have exactly D-R singular values above
    RANK_REL_TOL sigma_1(A), given the Gram G of Q_perp^T A and
    e2 = |Q_B^T A|_F^2.

    sigma_i(A) >= sigma_i(Q_perp^T A) for i <= D-R, sigma_1(A)^2 <=
    lambda_1(G) + e2, and sigma_{D-R+1}(A) <= |Q_B^T A|_2 <= sqrt(e2) by
    Weyl, since Q_perp Q_perp^T A has rank <= D-R.  The _GRAM_REL_FLOOR
    on lambda_{D-R} keeps the Gram's eps-level rounding far from the
    verdict.
    """
    if G.shape[0] == 0:  # R == D: no constraints, the exact pass gives D
        return False
    lam = np.linalg.eigvalsh(G)
    return bool(lam[-1] > 0.0
                and lam[0] >= _GRAM_REL_FLOOR * (lam[-1] + e2)
                and e2 <= (RANK_REL_TOL / 2) ** 2 * lam[-1])


def check_identifiable_algebraic(
    Omega: np.ndarray,
    R: int,
    p: int,
    trials: int = 3,
    seed: int = 0,
    basis: np.ndarray | None = None,
) -> IdentifiabilityVerdict:
    """Randomized test: the patterns identify the subspace iff the kernel
    vectors they generate cut the candidate set down to dimension R.

    Each trial draws a random Gaussian R-dimensional basis in the lifted
    space as a stand-in for a generic subspace (all of whose square row
    restrictions are full rank almost surely); an explicit lifted basis may
    be supplied instead for subspace-specific audits.

    The kernel matrix A is never formed whole.  The lifted patterns are
    walked in chunks whose D x n kernel matrix A_c holds about _WORK_FLOATS
    floats (1 MB: 1092 constraints at D=120), and each A_c is folded into
    every trial's small accumulators: with Q = [Q_B, Q_perp]
    from a complete QR of the basis, the Gram of Q_perp^T A and the energy
    |Q_B^T A|_F^2 (rounding only, as A^T B = 0).  These certify rank D-R
    for well-conditioned patterns (see _rank_certified).  A trial that is
    not certified walks the chunks again through a streamed QR of A^T,
    whose triangular factor has A's singular values, and takes the rank of
    that factor.
    """
    if trials < 1:
        raise SettingError("trials", f"trials must be >= 1, got {trials}")
    Omega = dedupe_patterns(np.asarray(Omega, dtype=bool))
    d = Omega.shape[0]
    D = check_lifted_rank(R, d, p)
    imap = build_index_map(d, p)
    Upsilon = tensorize_mask(Omega, imap)
    chunks = _pattern_chunks(Upsilon, R)

    rng = np.random.default_rng(seed)
    if basis is not None:
        bases = [np.asarray(basis, dtype=float)]
    else:
        bases = [rng.standard_normal((D, R)) for _ in range(trials)]
    Qt = [np.linalg.qr(B, mode="complete")[0].T for B in bases]
    G = np.zeros((len(bases), D - R, D - R))
    e2 = np.zeros(len(bases))

    def gram(t, A_c):
        Y = Qt[t] @ A_c
        G[t] += Y[R:] @ Y[R:].T
        e2[t] += np.vdot(Y[:R], Y[:R])

    skipped = _fold_kernel_chunks(Upsilon, chunks, R, bases, gram)
    for t, n in enumerate(skipped):
        if n:
            warnings.warn(f"trial {t + 1}: skipped {n} rank-deficient "
                          f"constraint blocks")
    kernel_dims = [R] * len(bases)
    exact = [t for t in range(len(bases)) if not _rank_certified(G[t], e2[t])]
    if exact:
        T = [np.zeros((0, D)) for _ in exact]  # R factor of A^T so far

        def tsqr(i, A_c):
            T[i] = np.linalg.qr(np.vstack([T[i], A_c.T]), mode="r")

        _fold_kernel_chunks(Upsilon, chunks, R, [bases[t] for t in exact],
                            tsqr)
        for i, t in enumerate(exact):
            kernel_dims[t] = D - numerical_rank(T[i])
    walk = f"{len(chunks)} chunk" + "s" * (len(chunks) != 1)
    how = [f"trial {t + 1}: "
           + (f"exact, 2 passes of {walk}" if t in exact
              else f"certified, {walk}")
           for t in range(len(bases))]
    return IdentifiabilityVerdict(
        identifiable=all(k == R for k in kernel_dims),
        method="algebraic",
        kernel_dim=max(kernel_dims),
        trials=len(bases),
        details=(f"kernel dims per trial: {kernel_dims} (target {R}); "
                 + "; ".join(how)),
    )


def _subset_cover_ok(supports: list, R: int) -> bool:
    """Every nonempty subset of eta columns covers >= eta + R rows."""
    n = len(supports)
    union = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        union[m] = union[m ^ low] | supports[low.bit_length() - 1]
        if union[m].bit_count() < m.bit_count() + R:
            return False
    return True


def _greedy_select(supports, D, R, order):
    chosen = []
    covered = 0
    remaining = list(order)
    while len(chosen) < D - R and remaining:
        best, best_gain = None, -1
        for idx in remaining:
            gain = (supports[idx] | covered).bit_count() - covered.bit_count()
            if gain > best_gain:
                best, best_gain = idx, gain
        chosen.append(best)
        covered |= supports[best]
        remaining.remove(best)
    return chosen


def check_identifiable_combinatorial(
    patterns: ConstraintPatterns, R: int, D: int, seed: int = 0
) -> IdentifiabilityVerdict:
    """Search for D-R constraint columns where every subset of eta columns
    touches at least eta + R rows.

    Finding such a set certifies identifiability.  Failing to find one only
    certifies non-identifiability when fewer than D-R columns exist at all;
    otherwise the verdict is flagged inconclusive (the search is greedy, not
    exhaustive over column subsets).
    """
    if D - R > COMBINATORIAL_MAX:
        raise ValueError(f"D-R={D - R} exceeds the exhaustive-search bound "
                         f"{COMBINATORIAL_MAX}; use the algebraic check")
    n_cols = patterns.columns.shape[1]
    if n_cols < D - R:
        return IdentifiabilityVerdict(
            identifiable=False, method="combinatorial",
            details=f"only {n_cols} constraint columns, need {D - R}",
        )
    supports = [int.from_bytes(row.tobytes(), "big")
                for row in np.packbits(patterns.columns.T, axis=1)]
    rng = np.random.default_rng(seed)
    order = list(range(n_cols))
    for attempt in range(1 + COMBINATORIAL_RETRIES):
        chosen = _greedy_select(supports, D, R, order)
        if len(chosen) == D - R and _subset_cover_ok(
            [supports[i] for i in chosen], R
        ):
            return IdentifiabilityVerdict(
                identifiable=True, method="combinatorial",
                details=f"verified cover found on attempt {attempt + 1}",
            )
        order = list(rng.permutation(n_cols))
    return IdentifiabilityVerdict(
        identifiable=False, method="combinatorial",
        details="inconclusive: no verified cover found; use algebraic check",
    )


def evaluate_variety(
    V: VarietyCoefficients, x: np.ndarray, imap: TensorIndexMap
) -> np.ndarray:
    """Residuals of each defining polynomial at x (zero iff on the variety)."""
    x = np.asarray(x, dtype=float)
    if V.D != imap.D or V.p != imap.p:
        raise ValueError("coefficient vectors do not match the index map")
    return V.vectors.T @ tensorize_column(x, imap)
