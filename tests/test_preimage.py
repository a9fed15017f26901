import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladmc import preimage
from ladmc.preimage import (
    SIGN_TOL_SCALE,
    preimage_column,
    rank1_gap,
    resolve_sign,
    unlift,
)
from ladmc.tensorize import build_index_map, tensorize_column, tensorize_matrix


def _lift_symmetric(A, m):
    """The p=2 lift whose unfolding is the symmetric matrix A."""
    return A[m.entries[:, 0], m.entries[:, 1]]


def _reference_unlift_p2(T, m, X_obs, mask):
    """Column-by-column unlift: eigh for the pre-image and the gap."""
    d, N = m.d, T.shape[1]
    X, gaps = np.zeros((d, N)), np.zeros(N)
    for n in range(N):
        S = np.zeros((d, d))
        S[m.entries[:, 0], m.entries[:, 1]] = T[:, n]
        S[m.entries[:, 1], m.entries[:, 0]] = T[:, n]
        w, V = np.linalg.eigh(S)
        i = int(np.argmax(np.abs(w)))
        u = V[:, i].copy()
        nz = np.nonzero(np.abs(u) > 1e-12)[0]
        if nz.size and u[nz[0]] < 0:
            u = -u
        x = np.sqrt(float(abs(w[i]))) * u
        idx = np.nonzero(mask[:, n])[0]
        if idx.size:
            best = idx[np.argmax(np.abs(X_obs[idx, n]))]
            tol = SIGN_TOL_SCALE * max(np.max(np.abs(x)), 1e-300)
            if abs(X_obs[best, n]) > tol and X_obs[best, n] * x[best] < 0:
                x = -x
        X[:, n] = x
        if w[i] != 0.0:
            gaps[n] = np.linalg.norm(S - w[i] * np.outer(u, u)) / abs(w[i])
    return X, gaps


# `_fold` is the symmetric assembly of a p=2 lift: these tests keep the names
# of the checks on the wrapper it once had
def test_assemble_symmetric_values():
    m = build_index_map(3, 2)
    S = preimage._fold(np.array([1.0, -2, 3, 4, -6, 9]), m)
    np.testing.assert_allclose(S, [[1, -2, 3], [-2, 4, -6], [3, -6, 9]])
    assert np.array_equal(S, S.T)


def test_assemble_symmetric_is_outer_product():
    rng = np.random.default_rng(0)
    m = build_index_map(5, 2)
    x = rng.standard_normal(5)
    S = preimage._fold(tensorize_column(x, m), m)
    np.testing.assert_allclose(S, np.outer(x, x), atol=1e-12)


def test_assemble_symmetric_basis_vector():
    m = build_index_map(3, 2)
    t = np.zeros(6)
    t[0] = 1.0  # the x1^2 coordinate
    S = preimage._fold(t, m)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(S, expected)


def test_assemble_symmetric_stack():
    rng = np.random.default_rng(5)
    m = build_index_map(4, 2)
    T = rng.standard_normal((m.D, 3))
    S = preimage._fold(T, m)
    assert S.shape == (3, 4, 4)
    for n in range(3):
        np.testing.assert_array_equal(S[n], preimage._fold(T[:, n], m))


def test_unlift_known_pair():
    # matrix is x x^T for x = [1,-2,3], so sigma = |x|^2 = 14
    m = build_index_map(3, 2)
    X, gaps = unlift(np.array([[1.0, -2, 3, 4, -6, 9]]).T, m)
    np.testing.assert_allclose(X[:, 0], [1, -2, 3], atol=1e-12)
    assert abs(X[:, 0] @ X[:, 0] - 14.0) < 1e-12
    assert gaps[0] < 1e-12


def test_unlift_zero_and_degenerate():
    X, gaps = unlift(np.zeros((6, 1)), build_index_map(3, 2))
    np.testing.assert_array_equal(X, np.zeros((3, 1)))
    assert gaps[0] == 0.0
    # degenerate spectrum (identity): deterministic convention pick
    m = build_index_map(2, 2)
    X, gaps = unlift(_lift_symmetric(np.eye(2), m)[:, None], m)
    np.testing.assert_allclose(X[:, 0], [1.0, 0.0], atol=1e-12)
    assert gaps[0] == 1.0


def test_unlift_rayleigh_quotient():
    # x = sqrt(sigma) u, so |x|^2 = sigma = max |eig(A)| and
    # |x^T A x| = sigma |u^T A u| = sigma^2
    rng = np.random.default_rng(1)
    m = build_index_map(6, 2)
    A = rng.standard_normal((6, 6))
    A = A + A.T
    X, _ = unlift(_lift_symmetric(A, m)[:, None], m)
    x = X[:, 0]
    sigma = np.max(np.abs(np.linalg.eigvalsh(A)))
    assert abs(x @ x - sigma) < 1e-12 * sigma
    assert abs(abs(x @ A @ x) - sigma**2) < 1e-12 * sigma**2


def test_unlift_matches_column_reference(monkeypatch):
    rng = np.random.default_rng(11)
    d = 5
    m = build_index_map(d, 2)
    xs = rng.standard_normal((d, 4))
    T = np.column_stack([
        rng.standard_normal((m.D, 4)),          # random lifts
        tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)[0],  # rank one
        np.zeros(m.D),                          # zero lift
        _lift_symmetric(np.eye(d), m),          # tied spectrum
        rng.standard_normal(m.D),               # nothing observed
        tensorize_column(xs[:, 0], m),          # observed entry below tolerance
    ])
    X_obs = rng.standard_normal((d, T.shape[1]))
    mask = rng.random(X_obs.shape) < 0.5
    mask[0, :] = True
    mask[:, 9] = False
    # column 10's only observed entry disagrees in sign with its convention
    # pre-image, but is too small to decide the sign
    convention = unlift(T[:, 10:], m)[0][:, 0]
    X_obs[:, 10] = 0.0
    X_obs[2, 10] = -1e-12 * np.sign(convention[2])
    mask[:, 10] = False
    mask[2, 10] = True
    stacks = _spy_eigh(monkeypatch)
    X, gaps = unlift(T, m, X_obs, mask)
    X_ref, gaps_ref = _reference_unlift_p2(T, m, X_obs, mask)
    # columns the power steps settle agree to 1e-10, column-relative; the
    # rest (ties, zero lifts) take the eigh path and agree bit for bit
    S = preimage._fold(T, m)
    fell_back = [n for n in range(T.shape[1])
                 if any(np.array_equal(S[n], s) for s in np.vstack(stacks))]
    assert {8, 9} <= set(fell_back)
    settled = np.setdiff1d(np.arange(T.shape[1]), fell_back)
    assert {4, 5, 6, 7, 11} <= set(settled)
    np.testing.assert_array_equal(X[:, fell_back], X_ref[:, fell_back])
    scale = np.linalg.norm(X_ref[:, settled], axis=0)
    assert np.all(np.linalg.norm(X[:, settled] - X_ref[:, settled], axis=0)
                  <= 1e-10 * scale)
    np.testing.assert_allclose(gaps, gaps_ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(X[:, 10], convention)
    # some columns were flipped to match their observed entries
    assert np.any(X != unlift(T, m)[0])


def _reference_cube(t, m):
    """The symmetric cube of a p=3 lift t, entry by entry."""
    cube = np.zeros((m.d,) * 3)
    for q, e in enumerate(m.entries):
        for perm in itertools.permutations(e):
            cube[perm] = t[q]
    return cube


def _reference_hopm(cube):
    """Symmetric HOPM on one cube from its fiber start: the per-column loop
    that the batched ``_hopm`` replaced."""
    d = cube.shape[0]
    i = int(np.argmax(np.abs(cube[np.arange(d), np.arange(d), np.arange(d)])))
    u = cube[:, i, i].copy()
    if not np.any(u):
        return 0.0, u
    u /= np.linalg.norm(u)
    for _ in range(preimage.HOPM_ITERS):
        v = np.einsum("ijk,j,k->i", cube, u, u)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            break
        u_new = v / nv
        if np.linalg.norm(u_new - u) < preimage.HOPM_TOL:
            u = u_new
            break
        u = u_new
    return float(np.einsum("ijk,i,j,k->", cube, u, u, u)), u


def _reference_unlift_p3(T, m):
    X, gaps = np.zeros((m.d, T.shape[1])), np.zeros(T.shape[1])
    for n in range(T.shape[1]):
        cube = _reference_cube(T[:, n], m)
        lam, u = _reference_hopm(cube)
        X[:, n] = np.cbrt(lam) * u
        if lam == 0.0:
            gaps[n] = np.inf if np.any(cube) else 0.0
        else:
            rank1 = lam * np.einsum("i,j,k->ijk", u, u, u)
            gaps[n] = np.linalg.norm(cube - rank1) / abs(lam)
    return X, gaps


@pytest.mark.parametrize("p", [2, 3])
def test_fold_is_a_contiguous_symmetric_stack(p):
    rng = np.random.default_rng(30 + p)
    m = build_index_map(4, p)
    T = rng.standard_normal((m.D, 7))[:, 1:6]  # a strided block of a lift
    L = preimage._fold(T, m)
    assert L.shape == (5,) + (4,) * p and L.flags.c_contiguous
    if p == 2:  # a zero-filled two-way scatter
        ref = np.zeros((5, 4, 4))
        rows, cols = m.entries[:, 0], m.entries[:, 1]
        ref[:, rows, cols] = T.T
        ref[:, cols, rows] = T.T
    else:
        ref = np.stack([_reference_cube(T[:, n], m) for n in range(5)])
    np.testing.assert_array_equal(L, ref)
    for n in range(5):  # one column folds to its slice of the stack
        np.testing.assert_array_equal(preimage._fold(T[:, n], m), ref[n])


@pytest.mark.parametrize("block_columns", [None, 2],
                         ids=["one-block", "two-column-blocks"])
def test_unlift_p3_batched_hopm_matches_per_column(monkeypatch, block_columns):
    m = build_index_map(4, 3)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((4, 6))
    T_rank1, _ = tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)
    # the folded cube is the symmetric tensor of x
    np.testing.assert_allclose(
        preimage._fold(T_rank1[:, 0], m),
        np.einsum("i,j,k->ijk", xs[:, 0], xs[:, 0], xs[:, 0]), atol=1e-12)
    # Columns on which HOPM converges: on a generic cube it may wander for
    # all its steps, and where it ends is then decided by rounding.  An
    # orthogonally decomposable cube has several stable terms, and the
    # fiber start decides which one a column reaches.
    odeco = []
    for _ in range(3):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        cube = sum(w * np.einsum("i,j,k->ijk", q, q, q)
                   for w, q in zip((2.0, 1.6, -1.8), Q.T))
        odeco.append(cube[tuple(m.entries.T)])
    # every fiber C[:, i, i] of this cube is zero, so its start is zero
    zero_diagonal = np.zeros(m.D)
    zero_diagonal[m.entries.tolist().index([0, 1, 2])] = 1.0
    T = np.column_stack([
        T_rank1,                                  # stop in a few steps
        T_rank1[:, :3] + 1e-3 * rng.standard_normal((m.D, 3)),  # near
        *odeco,
        zero_diagonal,                            # zero pre-image, gap inf
        np.zeros(m.D),                            # zero step at once
    ])
    if block_columns:
        monkeypatch.setattr(preimage, "_BLOCK_FLOATS", block_columns * 4**3)
    X, gaps = unlift(T, m)
    X_ref, gaps_ref = _reference_unlift_p3(T, m)
    np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gaps, gaps_ref, rtol=1e-10, atol=1e-10)
    assert gaps[-2] == np.inf and np.all(X[:, -2] == 0.0)
    assert gaps[-1] == 0.0 and np.all(X[:, -1] == 0.0)
    X, gaps = unlift(T_rank1, m, xs, np.ones_like(xs, dtype=bool))
    np.testing.assert_allclose(X, xs, atol=1e-8)
    assert np.all(gaps < 1e-12)


def test_unlift_p2_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(13)
    d, N = 5, 23
    m = build_index_map(d, 2)
    xs = rng.standard_normal((d, N))
    T = tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)[0]
    T[:, ::4] = rng.standard_normal((m.D, 6))  # columns for the eigh path
    T[:, 7] = 0.0
    mask = rng.random(xs.shape) < 0.5
    X, gaps = unlift(T, m, xs, mask)
    # blocks of 5 columns, the last one of 3
    monkeypatch.setattr(preimage, "_BLOCK_FLOATS", 5 * d * d)
    stacks = _spy_eigh(monkeypatch)
    X_blocks, gaps_blocks = unlift(T, m, xs, mask)
    assert len(stacks) > 1
    np.testing.assert_array_equal(X_blocks, X)
    np.testing.assert_array_equal(gaps_blocks, gaps)


def test_p3_unlift_loads_no_numpy_random():
    # numpy imports numpy.random on first use; the pre-image draws nothing
    code = (
        "import sys\n"
        "from ladmc.preimage import unlift\n"
        "from ladmc.tensorize import build_index_map, tensorize_column\n"
        "m = build_index_map(4, 3)\n"
        "unlift(tensorize_column([1.0, -2.0, 0.5, 3.0], m)[:, None], m)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False", out.stdout


def _spy_eigh(monkeypatch):
    """The stacked matrices of every exact eigh in the p=2 pre-image."""
    stacks = []
    exact = preimage._eigh_p2

    def spied(S):
        stacks.append(S.copy())
        return exact(S)

    monkeypatch.setattr(preimage, "_eigh_p2", spied)
    return stacks


def test_unlift_p2_power_steps_match_eigh(monkeypatch):
    # Accepted pre-images agree with the eigh ones column by column to 1e-10
    # relative: an accepted Ritz residual of 1e-12 |lam| with a gap near
    # |lam| bounds the angle by about 1e-12.
    rng = np.random.default_rng(21)
    d, N = 9, 40
    m = build_index_map(d, 2)
    xs = rng.standard_normal((d, N))
    T = tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)[0]
    T += 1e-4 * np.linalg.norm(T, axis=0) * rng.standard_normal(T.shape)
    special = {}
    # the start, column 0, is 2 e_0: an exact eigenvector but not the
    # dominant one, so the residual test passes (it is 0) and the dominance
    # test must reject it (2 lam^2 = 8 < |S|_F^2 = 13)
    u1 = np.r_[0.0, np.ones(d - 1)] / np.sqrt(d - 1)
    second = 3.0 * np.outer(u1, u1)
    second[0, 0] = 2.0
    special["second"] = _lift_symmetric(second, m)
    # |lam_1| = |lam_2| exactly: eigh takes the first in ascending order
    special["tie"] = _lift_symmetric(np.diag(np.r_[1.0, -1, np.zeros(d - 2)]),
                                     m)
    special["zero lift"] = np.zeros(m.D)
    # a zero diagonal picks column 0, which is zero here
    zero_start = np.zeros((d, d))
    zero_start[1, 2] = zero_start[2, 1] = 1.0
    special["zero start"] = _lift_symmetric(zero_start, m)
    # a dominant negative eigenvalue passes both tests, which use |lam|
    # and lam^2; its pre-image is sqrt(|lam|) u like eigh's
    special["negative"] = -T[:, 1]
    must_fall_back = ["second", "tie", "zero lift", "zero start"]
    T = np.column_stack([T, *special.values()])
    X_obs = np.where(rng.random(T.shape[1]) < 0.5, -1.0, 1.0) * np.column_stack(
        [xs] + [np.zeros(d)] * len(special))
    mask = rng.random(X_obs.shape) < 0.5
    w, U = preimage._eigh_p2(preimage._fold(T, m))
    X_eigh = resolve_sign((np.sqrt(np.abs(w))[:, None] * U).T, X_obs, mask)
    stacks = _spy_eigh(monkeypatch)
    X, gaps = unlift(T, m, X_obs, mask)
    fell_back = [N + list(special).index(k) for k in must_fall_back]
    assert len(stacks) == 1
    np.testing.assert_array_equal(stacks[0],
                                  preimage._fold(T[:, fell_back], m))
    scale = np.maximum(np.linalg.norm(X_eigh, axis=0), 1e-300)
    assert np.all(np.linalg.norm(X - X_eigh, axis=0) <= 1e-10 * scale)
    np.testing.assert_array_equal(X[:, fell_back], X_eigh[:, fell_back])
    np.testing.assert_allclose(X[:, N], np.sqrt(3.0) * u1, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(X[:, N + 1], np.eye(d)[1])
    assert np.all(X[:, N + 2] == 0.0)
    # the gap is |S - lam u u^T|_F / |lam|: 2 / 3, 1, 0 and 1
    np.testing.assert_allclose(gaps[fell_back], [2 / 3, 1, 0, 1], rtol=1e-14)
    # signs follow the observed entries
    flipped = unlift(T, m)[0]
    assert np.any(np.sign(flipped) != np.sign(X))


def test_unlift_shape_errors():
    m = build_index_map(3, 2)
    with pytest.raises(ValueError):
        unlift(np.zeros(m.D), m)
    with pytest.raises(ValueError):
        unlift(np.zeros((m.D + 1, 2)), m)


def test_resolve_sign():
    cand = np.array([1.0, -2.0, 3.0])
    mask = np.array([False, False, True])
    # observed x3 = -3: candidate must flip
    np.testing.assert_allclose(
        resolve_sign(cand, np.array([0.0, 0.0, -3.0]), mask), -cand
    )
    # observed x1 = 1 (mask on index 0): sign already matches
    mask0 = np.array([True, False, False])
    np.testing.assert_allclose(
        resolve_sign(cand, np.array([1.0, 0.0, 0.0]), mask0), cand
    )
    # no observations: convention sign kept
    np.testing.assert_allclose(
        resolve_sign(cand, np.zeros(3), np.zeros(3, dtype=bool)), cand
    )
    # observed entry below the sign tolerance: kept
    np.testing.assert_allclose(
        resolve_sign(cand, np.array([0.0, 0.0, 1e-12]), mask), cand
    )


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
def test_roundtrip_p2(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d)
    m = build_index_map(d, 2)
    mask = np.zeros(d, dtype=bool)
    mask[int(np.argmax(np.abs(x)))] = True
    got = preimage_column(tensorize_column(x, m), m, x, mask)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-10


def test_roundtrip_p3():
    m = build_index_map(4, 3)
    got = preimage_column(tensorize_column([2.0, 0, 0, 0], m), m)
    np.testing.assert_allclose(got, [2, 0, 0, 0], atol=1e-10)
    rng = np.random.default_rng(2)
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal(4)
        mask = np.zeros(4, dtype=bool)
        mask[int(np.argmax(np.abs(x)))] = True
        got = preimage_column(tensorize_column(x, m), m, x, mask)
        assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-8


def test_preimage_perturbation_stability():
    rng = np.random.default_rng(3)
    m = build_index_map(6, 2)
    x = rng.standard_normal(6)
    t = tensorize_column(x, m)
    noise = rng.standard_normal(m.D)
    t_noisy = t + 1e-8 * np.linalg.norm(t) * noise / np.linalg.norm(noise)
    mask = np.ones(6, dtype=bool)
    got = preimage_column(t_noisy, m, x, mask)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-6


def test_preimage_scale_equivariance():
    rng = np.random.default_rng(4)
    m = build_index_map(5, 2)
    x = rng.standard_normal(5)
    t = tensorize_column(x, m)
    for c in (2.0, 0.3, -1.7):
        a = preimage_column(c**2 * t, m)
        b = preimage_column(t, m)
        np.testing.assert_allclose(a, abs(c) * b, atol=1e-9)


def test_preimage_zero_lift():
    m = build_index_map(4, 2)
    np.testing.assert_array_equal(preimage_column(np.zeros(m.D), m),
                                  np.zeros(4))


def test_preimage_unsupported_order():
    m = build_index_map(3, 4)
    with pytest.raises(ValueError):
        preimage_column(np.zeros(m.D), m)


def test_rank1_gap():
    m = build_index_map(4, 2)
    x = np.array([1.0, 2.0, -1.0, 0.5])
    assert rank1_gap(tensorize_column(x, m), m) < 1e-12
    # mixture of two rank-1 lifts has a visible gap
    y = np.array([0.0, 1.0, 1.0, -2.0])
    t = tensorize_column(x, m) + tensorize_column(y, m)
    assert rank1_gap(t, m) > 0.1
    m3 = build_index_map(3, 3)
    assert rank1_gap(tensorize_column([1.0, -1.0, 2.0], m3), m3) < 1e-12
