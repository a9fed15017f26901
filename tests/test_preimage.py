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


def _reference_eigenpair(S):
    """The dominant eigenpair of one symmetric matrix by eigh: the first in
    ascending order with the largest |eigenvalue|, its first entry above
    1e-12 in magnitude positive."""
    w, V = np.linalg.eigh(S)
    i = int(np.argmax(np.abs(w)))
    u = V[:, i].copy()
    nz = np.nonzero(np.abs(u) > 1e-12)[0]
    if nz.size and u[nz[0]] < 0:
        u = -u
    return float(w[i]), u


def _reference_unlift_p2(T, m, X_obs, mask):
    """Column-by-column unlift: eigh for the pre-image and the gap."""
    d, N = m.d, T.shape[1]
    X, gaps = np.zeros((d, N)), np.zeros(N)
    for n in range(N):
        S = np.zeros((d, d))
        S[m.entries[:, 0], m.entries[:, 1]] = T[:, n]
        S[m.entries[:, 1], m.entries[:, 0]] = T[:, n]
        lam, u = _reference_eigenpair(S)
        x = np.sqrt(abs(lam)) * u
        idx = np.nonzero(mask[:, n])[0]
        if idx.size:
            best = idx[np.argmax(np.abs(X_obs[idx, n]))]
            tol = SIGN_TOL_SCALE * max(np.max(np.abs(x)), 1e-300)
            if abs(X_obs[best, n]) > tol and X_obs[best, n] * x[best] < 0:
                x = -x
        X[:, n] = x
        if lam != 0.0:
            gaps[n] = np.linalg.norm(S - lam * np.outer(u, u)) / abs(lam)
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


def _unfolding_gram(cube):
    """C C^T for the mode-1 unfolding C (d x d^2) of a cube."""
    C = cube.reshape(cube.shape[0], -1)
    return C @ C.T


def _reference_unlift_p3(T, m):
    """Column-by-column unlift: u from eigh of the cube's unfolding Gram,
    the pre-image cbrt(L(u, u, u)) u, and the gap."""
    X, gaps = np.zeros((m.d, T.shape[1])), np.zeros(T.shape[1])
    for n in range(T.shape[1]):
        cube = _reference_cube(T[:, n], m)
        _, u = _reference_eigenpair(_unfolding_gram(cube))
        lam = float(np.einsum("ijk,i,j,k->", cube, u, u, u))
        X[:, n] = np.cbrt(lam) * u
        if lam == 0.0:
            gaps[n] = np.inf if np.any(cube) else 0.0
        else:
            rank1 = lam * np.einsum("i,j,k->ijk", u, u, u)
            gaps[n] = np.linalg.norm(cube - rank1) / abs(lam)
    return X, gaps


def _odeco_cube(Q, weights=(2.0, 1.6, -1.8)):
    """sum_k w_k q_k^(x)3 over the first columns q_k of the orthogonal Q."""
    return sum(w * np.einsum("i,j,k->ijk", q, q, q)
               for w, q in zip(weights, Q.T))


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


def _spy_pairs(monkeypatch):
    """Every stack that ``_power_pairs`` settles, with the eigenvectors it
    returns, and every stack that goes to the exact eigh."""
    settled, exact = [], _spy_eigh(monkeypatch)
    power = preimage._power_pairs

    def spied(S, U):
        lam, U = power(S, U)
        settled.append((S.copy(), U.copy()))
        return lam, U

    monkeypatch.setattr(preimage, "_power_pairs", spied)
    return settled, exact


@pytest.mark.parametrize("block_columns", [None, 1, 2],
                         ids=["one-block", "one-column-blocks",
                              "two-column-blocks"])
def test_unlift_p3_matches_unfolding_gram_eigh(monkeypatch, block_columns):
    m = build_index_map(4, 3)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((4, 6))
    T_rank1, _ = tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)
    # the folded cube is the symmetric tensor of x
    np.testing.assert_allclose(
        preimage._fold(T_rank1[:, 0], m),
        np.einsum("i,j,k->ijk", xs[:, 0], xs[:, 0], xs[:, 0]), atol=1e-12)
    # an orthogonally decomposable cube: its Gram's top eigenvalue 4 is
    # too close to the next, 3.24, for the power steps to settle it
    odeco = [_odeco_cube(np.linalg.qr(rng.standard_normal((4, 4)))[0])
             [tuple(m.entries.T)] for _ in range(3)]
    # every fiber C[:, i, i] of this cube is zero; its Gram is 2 diag(1, 1,
    # 1, 0), whose tied top eigenvector e_0 gives lam = C(e_0, e_0, e_0) = 0
    zero_diagonal = np.zeros(m.D)
    zero_diagonal[m.entries.tolist().index([0, 1, 2])] = 1.0
    T = np.column_stack([
        T_rank1,                                  # settled in a few steps
        T_rank1[:, :3] + 1e-3 * rng.standard_normal((m.D, 3)),  # near
        *odeco,
        zero_diagonal,                            # zero pre-image, gap inf
        np.zeros(m.D),                            # zero pre-image, gap 0
    ])
    X_one, gaps_one = unlift(T, m)
    if block_columns:
        monkeypatch.setattr(preimage, "_BLOCK_FLOATS", block_columns * 4**3)
    settled, exact = _spy_pairs(monkeypatch)
    X, gaps = unlift(T, m)
    # the column blocks change no bit of the result
    np.testing.assert_array_equal(X, X_one)
    np.testing.assert_array_equal(gaps, gaps_one)
    X_ref, gaps_ref = _reference_unlift_p3(T, m)
    np.testing.assert_allclose(X, X_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gaps, gaps_ref, rtol=1e-10, atol=1e-10)
    assert gaps[-2] == np.inf and np.all(X[:, -2] == 0.0)
    assert gaps[-1] == 0.0 and np.all(X[:, -1] == 0.0)
    # every column's u passes the power steps' acceptance test on its
    # Gram, or comes from the exact eigh
    S = np.concatenate([s for s, _ in settled])
    U = np.concatenate([u for _, u in settled])
    np.testing.assert_allclose(
        S, np.stack([_unfolding_gram(preimage._fold(t, m)) for t in T.T]),
        rtol=1e-14, atol=0)
    SU = np.matmul(S, U[..., None])[..., 0]
    lam = np.einsum("ni,ni->n", U, SU)
    accepted = ((np.linalg.norm(SU - lam[:, None] * U, axis=1)
                 <= preimage._POWER_TOL * np.abs(lam))
                & (2.0 * lam * lam > np.einsum("nij,nij->n", S, S)))
    from_eigh = np.array([any(np.array_equal(s, e) for e in np.vstack(exact))
                          for s in S])
    assert np.all(accepted | from_eigh)
    assert np.all(accepted[:9]) and np.all(from_eigh[9:])
    X, gaps = unlift(T_rank1, m, xs, np.ones_like(xs, dtype=bool))
    np.testing.assert_allclose(X, xs, atol=1e-8)
    assert np.all(gaps < 1e-12)


def test_unlift_p3_odeco_cube_returns_its_largest_term(monkeypatch):
    # The Gram of sum_k w_k q_k^(x)3 is sum_k w_k^2 q_k q_k^T, so its top
    # eigenvector is q_1 whatever the start, and L(q_1, q_1, q_1) = 2.
    # A start at q_2 or q_3 is an exact but not dominant eigenvector: the
    # dominance test sends it to eigh.
    m = build_index_map(4, 3)
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))[0]
    t = _odeco_cube(Q)[tuple(m.entries.T)]
    starts = [Q[:, 0], -Q[:, 0], Q[:, 1], Q[:, 2], Q[:, 3],
              *np.eye(4), np.zeros(4), np.ones(4) / 2]
    T = np.repeat(t[:, None], len(starts), axis=1)
    monkeypatch.setattr(preimage, "_fiber_start",
                        lambda S: np.array(starts, dtype=float))
    X, gaps = unlift(T, m)
    expected = np.tile(np.cbrt(2.0) * Q[:, :1], len(starts))
    np.testing.assert_allclose(X, expected, rtol=0, atol=1e-12)
    # |L - 2 q_1^(x)3|_F / 2 = |(1.6, -1.8)| / 2
    np.testing.assert_allclose(gaps, np.hypot(1.6, 1.8) / 2, rtol=1e-12)


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
    """The stacked matrices of every exact eigh in the pre-image."""
    stacks = []
    exact = preimage._eigh_pairs

    def spied(S):
        stacks.append(S.copy())
        return exact(S)

    monkeypatch.setattr(preimage, "_eigh_pairs", spied)
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
    w, U = preimage._eigh_pairs(preimage._fold(T, m))
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


def test_unlift_order_one_returns_its_input():
    # the identity lift: every column is its own pre-image, gap 0, and the
    # observed entries flip no sign
    rng = np.random.default_rng(6)
    T = rng.standard_normal((4, 9))
    m = build_index_map(4, 1)
    X, gaps = unlift(T, m, -T, np.ones_like(T, dtype=bool))
    np.testing.assert_array_equal(X, T)
    assert not np.shares_memory(X, T)
    np.testing.assert_array_equal(gaps, np.zeros(9))


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
