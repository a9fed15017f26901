import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladmc import preimage
from ladmc.preimage import (
    SIGN_TOL_SCALE,
    assemble_symmetric,
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
    """Column-by-column unlift: eigh for the pre-image, eigvalsh for the gap."""
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
        s = np.sort(np.abs(np.linalg.eigvalsh(S)))
        gaps[n] = 0.0 if s[-1] == 0.0 else s[-2] / s[-1]
    return X, gaps


def test_assemble_symmetric_values():
    m = build_index_map(3, 2)
    S = assemble_symmetric([1, -2, 3, 4, -6, 9], m)
    np.testing.assert_allclose(S, [[1, -2, 3], [-2, 4, -6], [3, -6, 9]])
    assert np.array_equal(S, S.T)


def test_assemble_symmetric_is_outer_product():
    rng = np.random.default_rng(0)
    m = build_index_map(5, 2)
    x = rng.standard_normal(5)
    S = assemble_symmetric(tensorize_column(x, m), m)
    np.testing.assert_allclose(S, np.outer(x, x), atol=1e-12)


def test_assemble_symmetric_basis_vector():
    m = build_index_map(3, 2)
    t = np.zeros(6)
    t[0] = 1.0  # the x1^2 coordinate
    S = assemble_symmetric(t, m)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    np.testing.assert_array_equal(S, expected)


def test_assemble_symmetric_requires_p2():
    m = build_index_map(3, 3)
    with pytest.raises(ValueError):
        assemble_symmetric(np.zeros(m.D), m)
    m2 = build_index_map(3, 2)
    with pytest.raises(ValueError):
        assemble_symmetric(np.zeros(5), m2)


def test_assemble_symmetric_stack():
    rng = np.random.default_rng(5)
    m = build_index_map(4, 2)
    T = rng.standard_normal((m.D, 3))
    S = assemble_symmetric(T, m)
    assert S.shape == (3, 4, 4)
    for n in range(3):
        np.testing.assert_array_equal(S[n], assemble_symmetric(T[:, n], m))


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


def test_unlift_matches_column_reference():
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
    X, gaps = unlift(T, m, X_obs, mask)
    X_ref, gaps_ref = _reference_unlift_p2(T, m, X_obs, mask)
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_allclose(gaps, gaps_ref, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(X[:, 10], convention)
    # some columns were flipped to match their observed entries
    assert np.any(X != unlift(T, m)[0])


def test_unlift_p3_one_hopm_per_column(monkeypatch):
    m = build_index_map(4, 3)
    rng = np.random.default_rng(12)
    xs = rng.standard_normal((4, 6))
    T, _ = tensorize_matrix(xs, np.ones_like(xs, dtype=bool), m)
    calls = []
    hopm = preimage._hopm

    def counting(cube):
        calls.append(cube)
        return hopm(cube)

    monkeypatch.setattr(preimage, "_hopm", counting)
    X, gaps = unlift(T, m, xs, np.ones_like(xs, dtype=bool))
    assert len(calls) == 6
    np.testing.assert_allclose(X, xs, atol=1e-8)
    assert np.all(gaps < 1e-5)
    # the gathered cube is the symmetric tensor of x
    np.testing.assert_allclose(
        calls[0], np.einsum("i,j,k->ijk", xs[:, 0], xs[:, 0], xs[:, 0]),
        atol=1e-12)


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
    assert rank1_gap(tensorize_column([1.0, -1.0, 2.0], m3), m3) < 1e-5
