import itertools
import math

import numpy as np
import pytest

from ladmc.synth import gen_all_patterns, gen_mask_uniform, gen_uos
from ladmc.tensorize import build_index_map, tensorize_matrix


def test_gen_uos_columns_in_labeled_subspace():
    X, model = gen_uos(15, 10, 2, 500, seed=0)
    assert X.shape == (15, 500)
    for k in range(10):
        U, _ = np.linalg.qr(model.bases[k])
        cols = X[:, model.labels == k]
        resid = cols - U @ (U.T @ cols)
        assert np.max(np.abs(resid)) < 1e-12


def test_gen_uos_round_robin_labels():
    _, model = gen_uos(6, 4, 1, 10, seed=1)
    np.testing.assert_array_equal(model.labels, np.arange(10) % 4)
    counts = np.bincount(model.labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_gen_uos_ambient_rank():
    X, _ = gen_uos(15, 10, 2, 500, seed=0)
    s = np.linalg.svd(X, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 15  # min(K*r, d)


def test_gen_uos_tensorized_rank():
    X, _ = gen_uos(15, 10, 2, 500, seed=0)
    imap = build_index_map(15, 2)
    T, _ = tensorize_matrix(X, np.ones_like(X, dtype=bool), imap)
    s = np.linalg.svd(T, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 30


def test_gen_uos_validation():
    with pytest.raises(ValueError):
        gen_uos(3, 1, 5, 10)
    with pytest.raises(ValueError):
        gen_uos(3, 1, 1, 0)


def test_gen_uos_determinism_and_noise():
    X1, _ = gen_uos(5, 2, 1, 20, seed=9)
    X2, _ = gen_uos(5, 2, 1, 20, seed=9)
    np.testing.assert_array_equal(X1, X2)
    X3, _ = gen_uos(5, 2, 1, 20, seed=10)
    assert not np.array_equal(X1, X3)
    Xn, _ = gen_uos(5, 2, 1, 20, seed=9, noise_std=0.1)
    assert not np.array_equal(X1, Xn)
    assert np.linalg.norm(Xn - X1) < 10


def test_gen_single_subspace():
    # K=1: every column lies in one r-dimensional subspace
    X, _ = gen_uos(25, 1, 1, 500, seed=0)
    s = np.linalg.svd(X, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 1
    Xf, _ = gen_uos(5, 1, 5, 50, seed=0)
    assert np.linalg.matrix_rank(Xf) == 5
    X3, _ = gen_uos(8, 1, 3, 100, seed=1)
    imap = build_index_map(8, 2)
    T, _ = tensorize_matrix(X3, np.ones_like(X3, dtype=bool), imap)
    sT = np.linalg.svd(T, compute_uv=False)
    assert np.sum(sT > 1e-8 * sT[0]) == 6  # C(r+1, 2) for r=3


def test_gen_mask_uniform_column_sums():
    mask = gen_mask_uniform(7, 100, 3, seed=0)
    np.testing.assert_array_equal(mask.sum(axis=0), np.full(100, 3))
    assert gen_mask_uniform(4, 10, 4, seed=0).all()
    with pytest.raises(ValueError):
        gen_mask_uniform(4, 10, 5)


def test_gen_mask_uniform_row_marginal():
    d, N, m = 6, 100_000, 2
    mask = gen_mask_uniform(d, N, m, seed=0)
    marginal = mask.mean(axis=1)
    np.testing.assert_allclose(marginal, m / d, rtol=0.01)


def test_gen_mask_uniform_determinism():
    a = gen_mask_uniform(6, 50, 3, seed=1)
    b = gen_mask_uniform(6, 50, 3, seed=1)
    c = gen_mask_uniform(6, 50, 3, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gen_all_patterns_basic():
    P = gen_all_patterns(3, 2)
    np.testing.assert_array_equal(
        P.astype(int), [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    )
    assert gen_all_patterns(6, 4).shape == (6, 15)
    P2 = gen_all_patterns(4, 4, copies=2)
    assert P2.shape == (4, 2)
    assert P2.all()


def test_gen_all_patterns_multiplicity():
    d, m, copies = 5, 2, 3
    P = gen_all_patterns(d, m, copies)
    assert P.shape == (d, math.comb(d, m) * copies)
    seen = {}
    for j in range(P.shape[1]):
        seen.setdefault(P[:, j].tobytes(), 0)
        seen[P[:, j].tobytes()] += 1
    assert len(seen) == math.comb(d, m)
    assert all(v == copies for v in seen.values())
    # lexicographic order over row subsets
    subsets = [tuple(np.nonzero(P[:, j * copies])[0])
               for j in range(math.comb(d, m))]
    assert subsets == sorted(itertools.combinations(range(d), m))


def test_gen_all_patterns_limits():
    with pytest.raises(ValueError):
        gen_all_patterns(4, 0)
    with pytest.raises(OverflowError):
        gen_all_patterns(40, 20)
