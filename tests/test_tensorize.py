import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladmc.tensorize import (
    augment_ones,
    build_index_map,
    tensor_dimension,
    tensorize_column,
    tensorize_mask,
    tensorize_matrix,
)


def test_tensor_dimension_values():
    assert tensor_dimension(3, 2) == 6
    assert tensor_dimension(15, 2) == 120
    assert tensor_dimension(8, 3) == 120


def test_tensor_dimension_validation():
    with pytest.raises(ValueError):
        tensor_dimension(0, 2)
    with pytest.raises(ValueError):
        tensor_dimension(3, 1)
    with pytest.raises(OverflowError):
        tensor_dimension(10**6, 4)


def test_index_map_entries():
    m = build_index_map(3, 2)
    assert m.entries.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]
    m = build_index_map(2, 2)
    assert m.entries.tolist() == [[0, 0], [0, 1], [1, 1]]
    m = build_index_map(2, 3)
    assert m.entries.tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]


def test_index_map_shared_and_read_only():
    m = build_index_map(4, 2)
    assert build_index_map(4, 2) is m
    with pytest.raises(ValueError):
        m.entries[0, 0] = 3


@pytest.mark.parametrize("d,p", [(3, 2), (5, 2), (4, 3), (2, 4)])
def test_index_map_roundtrip(d, p):
    m = build_index_map(d, p)
    assert m.D == tensor_dimension(d, p)
    # coordinate q holds the q-th sorted multi-index in lexicographic
    # order: every sorted multi-index once, so the map is a bijection
    sorted_multis = {tuple(sorted(t))
                     for t in itertools.product(range(d), repeat=p)}
    assert list(map(tuple, m.entries.tolist())) == sorted(sorted_multis)


def test_tensorize_column_values():
    m = build_index_map(3, 2)
    np.testing.assert_allclose(tensorize_column([1, 2, 3], m), [1, 2, 3, 4, 6, 9])
    np.testing.assert_allclose(
        tensorize_column([1, -2, 3], m), [1, -2, 3, 4, -6, 9]
    )
    np.testing.assert_allclose(
        tensorize_column(2 * np.array([1.0, 2, 3]), m),
        4 * np.array([1, 2, 3, 4, 6, 9]),
    )


def test_tensorize_column_dimension_mismatch():
    m = build_index_map(3, 2)
    with pytest.raises(ValueError):
        tensorize_column([1.0, 2.0], m)


def test_tensorize_mask_example_patterns():
    # the three two-of-three patterns and their lifted images
    m = build_index_map(3, 2)
    cases = [
        ([1, 1, 0], [1, 1, 0, 1, 0, 0]),
        ([1, 0, 1], [1, 0, 1, 0, 0, 1]),
        ([0, 1, 1], [0, 0, 0, 1, 1, 1]),
    ]
    for omega, expect in cases:
        got = tensorize_mask(np.array(omega, dtype=bool), m)
        assert got.astype(int).tolist() == expect
    # a d x n matrix of patterns lifts column by column, none to D x 0
    Omega = np.array([omega for omega, _ in cases], dtype=bool).T
    got = tensorize_mask(Omega, m)
    assert got.T.astype(int).tolist() == [expect for _, expect in cases]
    assert tensorize_mask(np.zeros((3, 0), dtype=bool), m).shape == (6, 0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 7),
    p=st.integers(2, 3),
    data=st.data(),
)
def test_mask_count_identity(d, p, data):
    m = build_index_map(d, p)
    bits = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    omega = np.array(bits, dtype=bool)
    lifted = tensorize_mask(omega, m)
    k = int(omega.sum())
    assert int(lifted.sum()) == math.comb(k + p - 1, p)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 6),
    c=st.floats(-4, 4, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
    data=st.data(),
)
def test_homogeneity(d, c, data):
    m = build_index_map(d, 2)
    x = np.array(
        data.draw(st.lists(st.floats(-5, 5, width=32), min_size=d, max_size=d))
    )
    lhs = tensorize_column(c * x, m)
    rhs = c**2 * tensorize_column(x, m)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_tensorize_matrix_basic():
    m = build_index_map(3, 2)
    X = np.array([[1.0], [2.0], [3.0]])
    T, Tmask = tensorize_matrix(X, np.ones_like(X, dtype=bool), m)
    np.testing.assert_allclose(T[:, 0], [1, 2, 3, 4, 6, 9])
    assert Tmask.all()


def test_tensorize_matrix_partial_column():
    m = build_index_map(3, 2)
    X = np.array([[1.0], [99.0], [3.0]])  # middle entry is a placeholder
    mask = np.array([[True], [False], [True]])
    T, Tmask = tensorize_matrix(X, mask, m)
    assert Tmask[:, 0].astype(int).tolist() == [1, 0, 1, 0, 0, 1]
    np.testing.assert_allclose(T[Tmask[:, 0], 0], [1, 3, 9])
    assert np.all(T[~Tmask[:, 0], 0] == 0.0)


def test_tensorize_matrix_empty():
    m = build_index_map(3, 2)
    T, Tmask = tensorize_matrix(np.empty((3, 0)), np.empty((3, 0), dtype=bool), m)
    assert T.shape == (6, 0)
    assert Tmask.shape == (6, 0)


def test_tensorize_matrix_shape_mismatch():
    m = build_index_map(3, 2)
    with pytest.raises(ValueError):
        tensorize_matrix(np.zeros((3, 2)), np.zeros((3, 3), dtype=bool), m)


def test_mask_value_consistency_random():
    rng = np.random.default_rng(0)
    m = build_index_map(6, 2)
    X = rng.standard_normal((6, 10))
    mask = rng.random((6, 10)) < 0.5
    T, Tmask = tensorize_matrix(X, mask, m)
    for q in range(m.D):
        factors_obs = mask[m.entries[q]].all(axis=0)
        np.testing.assert_array_equal(Tmask[q], factors_obs)


def test_span_property_random_subspace():
    # lifted points of an r-dim subspace span a C(r+p-1, p)-dim space
    rng = np.random.default_rng(1)
    d, r, p = 8, 3, 2
    expected = math.comb(r + p - 1, p)
    U = rng.standard_normal((d, r))
    X = U @ rng.standard_normal((r, 3 * expected))
    m = build_index_map(d, p)
    T, _ = tensorize_matrix(X, np.ones_like(X, dtype=bool), m)
    s = np.linalg.svd(T, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == expected


def test_augment_ones():
    X = np.array([[2.0, 3.0]])
    mask = np.array([[True, False]])
    Xa, maska = augment_ones(X, mask)
    np.testing.assert_allclose(Xa, [[1.0, 1.0], [2.0, 3.0]])
    assert maska.tolist() == [[True, True], [True, False]]
