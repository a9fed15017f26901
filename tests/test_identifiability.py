import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ladmc import identifiability
from ladmc.identifiability import (
    ConstraintPatterns,
    VarietyCoefficients,
    build_A,
    build_constraint_patterns,
    check_identifiable_algebraic,
    check_identifiable_combinatorial,
    dedupe_patterns,
    evaluate_variety,
    minimal_samples,
    numerical_rank,
    spanning_set_uos,
    uos_tensor_rank,
)
from ladmc.synth import gen_all_patterns
from ladmc.tensorize import build_index_map, tensorize_mask


def test_uos_tensor_rank_values():
    assert uos_tensor_rank(2, 1, 3, 2) == 2
    assert uos_tensor_rank(10, 2, 15, 2) == 30
    assert uos_tensor_rank(2, 2, 8, 3) == 8
    # saturates at the lifted dimension
    assert uos_tensor_rank(50, 2, 4, 2) == 10
    with pytest.raises(ValueError):
        uos_tensor_rank(1, 5, 3, 2)


def test_uos_tensor_rank_order_one():
    # order 1 is the raw span: K r dimensions, at most d
    for K in range(1, 6):
        for r in range(1, 5):
            for d in range(r, 10):
                assert uos_tensor_rank(K, r, d, 1) == min(K * r, d)


def test_minimal_samples_values():
    assert minimal_samples(30, 2) == 8
    assert minimal_samples(2, 2) == 2
    assert minimal_samples(8, 3) == 3
    assert minimal_samples(1, 2) == 1
    with pytest.raises(ValueError):
        minimal_samples(0, 2)


def test_minimal_samples_rejects_order_below_one():
    # in a subprocess with a timeout: at order 0 the search used to loop
    # forever, since C(l - 1, 0) = 1 for every l
    code = (
        "from ladmc.identifiability import minimal_samples\n"
        "for p in (0, -1):\n"
        "    try:\n"
        "        minimal_samples(2, p)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == ("order must be >= 1, got 0\n"
                          "order must be >= 1, got -1\n"), out.stderr


def test_minimal_samples_is_minimal():
    for R in range(1, 40):
        for p in (2, 3):
            ell = minimal_samples(R, p)
            assert math.comb(ell + p - 1, p) >= R
            if ell > 1:
                assert math.comb(ell + p - 2, p) < R


def test_spanning_set_single_vector():
    m = build_index_map(2, 2)
    S = spanning_set_uos([np.array([[1.0], [2.0]])], m)
    np.testing.assert_allclose(S[:, 0], [2.0, 4.0, 8.0])


def test_spanning_set_rank_generic():
    rng = np.random.default_rng(0)
    m = build_index_map(10, 2)
    bases = [rng.standard_normal((10, 2)) for _ in range(3)]
    S = spanning_set_uos(bases, m)
    assert S.shape == (m.D, 9)
    assert numerical_rank(S) == uos_tensor_rank(3, 2, 10, 2) == 9


def test_spanning_set_degenerate_duplicate_subspace():
    rng = np.random.default_rng(1)
    m = build_index_map(10, 2)
    U = rng.standard_normal((10, 2))
    S = spanning_set_uos([U, U], m)
    assert numerical_rank(S) == 3


def test_spanning_set_matches_rank_formula():
    rng = np.random.default_rng(2)
    for K, r, d, p in [(2, 1, 5, 2), (2, 2, 6, 2), (1, 2, 4, 3), (2, 2, 5, 3)]:
        m = build_index_map(d, p)
        bases = [rng.standard_normal((d, r)) for _ in range(K)]
        S = spanning_set_uos(bases, m)
        assert numerical_rank(S) == uos_tensor_rank(K, r, d, p)


def test_spanning_set_dimension_mismatch():
    m = build_index_map(4, 2)
    with pytest.raises(ValueError):
        spanning_set_uos([np.zeros((3, 1))], m)


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.empty((3, 0))) == 0
    assert numerical_rank(np.diag([1.0, 1e-3, 1e-12])) == 2


def test_numerical_rank_wide_equals_transpose():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 50))
    assert numerical_rank(M) == numerical_rank(M.T) == 4


def test_dedupe_patterns_warns():
    P = np.array([[1, 1, 0], [0, 0, 1]], dtype=bool)
    P = np.column_stack([P[:, 0], P[:, 0], P[:, 2]])
    with pytest.warns(UserWarning, match="dropped 1 duplicate"):
        out = dedupe_patterns(P)
    np.testing.assert_array_equal(out, P[:, [0, 2]])


def test_build_constraint_patterns_all_ones():
    U = np.ones((6, 1), dtype=bool)
    cp = build_constraint_patterns(U, 2)
    assert cp.columns.shape == (6, 4)
    expected = [{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5}]
    got = [set(np.nonzero(cp.columns[:, j])[0]) for j in range(4)]
    assert got == expected  # in the order of the extra row
    # every constraint column has exactly R+1 rows
    assert all(c.sum() == 3 for c in cp.columns.T)


def test_build_constraint_patterns_small_columns_dropped():
    U = np.zeros((6, 1), dtype=bool)
    U[:2, 0] = True  # popcount == R: contributes nothing
    cp = build_constraint_patterns(U, 2)
    assert cp.columns.shape[1] == 0


def test_constraint_patterns_three_of_three():
    # lifted two-of-three patterns have popcount 3 = R+1: each is its own
    # single constraint column
    m = build_index_map(3, 2)
    Omega = gen_all_patterns(3, 2)
    U = np.column_stack([tensorize_mask(Omega[:, i], m) for i in range(3)])
    cp = build_constraint_patterns(U, 2)
    assert cp.columns.shape[1] == 3
    np.testing.assert_array_equal(cp.columns, U)


def test_build_A_kernel_example():
    cp = ConstraintPatterns(
        D=3, R=1,
        columns=np.array([[True], [True], [False]]),
    )
    A = build_A(np.ones((3, 1)), cp)
    np.testing.assert_allclose(A[:, 0], [1, -1, 0] / np.sqrt(2), atol=1e-12)


def test_build_A_orthogonality():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((10, 3))
    cols = np.zeros((10, 5), dtype=bool)
    for j in range(5):
        cols[rng.choice(10, 4, replace=False), j] = True
    cp = ConstraintPatterns(D=10, R=3, columns=cols)
    A = build_A(B, cp)
    assert A.shape == (10, 5)
    assert np.max(np.abs(A.T @ B)) < 1e-10


def test_build_A_spans_orthogonal_complement():
    # with all patterns of a UoS basis, A spans exactly the complement of
    # the lifted span
    rng = np.random.default_rng(4)
    d, K, r, p = 5, 2, 1, 2
    m = build_index_map(d, p)
    bases = [rng.standard_normal((d, r)) for _ in range(K)]
    B = spanning_set_uos(bases, m)
    R = uos_tensor_rank(K, r, d, p)
    Omega = gen_all_patterns(d, 4)
    U = np.column_stack(
        [tensorize_mask(Omega[:, i], m) for i in range(Omega.shape[1])]
    )
    cp = build_constraint_patterns(U, R)
    A = build_A(B, cp)
    assert numerical_rank(A) == m.D - R
    assert np.max(np.abs(A.T @ B)) < 1e-8


def test_build_A_validation():
    cp = ConstraintPatterns(D=4, R=2, columns=np.zeros((4, 0), dtype=bool))
    with pytest.raises(ValueError):
        build_A(np.ones((4, 2)), cp)  # rank-deficient basis
    with pytest.raises(ValueError):
        build_A(np.ones((3, 2)), cp)  # wrong shape


def _expand_by_loop(Upsilon, R):
    """Reference expansion: first occurrences of the patterns, then one
    column per (pattern, kappa) built row by row."""
    seen, keep = set(), []
    for i in range(Upsilon.shape[1]):
        key = Upsilon[:, i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    U = Upsilon[:, keep]
    cols = []
    for i in range(U.shape[1]):
        k = np.nonzero(U[:, i])[0]
        for kappa in range(1, k.size - R + 1):
            col = np.zeros(U.shape[0], dtype=bool)
            col[k[:R]] = True
            col[k[R + kappa - 1]] = True
            cols.append(col)
    return np.column_stack(cols), Upsilon.shape[1] - len(keep)


def test_constraint_expansion_matches_loop_on_mixed_patterns():
    rng = np.random.default_rng(9)
    d, R = 6, 5
    imap = build_index_map(d, 2)
    Omega = np.zeros((d, 12), dtype=bool)
    for i, m in enumerate(rng.choice([2, 3, 4, 5, 6], size=12)):
        Omega[rng.choice(d, m, replace=False), i] = True
    Omega = np.column_stack([Omega, Omega[:, [3, 0, 3]]])
    U = np.column_stack([tensorize_mask(Omega[:, i], imap)
                         for i in range(Omega.shape[1])])
    cols, dupes = _expand_by_loop(U, R)
    assert dupes >= 2
    with pytest.warns(UserWarning) as record:
        cp = build_constraint_patterns(U, R)
    assert [str(w.message) for w in record] == [
        f"dropped {dupes} duplicate sampling patterns"]
    # same columns in the same order: pattern-major, extra rows ascending
    np.testing.assert_array_equal(cp.columns, cols)


def _build_A_by_svd(B, cp):
    """Reference kernel matrix: one SVD per constraint block, in order."""
    cols, skipped = [], 0
    for j in range(cp.columns.shape[1]):
        rows = np.nonzero(cp.columns[:, j])[0]
        a = identifiability._kernel_vector_svd(B[rows])
        if a is None:
            skipped += 1
            continue
        full = np.zeros(cp.D)
        full[rows] = a
        cols.append(full)
    return np.column_stack(cols), skipped


def _count_svd_calls(monkeypatch):
    calls = []
    reference = identifiability._kernel_vector_svd

    def counted(block):
        calls.append(block.shape)
        return reference(block)

    monkeypatch.setattr(identifiability, "_kernel_vector_svd", counted)
    return calls


def test_build_A_matches_svd_reference_on_mixed_patterns(monkeypatch):
    # patterns with 3..6 of 6 rows lift to 6, 10, 15 or 21 rows, so the
    # head groups hold 1, 5, 10 or 16 blocks
    rng = np.random.default_rng(10)
    d, R = 6, 5
    imap = build_index_map(d, 2)
    Omega = np.zeros((d, 30), dtype=bool)
    for i, m in enumerate(rng.choice([3, 4, 5, 6], size=30)):
        Omega[rng.choice(d, m, replace=False), i] = True
    # rows 0-4 and all six rows lift to the same first R rows, so with
    # rows 1-5 between them one head recurs in runs that are not adjacent
    Omega = np.column_stack([Omega, np.arange(d) < 5, np.arange(d) > 0,
                             np.ones(d, dtype=bool)])
    U = np.column_stack([tensorize_mask(Omega[:, i], imap)
                         for i in range(Omega.shape[1])])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # duplicate draws
        cp = build_constraint_patterns(U, R)
    heads = [tuple(np.flatnonzero(c)[:R]) for c in cp.columns.T]
    runs = [h for j, h in enumerate(heads) if j == 0 or h != heads[j - 1]]
    assert len(runs) > len(set(runs))
    B = rng.standard_normal((imap.D, R))
    expected, skipped = _build_A_by_svd(B, cp)
    assert skipped == 0
    calls = _count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = build_A(B, cp)
    assert calls == []  # every block certified by its head
    assert A.shape == expected.shape
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-10)


def _blocks_over_heads(D, heads, R):
    """Constraint columns: each head's R rows plus every later row."""
    cols = []
    for head in heads:
        for extra in range(max(head) + 1, D):
            col = np.zeros(D, dtype=bool)
            col[list(head)] = True
            col[extra] = True
            cols.append(col)
    return ConstraintPatterns(D=D, R=R, columns=np.column_stack(cols))


def test_build_A_singular_head_takes_svd_path(monkeypatch):
    # row 0 of the basis is zero: heads containing it are exactly
    # singular, but with a generic extra row the block still has rank R
    # and its kernel vector is the unit vector at row 0
    rng = np.random.default_rng(11)
    D, R = 9, 3
    B = rng.standard_normal((D, R))
    B[0] = 0.0
    cp = _blocks_over_heads(D, [(0, 1, 2), (1, 2, 3), (0, 2, 4)], R)
    expected, skipped = _build_A_by_svd(B, cp)
    assert skipped == 0
    calls = _count_svd_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = build_A(B, cp)
    assert len(calls) >= 10  # every block over the two singular heads
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-10)
    np.testing.assert_allclose(A[:, 0], np.eye(D)[0], atol=1e-12)


@pytest.mark.parametrize("scale", [0.0, 1e-20])
def test_build_A_skips_rank_deficient_blocks_like_reference(scale):
    # rows 0 and 1 of the basis are zero or negligible: every block holding
    # both has numerical rank < R and is skipped; blocks holding one of
    # them are kept.  Zero rows make the head inverse fail outright; tiny
    # ones give a finite inverse that the full-rank certificate must reject.
    rng = np.random.default_rng(12)
    D, R = 10, 3
    B = rng.standard_normal((D, R))
    B[:2] *= scale
    cp = _blocks_over_heads(D, [(0, 1, 2), (0, 2, 3), (2, 3, 4), (1, 4, 5)],
                            R)
    cp.columns[1, 7] = True  # (0, 2, 3) plus row 1 instead of row 4
    cp.columns[4, 7] = False
    expected, skipped = _build_A_by_svd(B, cp)
    assert skipped == 8
    # the count is read from the shape; only the check warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A = build_A(B, cp)
    assert cp.columns.shape[1] - A.shape[1] == skipped
    np.testing.assert_allclose(A, expected, rtol=0, atol=1e-10)


def test_algebraic_two_of_three_not_identifiable():
    Omega = gen_all_patterns(3, 2)
    for seed in range(5):
        v = check_identifiable_algebraic(Omega, R=2, p=2, seed=seed)
        assert not v.identifiable
        assert v.kernel_dim > 2


def test_algebraic_four_of_six_identifiable():
    Omega = gen_all_patterns(6, 4)
    v = check_identifiable_algebraic(Omega, R=2, p=2, seed=0)
    assert v.identifiable
    assert v.kernel_dim == 2
    assert v.method == "algebraic"


def test_algebraic_too_few_samples_never_identifiable():
    # columns with fewer observations than the minimum can never pin the
    # subspace down
    R = 3
    ell = minimal_samples(R, 2)
    Omega = gen_all_patterns(5, ell - 1)
    v = check_identifiable_algebraic(Omega, R=R, p=2, seed=0)
    assert not v.identifiable


def test_algebraic_accepts_explicit_basis():
    rng = np.random.default_rng(5)
    d, K, r = 5, 2, 1
    m = build_index_map(d, 2)
    B = spanning_set_uos([rng.standard_normal((d, r)) for _ in range(K)], m)
    Omega = gen_all_patterns(d, 4)
    v = check_identifiable_algebraic(Omega, R=2, p=2, basis=B)
    assert v.identifiable
    assert v.trials == 1


def test_algebraic_order_one_is_the_lrmc_sampling_condition():
    # at order 1 the check decides low-rank completion's own sampling
    # condition: every 3-of-6 pattern constrains a rank-2 subspace once,
    # and together they pin it down; a 2-of-6 pattern constrains nothing
    v = check_identifiable_algebraic(gen_all_patterns(6, 3), R=2, p=1)
    assert v.identifiable and v.kernel_dim == 2
    v = check_identifiable_algebraic(gen_all_patterns(6, 2), R=2, p=1)
    assert not v.identifiable and v.kernel_dim == 6


def test_algebraic_rank_exceeds_dimension():
    with pytest.raises(ValueError):
        check_identifiable_algebraic(gen_all_patterns(3, 2), R=7, p=2)


@pytest.mark.parametrize("trials", [0, -1])
def test_algebraic_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        check_identifiable_algebraic(gen_all_patterns(6, 4), R=2, p=2,
                                     trials=trials)


def test_algebraic_rejects_rank_zero():
    with pytest.raises(ValueError, match="R=0"):
        check_identifiable_algebraic(gen_all_patterns(6, 4), R=0, p=2)


def test_theorem_endpoints_all_patterns():
    # with every m-of-d pattern available: m < ell never identifies,
    # m >= ell + 2 always does (desk-scale instances)
    cases = [(5, 3), (6, 2), (6, 3)]
    for d, R in cases:
        ell = minimal_samples(R, 2)
        if ell - 1 >= 1:
            v = check_identifiable_algebraic(gen_all_patterns(d, ell - 1),
                                             R=R, p=2, seed=1)
            assert not v.identifiable, (d, R, "m below minimum")
        if ell + 2 <= d:
            v = check_identifiable_algebraic(gen_all_patterns(d, ell + 2),
                                             R=R, p=2, seed=1)
            assert v.identifiable, (d, R, "m at sufficiency bound")


def _uos_basis_5():
    rng = np.random.default_rng(5)
    m = build_index_map(5, 2)
    return spanning_set_uos([rng.standard_normal((5, 1)) for _ in range(2)],
                            m)


# name -> (Omega, R, p, basis); each chunk of 5 constraints (a budget of
# _WORK_FLOATS = 5 D) holds one to three patterns
_STREAM_CASES = {
    "identifiable": lambda: (gen_all_patterns(6, 4), 2, 2, None),
    "not-identifiable": lambda: (gen_all_patterns(6, 3), 5, 2, None),
    "p3-identifiable": lambda: (gen_all_patterns(4, 3), 4, 3, None),
    "p3-not-identifiable": lambda: (gen_all_patterns(4, 2), 2, 3, None),
    "explicit-basis": lambda: (gen_all_patterns(5, 4), 2, 2, _uos_basis_5()),
    "duplicates": lambda: (np.column_stack(
        [gen_all_patterns(6, 4), gen_all_patterns(6, 4)[:, 3:9]]), 2, 2, None),
    "no-constraints": lambda: (gen_all_patterns(5, 2), 3, 2, None),
    "R-equals-D": lambda: (gen_all_patterns(3, 2), 6, 2, None),
}


def _spy(monkeypatch, name):
    """Record every output of identifiability.<name>."""
    outputs = []
    fn = getattr(identifiability, name)

    def spied(*args, **kwargs):
        outputs.append(fn(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(identifiability, name, spied)
    return outputs


@pytest.mark.filterwarnings("ignore:dropped")
@pytest.mark.parametrize("certified", [True, False],
                         ids=["certified", "forced-exact"])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_streamed_check_matches_dense_rank(monkeypatch, case, certified):
    # the streamed check reports the kernel dimension of the whole kernel
    # matrix, built at once under the same trial bases
    Omega, R, p, basis = _STREAM_CASES[case]()
    imap = build_index_map(Omega.shape[0], p)
    cp = build_constraint_patterns(tensorize_mask(Omega, imap), R)
    rng = np.random.default_rng(4)
    bases = [basis] if basis is not None else [
        rng.standard_normal((imap.D, R)) for _ in range(3)]
    expected = [imap.D - numerical_rank(build_A(B, cp)) for B in bases]

    monkeypatch.setattr(identifiability, "_WORK_FLOATS", 5 * imap.D)
    if not certified:  # a floor no Gram meets
        monkeypatch.setattr(identifiability, "_GRAM_REL_FLOOR", np.inf)
    built = _spy(monkeypatch, "build_constraint_patterns")
    kernels = _spy(monkeypatch, "build_A")
    v = check_identifiable_algebraic(Omega, R, p, trials=3, seed=4,
                                     basis=basis)
    assert v.details.startswith(f"kernel dims per trial: {expected} ")
    assert v.kernel_dim == max(expected)
    assert v.identifiable == all(k == R for k in expected)
    assert v.trials == len(bases)

    how = re.findall(r"trial \d+: (certified|exact)", v.details)
    assert len(how) == len(bases)
    if not certified or any(k != R for k in expected):
        assert set(how) == {"exact"}
    elif R < imap.D:
        assert set(how) == {"certified"}
    # each chunk's constraints are built once for all trials, and once
    # more if some trial takes the exact pass
    n_exact = how.count("exact")
    passes = 1 + (n_exact > 0)
    assert len(built) % passes == 0
    n_chunks = len(built) // passes
    assert len(kernels) == n_chunks * (len(bases) + n_exact)
    # the chunks hold whole patterns, in order, and all of them
    walk = np.concatenate([c.columns for c in built[:n_chunks]], axis=1)
    np.testing.assert_array_equal(walk, cp.columns)
    if cp.columns.shape[1] > 5:
        assert n_chunks > 1
    walked = f"{n_chunks} chunk" + "s" * (n_chunks != 1)
    for t, mode in enumerate(how, 1):
        took = f"2 passes of {walked}" if mode == "exact" else walked
        assert f"trial {t}: {mode}, {took}" in v.details


@pytest.mark.parametrize("certified", [True, False],
                         ids=["certified", "forced-exact"])
def test_streamed_check_reports_skipped_blocks_once_per_trial(monkeypatch,
                                                               certified):
    # the basis rows of x1^2, x1 x2 and x1 x3 (lifted rows 0-2) are
    # collinear, so every block of a pattern holding x1, x2 and x3 has that
    # head and rank < R; those three patterns fall in three chunks
    Omega, R = gen_all_patterns(6, 4), 3
    imap = build_index_map(6, 2)
    B = np.random.default_rng(12).standard_normal((imap.D, R))
    B[1], B[2] = 2.0 * B[0], -B[0]
    cp = build_constraint_patterns(tensorize_mask(Omega, imap), R)
    A = build_A(B, cp)
    skipped = cp.columns.shape[1] - A.shape[1]
    assert skipped == 21

    monkeypatch.setattr(identifiability, "_WORK_FLOATS", 5 * imap.D)
    if not certified:
        monkeypatch.setattr(identifiability, "_GRAM_REL_FLOOR", np.inf)
    built = _spy(monkeypatch, "build_constraint_patterns")
    kernels = _spy(monkeypatch, "build_A")
    with pytest.warns(UserWarning) as record:
        v = check_identifiable_algebraic(Omega, R, 2, basis=B)
    assert [str(w.message) for w in record] == [
        f"trial 1: skipped {skipped} rank-deficient constraint blocks"]
    short = [c.columns.shape[1] - A_c.shape[1]
             for c, A_c in zip(built, kernels)]
    assert sum(s > 0 for s in short) == (3 if certified else 6)
    assert v.kernel_dim == imap.D - numerical_rank(A) == R
    assert ("certified" in v.details) == certified


@pytest.mark.parametrize("certified", [True, False],
                         ids=["certified", "forced-exact"])
def test_streamed_check_dedupes_patterns_once(monkeypatch, certified):
    # Omega is deduplicated once; its chunks of distinct lifted patterns are
    # not deduplicated again, on either pass
    Omega = gen_all_patterns(6, 4)
    Omega = np.column_stack([Omega, Omega[:, 2:5]])
    monkeypatch.setattr(identifiability, "_WORK_FLOATS", 5 * 21)  # D = 21
    if not certified:
        monkeypatch.setattr(identifiability, "_GRAM_REL_FLOOR", np.inf)
    deduped = _spy(monkeypatch, "dedupe_patterns")
    built = _spy(monkeypatch, "build_constraint_patterns")
    with pytest.warns(UserWarning, match="dropped 3 duplicate"):
        v = check_identifiable_algebraic(Omega, 2, 2, trials=2)
    assert v.identifiable and ("certified" in v.details) == certified
    assert [P.shape for P in deduped] == [(6, 15)]
    assert len(built) > 1  # several chunks


@pytest.mark.parametrize("leak,certified",
                         [(0.0, True), (1e-12, True), (1e-6, False),
                          (1.0, False)])
def test_rank_certificate_agrees_with_dense_rank(leak, certified):
    # A's part in span(B) is rounding for real kernel vectors; once it
    # lifts sigma_{D-R+1}(A) above RANK_REL_TOL sigma_1(A) the dense rank
    # is D and the Gram must not certify D - R
    rng = np.random.default_rng(13)
    D, R, n = 12, 3, 40
    Q = np.linalg.qr(rng.standard_normal((D, R)), mode="complete")[0]
    A = (Q[:, R:] @ rng.standard_normal((D - R, n))
         + leak * Q[:, :R] @ rng.standard_normal((R, n)))
    Y = Q.T @ A
    assert identifiability._rank_certified(
        Y[R:] @ Y[R:].T, np.vdot(Y[:R], Y[:R])) == certified
    assert numerical_rank(A) == (D - R if certified else D)


def test_streamed_check_keeps_no_dense_kernel_matrix():
    # the whole kernel matrix of all 9-of-15 patterns at R=30 is
    # 120 x 75,075 floats (69 MB); building it at once peaks near 190 MB
    Omega = gen_all_patterns(15, 9, 1)
    tracemalloc.start()
    try:
        v = check_identifiable_algebraic(Omega, 30, 2, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.kernel_dim == 30 and "certified" in v.details
    # each chunk's kernel matrix and its rotation are 1 MB
    assert peak < 8 * 2**20, peak


def test_kernel_vectors_by_head_batches_heads_under_the_budget():
    # patterns of R+1 rows hold one block each, so every block has its own
    # R x R head: one stack of all 1092 heads at R=30 would be 7.5 MiB
    rng = np.random.default_rng(14)
    D, R, n = 120, 30, 1092
    B = rng.standard_normal((D, R))
    rows = np.sort([rng.choice(D, R + 1, replace=False) for _ in range(n)],
                   axis=1)
    assert n * R * R > 7 * identifiability._WORK_FLOATS
    tracemalloc.start()
    try:
        a, certified = identifiability._kernel_vectors_by_head(B, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified.all()
    # a few 1 MB batches (heads, inverses) and the n x (R+1) results
    assert peak < 5 * 2**20, peak
    block = B[rows[7]]
    np.testing.assert_allclose(a[7] @ block, 0.0, atol=1e-10)


def test_combinatorial_block_fixture():
    # canonical sufficient pattern set: an all-ones R-row block stacked
    # over an identity
    D, R = 12, 3
    cols = np.zeros((D, D - R), dtype=bool)
    cols[:R] = True
    for j in range(D - R):
        cols[R + j, j] = True
    cp = ConstraintPatterns(D=D, R=R, columns=cols)
    v = check_identifiable_combinatorial(cp, R, D)
    assert v.identifiable
    assert v.method == "combinatorial"


def test_combinatorial_too_few_columns():
    m = build_index_map(3, 2)
    Omega = gen_all_patterns(3, 2)
    U = np.column_stack([tensorize_mask(Omega[:, i], m) for i in range(3)])
    cp = build_constraint_patterns(U, 2)
    v = check_identifiable_combinatorial(cp, 2, m.D)
    assert not v.identifiable
    assert "only 3" in v.details


def test_combinatorial_subset_violation():
    # D-R columns that all share the same R+1 rows: any 2-subset covers
    # only 3 < 2 + R rows
    D, R = 8, 2
    col = np.zeros(D, dtype=bool)
    col[:3] = True
    cols = np.tile(col[:, None], (1, D - R))
    cp = ConstraintPatterns(D=D, R=R, columns=cols)
    v = check_identifiable_combinatorial(cp, R, D)
    assert not v.identifiable


def test_combinatorial_size_bound():
    cp = ConstraintPatterns(D=40, R=2, columns=np.zeros((40, 0), dtype=bool))
    with pytest.raises(ValueError, match="algebraic"):
        check_identifiable_combinatorial(cp, 2, 40)


def test_checks_agree_on_random_patterns():
    # wherever the combinatorial search reaches a definite verdict it must
    # match the algebraic test
    rng = np.random.default_rng(6)
    compared = 0
    for trial in range(12):
        d = int(rng.integers(4, 7))
        R = int(rng.integers(1, 4))
        imap = build_index_map(d, 2)
        if imap.D - R > 18:
            continue
        n = int(rng.integers(3, 12))
        Omega = rng.random((d, n)) < rng.uniform(0.4, 0.9)
        Omega = Omega[:, Omega.sum(axis=0) > 0]
        if Omega.shape[1] == 0:
            continue
        # a draw that repeats a pattern makes both checks drop the copies
        dupes = Omega.shape[1] - np.unique(Omega, axis=1).shape[1]
        with (pytest.warns(UserWarning, match=f"dropped {dupes} duplicate")
              if dupes else contextlib.nullcontext()):
            alg = check_identifiable_algebraic(Omega, R=R, p=2, seed=trial)
            U = np.column_stack([tensorize_mask(Omega[:, i], imap)
                                 for i in range(Omega.shape[1])])
            cp = build_constraint_patterns(U, R)
        comb = check_identifiable_combinatorial(cp, R, imap.D)
        if comb.identifiable:
            assert alg.identifiable
            compared += 1
        elif "inconclusive" not in comb.details:
            assert not alg.identifiable
            compared += 1
    assert compared >= 3


def test_generic_restrictions_full_rank():
    # every square row-restriction of a generic lifted basis is invertible.
    # This needs K*r >= d: with fewer total basis directions there exist
    # row subsets (many multi-indices sharing one coordinate) whose
    # restriction is structurally rank-deficient for every choice of basis.
    rng = np.random.default_rng(7)
    d, K, r = 6, 3, 2
    m = build_index_map(d, 2)
    B = spanning_set_uos([rng.standard_normal((d, r)) for _ in range(K)], m)
    R = B.shape[1]
    for _ in range(200):
        rows = rng.choice(m.D, R, replace=False)
        s = np.linalg.svd(B[rows], compute_uv=False)
        assert s[-1] > 1e-8 * s[0]


def test_lifted_intersection_dimension():
    # lifted spans intersect exactly in the lift of the intersection
    rng = np.random.default_rng(8)
    d = 10
    m = build_index_map(d, 2)
    for s in (1, 2):
        shared = rng.standard_normal((d, s))
        U1 = np.column_stack([shared, rng.standard_normal((d, 3 - s))])
        U2 = np.column_stack([shared, rng.standard_normal((d, 3 - s))])
        S1 = spanning_set_uos([U1], m)
        S2 = spanning_set_uos([U2], m)
        r1, r2 = numerical_rank(S1), numerical_rank(S2)
        r_union = numerical_rank(np.column_stack([S1, S2]))
        assert r1 + r2 - r_union == math.comb(s + 1, 2)


def _axis_union_quadratics():
    # quadratics in 3 variables cutting out the union of the first two
    # coordinate axes and the line through (1,1,1); coefficient order
    # x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
    vecs = np.array([
        [0.0, -5 / 6, 1 / 2, 0.0, 1 / 6, 1 / 6],
        [0.0, -1 / 6, -1 / 2, 0.0, 5 / 6, -1 / 6],
        [0.0, -1 / 6, -1 / 2, 0.0, -1 / 6, 5 / 6],
    ]).T
    return VarietyCoefficients(D=6, p=2, vectors=vecs)


def test_variety_membership():
    V = _axis_union_quadratics()
    m = build_index_map(3, 2)
    on = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([1.0, 1, 1])]
    for x in on:
        for c in (1.0, -2.0, 0.37):
            assert np.max(np.abs(evaluate_variety(V, c * x, m))) < 1e-12
    off = np.array([1.0, 0, 1.0])
    res = evaluate_variety(V, off, m)
    assert np.max(np.abs(res)) > 0.5
    assert abs(res[1] - (-2 / 3)) < 1e-12


def test_evaluate_variety_rejects_a_mismatched_index_map():
    # the wrong lifted dimension, and the right one at the wrong order
    for V, m in ((_axis_union_quadratics(), build_index_map(4, 2)),
                 (VarietyCoefficients(D=10, p=2, vectors=np.ones(10)),
                  build_index_map(3, 3))):
        with pytest.raises(ValueError, match="coefficient vectors do not "
                                             "match the index map"):
            evaluate_variety(V, np.ones(m.d), m)


def test_variety_coefficients_validation():
    with pytest.raises(ValueError):
        VarietyCoefficients(D=3, p=2, vectors=np.zeros((3, 1)))
