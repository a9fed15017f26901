import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ladmc import lrmc
from ladmc.lrmc import SvpOptions, svp_complete, truncated_svd_project


def _reference_svp(M_obs, mask, R, opts, Z0=None):
    """The SVP loop before the warm-started projection and in-place
    buffers: a fancy-indexed refill of the observed entries and the exact
    projection of ``truncated_svd_project`` on every iteration.  With
    momentum it restarts when the step points against the gradient mapping
    at the extrapolated point E, or when a run reaches ``accel_restart``."""
    Z = np.where(mask, M_obs, 0.0) if Z0 is None else np.array(Z0, dtype=float)
    obs = np.nonzero(mask.ravel())[0]
    Mv = M_obs.ravel()[obs]
    Z_prev = Z.copy()
    k = 0
    restarts = 0
    iters = 0
    converged = False
    for iters in range(1, opts.max_iters + 1):
        if opts.accel:
            k += 1
            E = Z + ((k - 1) / (k + 2)) * (Z - Z_prev)
        else:
            E = Z
        Y = E.copy()
        Yr = Y.ravel()
        Yr[obs] = Mv
        with np.errstate(over="ignore"):
            if not np.isfinite(Yr @ Yr):
                break
        Z_new = truncated_svd_project(Y, R)
        change = np.linalg.norm(Z_new - Z) / max(np.linalg.norm(Z), 1e-30)
        uphill = np.vdot(E - Z_new, Z_new - Z) > 0
        Z_prev = Z
        Z = Z_new
        if not np.isfinite(change):
            break
        if change < opts.rel_tol:
            converged = True
            break
        if opts.accel and (uphill or k >= opts.accel_restart):
            k = 0
            restarts += 1
    return Z, iters, converged, restarts


def _low_rank_problem(shape, R, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((shape[0], R)) @ rng.standard_normal((R, shape[1]))
    mask = rng.random(shape) < 0.5
    return M, mask, rng


def _assert_matches_reference(M, mask, R, opts, Z0=None):
    Z, diag = svp_complete(M, mask, R, opts, Z0=Z0)
    Z_ref, iters_ref, converged_ref, restarts_ref = _reference_svp(
        M, mask, R, opts, Z0=Z0)
    assert diag.iterations_run == iters_ref
    assert diag.converged == converged_ref
    assert diag.restarts == restarts_ref
    assert np.linalg.norm(Z - Z_ref) <= 1e-8 * np.linalg.norm(Z_ref)
    return Z, diag


def test_options_validation():
    with pytest.raises(FrozenInstanceError):
        SvpOptions().max_iters = 10
    with pytest.raises(ValueError):
        SvpOptions(rel_tol=-1.0)
    with pytest.raises(ValueError, match="max_iters must be >= 1, got 0"):
        SvpOptions(max_iters=0)


def test_project_diag():
    got = truncated_svd_project(np.diag([3.0, 2.0, 1.0]), 2)
    np.testing.assert_allclose(got, np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_project_fixed_point():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
    got = truncated_svd_project(M, 3)
    assert np.linalg.norm(got - M) / np.linalg.norm(M) < 1e-10


def test_project_error_matches_spectrum():
    # independent oracle: the optimal rank-3 error is the tail of the spectrum
    rng = np.random.default_rng(1)
    M = rng.standard_normal((10, 10))
    s = np.linalg.svd(M, compute_uv=False)
    expected = np.sqrt(np.sum(s[3:] ** 2))
    got = np.linalg.norm(truncated_svd_project(M, 3) - M)
    assert abs(got - expected) < 1e-10


def test_project_rectangular_paths_agree():
    # the Gram-side shortcut must match the plain SVD projection
    rng = np.random.default_rng(2)
    for shape in [(5, 40), (40, 5)]:
        M = rng.standard_normal(shape)
        fast = truncated_svd_project(M, 3)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        ref = (U[:, :3] * s[:3]) @ Vt[:3]
        np.testing.assert_allclose(fast, ref, atol=1e-10)


def test_project_infeasible_rank():
    with pytest.raises(ValueError):
        truncated_svd_project(np.zeros((3, 5)), 4)


def test_svp_rank1_closed_form():
    # x22 = m12 * m21 / m11 = 4 for a rank-1 completion of [[1,2],[2,?]]
    M = np.array([[1.0, 2.0], [2.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    Z, diag = svp_complete(M, mask, 1, SvpOptions(max_iters=1000,
                                                  rel_tol=1e-12))
    assert abs(Z[1, 1] - 4.0) < 1e-6
    assert diag.converged


def test_svp_fully_observed_fixed_point():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((9, 6)) @ rng.standard_normal((6, 9))
    mask = np.ones_like(M, dtype=bool)
    Z, diag = svp_complete(M, mask, 6, SvpOptions())
    assert np.linalg.norm(Z - M) / np.linalg.norm(M) < 1e-6
    assert diag.converged
    assert diag.iterations_run <= 2


def test_svp_stop_test_divides_by_previous_iterate():
    # from Z0 = M / 1000 one step lands on M: the change is 999 relative to
    # Z0, under 1 relative to the new iterate; only the second iteration,
    # which does not move, may meet rel_tol = 2
    rng = np.random.default_rng(3)
    M = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 40))
    mask = np.ones_like(M, dtype=bool)
    for accel in (False, True):
        _, diag = svp_complete(M, mask, 3, SvpOptions(rel_tol=2.0,
                                                      accel=accel),
                               Z0=1e-3 * M)
        assert (diag.iterations_run, diag.converged) == (2, True), accel


def test_svp_fully_observed_matches_projection():
    # every shape, square or strongly rectangular, takes the small-side
    # Gram path; each must give the plain SVD projection
    rng = np.random.default_rng(4)
    for shape in [(12, 12), (5, 40), (40, 5)]:
        M = rng.standard_normal(shape)
        mask = np.ones_like(M, dtype=bool)
        Z, _ = svp_complete(M, mask, 4, SvpOptions(max_iters=50))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        ref = (U[:, :4] * s[:4]) @ Vt[:4]
        assert np.linalg.norm(Z - ref) / np.linalg.norm(ref) < 1e-8, shape


def test_svp_loop_loads_no_second_blas_runtime():
    # scipy bundles its own OpenBLAS; calling it from the SVP loop next to
    # numpy's leaves two busy-waiting thread pools contending for the cores
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import ladmc, ladmc.cli, ladmc.experiments\n"
        "rng = np.random.default_rng(0)\n"
        "M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 60))\n"
        "mask = rng.random(M.shape) < 0.7\n"
        "_, diag = ladmc.svp_complete(M, mask, 2, ladmc.SvpOptions(max_iters=20))\n"
        "assert diag.iterations_run > 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_svp_iterate_rank_bounded():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((10, 4)) @ rng.standard_normal((4, 10))
    mask = rng.random(M.shape) < 0.8
    Z, _ = svp_complete(M, mask, 4, SvpOptions(max_iters=200))
    s = np.linalg.svd(Z, compute_uv=False)
    assert s[4] / s[0] < 1e-10


def test_svp_residual_not_worse_than_zero_fill():
    # final observed-entry RMS residual never exceeds that of the all-zero
    # estimate (the RMS of the observed values themselves)
    rng = np.random.default_rng(6)
    M = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
    mask = rng.random(M.shape) < 0.7
    _, diag = svp_complete(M, mask, 3, SvpOptions(max_iters=100))
    zero_rms = np.linalg.norm(M[mask]) / np.sqrt(mask.sum())
    assert 0.0 <= diag.final_residual <= zero_rms


def test_svp_determinism():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((8, 30))
    mask = rng.random(M.shape) < 0.6
    opts = SvpOptions(max_iters=40)
    Z1, d1 = svp_complete(M, mask, 3, opts)
    Z2, d2 = svp_complete(M, mask, 3, opts)
    assert np.array_equal(Z1, Z2)
    assert d1.iterations_run == d2.iterations_run


def test_svp_accelerated_matches_plain_solution():
    M = np.array([[1.0, 2.0], [2.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    Z, diag = svp_complete(M, mask, 1, SvpOptions(max_iters=1000,
                                                  rel_tol=1e-12, accel=True))
    assert abs(Z[1, 1] - 4.0) < 1e-6
    assert diag.converged


def test_svp_accelerated_converges_faster():
    # on a partially observed low-rank matrix, momentum reaches the same
    # tolerance in fewer iterations than the plain update
    rng = np.random.default_rng(9)
    M = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 60))
    mask = rng.random(M.shape) < 0.6
    plain = SvpOptions(max_iters=3000, rel_tol=1e-10)
    fast = SvpOptions(max_iters=3000, rel_tol=1e-10, accel=True)
    _, d_plain = svp_complete(M, mask, 5, plain)
    Z, d_fast = svp_complete(M, mask, 5, fast)
    assert d_fast.converged
    assert d_fast.iterations_run < d_plain.iterations_run
    assert np.linalg.norm(Z - M) / np.linalg.norm(M) < 1e-4


def test_svp_accel_restart_validation():
    with pytest.raises(ValueError):
        SvpOptions(accel_restart=0)


def test_svp_errors():
    M = np.zeros((3, 3))
    with pytest.raises(ValueError, match="nothing observed"):
        svp_complete(M, np.zeros_like(M, dtype=bool), 1, SvpOptions())
    with pytest.raises(ValueError, match="rank 4 infeasible"):
        svp_complete(M, np.ones_like(M, dtype=bool), 4, SvpOptions())
    with pytest.raises(ValueError, match="rank 0 infeasible"):
        svp_complete(M, np.ones_like(M, dtype=bool), 0, SvpOptions())
    with pytest.raises(ValueError):
        svp_complete(M, np.ones((3, 2), dtype=bool), 1, SvpOptions())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svp_divergent_step_reported_unconverged(monkeypatch):
    # an iterate whose Gram overflows stops the solve unconverged, reported
    # through the diagnostics, not a numpy warning, with or without the
    # momentum's restart test, and whether the sweep takes the 6 rows in
    # one block, as 4 + 2 or one by one.  Entries of size 1e200 overflow
    # the first Gram.
    rng = np.random.default_rng(8)
    M = 1e200 * rng.standard_normal((6, 6))
    mask = rng.random(M.shape) < 0.8
    for sweep_floats in (lrmc._SWEEP_FLOATS, 24, 6):
        monkeypatch.setattr(lrmc, "_SWEEP_FLOATS", sweep_floats)
        for accel in (False, True):
            _, diag = svp_complete(M, mask, 2, SvpOptions(
                max_iters=200, accel=accel))
            assert (diag.converged, diag.iterations_run) == (False, 1), (
                sweep_floats, accel)


def test_svp_restarts_counted():
    M, mask, _ = _low_rank_problem((40, 300), 4, seed=12)
    opts = SvpOptions(max_iters=400, rel_tol=1e-9)
    _, plain = svp_complete(M, mask, 4, opts)
    assert plain.restarts == 0
    _, adaptive = svp_complete(M, mask, 4, replace(opts, accel=True,
                                                   accel_restart=1000))
    assert adaptive.restarts >= 1
    # the cap restarts every run that reaches it, adaptive restarts aside
    _, capped = svp_complete(M, mask, 4, replace(opts, accel=True,
                                                 accel_restart=5))
    assert capped.restarts >= (capped.iterations_run - 1) // 5


def test_svp_momentum_keeps_no_extra_buffer():
    # the momentum term is the change buffer of the stop test; keeping the
    # previous iterate as well would add a whole matrix to the peak.  The
    # solve holds five D x N arrays (Z, Y, dZ, keep, target) and makes no
    # D x N temporary, the final residual included.
    M, mask, _ = _low_rank_problem((60, 2000), 4, seed=13)
    peaks = {}
    for accel in (False, True):
        tracemalloc.start()
        try:
            svp_complete(M, mask, 4, SvpOptions(max_iters=20, accel=accel))
            peaks[accel] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[True] <= 1.02 * peaks[False], peaks
    assert max(peaks.values()) <= 5.5 * M.nbytes, peaks


@pytest.mark.parametrize("given_Z0", [False, True], ids=["zero-fill", "Z0"])
@pytest.mark.parametrize("accel", [False, True], ids=["plain", "momentum"])
def test_svp_tall_holds_no_copy(accel, given_Z0):
    # a tall solve runs on transposed views of its inputs and allocates
    # only the wide solve's buffers: no copy of the observations, the mask
    # or Z0 joins them.  The slack is far below one D x N array and covers
    # allocations of a few kilobytes that vary between calls.
    M, mask, _ = _low_rank_problem((2000, 60), 4, seed=13)
    Z0 = np.where(mask, M, 0.0) if given_Z0 else None
    wide = [np.ascontiguousarray(a.T) for a in (M, mask)]
    wide.append(None if Z0 is None else np.ascontiguousarray(Z0.T))
    opts = SvpOptions(max_iters=20, accel=accel)
    svp_complete(M, mask, 4, opts, Z0=Z0)
    peaks = []
    for args in ((M, mask, Z0), wide):
        tracemalloc.start()
        try:
            svp_complete(args[0], args[1], 4, opts, Z0=args[2])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + M.nbytes // 100, peaks
    assert peaks[0] <= 5.5 * M.nbytes, peaks


@pytest.mark.parametrize("given_Z0", [False, True], ids=["zero-fill", "Z0"])
@pytest.mark.parametrize("shape", [(40, 300), (300, 40)], ids=["wide", "tall"])
def test_svp_leaves_its_inputs_and_ignores_entries_off_the_mask(shape,
                                                                given_Z0):
    # a direct call refills from the observed entries alone, whatever the
    # matrix holds off the mask, and writes to neither M_obs nor Z0
    M, mask, rng = _low_rank_problem(shape, 4, seed=31)
    M_obs = np.where(mask, M, 100.0 * rng.standard_normal(shape))
    Z0 = None
    if given_Z0:
        Z0 = truncated_svd_project(M + 0.1 * rng.standard_normal(shape), 4)
    kept = [a.copy() for a in (M_obs, Z0) if a is not None]
    opts = SvpOptions(max_iters=50, accel=True, accel_restart=20)
    Z, diag = svp_complete(M_obs, mask, 4, opts, Z0=Z0)
    for a, before in zip([a for a in (M_obs, Z0) if a is not None], kept):
        assert a.tobytes() == before.tobytes()
    Z_zero, diag_zero = svp_complete(np.where(mask, M, 0.0), mask, 4, opts,
                                     Z0=Z0)
    assert Z.tobytes() == Z_zero.tobytes()
    assert diag == diag_zero
    assert diag.final_residual > 0.0


@pytest.mark.parametrize("shape", [(60, 2000), (2000, 60)],
                         ids=["wide", "tall"])
def test_svp_workspace_reused_matches_fresh_solves(shape):
    # three solves in one workspace on one mask: from the zero-filled
    # observations, from a Z0 of the caller's, and from a start written
    # into a spare buffer; each gives a fresh solve's iterate bit for bit
    # and its diagnostics, the residual aside, which it leaves to the caller
    M, mask, rng = _low_rank_problem(shape, 4, seed=37)
    M2 = M + rng.standard_normal((shape[0], 4)) @ rng.standard_normal(
        (4, shape[1]))
    starts = [truncated_svd_project(M + 0.1 * rng.standard_normal(shape), 4)
              for _ in range(2)]
    opts = SvpOptions(max_iters=60, rel_tol=1e-9, accel=True,
                      accel_restart=25)
    ws = lrmc.SvpWorkspace(mask)
    Z = None
    for M_in, Z0, in_place in ((M, None, False), (M2, starts[0], False),
                               (M, starts[1], True)):
        M_obs = np.where(mask, M_in, 0.0)
        fresh, fresh_diag = svp_complete(M_obs, mask, 4, opts, Z0=Z0)
        kept = None if Z0 is None else Z0.copy()
        given = Z0
        if in_place:
            given = ws.spare(Z)
            given[...] = Z0
        tracemalloc.start()
        try:
            Z, diag = svp_complete(M_obs, mask, 4, opts, Z0=given,
                                   workspace=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Z.tobytes() == fresh.tobytes()
        assert diag == replace(fresh_diag, final_residual=None)
        if kept is not None and not in_place:
            assert Z0.tobytes() == kept.tobytes()
        # no buffer of the solve's size: the workspace holds them all
        assert peak < M.nbytes // 4, peak
        assert any(np.shares_memory(Z, b) for b in ws.buffers)
    with pytest.raises(ValueError, match="workspace of shape"):
        svp_complete(M[1:, 1:], mask[1:, 1:], 4, opts, workspace=ws)


_SHAPES = [((40, 300), 4), ((300, 40), 4), ((60, 60), 6)]
_VARIANTS = {
    "plain-1.0": dict(),
    "momentum": dict(accel=True, accel_restart=40),
    # a cap the 400 iterations never reach: every restart is adaptive
    "momentum-adaptive": dict(accel=True, accel_restart=1000),
    "given-Z0": dict(),
}
# entries per sweep block that split every shape of _SHAPES into several
# row blocks with a short last one: 7 rows of 40, 52 of 300, 35 of 60
_SPLIT_FLOATS = 2100


@pytest.mark.parametrize("variant", list(_VARIANTS))
@pytest.mark.parametrize("shape,R", _SHAPES, ids=["wide", "tall", "square"])
def test_svp_matches_reference_loop(monkeypatch, shape, R, variant):
    M, mask, rng = _low_rank_problem(shape, R, seed=sum(shape) + R)
    opts = SvpOptions(max_iters=400, rel_tol=1e-9, **_VARIANTS[variant])
    Z0 = None
    if variant == "given-Z0":
        Z0 = truncated_svd_project(M + 0.1 * rng.standard_normal(shape), R)
    monkeypatch.setattr(lrmc, "_SWEEP_FLOATS", M.size)
    assert len(lrmc._row_blocks(shape)) == 1
    Z_one, diag_one = svp_complete(M, mask, R, opts, Z0=Z0)
    monkeypatch.setattr(lrmc, "_SWEEP_FLOATS", _SPLIT_FLOATS)
    rows = [len(range(shape[0])[b]) for b in lrmc._row_blocks(shape)]
    assert len(rows) > 1 and 0 < rows[-1] < rows[0]
    Z, diag = _assert_matches_reference(M, mask, R, opts, Z0=Z0)
    # every entry sees the same operations whatever the blocks; only the
    # sums of the stop and restart tests are added in another order
    assert Z.tobytes() == Z_one.tobytes()
    assert diag == diag_one
    # the warm-started basis carried most iterations, not the fallback
    assert 1 <= diag.full_eigh < diag.iterations_run / 2
    if variant == "momentum-adaptive":
        assert diag.restarts >= 1
    # later iterations damp an inexact projection out again, so the early
    # iterates are compared too: they show one that the end result hides
    for n in (20, 40):
        _assert_matches_reference(M, mask, R, replace(opts, max_iters=n),
                                  Z0=Z0)


@pytest.mark.parametrize("given_Z0", [False, True], ids=["zero-fill", "Z0"])
@pytest.mark.parametrize("variant", ["plain-1.0", "momentum"])
def test_svp_tall_is_its_transpose_solved(monkeypatch, variant, given_Z0):
    # a tall matrix is completed as its transpose: the transposed iterate
    # bit for bit and the same diagnostics, with the wide solve's row
    # blocks split as in test_svp_matches_reference_loop
    M, mask, rng = _low_rank_problem((300, 40), 4, seed=21)
    opts = SvpOptions(max_iters=400, rel_tol=1e-9, **_VARIANTS[variant])
    Z0 = None
    if given_Z0:
        Z0 = truncated_svd_project(M + 0.1 * rng.standard_normal(M.shape), 4)
    monkeypatch.setattr(lrmc, "_SWEEP_FLOATS", _SPLIT_FLOATS)
    assert len(lrmc._row_blocks(M.T.shape)) > 1
    Z, diag = svp_complete(M, mask, 4, opts, Z0=Z0)
    flip = np.ascontiguousarray
    Z_t, diag_t = svp_complete(flip(M.T), flip(mask.T), 4, opts,
                               Z0=None if Z0 is None else flip(Z0.T))
    assert Z.shape == M.shape
    assert Z.T.tobytes() == Z_t.tobytes()
    assert diag == diag_t


def _spy_warm(monkeypatch):
    calls = []
    warm = lrmc._warm_basis

    def spied(G, V, R):
        out = warm(G, V, R)
        calls.append((V.shape[1], out is None))
        return out

    monkeypatch.setattr(lrmc, "_warm_basis", spied)
    return calls


def test_svp_first_iteration_takes_full_eigh(monkeypatch):
    calls = _spy_warm(monkeypatch)
    M, mask, _ = _low_rank_problem((40, 300), 4, seed=1)
    _, diag = svp_complete(M, mask, 4, SvpOptions(max_iters=1))
    assert (diag.iterations_run, diag.full_eigh, calls) == (1, 1, [])
    _, diag = svp_complete(M, mask, 4, SvpOptions(max_iters=2))
    assert len(calls) == 1
    assert diag.full_eigh == 1 + calls[0][1]


def test_svp_failed_ritz_residual_takes_full_eigh(monkeypatch):
    # a bound no residual meets sends every iteration to the full eigh,
    # with the same result; after each rejection the next _WARM_BACKOFF
    # iterations make no attempt
    calls = _spy_warm(monkeypatch)
    monkeypatch.setattr(lrmc, "_RITZ_TOL", -1.0)
    M, mask, _ = _low_rank_problem((40, 300), 4, seed=2)
    opts = SvpOptions(max_iters=60, rel_tol=1e-9)
    _, diag = _assert_matches_reference(M, mask, 4, opts)
    assert diag.full_eigh == diag.iterations_run
    assert len(calls) == len(range(2, diag.iterations_run + 1,
                                   lrmc._WARM_BACKOFF + 1))
    assert all(failed for _, failed in calls)


def test_svp_backoff_skips_warm_attempts_not_exactness(monkeypatch):
    # Rejections come in a run while the iterate is far from rank R.  The
    # back-off makes fewer attempts than trying on every iteration, each
    # attempt has the outcome it has there, and the iterates agree.
    backoff = lrmc._WARM_BACKOFF
    assert backoff >= 1
    calls = _spy_warm(monkeypatch)
    M, mask, _ = _low_rank_problem((30, 200), 8, seed=1)
    opts = SvpOptions(max_iters=150, rel_tol=1e-10)
    monkeypatch.setattr(lrmc, "_WARM_BACKOFF", 0)
    Z_every, diag_every = svp_complete(M, mask, 8, opts)
    every = [failed for _, failed in calls]
    assert diag_every.full_eigh == 1 + sum(every)
    assert sum(every) >= 2 * backoff and not all(every)

    calls.clear()
    monkeypatch.setattr(lrmc, "_WARM_BACKOFF", backoff)
    Z, diag = svp_complete(M, mask, 8, opts)
    tried, skip = [], 0
    for failed in every:
        if skip:
            skip -= 1
            continue
        tried.append(failed)
        skip = backoff if failed else 0
    assert [failed for _, failed in calls] == tried
    assert len(tried) < len(every)
    assert diag.iterations_run == diag_every.iterations_run
    # every iteration without an accepted warm basis ran the full eigh
    accepted = len(tried) - sum(tried)
    assert diag.full_eigh == diag.iterations_run - accepted
    assert np.linalg.norm(Z - Z_every) <= 1e-12 * np.linalg.norm(Z_every)


def test_warm_basis_accepts_eigenbasis_rejects_random():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 200))
    Y += 1e-3 * rng.standard_normal(Y.shape)
    G = Y @ Y.T
    w, V = np.linalg.eigh(G)
    X = lrmc._warm_basis(G, V[:, ::-1][:, :7], 4)
    assert X is not None and X.shape == (20, 7)
    np.testing.assert_allclose(X[:, :4] @ X[:, :4].T,
                               V[:, -4:] @ V[:, -4:].T, atol=1e-12)
    # no spectral gap: two subspace steps from a random basis stay far
    # from the top eigenvectors
    G = rng.standard_normal((20, 200))
    G = G @ G.T
    bad = np.linalg.qr(rng.standard_normal((20, 7)))[0]
    assert lrmc._warm_basis(G, bad, 4) is None


@pytest.mark.parametrize("shape", [(12, 80), (80, 12)], ids=["wide", "tall"])
@pytest.mark.parametrize("drop", [0, 1])
def test_svp_warm_basis_capped_at_small_side(monkeypatch, shape, drop):
    calls = _spy_warm(monkeypatch)
    small = min(shape)
    R = small - drop
    M, mask, rng = _low_rank_problem(shape, R, seed=small + drop)
    opts = SvpOptions(max_iters=30, rel_tol=1e-12)
    # a start off the observed entries, so that R = min dimension (where
    # the projection is the identity) still runs a second iteration
    _, diag = _assert_matches_reference(M, mask, R, opts,
                                        Z0=rng.standard_normal(shape))
    assert calls and all(width == small for width, _ in calls)
    assert diag.iterations_run == len(calls) + diag.full_eigh
