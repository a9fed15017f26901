import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from ladmc import lrmc
from ladmc.lrmc import SvpOptions, svp_complete, truncated_svd_project


def _reference_svp(M_obs, mask, opts, Z0=None):
    """The SVP loop before the warm-started projection and in-place
    buffers: a fancy-indexed gradient step and the exact projection of
    ``truncated_svd_project`` on every iteration."""
    Z = np.where(mask, M_obs, 0.0) if Z0 is None else np.array(Z0, dtype=float)
    obs = np.nonzero(mask.ravel())[0]
    Mv = M_obs.ravel()[obs]
    Z_prev = Z.copy() if opts.accel else None
    k = 0
    iters = 0
    converged = False
    for iters in range(1, opts.max_iters + 1):
        if opts.accel:
            k += 1
            Y = Z + ((k - 1) / (k + 2)) * (Z - Z_prev)
            if k >= opts.accel_restart:
                k = 0
        else:
            Y = Z.copy()
        Yr = Y.ravel()
        Yr[obs] += opts.step_size * (Mv - Yr[obs])
        with np.errstate(over="ignore"):
            if not np.isfinite(Yr @ Yr):
                break
        Z_new = truncated_svd_project(Y, opts.rank)
        change = np.linalg.norm(Z_new - Z) / max(np.linalg.norm(Z), 1e-30)
        Z_prev = Z
        Z = Z_new
        if not np.isfinite(change):
            break
        if change < opts.rel_tol:
            converged = True
            break
    return Z, iters, converged


def _low_rank_problem(shape, R, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((shape[0], R)) @ rng.standard_normal((R, shape[1]))
    mask = rng.random(shape) < 0.5
    return M, mask, rng


def _assert_matches_reference(M, mask, opts, Z0=None):
    Z, diag = svp_complete(M, mask, opts, Z0=Z0)
    Z_ref, iters_ref, converged_ref = _reference_svp(M, mask, opts, Z0=Z0)
    assert diag.iterations_run == iters_ref
    assert diag.converged == converged_ref
    assert np.linalg.norm(Z - Z_ref) <= 1e-8 * np.linalg.norm(Z_ref)
    return diag


def test_options_validation():
    with pytest.raises(ValueError):
        SvpOptions(rank=0)
    with pytest.raises(ValueError):
        SvpOptions(rank=2, step_size=0.0)
    with pytest.raises(ValueError):
        SvpOptions(rank=2, rel_tol=-1.0)


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
    Z, diag = svp_complete(M, mask, SvpOptions(rank=1, max_iters=1000,
                                               rel_tol=1e-12))
    assert abs(Z[1, 1] - 4.0) < 1e-6
    assert diag.converged


def test_svp_fully_observed_fixed_point():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((9, 6)) @ rng.standard_normal((6, 9))
    mask = np.ones_like(M, dtype=bool)
    Z, diag = svp_complete(M, mask, SvpOptions(rank=6))
    assert np.linalg.norm(Z - M) / np.linalg.norm(M) < 1e-6
    assert diag.converged
    assert diag.iterations_run <= 2


def test_svp_fully_observed_matches_projection():
    # every shape, square or strongly rectangular, takes the small-side
    # Gram path; each must give the plain SVD projection
    rng = np.random.default_rng(4)
    for shape in [(12, 12), (5, 40), (40, 5)]:
        M = rng.standard_normal(shape)
        mask = np.ones_like(M, dtype=bool)
        Z, _ = svp_complete(M, mask, SvpOptions(rank=4, max_iters=50))
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
        "_, diag = ladmc.svp_complete(M, mask, ladmc.SvpOptions(rank=2, max_iters=20))\n"
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
    Z, _ = svp_complete(M, mask, SvpOptions(rank=4, max_iters=200))
    s = np.linalg.svd(Z, compute_uv=False)
    assert s[4] / s[0] < 1e-10


def test_svp_residual_not_worse_than_zero_fill():
    # final observed-entry RMS residual never exceeds that of the all-zero
    # estimate (the RMS of the observed values themselves)
    rng = np.random.default_rng(6)
    M = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
    mask = rng.random(M.shape) < 0.7
    _, diag = svp_complete(M, mask, SvpOptions(rank=3, max_iters=100))
    zero_rms = np.linalg.norm(M[mask]) / np.sqrt(mask.sum())
    assert 0.0 <= diag.final_residual <= zero_rms


def test_svp_determinism():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((8, 30))
    mask = rng.random(M.shape) < 0.6
    opts = SvpOptions(rank=3, max_iters=40)
    Z1, d1 = svp_complete(M, mask, opts)
    Z2, d2 = svp_complete(M, mask, opts)
    assert np.array_equal(Z1, Z2)
    assert d1.iterations_run == d2.iterations_run


def test_svp_accelerated_matches_plain_solution():
    M = np.array([[1.0, 2.0], [2.0, 0.0]])
    mask = np.array([[True, True], [True, False]])
    Z, diag = svp_complete(M, mask, SvpOptions(rank=1, max_iters=1000,
                                               rel_tol=1e-12, accel=True))
    assert abs(Z[1, 1] - 4.0) < 1e-6
    assert diag.converged


def test_svp_accelerated_converges_faster():
    # on a partially observed low-rank matrix, momentum reaches the same
    # tolerance in fewer iterations than the plain update
    rng = np.random.default_rng(9)
    M = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 60))
    mask = rng.random(M.shape) < 0.6
    plain = SvpOptions(rank=5, max_iters=3000, rel_tol=1e-10)
    fast = SvpOptions(rank=5, max_iters=3000, rel_tol=1e-10, accel=True)
    _, d_plain = svp_complete(M, mask, plain)
    Z, d_fast = svp_complete(M, mask, fast)
    assert d_fast.converged
    assert d_fast.iterations_run < d_plain.iterations_run
    assert np.linalg.norm(Z - M) / np.linalg.norm(M) < 1e-4


def test_svp_accel_restart_validation():
    with pytest.raises(ValueError):
        SvpOptions(rank=1, accel_restart=0)


def test_svp_errors():
    M = np.zeros((3, 3))
    with pytest.raises(ValueError, match="nothing observed"):
        svp_complete(M, np.zeros_like(M, dtype=bool), SvpOptions(rank=1))
    with pytest.raises(ValueError):
        svp_complete(M, np.ones_like(M, dtype=bool), SvpOptions(rank=4))
    with pytest.raises(ValueError):
        svp_complete(M, np.ones((3, 2), dtype=bool), SvpOptions(rank=1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svp_divergent_step_reported_unconverged():
    # divergence is reported through the diagnostics, not a numpy warning
    rng = np.random.default_rng(8)
    M = rng.standard_normal((6, 6))
    mask = rng.random(M.shape) < 0.8
    _, diag = svp_complete(M, mask, SvpOptions(rank=2, step_size=50.0,
                                               max_iters=200))
    assert not diag.converged


_SHAPES = [((40, 300), 4), ((300, 40), 4), ((60, 60), 6)]
_VARIANTS = {
    "plain-1.0": dict(step_size=1.0),
    "plain-0.7": dict(step_size=0.7),
    "momentum": dict(step_size=1.0, accel=True, accel_restart=40),
    "given-Z0": dict(step_size=1.0),
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
@pytest.mark.parametrize("shape,R", _SHAPES, ids=["wide", "tall", "square"])
def test_svp_matches_reference_loop(shape, R, variant):
    M, mask, rng = _low_rank_problem(shape, R, seed=sum(shape) + R)
    opts = SvpOptions(rank=R, max_iters=400, rel_tol=1e-9, **_VARIANTS[variant])
    Z0 = None
    if variant == "given-Z0":
        Z0 = truncated_svd_project(M + 0.1 * rng.standard_normal(shape), R)
    diag = _assert_matches_reference(M, mask, opts, Z0=Z0)
    # the warm-started basis carried most iterations, not the fallback
    assert 1 <= diag.full_eigh < diag.iterations_run / 2
    # later iterations damp an inexact projection out again, so the early
    # iterates are compared too: they show one that the end result hides
    for n in (20, 40):
        _assert_matches_reference(M, mask, replace(opts, max_iters=n), Z0=Z0)


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
    _, diag = svp_complete(M, mask, SvpOptions(rank=4, max_iters=1))
    assert (diag.iterations_run, diag.full_eigh, calls) == (1, 1, [])
    _, diag = svp_complete(M, mask, SvpOptions(rank=4, max_iters=2))
    assert len(calls) == 1
    assert diag.full_eigh == 1 + calls[0][1]


def test_svp_failed_ritz_residual_takes_full_eigh(monkeypatch):
    # a bound no residual meets sends every iteration to the full eigh,
    # with the same result
    calls = _spy_warm(monkeypatch)
    monkeypatch.setattr(lrmc, "_RITZ_TOL", -1.0)
    M, mask, _ = _low_rank_problem((40, 300), 4, seed=2)
    opts = SvpOptions(rank=4, max_iters=60, rel_tol=1e-9)
    diag = _assert_matches_reference(M, mask, opts)
    assert diag.full_eigh == diag.iterations_run
    assert len(calls) == diag.iterations_run - 1
    assert all(failed for _, failed in calls)


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
    opts = SvpOptions(rank=R, max_iters=30, rel_tol=1e-12)
    # a start off the observed entries, so that R = min dimension (where
    # the projection is the identity) still runs a second iteration
    diag = _assert_matches_reference(M, mask, opts,
                                     Z0=rng.standard_normal(shape))
    assert calls and all(width == small for width, _ in calls)
    assert diag.iterations_run == len(calls) + diag.full_eigh
