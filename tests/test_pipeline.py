import numpy as np
import pytest

from ladmc import pipeline
from ladmc.lrmc import SvpOptions
from ladmc.pipeline import (
    LadmcConfig,
    auto_rank,
    iladmc,
    ladmc,
    lrmc_baseline,
    nrmse,
)
from ladmc.synth import gen_mask_uniform, gen_uos
from ladmc.tensorize import build_index_map, tensorize_matrix


def _two_lines_instance(seed=3, N=200, m=4):
    X, _ = gen_uos(6, 2, 1, N, seed=seed)
    mask = gen_mask_uniform(6, N, m, seed=seed + 1)
    return X, mask


def _affine_lines_instance(seed=0, d=6, N=400, m=4):
    # two lines that miss the origin: x = a_k + t b_k
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 2, d))
    labels = np.arange(N) % 2
    t = rng.standard_normal(N)
    X = (a[labels] + t[:, None] * b[labels]).T
    return X, gen_mask_uniform(d, N, m, seed=seed + 10)


def _cfg(R, step=2.0, iters=3000, tol=1e-9, **kw):
    return LadmcConfig(
        p=2, rank_R=R,
        svp=SvpOptions(rank=R, step_size=step, max_iters=iters, rel_tol=tol),
        **kw,
    )


def test_nrmse_basic():
    X = np.arange(6.0).reshape(2, 3) + 1
    assert nrmse(X, X) == 0.0
    assert abs(nrmse(1.01 * X, X) - 0.01) < 1e-12


def test_nrmse_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 5))
    B = rng.standard_normal((7, 5))
    num = sum((A[i, j] - B[i, j]) ** 2 for i in range(7) for j in range(5))
    den = sum(B[i, j] ** 2 for i in range(7) for j in range(5))
    assert abs(nrmse(A, B) - np.sqrt(num / den)) < 1e-14


def test_nrmse_errors():
    with pytest.raises(ValueError):
        nrmse(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        nrmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_auto_rank_picks_spectral_gap():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 30))
    assert auto_rank(M) == 4


def test_config_validation():
    with pytest.raises(ValueError):
        LadmcConfig(iladmc_inner_T=0)
    X = np.ones((3, 4))
    mask = np.ones_like(X, dtype=bool)
    with pytest.raises(ValueError):
        ladmc(X, mask, LadmcConfig(rank_R=100))


def test_fully_observed_identity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 8))
    mask = np.ones_like(X, dtype=bool)
    rep = ladmc(X, mask, LadmcConfig(rank_R=3))
    np.testing.assert_array_equal(rep.X_hat, X)


def test_observed_entry_fidelity():
    X, mask = _two_lines_instance()
    cfg = _cfg(2, iters=50)
    for algo in (ladmc, iladmc):
        rep = algo(np.where(mask, X, 0.0), mask, cfg)
        np.testing.assert_array_equal(rep.X_hat[mask], X[mask])


def test_zero_columns_flagged():
    X, mask = _two_lines_instance(N=30)
    mask[:, 7] = False
    rep = ladmc(np.where(mask, X, 0.0), mask, _cfg(2, iters=50))
    assert rep.zero_columns == [7]
    assert np.all(rep.X_hat[:, 7] == 0.0)


def test_permutation_equivariance():
    X, mask = _two_lines_instance(N=60)
    cfg = _cfg(2, iters=300)
    perm = np.random.default_rng(5).permutation(60)
    rep = ladmc(np.where(mask, X, 0.0), mask, cfg)
    rep_p = ladmc(np.where(mask, X, 0.0)[:, perm], mask[:, perm], cfg)
    np.testing.assert_allclose(rep_p.X_hat, rep.X_hat[:, perm], atol=1e-8)


def test_column_scale_on_fully_observed_column():
    X, mask = _two_lines_instance(N=40)
    mask[:, 3] = True
    cfg = _cfg(2, iters=100)
    rep = ladmc(np.where(mask, X, 0.0), mask, cfg)
    X2 = X.copy()
    X2[:, 3] *= 2.5
    rep2 = ladmc(np.where(mask, X2, 0.0), mask, cfg)
    np.testing.assert_allclose(rep2.X_hat[:, 3], 2.5 * rep.X_hat[:, 3])


def test_ladmc_two_lines_recovery():
    X, mask = _two_lines_instance()
    rep = ladmc(np.where(mask, X, 0.0), mask, _cfg(2), X_true=X)
    assert rep.nrmse < 1e-4
    assert rep.success
    assert rep.rank_used == 2
    assert np.max(rep.per_column_rank1_ratio) < 0.1


def test_iladmc_two_lines_recovery():
    X, mask = _two_lines_instance()
    cfg = _cfg(2, iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, cfg, X_true=X)
    assert rep.nrmse < 1e-4
    # outer loop stays within the budget a single long solve would use
    assert rep.outer_iterations * 30 <= 3000


def test_iladmc_fixed_point_one_outer():
    rng = np.random.default_rng(6)
    X = np.outer(rng.standard_normal(4), rng.standard_normal(10))
    mask = np.ones_like(X, dtype=bool)
    rep = iladmc(X, mask, LadmcConfig(rank_R=1))
    assert rep.outer_iterations == 1
    np.testing.assert_allclose(rep.X_hat, X, atol=1e-12)


def _record_bursts(monkeypatch):
    """Diagnostics of every SVP call the driver makes."""
    bursts = []
    solve = pipeline.svp_complete

    def recorded(*args, **kwargs):
        Z, diag = solve(*args, **kwargs)
        bursts.append(diag)
        return Z, diag

    monkeypatch.setattr(pipeline, "svp_complete", recorded)
    return bursts


def test_iladmc_report_covers_every_pass(monkeypatch):
    X, mask = _two_lines_instance()
    bursts = _record_bursts(monkeypatch)
    cfg = _cfg(2, iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, cfg, X_true=X)
    assert 1 < rep.outer_iterations < pipeline.ILADMC_MAX_OUTER
    assert len(bursts) == rep.outer_iterations
    # the last 30-step burst alone does not converge; the outer loop does
    assert not bursts[-1].converged
    assert rep.solver.converged
    assert rep.solver.iterations_run == sum(b.iterations_run for b in bursts)
    # every pass starts with a full eigendecomposition; the count sums them
    assert rep.solver.full_eigh == sum(b.full_eigh for b in bursts)
    assert rep.solver.full_eigh >= rep.outer_iterations


def test_iladmc_out_of_passes_is_unconverged(monkeypatch):
    X, mask = _two_lines_instance()
    monkeypatch.setattr(pipeline, "ILADMC_MAX_OUTER", 2)
    cfg = _cfg(2, iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, cfg)
    assert rep.outer_iterations == 2
    assert not rep.solver.converged
    assert rep.solver.iterations_run == 60


def test_ladmc_report_is_the_svp_solve(monkeypatch):
    X, mask = _two_lines_instance()
    bursts = _record_bursts(monkeypatch)
    for iters, tol, converged in ((3000, 1e-4, True), (300, 1e-9, False)):
        bursts.clear()
        cfg = _cfg(2, iters=iters, tol=tol)
        rep = ladmc(np.where(mask, X, 0.0), mask, cfg)
        (diag,) = bursts
        assert rep.solver.converged is diag.converged is converged
        assert rep.solver.iterations_run == diag.iterations_run


def test_ladmc_single_subspace_recovery():
    # higher-dimensional single-subspace instance: d=25, r=3, lifted rank 6
    X, _ = gen_uos(25, 1, 3, 1300, seed=5)
    mask = gen_mask_uniform(25, 1300, 12, seed=6)
    rep = ladmc(np.where(mask, X, 0.0), mask, _cfg(6, iters=900), X_true=X)
    assert rep.nrmse < 1e-4


def test_auto_rank_through_pipeline():
    X, mask = _two_lines_instance()
    cfg = LadmcConfig(
        p=2, rank_R="auto",
        svp=SvpOptions(rank=2, step_size=2.0, max_iters=3000, rel_tol=1e-9),
    )
    rep = ladmc(np.where(mask, X, 0.0), mask, cfg, X_true=X)
    assert rep.rank_used >= 1
    # the auto rule may over- or under-shoot on a zero-filled spectrum, but
    # it must still produce a finite, observed-faithful estimate
    np.testing.assert_array_equal(rep.X_hat[mask], X[mask])
    assert np.all(np.isfinite(rep.X_hat))


def test_augment_ones_fully_observed_identity():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 12)) + 3.0
    mask = np.ones_like(X, dtype=bool)
    rep = ladmc(X, mask, LadmcConfig(rank_R=3, augment_ones=True))
    np.testing.assert_array_equal(rep.X_hat, X)


def test_report_without_truth_has_no_metrics():
    X, mask = _two_lines_instance(N=20)
    rep = ladmc(np.where(mask, X, 0.0), mask, _cfg(2, iters=20))
    assert rep.nrmse is None
    assert rep.success is None


def test_augment_ones_recovers_affine_lines():
    # [1; x] spans a 2-dim subspace per line, so the lifted rank is 2 * 3
    X, mask = _affine_lines_instance()
    svp = SvpOptions(rank=6, accel=True, max_iters=3000, rel_tol=1e-9)
    for algo in (ladmc, iladmc):
        cfg = LadmcConfig(p=2, rank_R=6, svp=svp, augment_ones=True)
        rep = algo(np.where(mask, X, 0.0), mask, cfg, X_true=X)
        assert rep.X_hat.shape == X.shape
        assert rep.nrmse < 1e-4, algo.__name__


def test_lrmc_baseline_completes_low_rank_matrix():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 40))
    mask = rng.random(X.shape) < 0.7
    cfg = LadmcConfig(rank_R=2, svp=SvpOptions(rank=1, max_iters=2000,
                                               rel_tol=1e-10))
    rep = lrmc_baseline(np.where(mask, X, 0.0), mask, cfg, X_true=X)
    assert rep.rank_used == 2  # cfg.rank_R wins over the svp placeholder
    assert rep.solver.converged
    assert rep.nrmse < 1e-6
    np.testing.assert_array_equal(rep.X_hat[mask], X[mask])


@pytest.mark.parametrize("algo", [ladmc, iladmc, lrmc_baseline])
def test_non_finite_observation_rejected(algo):
    X, mask = _two_lines_instance(N=20)
    X = np.where(mask, X, np.nan)  # unobserved cells may hold anything
    row = int(np.nonzero(mask[:, 5])[0][1])
    X[row, 5] = np.inf
    with pytest.raises(ValueError, match=rf"\({row}, 5\) is not finite"):
        algo(X, mask, _cfg(2, iters=20))
