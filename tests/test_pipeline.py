import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ladmc import pipeline, preimage
from ladmc.lrmc import SvpOptions, svp_complete
from ladmc.pipeline import (
    LadmcConfig,
    iladmc,
    ladmc,
    lrmc_baseline,
    nrmse,
)
from ladmc.synth import gen_mask_uniform, gen_uos
from ladmc.preimage import unlift
from ladmc.tensorize import (
    augment_ones,
    build_index_map,
    tensorize_column,
    tensorize_matrix,
)


def _two_lines_instance(seed=3, N=200, m=4):
    X = gen_uos(6, 2, 1, N, seed=seed)
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


# the default momentum run between restarts; 1 gives the plain iteration
_MOMENTUM = SvpOptions.accel_restart


def _cfg(iters=3000, tol=1e-9, **kw):
    return LadmcConfig(p=2, svp=SvpOptions(max_iters=iters, rel_tol=tol),
                       **kw)


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


def test_config_validation():
    with pytest.raises(ValueError):
        LadmcConfig(iladmc_inner_T=0)
    # p and the rank are checked before any lift or solve runs
    # order 1, the raw matrix, is lrmc_baseline's alone
    for p in (1, 4):
        with pytest.raises(ValueError, match=f"p must be 2 or 3, got {p}"):
            LadmcConfig(p=p)
    X = np.ones((3, 4))
    mask = np.ones_like(X, dtype=bool)
    for bad in (0, -1, "3", "max", "auto", 2.0, None, True, False):
        with pytest.raises(ValueError, match="rank must be an int >= 1"):
            ladmc(X, mask, bad)
    assert ladmc(X, mask, np.int64(3)).X_hat.shape == X.shape
    with pytest.raises(ValueError):
        ladmc(X, mask, 100)


@pytest.mark.parametrize("algo", [ladmc, iladmc, lrmc_baseline])
def test_every_completion_rejects_rank_auto(algo, monkeypatch):
    # the rank is the caller's: "auto" fails before any lift or solve
    def must_not_run(*args, **kwargs):
        raise AssertionError("lifted or solved with a bad rank")

    monkeypatch.setattr(pipeline, "tensorize_matrix", must_not_run)
    monkeypatch.setattr(pipeline, "svp_complete", must_not_run)
    X, mask = _two_lines_instance()
    with pytest.raises(ValueError, match="rank must be an int >= 1"):
        algo(np.where(mask, X, 0.0), mask, "auto")


def test_fully_observed_identity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((5, 8))
    mask = np.ones_like(X, dtype=bool)
    rep = ladmc(X, mask, 3)
    np.testing.assert_array_equal(rep.X_hat, X)


def test_observed_entry_fidelity():
    X, mask = _two_lines_instance()
    cfg = _cfg(iters=50)
    for algo in (ladmc, iladmc):
        rep = algo(np.where(mask, X, 0.0), mask, 2, cfg)
        np.testing.assert_array_equal(rep.X_hat[mask], X[mask])


def test_zero_columns_flagged():
    X, mask = _two_lines_instance(N=30)
    mask[:, 7] = False
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, _cfg(iters=50))
    assert np.flatnonzero(~rep.X_hat.any(axis=0)).tolist() == [7]


def test_permutation_equivariance():
    X, mask = _two_lines_instance(N=60)
    cfg = _cfg(iters=300)
    perm = np.random.default_rng(5).permutation(60)
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    rep_p = ladmc(np.where(mask, X, 0.0)[:, perm], mask[:, perm], 2, cfg)
    np.testing.assert_allclose(rep_p.X_hat, rep.X_hat[:, perm], atol=1e-8)


def test_column_scale_on_fully_observed_column():
    X, mask = _two_lines_instance(N=40)
    mask[:, 3] = True
    cfg = _cfg(iters=100)
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    X2 = X.copy()
    X2[:, 3] *= 2.5
    rep2 = ladmc(np.where(mask, X2, 0.0), mask, 2, cfg)
    np.testing.assert_allclose(rep2.X_hat[:, 3], 2.5 * rep.X_hat[:, 3])


def test_ladmc_two_lines_recovery():
    X, mask = _two_lines_instance()
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, _cfg(), X_true=X)
    assert rep.nrmse < 1e-4
    assert np.max(rep.per_column_rank1_ratio) < 0.1


def test_iladmc_two_lines_recovery():
    X, mask = _two_lines_instance()
    cfg = _cfg(iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg, X_true=X)
    assert rep.nrmse < 1e-4
    # outer loop stays within the budget a single long solve would use
    assert rep.outer_iterations * 30 <= 3000


def test_iladmc_fixed_point_one_outer():
    rng = np.random.default_rng(6)
    X = np.outer(rng.standard_normal(4), rng.standard_normal(10))
    mask = np.ones_like(X, dtype=bool)
    rep = iladmc(X, mask, 1)
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


def test_weighted_order_2_lift_is_an_isometry():
    # <w lift x, w lift y> = (x^T y)^2 for every pair of columns
    rng = np.random.default_rng(11)
    X = rng.standard_normal((7, 20))
    imap = build_index_map(7, 2)
    T = pipeline._row_weights(imap) * np.stack(
        [tensorize_column(x, imap) for x in X.T], axis=1)
    np.testing.assert_allclose(T.T @ T, (X.T @ X) ** 2, rtol=1e-12,
                               atol=1e-12)


def test_scaled_solve_divides_out_a_column_scale():
    # times 4, a column's lift is exactly 16 times larger, and its column
    # scale divides that out: an order-2 solve takes the same
    # steps and returns that column exactly 4 times larger
    X, mask = _two_lines_instance(N=40, m=5)
    X4 = X.copy()
    X4[:, 1] *= 4.0
    cfg = _cfg()
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    rep4 = ladmc(np.where(mask, X4, 0.0), mask, 2, cfg)
    assert rep4.solver.iterations_run == rep.solver.iterations_run
    expected = rep.X_hat.copy()
    expected[:, 1] *= 4.0
    np.testing.assert_array_equal(rep4.X_hat, expected)
    np.testing.assert_array_equal(rep4.per_column_rank1_ratio,
                                  rep.per_column_rank1_ratio)


@pytest.mark.parametrize("algo", [ladmc, iladmc])
def test_scaled_solve_reports_the_residual_of_the_lift(algo):
    # twice the input lifts to 4 times the lift: the scaled solve is the
    # same, and its residual, in the lift's own units, 4 times larger
    X, mask = _two_lines_instance(N=40, m=5)
    cfg = _cfg(iters=20, iladmc_inner_T=5)
    rep = algo(np.where(mask, X, 0.0), mask, 2, cfg)
    rep2 = algo(np.where(mask, 2.0 * X, 0.0), mask, 2, cfg)
    assert rep.solver.final_residual > 0.0
    assert rep2.solver.iterations_run == rep.solver.iterations_run
    assert rep2.solver.final_residual == 4.0 * rep.solver.final_residual
    np.testing.assert_array_equal(rep2.X_hat, 2.0 * rep.X_hat)


@pytest.mark.parametrize("algo,p,ones,rank", [
    pytest.param(ladmc, 3, False, 2, id="order-3"),
    pytest.param(lrmc_baseline, 2, False, 2, id="lrmc"),
    pytest.param(ladmc, 2, True, 5, id="augment-ones"),
])
def test_unscaled_solves_get_the_raw_lift(monkeypatch, algo, p, ones, rank):
    # only an order-2 lift without the constant row is scaled: every other
    # solve is handed tensorize_matrix's arrays, bit for bit
    X, mask = _two_lines_instance(N=40)
    calls = []
    solve = pipeline.svp_complete

    def recorded(M_obs, M_mask, *args, **kwargs):
        calls.append((M_obs.copy(), M_mask.copy()))
        return solve(M_obs, M_mask, *args, **kwargs)

    monkeypatch.setattr(pipeline, "svp_complete", recorded)
    cfg = LadmcConfig(p=p, svp=SvpOptions(max_iters=20), iladmc_inner_T=5,
                      augment_ones=ones)
    algo(np.where(mask, X, 0.0), mask, rank, cfg)
    order, ones = pipeline.lift_of(algo.__name__.removesuffix("_baseline"),
                                   cfg)
    X_in, mask_in = augment_ones(X, mask) if ones else (X, mask)
    T, T_mask = tensorize_matrix(X_in, mask_in,
                                 build_index_map(X_in.shape[0], order))
    assert calls
    for M_obs, M_mask in calls:
        assert M_obs.tobytes() == T.tobytes()
        np.testing.assert_array_equal(M_mask, T_mask)


def test_iladmc_report_covers_every_pass(monkeypatch):
    X, mask = _two_lines_instance()
    bursts = _record_bursts(monkeypatch)
    cfg = _cfg(iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg, X_true=X)
    assert 1 < rep.outer_iterations < pipeline.ILADMC_MAX_OUTER
    assert len(bursts) == rep.outer_iterations
    # the last 30-step burst alone does not converge; the outer loop does
    assert bursts[-1].stop == "budget"
    assert rep.solver.stop == "converged"
    assert rep.solver.iterations_run == sum(b.iterations_run for b in bursts)
    # every pass starts with a full eigendecomposition; the count sums them
    assert rep.solver.full_eigh == sum(b.full_eigh for b in bursts)
    assert rep.solver.full_eigh >= rep.outer_iterations


@pytest.mark.parametrize("augment", [False, True], ids=["raw", "augment-ones"])
def test_iladmc_result_does_not_depend_on_power_steps(monkeypatch, augment):
    # with a constant row the lifts of two lines through the origin share
    # the constant monomial: rank 1 + 2 + 2
    X, mask = _two_lines_instance()
    R = 5 if augment else 2
    cfg = _cfg(iters=100, iladmc_inner_T=30, augment_ones=augment)
    lifts, eigh_columns = [], []
    lifted, exact = pipeline.unlift, preimage._eigh_pairs

    def recorded(T_hat, *args):
        # the lift each pass unlifts, in raw units; a later pass reuses
        # its buffer
        lifts.append(T_hat.copy())
        return lifted(T_hat, *args)

    def counted(S):
        eigh_columns.append(S.shape[0])
        return exact(S)

    monkeypatch.setattr(pipeline, "unlift", recorded)
    monkeypatch.setattr(preimage, "_eigh_pairs", counted)
    imap = build_index_map(X.shape[0] + augment, 2)
    runs = []
    for tol in (preimage._POWER_TOL, -1.0):
        # a negative tolerance sends every column to eigh
        monkeypatch.setattr(preimage, "_POWER_TOL", tol)
        lifts.clear()
        eigh_columns.clear()
        rep = iladmc(np.where(mask, X, 0.0), mask, R, cfg)
        runs.append((rep, list(eigh_columns)))
        # one unlift per pass, of that pass's lift alone; the last gives
        # the gaps
        assert len(lifts) == rep.outer_iterations
        np.testing.assert_array_equal(rep.per_column_rank1_ratio,
                                      unlift(lifts[-1], imap)[1])
    (power, power_eigh), (forced, forced_eigh) = runs
    N = X.shape[1]
    assert power.outer_iterations > 2
    # the power steps settle most columns, the forced run none
    assert sum(power_eigh) < N * power.outer_iterations / 2
    assert forced_eigh == [N] * forced.outer_iterations
    assert ((power.outer_iterations, power.solver.iterations_run,
             power.solver.full_eigh)
            == (forced.outer_iterations, forced.solver.iterations_run,
                forced.solver.full_eigh))
    np.testing.assert_allclose(power.X_hat, forced.X_hat, rtol=0, atol=1e-10)
    np.testing.assert_allclose(power.per_column_rank1_ratio,
                               forced.per_column_rank1_ratio, rtol=0,
                               atol=1e-10)


def test_iladmc_bursts_run_all_their_steps():
    # a loose rel_tol would end most 5-step bursts after a step or two
    X, mask = _two_lines_instance()
    cfg = _cfg(iters=100, tol=1e-2, iladmc_inner_T=5)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    assert rep.solver.iterations_run == 5 * rep.outer_iterations


def test_iladmc_restarts_sum_over_passes(monkeypatch):
    X, mask = _two_lines_instance()
    bursts = _record_bursts(monkeypatch)
    cfg = LadmcConfig(svp=SvpOptions(max_iters=100, rel_tol=1e-9,
                                     accel_restart=10),
                      iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    assert len(bursts) == rep.outer_iterations > 1
    # each 30-step burst reaches the cap of 10 at least twice
    assert all(b.restarts >= 2 for b in bursts)
    assert rep.solver.restarts == sum(b.restarts for b in bursts)


def test_iladmc_out_of_passes_is_unconverged(monkeypatch):
    X, mask = _two_lines_instance()
    monkeypatch.setattr(pipeline, "ILADMC_MAX_OUTER", 2)
    cfg = _cfg(iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg)
    assert rep.outer_iterations == 2
    assert rep.solver.stop == "budget"
    assert rep.solver.iterations_run == 60


def test_iladmc_reports_a_diverged_pass(monkeypatch):
    # a run whose first pass diverged says so, though its last pass and
    # the outer loop met their tests
    X, mask = _two_lines_instance()
    solve = pipeline.svp_complete
    stops = []

    def first_diverges(*args, **kwargs):
        Z, diag = solve(*args, **kwargs)
        stops.append(diag.stop)
        return Z, replace(diag, stop="diverged") if len(stops) == 1 else diag

    monkeypatch.setattr(pipeline, "svp_complete", first_diverges)
    cfg = _cfg(iters=100, iladmc_inner_T=30)
    rep = iladmc(np.where(mask, X, 0.0), mask, 2, cfg, X_true=X)
    assert 1 < rep.outer_iterations < pipeline.ILADMC_MAX_OUTER
    assert "diverged" not in stops and rep.nrmse < 1e-4
    assert (rep.solver.stop, rep.solver.converged) == ("diverged", False)


def test_ladmc_report_is_the_svp_solve(monkeypatch):
    X, mask = _two_lines_instance()
    bursts = _record_bursts(monkeypatch)
    for iters, tol, converged in ((3000, 1e-4, True), (300, 1e-9, False)):
        bursts.clear()
        cfg = _cfg(iters=iters, tol=tol)
        rep = ladmc(np.where(mask, X, 0.0), mask, 2, cfg)
        (diag,) = bursts
        assert rep.solver.stop == diag.stop
        assert rep.solver.converged is diag.converged is converged
        assert rep.solver.iterations_run == diag.iterations_run


def test_ladmc_single_subspace_recovery():
    # higher-dimensional single-subspace instance: d=25, r=3, lifted rank 6
    X = gen_uos(25, 1, 3, 1300, seed=5)
    mask = gen_mask_uniform(25, 1300, 12, seed=6)
    rep = ladmc(np.where(mask, X, 0.0), mask, 6, _cfg(iters=900),
                X_true=X)
    assert rep.nrmse < 1e-4


def test_augment_ones_fully_observed_identity():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 12)) + 3.0
    mask = np.ones_like(X, dtype=bool)
    rep = ladmc(X, mask, 3, LadmcConfig(augment_ones=True))
    np.testing.assert_array_equal(rep.X_hat, X)


def test_report_without_truth_has_no_metrics():
    X, mask = _two_lines_instance(N=20)
    rep = ladmc(np.where(mask, X, 0.0), mask, 2, _cfg(iters=20))
    assert rep.nrmse is None


def test_augment_ones_recovers_affine_lines():
    # [1; x] spans a 2-dim subspace per line, so the lifted rank is 2 * 3
    X, mask = _affine_lines_instance()
    svp = SvpOptions(max_iters=3000, rel_tol=1e-9)
    for algo in (ladmc, iladmc):
        cfg = LadmcConfig(p=2, svp=svp, augment_ones=True)
        rep = algo(np.where(mask, X, 0.0), mask, 6, cfg, X_true=X)
        assert rep.X_hat.shape == X.shape
        assert rep.nrmse < 1e-4, algo.__name__


def test_lrmc_baseline_completes_low_rank_matrix():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 40))
    mask = rng.random(X.shape) < 0.7
    cfg = LadmcConfig(svp=SvpOptions(max_iters=2000, rel_tol=1e-10))
    rep = lrmc_baseline(np.where(mask, X, 0.0), mask, 2, cfg, X_true=X)
    assert rep.solver.converged
    assert rep.nrmse < 1e-6
    np.testing.assert_array_equal(rep.X_hat[mask], X[mask])


@pytest.mark.parametrize("restart", [1, _MOMENTUM], ids=["plain", "momentum"])
def test_lrmc_baseline_is_svp_on_the_raw_matrix(restart):
    # one driver pass at the identity lift: the solve of the zero-filled
    # matrix with its observed entries refilled, bitwise, and the solver's
    # own diagnostics; an unobserved column comes back zero
    rng = np.random.default_rng(9)
    X = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 50))
    mask = rng.random(X.shape) < 0.5
    mask[:, 7] = False
    svp = SvpOptions(accel_restart=restart, max_iters=300, rel_tol=1e-9)
    X_zero = np.where(mask, X, 0.0)
    Z, diag = svp_complete(X_zero, mask, 3, svp)
    Z[mask] = X[mask]
    Z[:, 7] = 0.0
    rep = lrmc_baseline(np.where(mask, X, np.nan), mask, 3,
                        LadmcConfig(p=3, svp=svp, augment_ones=True),
                        X_true=X)
    np.testing.assert_array_equal(rep.X_hat, Z)
    assert rep.solver == diag
    assert rep.outer_iterations == 1
    assert np.flatnonzero(~rep.X_hat.any(axis=0)).tolist() == [7]
    assert rep.nrmse == nrmse(Z, X)
    np.testing.assert_array_equal(rep.per_column_rank1_ratio, np.zeros(50))


@pytest.mark.parametrize("algo", [ladmc, iladmc, lrmc_baseline])
def test_input_shape_mismatch_rejected(algo):
    X, mask = _two_lines_instance(N=20)
    with pytest.raises(ValueError,
                       match=r"shape mismatch \(6, 20\) vs \(6, 19\)"):
        algo(X, mask[:, :19], 2)


@pytest.mark.parametrize("algo", [ladmc, iladmc, lrmc_baseline])
def test_non_finite_observation_rejected(algo):
    X, mask = _two_lines_instance(N=20)
    X = np.where(mask, X, np.nan)  # unobserved cells may hold anything
    row = int(np.nonzero(mask[:, 5])[0][1])
    X[row, 5] = np.inf
    with pytest.raises(ValueError, match=rf"\({row}, 5\) is not finite"):
        algo(X, mask, 2, _cfg(iters=20))


def test_lift_of_each_algorithm():
    # the baseline completes the raw matrix: order 1, no constant row
    cfg = LadmcConfig(p=3, augment_ones=True)
    assert pipeline.lift_of("lrmc", cfg) == (1, False)
    assert pipeline.lift_of("ladmc", cfg) == (3, True)
    assert pipeline.lift_of("iladmc", LadmcConfig()) == (2, False)


def _reference_complete(X_obs, mask, rank, cfg, algorithm, max_passes=1,
                        pass_iters=None):
    """The completion driver with a fresh ``svp_complete`` call per pass:
    each pass hands the solver the lift, and a later pass the relift of the
    estimate, as arrays of their own; the solver forms the residual of a
    raw solve, and a scaled pass's is formed after it in the lift's units.
    Returns the report's fields."""
    order, ones = pipeline.lift_of(algorithm, cfg)
    X_in, mask_in = augment_ones(X_obs, mask) if ones else (X_obs, mask)
    imap = build_index_map(X_in.shape[0], order)
    T_obs, T_mask = tensorize_matrix(X_in, mask_in, imap)
    opts = (replace(cfg.svp, max_iters=pass_iters, rel_tol=math.ulp(0.0))
            if pass_iters else cfg.svp)
    w, cols = None, 1.0
    if order == 2 and not ones:
        w = pipeline._row_weights(imap)
        T_obs *= w
    X_cur = np.where(mask_in, X_in, 0.0)
    Z0 = None
    iters = eigh = restarts = 0
    stops = set()
    for outer in range(1, max_passes + 1):
        if outer > 1:
            Z0, _ = tensorize_matrix(X_cur, np.ones_like(mask_in), imap)
        if w is not None:
            new_cols = np.einsum("ij,ij->j", X_cur, X_cur)
            new_cols[new_cols == 0.0] = 1.0
            T_obs *= cols / new_cols
            if Z0 is not None:
                Z0 *= w
                Z0 /= new_cols
            cols = new_cols
        T_hat, diag = svp_complete(T_obs, T_mask, rank, opts, Z0=Z0)
        if w is not None:
            diff = np.subtract(T_obs, T_hat, out=np.zeros_like(T_hat),
                               where=T_mask)
            diff *= cols
            diff /= w
            diag = replace(diag, final_residual=float(
                np.linalg.norm(diff) / np.sqrt(np.count_nonzero(T_mask))))
            T_hat *= cols
            T_hat /= w
        iters += diag.iterations_run
        eigh += diag.full_eigh
        restarts += diag.restarts
        stops.add(diag.stop)
        X_new, ratios = unlift(T_hat, imap, X_in, mask_in)
        X_new[mask_in] = X_in[mask_in]
        change = (np.linalg.norm(X_new - X_cur)
                  / max(np.linalg.norm(X_cur), 1e-30))
        X_cur = X_new
        if change < pipeline.ILADMC_REL_TOL:
            break
    X_hat = X_cur[1:] if ones else X_cur
    X_hat[:, ~mask.any(axis=0)] = 0.0
    if "diverged" in stops:
        stop = "diverged"
    elif max_passes == 1:
        stop = diag.stop
    else:
        stop = "converged" if change < pipeline.ILADMC_REL_TOL else "budget"
    return (X_hat, ratios, outer, iters, eigh, restarts,
            diag.final_residual, stop)


@pytest.mark.parametrize("p,restart,ones,N,rank", [
    pytest.param(2, _MOMENTUM, False, 60, 2, id="scaled"),
    # a restart after every step: the plain iteration, scaled too
    pytest.param(2, 1, False, 60, 2, id="plain"),
    pytest.param(3, _MOMENTUM, False, 80, 4, id="order-3"),
    pytest.param(2, _MOMENTUM, True, 60, 5, id="augment-ones"),
    # 21 monomials, 15 columns: the solve runs on the transpose
    pytest.param(2, _MOMENTUM, False, 15, 2, id="tall"),
])
@pytest.mark.parametrize("algo", [ladmc, iladmc])
def test_workspace_passes_match_fresh_solves(algo, p, restart, ones, N, rank):
    # one workspace for every pass changes no bit of the result, the
    # residual included, against a fresh solve per pass
    X, mask = _two_lines_instance(N=N, m=5)
    X_obs = np.where(mask, X, 0.0)
    mask[:, 3] = False  # an unobserved column
    cfg = LadmcConfig(p=p, svp=SvpOptions(max_iters=200, rel_tol=1e-9,
                                          accel_restart=restart),
                      iladmc_inner_T=10, augment_ones=ones)
    rep = algo(X_obs, mask, rank, cfg)
    passes = ({} if algo is ladmc else
              dict(max_passes=pipeline.ILADMC_MAX_OUTER, pass_iters=10))
    ref = _reference_complete(X_obs, mask, rank, cfg, algo.__name__,
                              **passes)
    got = (rep.X_hat, rep.per_column_rank1_ratio, rep.outer_iterations,
           rep.solver.iterations_run, rep.solver.full_eigh,
           rep.solver.restarts, rep.solver.final_residual,
           rep.solver.stop)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2:] == ref[2:]
    if algo is iladmc:
        assert rep.outer_iterations > 1


@pytest.mark.parametrize("restart", [1, _MOMENTUM], ids=["plain", "momentum"])
def test_lrmc_workspace_matches_a_fresh_solve(restart):
    X, mask = _two_lines_instance(N=60, m=5)
    X_obs = np.where(mask, X, 0.0)
    cfg = LadmcConfig(svp=SvpOptions(max_iters=200, rel_tol=1e-9,
                                     accel_restart=restart))
    rep = lrmc_baseline(X_obs, mask, 2, cfg)
    ref = _reference_complete(X_obs, mask, 2, cfg, "lrmc")
    assert rep.X_hat.tobytes() == ref[0].tobytes()
    assert (rep.outer_iterations, rep.solver.iterations_run,
            rep.solver.full_eigh, rep.solver.restarts,
            rep.solver.final_residual, rep.solver.stop) == ref[2:]


@pytest.mark.parametrize("algo,kw,message", [
    (ladmc, {}, r"rank 22 exceeds the order-2 lift's smaller side: it is "
                r"21 x 60"),
    (iladmc, dict(N=15), r"rank 16 exceeds the order-2 lift's smaller "
                         r"side: it is 21 x 15"),
    (lrmc_baseline, {}, r"rank 7 exceeds the order-1 lift's smaller side: "
                        r"it is 6 x 60"),
], ids=["ladmc", "iladmc-columns", "lrmc"])
def test_rank_above_the_lift_rejected_before_lifting(monkeypatch, algo, kw,
                                                     message):
    X, mask = _two_lines_instance(**{"N": 60, "m": 5, **kw})
    rank = int(message.split()[1])
    lifted = []
    monkeypatch.setattr(pipeline, "tensorize_matrix",
                        lambda *args: lifted.append(args))
    with pytest.raises(ValueError, match=message):
        algo(np.where(mask, X, 0.0), mask, rank)
    assert not lifted


def test_iladmc_peak_memory_in_lift_buffers(monkeypatch):
    # the observations' lift, keep = 1 - mask and the solver's three
    # rotating buffers live through the run; a pass relifts, unscales and
    # unlifts in them and allocates no array of the lift's size, so only
    # the unlift's column blocks come on top.  A fresh solver per pass
    # held 9 lift-sized arrays at the peak on this paper-scale input.
    N = 2700
    X = gen_uos(15, 10, 2, N, seed=101)
    mask = gen_mask_uniform(15, N, 11, seed=102)
    monkeypatch.setattr(pipeline, "ILADMC_MAX_OUTER", 3)
    cfg = _cfg(iters=100, iladmc_inner_T=5)
    X_obs = np.where(mask, X, 0.0)
    tracemalloc.start()
    try:
        rep = iladmc(X_obs, mask, 30, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.outer_iterations == 3
    lift_bytes = 120 * N * 8
    assert peak < 7.5 * lift_bytes, peak / lift_bytes
