from dataclasses import replace

import numpy as np
import pytest

from ladmc import experiments
from ladmc.experiments import (
    PhaseGridConfig,
    rank_verify,
    run_phase_grid,
    run_phase_trial,
    run_real_experiment,
)
from ladmc.identifiability import minimal_samples, uos_tensor_rank
from ladmc.io import write_matrix_csv
from ladmc.lrmc import SvpOptions
from ladmc.pipeline import LadmcConfig
from ladmc.synth import gen_uos


def _small_grid(**kw):
    base = dict(d=6, r=1, K_range=[2], m_range=[4, 6], N_per_K=100, trials=2,
                completion=LadmcConfig(svp=SvpOptions(
                    max_iters=3000, rel_tol=1e-9)))
    base.update(kw)
    return PhaseGridConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _small_grid(trials=0)
    with pytest.raises(ValueError):
        _small_grid(success_tol=0.0)
    with pytest.raises(ValueError):
        _small_grid(algorithm="nope")
    with pytest.raises(ValueError):
        _small_grid(N_fixed=None, N_per_K=None)
    # a bad grid fails at construction, not at its first bad cell or as
    # failed trials
    for kw, field in ((dict(r=0), "r"), (dict(r=7), "r"),
                      (dict(K_range=[]), "K_range"),
                      (dict(K_range=[2, 0]), "K_range"),
                      (dict(m_range=[]), "m_range"),
                      (dict(m_range=[4, 9]), "m_range"),
                      (dict(m_range=[0]), "m_range"),
                      (dict(N_fixed=0), "N_fixed"),
                      (dict(N_per_K=0), "N_per_K"),
                      (dict(N_cap=0), "N_cap")):
        with pytest.raises(ValueError, match=f"^{field} must"):
            _small_grid(**kw)


def test_config_rejects_workers_below_one():
    assert _small_grid().workers == 1
    for bad in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            _small_grid(workers=bad)


def test_columns_for():
    cfg = _small_grid(N_per_K=50, N_cap=120)
    assert cfg.columns_for(2) == 100
    assert cfg.columns_for(5) == 120  # capped
    assert _small_grid(N_fixed=77).columns_for(9) == 77


def test_phase_grid_small_ladmc():
    rec = run_phase_grid(_small_grid())
    # m=6 is fully observed; m=4 is comfortably above the m >= l+2 bound
    np.testing.assert_array_equal(rec.success_fraction, [[1.0], [1.0]])
    assert rec.ell_overlay == [minimal_samples(uos_tensor_rank(2, 1, 6, 2), 2)]
    assert rec.cell_seconds.shape == (2, 1)
    # success fraction is exact integer arithmetic over trials
    assert np.all(np.isin(rec.success_fraction * 2, [0, 1, 2]))


def test_phase_grid_trial_determinism():
    cfg = _small_grid()
    e1 = run_phase_trial(cfg, 2, 4, 0)
    e2 = run_phase_trial(cfg, 2, 4, 0)
    e3 = run_phase_trial(cfg, 2, 4, 1)
    assert e1 == e2
    assert e1 != e3


def test_phase_grid_lrmc_baseline():
    cfg = _small_grid(d=6, r=1, K_range=[1], m_range=[4], algorithm="lrmc",
                      completion=LadmcConfig(svp=SvpOptions(
                          max_iters=2000, rel_tol=1e-10)))
    rec = run_phase_grid(cfg)
    assert rec.success_fraction[0, 0] == 1.0


def test_phase_trial_rank_is_the_uos_rank_at_its_order(monkeypatch):
    # lrmc completes the order-1 lift, the lifted methods their own order
    ranks = []

    def fake(name):
        def complete(X_obs, mask, R, cfg, X_true=None):
            ranks.append((name, R))
            return type("Report", (), {"nrmse": 0.0})
        return complete

    monkeypatch.setattr(experiments, "completer", fake)
    for algorithm, p in (("lrmc", 2), ("ladmc", 2), ("iladmc", 3)):
        cfg = _small_grid(r=2, K_range=[4], algorithm=algorithm,
                          completion=LadmcConfig(p=p))
        run_phase_trial(cfg, 4, 4, 0)
    # min(K r, d), K C(r+1, 2) and K C(r+2, 3)
    assert ranks == [("lrmc", 6), ("ladmc", 12), ("iladmc", 16)]


def test_phase_grid_same_with_a_process_pool(tmp_path):
    # trials are keyed by (seed, K, m, trial), not by the schedule
    cfg = _small_grid(K_range=[1, 2], m_range=[3, 4], N_per_K=60,
                      completion=LadmcConfig(svp=SvpOptions(
                          max_iters=200, rel_tol=1e-9)))
    serial = run_phase_grid(cfg, out_dir=tmp_path / "serial")
    pooled = run_phase_grid(replace(cfg, workers=2),
                            out_dir=tmp_path / "pooled")
    np.testing.assert_array_equal(pooled.success_fraction,
                                  serial.success_fraction)
    assert pooled.ell_overlay == serial.ell_overlay
    for name in ("phase_ladmc.csv", "phase_ladmc.pgm", "ell_overlay.csv"):
        assert ((tmp_path / "pooled" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name


def test_phase_grid_infeasible_cell_recorded_not_raised():
    # rank exceeds the two available columns: every trial errors out and is
    # counted as a failure, the grid itself completes
    cfg = PhaseGridConfig(d=6, r=1, K_range=[3], m_range=[4], N_fixed=2,
                          trials=2)
    rec = run_phase_grid(cfg)
    assert rec.success_fraction[0, 0] == 0.0


def test_phase_grid_numerical_failure_recorded(monkeypatch):
    def breaks_down(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(experiments, "run_phase_trial", breaks_down)
    rec = run_phase_grid(_small_grid(workers=1))
    np.testing.assert_array_equal(rec.success_fraction, [[0.0], [0.0]])


def test_phase_grid_code_error_raised(monkeypatch):
    # a bug must not pass as a failed trial
    def buggy(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(experiments, "run_phase_trial", buggy)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_phase_grid(_small_grid(workers=1))


def test_phase_grid_outputs_byte_identical(tmp_path):
    cfg = _small_grid(m_range=[6], completion=LadmcConfig(svp=SvpOptions(
        max_iters=50, rel_tol=1e-9)))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_phase_grid(cfg, out_dir=out1)
    run_phase_grid(cfg, out_dir=out2)
    for name in ("phase_ladmc.csv", "phase_ladmc.pgm", "ell_overlay.csv"):
        a = (out1 / name).read_bytes()
        assert a == (out2 / name).read_bytes()
        assert a  # non-empty
    header = (out1 / "phase_ladmc.csv").read_text().splitlines()[0]
    assert header == "m\\K,2"


def test_rank_verify_cases():
    assert rank_verify(2, 1, 3, 2, 100)["pass"]
    assert rank_verify(2, 2, 8, 3, 500)["pass"]
    rep = rank_verify(2, 1, 3, 2, 100)
    assert rep["formula_rank"] == 2


def _write_uos_csv(path, d=8, r=2, N=80, seed=0):
    X = gen_uos(d, 1, r, N, seed=seed)
    write_matrix_csv(path, X)
    return X


def test_real_experiment_smoke(tmp_path):
    path = tmp_path / "data.csv"
    _write_uos_csv(path)
    res = run_real_experiment(
        path, ranks=[3], completion=LadmcConfig(svp=SvpOptions(max_iters=300)),
        out_dir=tmp_path)
    assert res["excluded_columns"] == 0
    for name in ("mean_fill", "lrmc", "ladmc", "iladmc"):
        assert np.isfinite(res[name]["test_rmse"])
    # completion must beat the column-mean baseline on subspace data
    assert res["lrmc"]["test_rmse"] < res["mean_fill"]["test_rmse"]
    assert (tmp_path / "real_report.txt").exists()
    lines = (tmp_path / "real_rmse.csv").read_text().splitlines()
    assert lines[0] == "method,rank,val_rmse,test_rmse"
    assert len(lines) == 5


def test_real_experiment_mean_fill_constant_columns(tmp_path):
    path = tmp_path / "const.csv"
    write_matrix_csv(path, np.full((4, 12), 7.0))
    res = run_real_experiment(
        path, ranks=[1], completion=LadmcConfig(svp=SvpOptions(max_iters=50)))
    assert res["mean_fill"]["test_rmse"] == 0.0


def test_real_experiment_excludes_empty_training_columns(tmp_path):
    path = tmp_path / "sparse.csv"
    X = np.arange(16.0).reshape(4, 4) + 1
    mask = np.ones((4, 4), dtype=bool)
    mask[1:, 0] = False
    mask[0, 0] = True  # column 0 has one observed entry -> no train share
    write_matrix_csv(path, X, mask=mask)
    res = run_real_experiment(
        path, ranks=[1], completion=LadmcConfig(svp=SvpOptions(max_iters=50)))
    assert res["excluded_columns"] == 1


def test_real_experiment_bad_fractions(tmp_path):
    path = tmp_path / "data.csv"
    _write_uos_csv(path, N=10)
    with pytest.raises(ValueError, match="fractions"):
        run_real_experiment(path, ranks=[1], fractions=(0.8, 0.5, 0.25))


def test_real_experiment_split_arguments_checked(tmp_path):
    path = tmp_path / "data.csv"
    _write_uos_csv(path, N=10)
    # a third share that the split would ignore, and one count of two
    for kw in (dict(fractions=(0.5, 0.25, 0.05)), dict(fractions=(0.5, 0.5)),
               dict(fractions=(1.2, -0.1, -0.1))):
        with pytest.raises(ValueError, match="fractions"):
            run_real_experiment(path, ranks=[1], **kw)
    for counts in ((3,), (2, 1, 1), (2, -1)):
        with pytest.raises(ValueError, match="counts"):
            run_real_experiment(path, ranks=[1], counts=counts)


def test_real_experiment_rejects_ranks_without_a_usable_one(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "data.csv"
    _write_uos_csv(path)  # 8 x 80: lrmc takes ranks up to 8
    solves = []
    monkeypatch.setattr(experiments, "completer",
                        lambda name: lambda *a: solves.append(name))
    with pytest.raises(ValueError, match=r"lrmc: no usable rank in \[50\]; "
                                         r"ranks must be <= 8"):
        run_real_experiment(path, ranks=[50])
    assert solves == []


def test_real_experiment_rejects_a_bad_rank_before_any_solve(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "data.csv"
    _write_uos_csv(path)
    solves = []
    monkeypatch.setattr(experiments, "completer",
                        lambda name: lambda *a: solves.append(name))
    for ranks, bad in (([2, 0], "0"), ([1, "auto"], "'auto'"),
                       ([True], "True")):
        with pytest.raises(ValueError,
                           match=f"rank must be an int >= 1, got {bad}"):
            run_real_experiment(path, ranks=ranks)
    assert solves == []


@pytest.mark.parametrize("split,empty", [
    (dict(counts=(4, 0)), r"counts=\(4, 0\) leaves no validation entries"),
    (dict(counts=(7, 1)), r"counts=\(7, 1\) leaves no test entries"),
    (dict(counts=(8, 4)), "no validation or test entries"),
    (dict(fractions=(0.5, 0.5, 0.0)), r"fractions=.* leaves no test entries"),
], ids=["no-validation", "no-test", "train-takes-all", "fractions-no-test"])
def test_real_experiment_rejects_an_empty_share(tmp_path, monkeypatch, split,
                                                empty):
    # an empty validation or test share scores every rank as nan
    path = tmp_path / "data.csv"
    _write_uos_csv(path)  # 8 x 80, every entry observed
    solves = []
    monkeypatch.setattr(experiments, "completer",
                        lambda name: lambda *a: solves.append(name))
    with pytest.raises(ValueError, match=empty):
        run_real_experiment(path, ranks=[1, 2, 5], **split)
    assert solves == []
