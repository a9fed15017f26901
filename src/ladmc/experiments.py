"""Experiment orchestration: phase-transition grids, rank verification,
and real-data CSV benchmarks."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .identifiability import minimal_samples, uos_tensor_rank
from .io import write_pgm, write_report
from .lrmc import SvpOptions
from .pipeline import ALGORITHMS, LadmcConfig, completer
from .synth import gen_mask_uniform, gen_uos
from .tensorize import build_index_map, tensorize_matrix

@dataclass
class PhaseGridConfig:
    d: int
    r: int
    K_range: list
    m_range: list
    p: int = 2
    N_fixed: int | None = None
    N_per_K: int | None = 50  # paper-style N = 50 K column budget
    N_cap: int = 3000
    trials: int = 10
    success_tol: float = 1e-4
    algorithm: str = "ladmc"
    seed: int = 0
    step_size: float = 1.0
    max_iters: int = 500
    rel_tol: float = 1e-6
    accel: bool = False
    accel_restart: int = 300
    inner_T: int = 30
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.success_tol <= 0:
            raise ValueError("success_tol must be positive")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.N_fixed is None and self.N_per_K is None:
            raise ValueError("need N_fixed or N_per_K")

    def columns_for(self, K: int) -> int:
        N = self.N_fixed if self.N_fixed is not None else self.N_per_K * K
        return min(N, self.N_cap)


@dataclass
class ExperimentRecord:
    config: PhaseGridConfig
    success_fraction: np.ndarray  # len(m_range) x len(K_range)
    mean_nrmse: np.ndarray
    cell_seconds: np.ndarray
    ell_overlay: list = field(default_factory=list)  # one l per K


def _trial_seeds(seed: int, K: int, m: int, trial: int) -> tuple[int, int]:
    ss = np.random.SeedSequence([seed, K, m, trial])
    a, b = ss.generate_state(2)
    return int(a), int(b)


def run_phase_trial(cfg: PhaseGridConfig, K: int, m: int, trial: int) -> float:
    """One seeded completion instance; returns its reconstruction error."""
    data_seed, mask_seed = _trial_seeds(cfg.seed, K, m, trial)
    N = cfg.columns_for(K)
    if cfg.algorithm == "lrmc":
        R = min(K * cfg.r, cfg.d)
    else:
        R = uos_tensor_rank(K, cfg.r, cfg.d, cfg.p)
    if R > N:
        return float("inf")  # fewer columns than the rank: no completion
    X, _ = gen_uos(cfg.d, K, cfg.r, N, seed=data_seed)
    mask = gen_mask_uniform(cfg.d, N, m, seed=mask_seed)
    pipe_cfg = LadmcConfig(
        p=cfg.p, rank_R=R,
        svp=SvpOptions(rank=R, step_size=cfg.step_size,
                       max_iters=cfg.max_iters, rel_tol=cfg.rel_tol,
                       accel=cfg.accel, accel_restart=cfg.accel_restart),
        iladmc_inner_T=cfg.inner_T,
    )
    algo = completer(cfg.algorithm)
    return algo(np.where(mask, X, 0.0), mask, pipe_cfg, X_true=X).nrmse


def _phase_task(args):
    cfg, K, m, trial = args
    t0 = time.perf_counter()
    try:
        err = run_phase_trial(cfg, K, m, trial)
    except np.linalg.LinAlgError:
        # a numerical breakdown is a failed trial, never an aborted grid;
        # any other exception is a bug and propagates
        err = float("inf")
    return K, m, trial, err, time.perf_counter() - t0


def run_phase_grid(cfg: PhaseGridConfig, out_dir=None) -> ExperimentRecord:
    """Success fraction per (m, K) cell over seeded trials.

    Trials are independent with RNG streams keyed by (seed, K, m, trial),
    so results do not depend on the execution schedule or worker count.
    """
    tasks = [
        (cfg, K, m, t)
        for m in cfg.m_range for K in cfg.K_range for t in range(cfg.trials)
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_phase_task, tasks, chunksize=1))
    else:
        results = [_phase_task(t) for t in tasks]

    mi = {m: i for i, m in enumerate(cfg.m_range)}
    ki = {K: i for i, K in enumerate(cfg.K_range)}
    shape = (len(cfg.m_range), len(cfg.K_range))
    successes = np.zeros(shape, dtype=int)
    err_sum = np.zeros(shape)
    secs = np.zeros(shape)
    for K, m, _, err, dt in results:
        cell = (mi[m], ki[K])
        successes[cell] += err < cfg.success_tol
        err_sum[cell] += err if np.isfinite(err) else 1.0
        secs[cell] += dt
    record = ExperimentRecord(
        config=cfg,
        success_fraction=successes / cfg.trials,
        mean_nrmse=err_sum / cfg.trials,
        cell_seconds=secs,
        ell_overlay=[
            minimal_samples(uos_tensor_rank(K, cfg.r, cfg.d, cfg.p), cfg.p)
            for K in cfg.K_range
        ],
    )
    if out_dir is not None:
        _write_phase_outputs(record, out_dir)
    return record


def _write_phase_outputs(record: ExperimentRecord, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cfg = record.config
    grid_path = os.path.join(out_dir, f"phase_{cfg.algorithm}.csv")
    with open(grid_path, "w") as fh:
        fh.write("m\\K," + ",".join(str(K) for K in cfg.K_range) + "\n")
        for i, m in enumerate(cfg.m_range):
            row = ",".join(f"{v:.4f}" for v in record.success_fraction[i])
            fh.write(f"{m},{row}\n")
    write_pgm(os.path.join(out_dir, f"phase_{cfg.algorithm}.pgm"),
              record.success_fraction)
    with open(os.path.join(out_dir, "ell_overlay.csv"), "w") as fh:
        fh.write("K,ell\n")
        for K, ell in zip(cfg.K_range, record.ell_overlay):
            fh.write(f"{K},{ell}\n")


def rank_verify(
    K: int, r: int, d: int, p: int, N: int, seed: int = 0
) -> dict:
    """Numerical rank of lifted UoS data against the closed-form value."""
    X, _ = gen_uos(d, K, r, N, seed=seed)
    imap = build_index_map(d, p)
    T, _ = tensorize_matrix(X, np.ones_like(X, dtype=bool), imap)
    s = np.linalg.svd(T, compute_uv=False)
    R = uos_tensor_rank(K, r, d, p)
    sig_R = s[R - 1] / s[0] if R <= s.size else 0.0
    sig_next = s[R] / s[0] if R < s.size else 0.0
    return {
        "K": K, "r": r, "d": d, "p": p, "N": N,
        "formula_rank": R,
        "sigma_R_rel": float(sig_R),
        "sigma_next_rel": float(sig_next),
        "pass": bool(sig_R > 1e-6 and sig_next < 1e-8),
    }


def _rmse(pred: np.ndarray, truth: np.ndarray, mask: np.ndarray) -> float:
    n = int(mask.sum())
    if n == 0:
        return float("nan")
    return float(np.linalg.norm((pred - truth)[mask]) / np.sqrt(n))


def _split_entries(observed, fractions, counts, rng):
    """Per-column random split of observed entries into train/val/test."""
    d, N = observed.shape
    train = np.zeros_like(observed)
    val = np.zeros_like(observed)
    test = np.zeros_like(observed)
    for j in range(N):
        idx = np.nonzero(observed[:, j])[0]
        idx = rng.permutation(idx)
        if counts is not None:
            n_train, n_val = counts
        else:
            n_train = int(round(fractions[0] * idx.size))
            n_val = int(round(fractions[1] * idx.size))
        train[idx[:n_train], j] = True
        val[idx[n_train:n_train + n_val], j] = True
        test[idx[n_train + n_val:], j] = True
    return train, val, test


def run_real_experiment(
    data_path,
    ranks,
    fractions=(0.5, 0.25, 0.25),
    counts=None,
    seed: int = 0,
    p: int = 2,
    inner_T: int = 30,
    max_iters: int = 500,
    rel_tol: float = 1e-6,
    out_dir=None,
) -> dict:
    """Train/validation/test benchmark on a CSV dataset (rows = features).

    Runs mean-fill, plain low-rank completion, and both lifted pipelines;
    the rank for each completion method is chosen from ``ranks`` by
    validation RMSE and scored on the test entries.
    """
    from .io import read_matrix_csv

    if counts is None and sum(fractions) > 1 + 1e-9:
        raise ValueError(f"split fractions sum to {sum(fractions)} > 1")
    X, observed = read_matrix_csv(data_path)
    rng = np.random.default_rng(seed)
    train, val, test = _split_entries(observed, fractions, counts, rng)

    empty = np.nonzero(train.sum(axis=0) == 0)[0]
    if empty.size:
        keep = train.sum(axis=0) > 0
        X, train, val, test = X[:, keep], train[:, keep], val[:, keep], test[:, keep]
    d, N = X.shape

    results = {"excluded_columns": int(empty.size)}

    col_mean = np.where(
        train.sum(axis=0) > 0,
        (X * train).sum(axis=0) / np.maximum(train.sum(axis=0), 1), 0.0)
    mean_hat = np.broadcast_to(col_mean, (d, N))
    results["mean_fill"] = {
        "rank": 0,
        "val_rmse": _rmse(mean_hat, X, val),
        "test_rmse": _rmse(mean_hat, X, test),
    }

    def pick_best(run_for_rank, feasible):
        best = None
        for R in feasible:
            X_hat = run_for_rank(R)
            v = _rmse(X_hat, X, val)
            if best is None or v < best[1]:
                best = (R, v, X_hat)
        return best

    lifted_D = build_index_map(d, p).D
    for name, top in (("lrmc", d), ("ladmc", lifted_D), ("iladmc", lifted_D)):
        def run(R, algo=completer(name)):
            cfg = LadmcConfig(
                p=p, rank_R=R,
                svp=SvpOptions(rank=R, max_iters=max_iters, rel_tol=rel_tol),
                iladmc_inner_T=inner_T,
            )
            return algo(np.where(train, X, 0.0), train, cfg).X_hat

        best = pick_best(run, [R for R in ranks if R <= min(top, N)])
        results[name] = {"rank": best[0], "val_rmse": best[1],
                         "test_rmse": _rmse(best[2], X, test)}

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        flat = {"excluded_columns": results["excluded_columns"]}
        for name in ("mean_fill", "lrmc", "ladmc", "iladmc"):
            for k, v in results[name].items():
                flat[f"{name}.{k}"] = v
        write_report(os.path.join(out_dir, "real_report.txt"), flat)
        with open(os.path.join(out_dir, "real_rmse.csv"), "w") as fh:
            fh.write("method,rank,val_rmse,test_rmse\n")
            for name in ("mean_fill", "lrmc", "ladmc", "iladmc"):
                r = results[name]
                fh.write(f"{name},{r['rank']},{r['val_rmse']},{r['test_rmse']}\n")
    return results
