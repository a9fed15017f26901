"""Experiment orchestration: phase-transition grids, rank verification,
and real-data CSV benchmarks."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .identifiability import minimal_samples, uos_tensor_rank
from .io import SettingError, read_matrix_csv, write_pgm, write_report
from .pipeline import ALGORITHMS, LadmcConfig, check_rank, completer, lift_of
from .synth import gen_mask_uniform, gen_uos
from .tensorize import build_index_map, tensor_dimension, tensorize_matrix

@dataclass
class PhaseGridConfig:
    d: int
    r: int
    K_range: list
    m_range: list
    N_fixed: int | None = None
    N_per_K: int | None = 50  # paper-style N = 50 K column budget
    N_cap: int = 3000
    trials: int = 10
    success_tol: float = 1e-4
    algorithm: str = "ladmc"
    seed: int = 0
    completion: LadmcConfig = field(default_factory=LadmcConfig)
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "workers", "d", "N_fixed", "N_per_K", "N_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise SettingError(name, f"{name} must be >= 1, got {value}")
        if not self.success_tol > 0:
            raise SettingError("success_tol", "success_tol must be positive, "
                               f"got {self.success_tol}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.N_fixed is None and self.N_per_K is None:
            raise ValueError("need N_fixed or N_per_K")
        if not 1 <= self.r <= self.d:
            raise SettingError("r",
                               f"r must be in 1..d={self.d}, got {self.r}")
        if not self.K_range or min(self.K_range) < 1:
            raise SettingError("K_range", "K_range must be a non-empty list "
                               f"of K >= 1, got {self.K_range}")
        if not self.m_range or not all(1 <= m <= self.d for m in self.m_range):
            raise SettingError("m_range", "m_range must be a non-empty list "
                               f"of m in 1..d={self.d}, got {self.m_range}")
        order, _ = lift_of(self.algorithm, self.completion)
        for K in self.K_range:
            # fewer columns than the lifted rank leave nothing to complete
            R = uos_tensor_rank(K, self.r, self.d, order)
            name, N = self._budget(K)
            if R > N:
                raise SettingError(name, f"{name} must give at least the "
                                   f"lifted rank R={R} columns at K={K}, "
                                   f"got {N}")

    def _budget(self, K: int) -> tuple[str, int]:
        """The column count of a cell with K subspaces, and the setting
        that sets it."""
        if self.N_fixed is not None:
            name, N = "N_fixed", self.N_fixed
        else:
            name, N = "N_per_K", self.N_per_K * K
        return ("N_cap", self.N_cap) if self.N_cap < N else (name, N)

    def columns_for(self, K: int) -> int:
        return self._budget(K)[1]


@dataclass
class ExperimentRecord:
    config: PhaseGridConfig
    success_fraction: np.ndarray  # len(m_range) x len(K_range)
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
    order, _ = lift_of(cfg.algorithm, cfg.completion)
    R = uos_tensor_rank(K, cfg.r, cfg.d, order)
    X = gen_uos(cfg.d, K, cfg.r, N, seed=data_seed)
    mask = gen_mask_uniform(cfg.d, N, m, seed=mask_seed)
    return completer(cfg.algorithm)(np.where(mask, X, 0.0), mask, R,
                                    cfg.completion, X_true=X).nrmse


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
        # imported here: it brings in multiprocessing, which no other
        # command needs at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_phase_task, tasks, chunksize=1))
    else:
        results = [_phase_task(t) for t in tasks]

    mi = {m: i for i, m in enumerate(cfg.m_range)}
    ki = {K: i for i, K in enumerate(cfg.K_range)}
    shape = (len(cfg.m_range), len(cfg.K_range))
    successes = np.zeros(shape, dtype=int)
    secs = np.zeros(shape)
    for K, m, _, err, dt in results:
        cell = (mi[m], ki[K])
        successes[cell] += err < cfg.success_tol
        secs[cell] += dt
    p, _ = lift_of(cfg.algorithm, cfg.completion)
    record = ExperimentRecord(
        config=cfg,
        success_fraction=successes / cfg.trials,
        cell_seconds=secs,
        ell_overlay=[
            minimal_samples(uos_tensor_rank(K, cfg.r, cfg.d, p), p)
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
    X = gen_uos(d, K, r, N, seed=seed)
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
    return float(np.linalg.norm((pred - truth)[mask]) / np.sqrt(mask.sum()))


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
    completion: LadmcConfig = LadmcConfig(),
    out_dir=None,
) -> dict:
    """Train/validation/test benchmark on a CSV dataset (rows = features).

    Each column's observed entries are split by ``fractions`` (three
    shares summing to 1) or ``counts`` (train and validation entries; the
    rest is test).  Runs mean-fill, plain low-rank completion, and both
    lifted pipelines, each with the method ``completion``; each method's
    rank is chosen from ``ranks`` (at most ``min(d, N)`` raw, ``min(D, N)``
    lifted) by validation RMSE and scored on the test entries.
    """
    if counts is None:
        if (len(fractions) != 3 or not min(fractions) >= 0
                or not abs(sum(fractions) - 1) <= 1e-9):
            raise SettingError("fractions", "fractions must be three "
                               "non-negative shares summing to 1, got "
                               f"{tuple(fractions)}")
    elif len(counts) != 2 or min(counts) < 0:
        raise SettingError("counts", "counts must be two non-negative entry "
                           f"counts (train, val), got {tuple(counts)}")
    for R in ranks:
        check_rank(R, "ranks")
    X, observed = read_matrix_csv(data_path)
    rng = np.random.default_rng(seed)
    train, val, test = _split_entries(observed, fractions, counts, rng)

    keep = train.any(axis=0)
    X, train, val, test = X[:, keep], train[:, keep], val[:, keep], test[:, keep]
    d, N = X.shape
    # an empty share gives a nan RMSE for every rank: fail before any solve
    setting, split = (("counts", counts) if counts is not None
                      else ("fractions", fractions))
    empty_shares = [share for share, entries in (
        ("training", train), ("validation", val), ("test", test))
        if not entries.any()]
    if empty_shares:
        raise SettingError(setting, f"{setting}={tuple(split)} leaves no "
                           f"{' or '.join(empty_shares)} entries")

    results = {"excluded_columns": int(keep.size - keep.sum())}

    col_mean = (X * train).sum(axis=0) / train.sum(axis=0)
    mean_hat = np.broadcast_to(col_mean, (d, N))
    results["mean_fill"] = {
        "rank": 0,
        "val_rmse": _rmse(mean_hat, X, val),
        "test_rmse": _rmse(mean_hat, X, test),
    }

    usable = {}
    for name in ("lrmc", "ladmc", "iladmc"):
        order, ones = lift_of(name, completion)
        top = tensor_dimension(d + ones, order)
        usable[name] = [R for R in ranks if R <= min(top, N)]
        if not usable[name]:
            raise SettingError("ranks", f"{name}: no usable rank in "
                               f"{list(ranks)}; ranks must be <= "
                               f"{min(top, N)}")
    X_train = np.where(train, X, 0.0)
    for name, feasible in usable.items():
        best = None  # the first rank with the least validation RMSE
        for R in feasible:
            X_hat = completer(name)(X_train, train, R, completion).X_hat
            v = _rmse(X_hat, X, val)
            if best is None or v < best[1]:
                best = (R, v, X_hat)
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
