"""Inputs and output checks for the benchmark, written apart from ``ladmc``.

Nothing here imports the package under test: the truth each operation is
judged against comes from this file alone.

    python data.py make  <kind> <seed> <dir>      write the inputs of a run
    python data.py check <kind> <dir> <out>...    judge operations

``make`` writes ``X.csv`` (observed entries, blanks elsewhere) and keeps the
truth in ``truth.npz`` for ``check``.  ``check`` prints a JSON list with
``ok`` and ``why`` for each output directory; its exit status is 0 either
way, so that a failed operation is counted rather than raised.  <kind> is
``p2``, ``p3`` or ``check``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np

ERROR_TOL = 1e-4  # relative Frobenius error a completion must beat
RANK_TOL = 1e-8   # singular values below this share of the largest are 0

# Union-of-subspaces inputs of the `complete` workloads.
UOS = {
    "p2": dict(d=15, K=10, r=2, N=2700, m=11, p=2, unit_norm=False),
    "p3": dict(d=6, K=2, r=2, N=200, m=5, p=3, unit_norm=True),
}
# The identifiability workload: all m-of-d patterns, lifted rank R, order 2.
CHECK = dict(d=15, m=9, R=30, p=2)

# The one draw that every seed of a `complete` workload relabels.
BASE_SEED = 0
# Stream tags keep the inputs of different workloads independent even when
# they share a seed.
_TAGS = {"p2": 2, "p3": 3, "check": 9}


def rng_for(kind: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _TAGS[kind]])


def monomials(d: int, p: int) -> np.ndarray:
    """Sorted degree-p multi-indices of range(d), lexicographic, (D, p)."""
    return np.array(list(itertools.combinations_with_replacement(range(d), p)))


def lift(X: np.ndarray, p: int) -> np.ndarray:
    return np.prod(X[monomials(X.shape[0], p)], axis=1)


def rank(M: np.ndarray) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def make_uos(kind: str, seed: int):
    """Columns on K random r-dim subspaces of R^d, m observed per column.

    Returns (truth, mask).  The subspaces, coefficients and mask are drawn
    once, from BASE_SEED; the seed then permutes the rows and the columns
    and flips the signs of columns.  Completion is equivariant under these
    relabelings, so every seed poses the same problem with the same work
    (up to rounding order) in different bytes.  Fresh draws per seed would
    not: the solver's iteration count varies from draw to draw by more than
    the benchmark's bounds (see README.md).

    Raises if the truth's lifted rank is not the closed form K * C(r+p-1, p):
    a degenerate draw must not become a workload.
    """
    c = UOS[kind]
    d, K, r, N, m, p = c["d"], c["K"], c["r"], c["N"], c["m"], c["p"]
    rng = rng_for(kind, BASE_SEED)
    bases = rng.standard_normal((K, d, r))
    labels = rng.permutation(np.arange(N) % K)
    coeffs = rng.standard_normal((r, N))
    X = np.einsum("ndr,rn->dn", bases[labels], coeffs)
    if c["unit_norm"]:
        X /= np.linalg.norm(X, axis=0)
    mask = np.zeros((d, N), dtype=bool)
    rows = np.argsort(rng.random((d, N)), axis=0)[:m]
    np.put_along_axis(mask, rows, True, axis=0)
    expected = K * math.comb(r + p - 1, p)
    got = rank(lift(X, p))
    if got != expected:
        raise RuntimeError(f"{kind}: lifted rank {got}, closed form {expected}")
    rng = rng_for(kind, seed)
    row, col = rng.permutation(d), rng.permutation(N)
    signs = rng.choice([-1.0, 1.0], size=N)
    return X[row][:, col] * signs, mask[row][:, col]


def write_observed_csv(path: str, X: np.ndarray, mask: np.ndarray) -> None:
    # repr() round-trips a float exactly, so observed entries can be
    # compared for equality with what the program writes back.
    with open(path, "w") as fh:
        for xrow, mrow in zip(X, mask):
            fh.write(",".join(repr(float(v)) if o else ""
                              for v, o in zip(xrow, mrow)) + "\n")


def read_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: ragged or empty")
    return np.array([[float(v) if v else np.nan for v in r] for r in rows])


def kernel_dim(seed: int) -> int:
    """Dimension of the lifted subspaces that agree with a generic R-dim
    subspace on every canonical projection of the CHECK patterns.

    Each m-of-d pattern observes the C(m+1, 2) lifted rows whose factors
    are all observed.  The left null space of a random D x R basis
    restricted to those rows holds every linear constraint that pattern
    puts on the subspace; stacking the null spaces of all patterns and
    taking D minus their rank gives the kernel dimension.  This is one
    batched SVD per chunk of patterns, not one SVD per (R+1)-row block,
    and the rank comes from a running QR factor of the stacked
    constraints.
    """
    d, m, R, p = CHECK["d"], CHECK["m"], CHECK["R"], CHECK["p"]
    mono = monomials(d, p)
    D = len(mono)
    B = rng_for("check", seed).standard_normal((D, R))
    patterns = np.array(list(itertools.combinations(range(d), m)))
    observed = np.zeros((len(patterns), d), dtype=bool)
    np.put_along_axis(observed, patterns, True, axis=1)
    lifted = observed[:, mono].all(axis=2)          # (n_patterns, D)
    rows = np.nonzero(lifted)[1].reshape(len(patterns), -1)
    Rfac = np.zeros((0, D))
    for lo in range(0, len(patterns), 500):
        idx = rows[lo:lo + 500]                     # (n, L) lifted rows
        U, s, _ = np.linalg.svd(B[idx], full_matrices=True)
        if np.any(s[:, -1] <= RANK_TOL * s[:, 0]):
            raise RuntimeError("degenerate restriction of the random basis")
        null = U[:, :, R:]                          # (n, L, L-R)
        C = np.zeros((idx.shape[0], null.shape[2], D))
        np.put_along_axis(C, idx[:, None, :],
                          np.swapaxes(null, 1, 2), axis=2)
        stacked = np.vstack([Rfac, C.reshape(-1, D)])
        Rfac = np.linalg.qr(stacked, mode="r")
    return D - rank(Rfac)


def parse_report(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_complete(run_dir: str, out_dir: str) -> str | None:
    """Why the completion in out_dir is wrong, or None if it is right."""
    t = np.load(os.path.join(run_dir, "truth.npz"))
    X0, mask = t["X"], t["mask"]
    observed = read_csv(os.path.join(run_dir, "X.csv"))
    path = os.path.join(out_dir, "X_hat.csv")
    if not os.path.exists(path):
        return "no X_hat.csv"
    X_hat = read_csv(path)
    if X_hat.shape != X0.shape:
        return f"shape {X_hat.shape} != {X0.shape}"
    if not np.isfinite(X_hat).all():
        return "non-finite entries"
    if not np.array_equal(X_hat[mask], observed[mask]):
        return "an observed entry was changed"
    err = np.linalg.norm(X_hat - X0) / np.linalg.norm(X0)
    if not err < ERROR_TOL:
        return f"relative error {err:.3e} >= {ERROR_TOL}"
    return None


def check_verdict(run_dir: str, out_dir: str) -> str | None:
    """Why the identifiability report in out_dir is wrong, or None."""
    with open(os.path.join(run_dir, "kernel_dim.json")) as fh:
        expected = json.load(fh)
    path = os.path.join(out_dir, "verdict.txt")
    rep = {}
    if os.path.exists(path):
        with open(path) as fh:
            rep = parse_report(fh.read())
    if rep.get("identifiable") != "yes":
        return f"identifiable={rep.get('identifiable')}"
    try:
        k = int(rep.get("kernel_dim", ""))
    except ValueError:
        return f"kernel_dim={rep.get('kernel_dim')!r}"
    if k < CHECK["R"]:
        return f"kernel_dim {k} < R={CHECK['R']}"
    if k != expected:
        return f"kernel_dim {k} != independent computation {expected}"
    return None


def make(kind: str, seed: int, run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    if kind == "check":
        k = kernel_dim(seed)
        if k != CHECK["R"]:
            raise RuntimeError(f"independent kernel dimension {k} != R")
        with open(os.path.join(run_dir, "kernel_dim.json"), "w") as fh:
            json.dump(k, fh)
        return
    X, mask = make_uos(kind, seed)
    np.savez(os.path.join(run_dir, "truth.npz"), X=X, mask=mask)
    write_observed_csv(os.path.join(run_dir, "X.csv"), X, mask)


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "make":
        make(argv[1], int(argv[2]), argv[3])
        return 0
    if len(argv) >= 4 and argv[0] == "check":
        judge = check_verdict if argv[1] == "check" else check_complete
        whys = [judge(argv[2], out) for out in argv[3:]]
        print(json.dumps([{"ok": why is None, "why": why} for why in whys]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
