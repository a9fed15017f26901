"""Show that the benchmark's checks count damaged outputs as failed.

    python3 perfbench/selftest.py

Builds one `ladmc-p3-small` input and one identifiability expectation,
writes a right output for each and then damaged copies, and judges them
with the same code ``run.py`` uses.  Exits 0 if every right output passes
and every damaged one is counted as failed.  Needs numpy, not ladmc.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import data
import run


def write_csv(path, X):
    with open(path, "w") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n"
                      for row in X)


def write_verdict(path, items):
    with open(path, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in items.items())


def complete_cases(X0, mask):
    """name -> completed matrix; only "right" should pass."""
    unobserved = np.argwhere(~mask)[0]
    perturbed = X0.copy()
    perturbed[tuple(unobserved)] += 1e-2
    flipped = X0.copy()
    flipped[:, 3] *= -1.0
    observed = X0.copy()
    observed[tuple(np.argwhere(mask)[0])] += 1e-12
    nan = X0.copy()
    nan[tuple(unobserved)] = np.nan
    return {"right": X0, "perturbed unobserved entry": perturbed,
            "sign-flipped column": flipped,
            "changed observed entry": observed,
            "non-finite entry": nan, "missing column": X0[:, :-1]}


def verdict_cases():
    ok = {"identifiable": "yes", "kernel_dim": "30"}
    return {"right": ok, "identifiable=no": {**ok, "identifiable": "no"},
            "kernel_dim below R": {**ok, "kernel_dim": "29"},
            "kernel_dim disagrees": {**ok, "kernel_dim": "31"}}


def judge(kind, run_dir, cases, write):
    """Counts from run.tally for each case, printed; True if all as meant."""
    good = True
    for name, case in cases.items():
        out = os.path.join(run_dir, name.replace(" ", "_"))
        os.makedirs(out)
        write(out, case)
        why = (data.check_verdict if kind == "check"
               else data.check_complete)(run_dir, out)
        correct, failed = run.tally([0], [{"ok": why is None, "why": why}])
        meant = failed == 0 if name == "right" else failed == 1
        good &= meant and correct == (failed == 0)
        print(f"{'ok ' if meant else 'BAD'} {kind:5s} {name}: "
              f"failed={failed} ({why})")
    return good


def main() -> int:
    tmp = os.path.join(run.RUNS, f"selftest-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        p3 = os.path.join(tmp, "p3")
        data.make("p3", 0, p3)
        t = np.load(os.path.join(p3, "truth.npz"))
        ok = judge("p3", p3, complete_cases(t["X"], t["mask"]),
                   lambda out, X: write_csv(os.path.join(out, "X_hat.csv"), X))
        chk = os.path.join(tmp, "check")
        os.makedirs(chk)
        with open(os.path.join(chk, "kernel_dim.json"), "w") as fh:
            fh.write(str(data.CHECK["R"]))
        ok &= judge("check", chk, verdict_cases(),
                    lambda out, rep: write_verdict(
                        os.path.join(out, "verdict.txt"), rep))
    finally:
        shutil.rmtree(tmp)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
