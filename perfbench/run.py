"""Time `ladmc` commands end to end, one child process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Each operation is one ``python -m ladmc.cli`` command on inputs made by
``data.py`` from the seed.  Wall time is taken around the child, CPU time
and peak resident set from the child's resource usage (``wait4``), so an
operation costs what a user of the command pays: start-up, CSV read, the
work, CSV write.  No BLAS thread variable is set; the child inherits the
environment as it is.

With ``--trace 1`` each operation runs under ``traced.py`` instead, which
wraps the public functions of each module and reports per-layer metrics.

This process imports no numpy: a spawned child's peak resident set counts
the parent's at spawn time, so the parent is kept small.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
TRACES = os.path.join(ROOT, ".perfbench_traces")

SETUP_SAMPLES = 7
# A run must end within 180 s; the longest operation here takes about 20 s.
OP_TIMEOUT_S = 120

_SOLVE = ["--accel", "--accel-restart", "500", "--max-iters", "4000",
          "--rel-tol", "1e-9"]
# name -> (input kind in data.py, ladmc command line)
WORKLOADS = {
    "ladmc-p2-paper": ("p2", ["complete", "--algorithm", "ladmc",
                              "--rank", "30", *_SOLVE]),
    "iladmc-p2-paper": ("p2", ["complete", "--algorithm", "iladmc",
                               "--rank", "30", "--inner-T", "30", "--accel",
                               "--rel-tol", "1e-9"]),
    "check-9of15": ("check", ["check", "--all-patterns", "--d", "15",
                              "--m", "9", "--rank", "30", "--trials", "1"]),
    "ladmc-p3-small": ("p3", ["complete", "--order", "3", "--rank", "8",
                              *_SOLVE]),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout_path: str | None = None) -> dict:
    """Run argv to its end; wall, CPU and peak RSS of the child.

    A child still running after OP_TIMEOUT_S is killed, and its non-zero
    status makes it a failed operation.
    """
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.PIPE if stdout_path is None
                                else out)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        err = proc.stderr.read() if stdout_path is None else b""
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    finally:
        if stdout_path:
            out.close()
        elif proc.stderr:
            proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0, "code": proc.returncode,
            "stderr": err.decode(errors="replace")}


def helper(*args: str) -> str:
    """Run data.py; its failure is the benchmark's, so it raises."""
    res = subprocess.run([sys.executable, os.path.join(HERE, "data.py"),
                          *args], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"data.py {args[0]} failed:\n{res.stderr}")
    return res.stdout


def measure_setup() -> float:
    """Median wall time of a fresh process that imports ladmc.cli."""
    times = []
    for _ in range(SETUP_SAMPLES):
        r = spawn([sys.executable, "-c", "import ladmc.cli"])
        if r["code"] != 0:
            raise RuntimeError(f"cannot import ladmc.cli:\n{r['stderr']}")
        times.append(r["wall"])
    return statistics.median(times)


def op_argv(workload: str, seed: int, run_dir: str, out_dir: str,
            trace_file: str | None) -> list[str]:
    kind, cmd = WORKLOADS[workload]
    argv = [*cmd, "--seed", str(seed), "--out-dir", out_dir]
    if kind != "check":
        argv += ["--input", os.path.join(run_dir, "X.csv")]
    if trace_file is None:
        return [sys.executable, "-m", "ladmc.cli", *argv]
    return [sys.executable, os.path.join(HERE, "traced.py"), trace_file,
            *argv]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    kind, _ = WORKLOADS[workload]
    run_dir = os.path.join(RUNS, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        setup_s = None if trace else measure_setup()
        helper("make", kind, str(seed), run_dir)
        ops, outs = [], []
        start = time.perf_counter()
        # Whole operations only: the next one starts if, at the median
        # pace so far, it ends within the run length.
        while not ops or (time.perf_counter() - start
                          + statistics.median(o["wall"] for o in ops)
                          <= seconds):
            out_dir = os.path.join(run_dir, f"out{len(ops)}")
            os.makedirs(out_dir)
            trace_file = os.path.join(out_dir, "trace.json") if trace else None
            r = spawn(op_argv(workload, seed, run_dir, out_dir, trace_file),
                      os.path.join(out_dir, "stdout.txt"))
            ops.append(r)
            outs.append(out_dir)
        verdicts = json.loads(helper("check", kind, run_dir, *outs))
        if trace:
            layers = [read_trace(os.path.join(out, "trace.json"))
                      for out in outs]
            # the spans of the last operation are kept, one file per workload
            if os.path.exists(trace_file):
                os.makedirs(TRACES, exist_ok=True)
                shutil.copyfile(trace_file,
                                os.path.join(TRACES, f"{workload}.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct, failed = tally([o["code"] for o in ops], verdicts)
    for o, v in zip(ops, verdicts):
        if not v["ok"]:
            print(f"failed operation: exit {o['code']}, {v['why']}",
                  file=sys.stderr)
    # Time the operations that passed; if none did, time them all.
    keep = [v["ok"] for v in verdicts]
    keep = keep if any(keep) else [True] * len(ops)
    good = [o for o, k in zip(ops, keep) if k]
    if trace:
        metrics = layer_metrics([m for m, k in zip(layers, keep) if k and m],
                                good)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(o["wall"] for o in good), "s"),
            "cpu_s": (statistics.median(o["cpu"] for o in good), "s"),
            "peak_rss_mb": (max(o["rss_mb"] for o in ops), "MB"),
        }
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def tally(codes: list[int], verdicts: list[dict]) -> tuple[bool, int]:
    """(correct, failed) over operations.

    An operation fails if it exits non-zero or its output fails the check.
    The run is not correct if an operation reported success (exit 0) and
    wrote a wrong output.
    """
    failed = [code != 0 or not v["ok"] for code, v in zip(codes, verdicts)]
    wrong = [code == 0 and not v["ok"] for code, v in zip(codes, verdicts)]
    return not any(wrong), sum(failed)


def read_trace(path: str) -> dict | None:
    """Per-layer metrics that traced.py wrote, or None if it wrote none."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["metrics"]


def layer_metrics(per_op: list[dict], ops: list[dict]) -> dict:
    """Median over operations of each per-layer metric from traced.py."""
    metrics = {name: (statistics.median(m[name][0] for m in per_op),
                      per_op[0][name][1])
               for name in per_op[0]}
    metrics["trace.op_s"] = (statistics.median(o["wall"] for o in ops), "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ladmc", "cli.py")):
        print(f"no ladmc sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(name, file=sys.stderr)
            for k, m in result["metrics"].items():
                print(f"  {k} = {m['value']:.6g} {m['unit']}",
                      file=sys.stderr)
            print(f"  attempted = {result['attempted']}, "
                  f"failed = {result['failed']}", file=sys.stderr)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
