"""The traced benchmark still finds every layer it wraps.

``perfbench/traced.py`` replaces module attributes (``pipeline.svp_complete``,
``lrmc.np`` and so on) with timed wrappers, so each command runs in its own
interpreter: the patches must not leak into the other tests.  A renamed
attribute, or a caller that binds its function before the wrapper is put in
place, shows here as a zero metric instead of as a silent gap in
``--trace 1``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ladmc.identifiability import build_constraint_patterns
from ladmc.io import write_matrix_csv
from ladmc.synth import gen_all_patterns, gen_mask_uniform, gen_uos
from ladmc.tensorize import build_index_map, tensorize_mask

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, name, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace = tmp_path / f"{name}.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace),
         *args, "--out-dir", str(tmp_path / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return {k: v for k, (v, _) in json.loads(trace.read_text())["metrics"]
            .items()}


def test_traced_complete_reaches_every_solve_layer(tmp_path):
    X = gen_uos(6, 2, 1, 200, seed=3)
    mask = gen_mask_uniform(6, 200, 4, seed=4)
    write_matrix_csv(tmp_path / "X.csv", np.where(mask, X, 0.0), mask=mask)
    m = _traced(tmp_path, "complete",
                ["complete", "--input", str(tmp_path / "X.csv"),
                 "--rank", "2", "--max-iters", "50"])
    for name in ("lrmc.solve_calls", "tensorize.lift_calls",
                 "pipeline.run_s"):
        assert m[name] > 0, name


def test_traced_check_reaches_build_A(tmp_path):
    m = _traced(tmp_path, "check",
                ["check", "--all-patterns", "--d", "6", "--m", "4",
                 "--rank", "2", "--trials", "1"])
    assert m["identifiability.build_A_s"] > 0
    # every constraint goes through the wrapped build_constraint_patterns
    # once, and no trial needs the exact second pass
    imap = build_index_map(6, 2)
    cp = build_constraint_patterns(
        tensorize_mask(gen_all_patterns(6, 4), imap), 2)
    assert m["identifiability.blocks"] == cp.columns.shape[1] > 0
