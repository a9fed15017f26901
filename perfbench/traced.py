"""Run one `ladmc` command in-process with a span around each layer call.

    python traced.py <trace.json> <ladmc arguments...>

Each public function that one module calls in another is wrapped where the
caller looks it up (``pipeline.svp_complete``, ``lrmc.truncated_svd_project``
and so on), so the package runs unchanged.  Spans (name, start, end,
parent, extra) are kept in memory; at the end they are written to
<trace.json> together with the per-layer metrics derived from them.  A
layer that does not run in the command reports 0.
"""

from __future__ import annotations

import json
import sys
import time

import numpy

from ladmc import cli, identifiability, io, lrmc, pipeline


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra]
        self._stack = []

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace owner.attr with a spanned call; extra(result) -> number."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            spans[idx][1] = t0
            if extra is not None:
                spans[idx][4] = extra(out)
            return out

        setattr(owner, attr, spanned)


class _Namespace:
    """Stands in for a module: own attributes first, the module's after."""

    def __init__(self, module, **own):
        self._module = module
        self.__dict__.update(own)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(tr: Tracer) -> None:
    for attr in ("read_matrix_csv", "read_mask_csv"):
        tr.wrap(io, attr, "io.read")
    for attr in ("write_matrix_csv", "write_report"):
        tr.wrap(io, attr, "io.write")
    for attr in ("ladmc", "iladmc"):
        tr.wrap(pipeline, attr, "pipeline.run",
                lambda rep: rep.outer_iterations)
    tr.wrap(pipeline, "tensorize_matrix", "tensorize.lift",
            lambda out: out[0].size)
    tr.wrap(identifiability, "tensorize_mask", "tensorize.mask")
    tr.wrap(pipeline, "svp_complete", "lrmc.solve",
            lambda out: [out[1].iterations_run, out[1].converged])
    tr.wrap(lrmc, "truncated_svd_project", "lrmc.project")
    # the SVD that ends every solve is found by its parent span
    linalg = _Namespace(numpy.linalg)
    tr.wrap(linalg, "svd", "lrmc.svd")
    lrmc.np = _Namespace(numpy, linalg=linalg)
    tr.wrap(pipeline, "preimage_column", "preimage.column")
    tr.wrap(pipeline, "rank1_gap", "preimage.gap")
    tr.wrap(identifiability, "check_identifiable_algebraic",
            "identifiability.check")
    tr.wrap(identifiability, "build_constraint_patterns",
            "identifiability.constraints", lambda cp: cp.columns.shape[1])
    tr.wrap(identifiability, "build_A", "identifiability.build_A",
            lambda A: A.nbytes)
    tr.wrap(identifiability, "numerical_rank", "identifiability.rank")
    tr.wrap(cli, "main", "cli.main")


def layer_metrics(spans: list) -> dict:
    """name -> [value, unit] for every layer, 0 where a layer did not run."""
    dur = [s[2] - s[1] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_s[s[3]] += dur[i]

    def parent_name(i):
        return spans[spans[i][3]][0] if spans[i][3] >= 0 else None

    def pick(name, under=None):
        return [i for i, s in enumerate(spans) if s[0] == name
                and parent_name(i) != name
                and (under is None or parent_name(i) == under)]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - child_s[i] for i in idx)

    def ratio(a, b, scale):
        return a / b * scale if b else 0.0

    MB = 2.0 ** 20
    main, run = pick("cli.main"), pick("pipeline.run")
    lift, solve = pick("tensorize.lift"), pick("lrmc.solve")
    project, col = pick("lrmc.project"), pick("preimage.column")
    blocks = sum(spans[i][4] for i in pick("identifiability.constraints"))
    build_A = pick("identifiability.build_A")
    iters = sum(spans[i][4][0] for i in solve)
    m = {
        "cli.main_s": (total(main), "s"),
        "cli.self_s": (self_time(main), "s"),
        "io.read_s": (total(pick("io.read")), "s"),
        "io.write_s": (total(pick("io.write")), "s"),
        "pipeline.run_s": (total(run), "s"),
        "pipeline.self_s": (self_time(run), "s"),
        "pipeline.outer_passes": (sum(spans[i][4] for i in run), "count"),
        "tensorize.lift_s": (total(lift), "s"),
        "tensorize.lift_calls": (len(lift), "count"),
        "tensorize.lifted_mb": (max((spans[i][4] * 8 / MB for i in lift),
                                    default=0.0), "MB"),
        "tensorize.mask_s": (total(pick("tensorize.mask")), "s"),
        "tensorize.mask_calls": (len(pick("tensorize.mask")), "count"),
        "lrmc.solve_s": (total(solve), "s"),
        "lrmc.solve_calls": (len(solve), "count"),
        "lrmc.iters": (iters, "count"),
        "lrmc.ms_per_iter": (ratio(total(solve), iters, 1e3), "ms"),
        "lrmc.project_s": (total(project), "s"),
        "lrmc.project_ms": (ratio(total(project), len(project), 1e3), "ms"),
        "lrmc.self_s": (self_time(solve), "s"),
        "lrmc.final_svd_s": (total(pick("lrmc.svd", under="lrmc.solve")),
                             "s"),
        "lrmc.unconverged": (sum(not spans[i][4][1] for i in solve),
                             "count"),
        "preimage.column_s": (total(col), "s"),
        "preimage.columns": (len(col), "count"),
        "preimage.us_per_column": (ratio(total(col), len(col), 1e6), "us"),
        "preimage.gap_s": (total(pick("preimage.gap")), "s"),
        "identifiability.constraints_s":
            (total(pick("identifiability.constraints")), "s"),
        "identifiability.blocks": (blocks, "count"),
        "identifiability.build_A_s": (total(build_A), "s"),
        "identifiability.us_per_block":
            (ratio(total(build_A), blocks, 1e6), "us"),
        "identifiability.rank_s":
            (total(pick("identifiability.rank",
                        under="identifiability.check")), "s"),
        "identifiability.A_mb": (max((spans[i][4] / MB for i in build_A),
                                     default=0.0), "MB"),
    }
    return {k: [v, u] for k, (v, u) in m.items()}


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    code = cli.main(args)
    with open(out_path, "w") as fh:
        json.dump({"metrics": layer_metrics(tr.spans), "spans": tr.spans},
                  fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
