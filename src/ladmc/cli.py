"""Command-line interface.

Subcommands: synth, complete, check, phase, rank-verify, real.
Each ``--config FILE`` (or ``--config=FILE``) holds ``key=value`` lines,
keys being flag names without the leading dashes; the files are read in
order, and explicit flags override them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments, identifiability, io, pipeline, synth
from .lrmc import SvpOptions


def _int_list(text: str) -> list:
    return [int(v) for v in text.replace(":", ",").split(",") if v]


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def _usage_error(message):
    """Exit 2 with the one line ``ladmc: error: message``."""
    sys.stderr.write(f"ladmc: error: {message}\n")
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """argparse's own errors, such as a missing flag or a value outside its
    choices, as the same one line; subparsers take this class too."""

    def error(self, message):
        _usage_error(message)


def _splice_config(argv) -> list:
    """argv with its --config flags replaced by their files' lines, read in
    order and put after the subcommand, before the explicit flags."""
    pre = _Parser(prog="ladmc", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", action="append", default=[])
    known, rest = pre.parse_known_args(argv)
    tokens = []
    for path in known.config:
        if not os.path.isfile(path):
            _usage_error(f"--config {path}: no such file")
        with open(path) as fh:
            for line in map(str.strip, fh):
                if line and not line.startswith("#"):
                    # a line with only a key is a switch: augment-ones
                    key, eq, value = line.partition("=")
                    tokens.append(f"--{key.strip()}")
                    if eq:
                        tokens.append(value.strip())
    return rest[:1] + tokens + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ladmc",
        description="Matrix completion for data on low-dimensional "
                    "algebraic varieties, via tensor lifting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed_help=None):
        sp.add_argument("--seed", type=int, default=0, help=seed_help)
        sp.add_argument("--out-dir", default=".")

    def solver_flags(sp):
        # complete, phase and real: each default is its dataclass's own
        sp.add_argument("--inner-T", type=int,
                        default=pipeline.LadmcConfig.iladmc_inner_T)
        sp.add_argument("--max-iters", type=int, default=SvpOptions.max_iters)
        sp.add_argument("--rel-tol", type=float, default=SvpOptions.rel_tol)
        sp.add_argument("--accel", action="store_true",
                        help="changes nothing: momentum is always on")
        sp.add_argument("--accel-restart", type=int,
                        default=SvpOptions.accel_restart,
                        help="longest momentum run between restarts")

    sp = sub.add_parser("synth", help="generate synthetic UoS data + mask")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--K", type=int, default=1)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--m", type=int, help="observed rows per column")
    common(sp)

    sp = sub.add_parser("complete", help="complete a matrix from CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--mask", help="0/1 CSV; default: blank/NaN cells missing")
    sp.add_argument("--truth", help="ground-truth CSV for error reporting")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--order", type=int, choices=(2, 3), default=2)
    sp.add_argument("--algorithm", choices=pipeline.ALGORITHMS,
                    default="ladmc")
    solver_flags(sp)
    sp.add_argument("--success-tol", type=float,
                    default=experiments.PhaseGridConfig.success_tol)
    sp.add_argument("--augment-ones", action="store_true")
    common(sp, seed_help="changes nothing; only copied into report.txt")

    sp = sub.add_parser("check", help="sampling-pattern identifiability")
    sp.add_argument("--pattern", help="0/1 CSV of sampling patterns (d x n)")
    sp.add_argument("--all-patterns", action="store_true",
                    help="use all C(d, m) patterns")
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--trials", type=int, default=3)
    common(sp)

    sp = sub.add_parser("phase", help="phase-transition success grid")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--order", type=int, choices=(2, 3), default=2)
    sp.add_argument("--K-list", type=_int_list, required=True)
    sp.add_argument("--m-list", type=_int_list, required=True)
    sp.add_argument("--N", type=int, help="fixed column count")
    sp.add_argument("--N-per-K", type=int, default=50)
    sp.add_argument("--N-cap", type=int, default=3000)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--algorithm", choices=pipeline.ALGORITHMS,
                    default="ladmc")
    solver_flags(sp)
    sp.add_argument("--success-tol", type=float,
                    default=experiments.PhaseGridConfig.success_tol)
    sp.add_argument("--workers", type=int, default=1)
    common(sp)

    sp = sub.add_parser("rank-verify",
                        help="check lifted rank of UoS data vs formula")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--order", type=int, default=2)
    sp.add_argument("--N", type=int, required=True)
    common(sp)

    sp = sub.add_parser("real", help="train/val/test benchmark on a CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--ranks", type=_int_list, required=True)
    sp.add_argument("--fractions", type=_float_list, default="0.5,0.25,0.25")
    sp.add_argument("--counts", type=_int_list,
                    help="absolute train,val entry counts per column")
    sp.add_argument("--order", type=int, choices=(2, 3), default=2)
    solver_flags(sp)
    common(sp)
    return parser


def _completion(args, augment_ones=False) -> pipeline.LadmcConfig:
    """The completion settings of the solver flags."""
    svp = SvpOptions(max_iters=args.max_iters, rel_tol=args.rel_tol,
                     accel_restart=args.accel_restart)
    return pipeline.LadmcConfig(p=args.order, svp=svp,
                                iladmc_inner_T=args.inner_T,
                                augment_ones=augment_ones)


def _cmd_synth(args):
    X = synth.gen_uos(args.d, args.K, args.r, args.N, seed=args.seed)
    if args.m is not None:
        mask = synth.gen_mask_uniform(args.d, args.N, args.m, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_matrix_csv(os.path.join(args.out_dir, "X0.csv"), X)
    if args.m is not None:
        io.write_matrix_csv(os.path.join(args.out_dir, "X.csv"), X, mask=mask)
        io.write_matrix_csv(os.path.join(args.out_dir, "mask.csv"),
                            mask.astype(float))
    print(f"wrote synthetic data to {args.out_dir}")
    return 0


def _cmd_complete(args):
    X, observed = io.read_matrix_csv(args.input)
    mask = io.read_mask_csv(args.mask) if args.mask else observed
    if mask.shape != X.shape:
        raise io.CsvFormatError(args.mask, f"{args.mask}: shape {mask.shape} "
                                f"!= input shape {X.shape}")
    X_true = None
    if args.truth:
        X_true, truth_obs = io.read_matrix_csv(args.truth)
        if not truth_obs.all():
            raise io.CsvFormatError(
                args.truth, f"{args.truth}: truth file has missing cells")

    cfg = _completion(args, augment_ones=args.augment_ones)
    if not args.success_tol > 0:
        # the tolerance only judges the report: no library call checks it
        raise io.SettingError("success_tol", "success_tol must be positive, "
                              f"got {args.success_tol}")
    order, _ = pipeline.lift_of(args.algorithm, cfg)
    rep = pipeline.completer(args.algorithm)(X, mask, args.rank, cfg,
                                             X_true=X_true)
    report_items = {"algorithm": args.algorithm, "order": order,
                    "seed": args.seed, "rank_used": args.rank,
                    "iterations": rep.solver.iterations_run,
                    "restarts": rep.solver.restarts,
                    "full_eigh": rep.solver.full_eigh,
                    "outer_iterations": rep.outer_iterations,
                    "residual": rep.solver.final_residual,
                    "converged": rep.solver.converged,
                    "stop": rep.solver.stop,
                    "inner_T": args.inner_T}
    if rep.nrmse is not None:
        report_items.update(nrmse=rep.nrmse,
                            success=rep.nrmse < args.success_tol)

    os.makedirs(args.out_dir, exist_ok=True)
    out_csv = os.path.join(args.out_dir, "X_hat.csv")
    io.write_matrix_csv(out_csv, rep.X_hat)
    io.write_report(os.path.join(args.out_dir, "report.txt"), report_items)
    for k, v in report_items.items():
        print(f"{k}={v}")
    return 0


def _cmd_check(args):
    if args.pattern:
        Omega = io.read_mask_csv(args.pattern)
    elif args.all_patterns:
        if args.d is None or args.m is None:
            raise io.SettingError("all_patterns", "requires --d and --m")
        Omega = synth.gen_all_patterns(args.d, args.m, 1)
    elif args.d is not None:
        Omega = None
    else:
        raise io.SettingError("pattern", "need --pattern, or --d (with --m "
                              "for --all-patterns)")

    R, p = args.rank, args.order
    ell = identifiability.minimal_samples(R, p)
    if Omega is None:
        identifiability.check_lifted_rank(R, args.d, p)
    items = {
        "rank": R, "order": p, "ell": ell,
        "sufficiency_note": f"m >= {ell + 2} with all patterns guarantees "
                            f"identifiability; m < {ell} never suffices",
    }
    if Omega is not None:
        verdict = identifiability.check_identifiable_algebraic(
            Omega, R, p, trials=args.trials, seed=args.seed)
        items.update(
            identifiable="yes" if verdict.identifiable else "no",
            method=verdict.method,
            kernel_dim=verdict.kernel_dim,
            trials=verdict.trials,
            details=verdict.details,
        )
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_report(os.path.join(args.out_dir, "verdict.txt"), items)
    for k, v in items.items():
        print(f"{k}={v}")
    return 0


def _cmd_phase(args):
    cfg = experiments.PhaseGridConfig(
        d=args.d, r=args.r, K_range=args.K_list, m_range=args.m_list,
        N_fixed=args.N, N_per_K=args.N_per_K, N_cap=args.N_cap,
        trials=args.trials, success_tol=args.success_tol,
        algorithm=args.algorithm, seed=args.seed,
        completion=_completion(args), workers=args.workers,
    )
    record = experiments.run_phase_grid(cfg, out_dir=args.out_dir)
    print(f"success fractions (rows m={cfg.m_range}, cols K={cfg.K_range}):")
    for i, m in enumerate(cfg.m_range):
        row = " ".join(f"{v:.2f}" for v in record.success_fraction[i])
        print(f"  m={m:3d}: {row}")
    print(f"ell overlay per K: {record.ell_overlay}")
    return 0


def _cmd_rank_verify(args):
    rep = experiments.rank_verify(args.K, args.r, args.d, args.order,
                                  args.N, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_report(os.path.join(args.out_dir, "rank_verify.txt"), rep)
    for k, v in rep.items():
        print(f"{k}={v}")
    return 0 if rep["pass"] else 1


def _cmd_real(args):
    results = experiments.run_real_experiment(
        args.input, ranks=args.ranks, fractions=args.fractions,
        counts=args.counts, seed=args.seed, completion=_completion(args),
        out_dir=args.out_dir,
    )
    print(f"excluded_columns={results['excluded_columns']}")
    print("method,rank,val_rmse,test_rmse")
    for name in ("mean_fill", "lrmc", "ladmc", "iladmc"):
        r = results[name]
        print(f"{name},{r['rank']},{r['val_rmse']:.4f},{r['test_rmse']:.4f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "complete": _cmd_complete,
    "check": _cmd_check,
    "phase": _cmd_phase,
    "rank-verify": _cmd_rank_verify,
    "real": _cmd_real,
}


# the library's name of each setting whose flag is not --name with its
# underscores as dashes
_FLAGS = {"iladmc_inner_T": "--inner-T", "K_range": "--K-list",
          "m_range": "--m-list", "N_fixed": "--N", "R": "--rank",
          "p": "--order"}


def main(argv=None) -> int:
    args = build_parser().parse_args(_splice_config(argv))
    try:
        if args.seed < 0:
            # every command takes --seed (common()); numpy's generators
            # reject a negative one, some only deep inside a command
            raise io.SettingError("seed",
                                  f"seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, io.CsvFormatError) as exc:
        # a missing or malformed data file is the caller's mistake: name its
        # flag.  The commands open their files at different depths, so this
        # is caught here and matched to the flag by its path
        for flag in ("input", "mask", "truth", "pattern"):
            path = getattr(args, flag, None)
            if path is not None and path == exc.filename:
                _usage_error(f"--{flag} {path}: no such file"
                             if isinstance(exc, FileNotFoundError)
                             else f"--{flag} {exc}")
        raise
    except io.SettingError as exc:
        # a setting the library rejects is a usage error when it is a flag
        # of this command; any other is a bug and stays a traceback
        flag = _FLAGS.get(exc.setting, "--" + exc.setting.replace("_", "-"))
        if flag[2:].replace("-", "_") not in vars(args):
            raise
        _usage_error(f"argument {flag}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
