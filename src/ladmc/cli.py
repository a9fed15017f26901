"""Command-line interface.

Subcommands: synth, complete, check, phase, rank-verify, real.
Each ``--config FILE`` (or ``--config=FILE``) holds ``key=value`` lines,
keys being flag names without the leading dashes; the files are read in
order, and explicit flags override them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import experiments, identifiability, io, pipeline, synth
from .lrmc import SvpOptions


def _int_list(text: str) -> list:
    return [int(v) for v in text.replace(":", ",").split(",") if v]


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def _checked(parse, check):
    """An argparse type that makes ``check``'s ValueError a usage error."""
    def arg_type(text):
        try:
            check(value := parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return arg_type


def _at_least_one(name):
    """A check that rejects a value below 1, naming ``name``."""
    def check(value):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    return check


def _usage_error(message):
    """Exit 2 with the one line ``ladmc: error: message``."""
    sys.stderr.write(f"ladmc: error: {message}\n")
    raise SystemExit(2)


def _check_m(args):
    """Reject an --m outside 1..--d as a usage error."""
    if not 1 <= args.m <= args.d:
        _usage_error(f"--m {args.m}: must be in 1..{args.d} (--d)")


def _check_r(args):
    """Reject an --r above --d as a usage error."""
    if args.r > args.d:
        _usage_error(f"--r {args.r}: must be in 1..{args.d} (--d)")


def _check_rank_fits(rank, order, d, N=None):
    """Reject a --rank above the lifted dimension C(d+p-1, p), or above the
    column count N when one is given, as a usage error: no sampling can
    identify a subspace larger than the space, nor complete a rank that
    the columns cannot reach."""
    D = math.comb(d + order - 1, order)
    if rank > D:
        _usage_error(f"--rank {rank}: must be at most {D}, the "
                     f"dimension of the order-{order} lift of R^{d}")
    if N is not None and rank > N:
        _usage_error(f"--rank {rank}: must be at most {N}, the number of "
                     f"columns")


def _splice_config(argv) -> list:
    """argv with its --config flags replaced by their files' lines, read in
    order and put after the subcommand, before the explicit flags."""
    pre = argparse.ArgumentParser(prog="ladmc", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config", action="append", default=[])
    known, rest = pre.parse_known_args(argv)
    tokens = []
    for path in known.config:
        if not os.path.isfile(path):
            _usage_error(f"--config {path}: no such file")
        with open(path) as fh:
            for line in map(str.strip, fh):
                if line and not line.startswith("#"):
                    # a line with only a key is a switch such as accel
                    key, eq, value = line.partition("=")
                    tokens.append(f"--{key.strip()}")
                    if eq:
                        tokens.append(value.strip())
    return rest[:1] + tokens + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                        help="restarted Nesterov momentum in the solver")
        sp.add_argument("--accel-restart", type=int,
                        default=SvpOptions.accel_restart,
                        help="longest momentum run between restarts")

    def positive(name):
        return _checked(int, _at_least_one(name))

    sp = sub.add_parser("synth", help="generate synthetic UoS data + mask")
    sp.add_argument("--d", type=positive("d"), required=True)
    sp.add_argument("--K", type=positive("K"), default=1)
    sp.add_argument("--r", type=positive("r"), required=True)
    sp.add_argument("--N", type=positive("N"), required=True)
    sp.add_argument("--m", type=int, help="observed rows per column")
    common(sp)

    rank = _checked(int, pipeline.check_rank)
    order = positive("order")

    sp = sub.add_parser("complete", help="complete a matrix from CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--mask", help="0/1 CSV; default: blank/NaN cells missing")
    sp.add_argument("--truth", help="ground-truth CSV for error reporting")
    sp.add_argument("--rank", type=rank, required=True)
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
    sp.add_argument("--d", type=positive("d"))
    sp.add_argument("--m", type=int)
    sp.add_argument("--rank", type=rank, required=True)
    sp.add_argument("--order", type=order, default=2)
    sp.add_argument("--trials", type=positive("trials"), default=3)
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
    sp.add_argument("--trials", type=positive("trials"), default=10)
    sp.add_argument("--algorithm", choices=pipeline.ALGORITHMS,
                    default="ladmc")
    solver_flags(sp)
    sp.add_argument("--success-tol", type=float,
                    default=experiments.PhaseGridConfig.success_tol)
    sp.add_argument("--workers", type=positive("workers"), default=1)
    common(sp)

    sp = sub.add_parser("rank-verify",
                        help="check lifted rank of UoS data vs formula")
    sp.add_argument("--K", type=positive("K"), required=True)
    sp.add_argument("--r", type=positive("r"), required=True)
    sp.add_argument("--d", type=positive("d"), required=True)
    sp.add_argument("--order", type=order, default=2)
    sp.add_argument("--N", type=positive("N"), required=True)
    common(sp)

    sp = sub.add_parser("real", help="train/val/test benchmark on a CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--ranks", type=_int_list, required=True)
    sp.add_argument("--fractions", default="0.5,0.25,0.25",
                    type=_checked(_float_list, experiments.check_fractions))
    sp.add_argument("--counts",
                    type=_checked(_int_list, experiments.check_counts),
                    help="absolute train,val entry counts per column")
    sp.add_argument("--order", type=int, choices=(2, 3), default=2)
    solver_flags(sp)
    common(sp)
    return parser


# the solver flags of complete, phase and real, by the name of the setting
# each sets: the checks of SvpOptions and LadmcConfig start their message
# with that name
_SOLVER_FLAGS = {"max_iters": "--max-iters", "rel_tol": "--rel-tol",
                 "accel_restart": "--accel-restart",
                 "iladmc_inner_T": "--inner-T"}


def _completion(args, augment_ones=False) -> pipeline.LadmcConfig:
    """The completion settings of the solver flags; a value that their
    checks reject is a usage error naming its flag."""
    try:
        svp = SvpOptions(max_iters=args.max_iters, rel_tol=args.rel_tol,
                         accel=args.accel, accel_restart=args.accel_restart)
        return pipeline.LadmcConfig(p=args.order, svp=svp,
                                    iladmc_inner_T=args.inner_T,
                                    augment_ones=augment_ones)
    except ValueError as exc:
        flag = _SOLVER_FLAGS.get(str(exc).split()[0])
        if flag is None:
            raise
        _usage_error(f"argument {flag}: {exc}")


def _cmd_synth(args):
    _check_r(args)
    if args.m is not None:
        _check_m(args)
    os.makedirs(args.out_dir, exist_ok=True)
    X = synth.gen_uos(args.d, args.K, args.r, args.N, seed=args.seed)
    io.write_matrix_csv(os.path.join(args.out_dir, "X0.csv"), X)
    if args.m is not None:
        mask = synth.gen_mask_uniform(args.d, args.N, args.m, seed=args.seed)
        io.write_matrix_csv(os.path.join(args.out_dir, "X.csv"), X, mask=mask)
        io.write_matrix_csv(os.path.join(args.out_dir, "mask.csv"),
                            mask.astype(float))
    print(f"wrote synthetic data to {args.out_dir}")
    return 0


def _cmd_complete(args):
    X, observed = io.read_matrix_csv(args.input)
    mask = io.read_mask_csv(args.mask) if args.mask else observed
    if mask.shape != X.shape:
        raise SystemExit(f"mask shape {mask.shape} != input shape {X.shape}")
    X_true = None
    if args.truth:
        X_true, truth_obs = io.read_matrix_csv(args.truth)
        if not truth_obs.all():
            raise SystemExit("truth file has missing cells")

    cfg = _completion(args, augment_ones=args.augment_ones)
    if not args.success_tol > 0:
        _usage_error("argument --success-tol: success_tol must be "
                     f"positive, got {args.success_tol}")
    order, ones = pipeline.lift_of(args.algorithm, cfg)
    _check_rank_fits(args.rank, order, X.shape[0] + ones, N=X.shape[1])
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
            _usage_error("--all-patterns requires --d and --m")
        _check_m(args)
        Omega = synth.gen_all_patterns(args.d, args.m, 1)
    elif args.d is not None:
        Omega = None
    else:
        raise SystemExit("need --pattern, or --all-patterns with --d/--m")
    _check_rank_fits(args.rank, args.order,
                     args.d if Omega is None else Omega.shape[0])

    R, p = args.rank, args.order
    ell = identifiability.minimal_samples(R, p)
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
    _check_r(args)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(_splice_config(argv))
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        # a missing data file is the caller's mistake: name its flag.  The
        # commands open their files at different depths, so this is caught
        # here and matched to the flag by its path
        for flag in ("input", "mask", "truth", "pattern"):
            path = getattr(args, flag, None)
            if path is not None and path == exc.filename:
                _usage_error(f"--{flag} {path}: no such file")
        raise


if __name__ == "__main__":
    sys.exit(main())
