"""Command-line interface.

Subcommands: synth, complete, check, phase, rank-verify, real.
An optional ``--config`` file holds ``key=value`` lines (keys are flag
names without the leading dashes); explicit flags override the file.
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


def _load_config_tokens(argv, parser):
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        parser.error("argument --config: expected a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # a line with only a key is a switch such as accel
            key, eq, value = line.partition("=")
            tokens.append(f"--{key.strip()}")
            if eq:
                tokens.append(value.strip())
    # subcommand first, then config defaults, then explicit flags (override)
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
        sp.add_argument("--config", help=argparse.SUPPRESS)

    def solver_flags(sp):
        # complete, phase and real: each default is its dataclass's own
        sp.add_argument("--inner-T", type=int,
                        default=pipeline.LadmcConfig.iladmc_inner_T)
        sp.add_argument("--step-size", type=float,
                        default=SvpOptions.step_size)
        sp.add_argument("--max-iters", type=int, default=SvpOptions.max_iters)
        sp.add_argument("--rel-tol", type=float, default=SvpOptions.rel_tol)
        sp.add_argument("--accel", action="store_true",
                        help="restarted Nesterov momentum in the solver")
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
    sp.add_argument("--order", type=int, default=2)
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
    sp.add_argument("--order", type=int, default=2)
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
    sp.add_argument("--order", type=int, default=2)
    solver_flags(sp)
    common(sp)
    return parser


def _completion(args, augment_ones=False) -> pipeline.LadmcConfig:
    svp = SvpOptions(step_size=args.step_size, max_iters=args.max_iters,
                     rel_tol=args.rel_tol, accel=args.accel,
                     accel_restart=args.accel_restart)
    return pipeline.LadmcConfig(p=args.order, svp=svp,
                                iladmc_inner_T=args.inner_T,
                                augment_ones=augment_ones)


def _cmd_synth(args):
    os.makedirs(args.out_dir, exist_ok=True)
    X, _ = synth.gen_uos(args.d, args.K, args.r, args.N, seed=args.seed)
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
    rep = pipeline.completer(args.algorithm)(X, mask, args.rank, cfg,
                                             X_true=X_true)
    report_items = {"algorithm": args.algorithm, "order": args.order,
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
        d = Omega.shape[0]
    elif args.all_patterns:
        if args.d is None or args.m is None:
            raise SystemExit("--all-patterns requires --d and --m")
        d = args.d
        Omega = synth.gen_all_patterns(d, args.m, 1)
    elif args.d is not None:
        Omega = None
        d = args.d
    else:
        raise SystemExit("need --pattern, or --all-patterns with --d/--m")

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
    rep = experiments.rank_verify(args.K, args.r, args.d, args.order,
                                  args.N, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    io.write_report(os.path.join(args.out_dir, "rank_verify.txt"), rep)
    for k, v in rep.items():
        print(f"{k}={v}")
    return 0 if rep["pass"] else 1


def _cmd_real(args):
    counts = tuple(args.counts) if args.counts else None
    results = experiments.run_real_experiment(
        args.input, ranks=args.ranks, fractions=tuple(args.fractions),
        counts=counts, seed=args.seed, completion=_completion(args),
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_load_config_tokens(argv, parser))
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
