import argparse
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ladmc import experiments, pipeline
from ladmc.cli import (
    _COMMANDS,
    _completion,
    _float_list,
    _int_list,
    _splice_config,
    build_parser,
    main,
)
from ladmc.io import (SettingError, read_mask_csv, read_matrix_csv,
                      write_matrix_csv)
from ladmc.synth import gen_all_patterns, gen_uos


def _read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


def _synth_instance(tmp_path, seed=3):
    out = tmp_path / "data"
    rc = main(["synth", "--d", "6", "--K", "2", "--r", "1", "--N", "200",
               "--m", "4", "--seed", str(seed), "--out-dir", str(out)])
    assert rc == 0
    return out


def test_synth_outputs(tmp_path):
    out = _synth_instance(tmp_path)
    X0, obs = read_matrix_csv(out / "X0.csv")
    assert X0.shape == (6, 200)
    assert obs.all()
    mask = read_mask_csv(out / "mask.csv")
    np.testing.assert_array_equal(mask.sum(axis=0), np.full(200, 4))
    X, xmask = read_matrix_csv(out / "X.csv")
    np.testing.assert_array_equal(xmask, mask)
    np.testing.assert_array_equal(X[mask], X0[mask])


def test_synth_without_mask(tmp_path):
    out = tmp_path / "d"
    main(["synth", "--d", "4", "--r", "1", "--N", "10", "--out-dir", str(out)])
    assert (out / "X0.csv").exists()
    assert not (out / "X.csv").exists()


def test_complete_ladmc_end_to_end(tmp_path, capsys):
    data = _synth_instance(tmp_path)
    out = tmp_path / "run"
    rc = main(["complete", "--input", str(data / "X.csv"),
               "--truth", str(data / "X0.csv"),
               "--rank", "2", "--out-dir", str(out)])
    assert rc == 0
    report = _read_report(out / "report.txt")
    assert report["algorithm"] == "ladmc"
    assert report["rank_used"] == "2"
    assert float(report["nrmse"]) < 1e-4
    assert report["success"] == "True"
    X_hat, _ = read_matrix_csv(out / "X_hat.csv")
    X0, _ = read_matrix_csv(data / "X0.csv")
    assert np.linalg.norm(X_hat - X0) / np.linalg.norm(X0) < 1e-4
    stdout = capsys.readouterr().out
    assert "nrmse=" in stdout


def test_complete_iladmc_echoes_inner_T(tmp_path):
    data = _synth_instance(tmp_path)
    out = tmp_path / "run"
    main(["complete", "--input", str(data / "X.csv"),
          "--truth", str(data / "X0.csv"), "--algorithm", "iladmc",
          "--rank", "2", "--max-iters", "100",
          "--inner-T", "30", "--out-dir", str(out)])
    report = _read_report(out / "report.txt")
    assert report["inner_T"] == "30"
    assert float(report["nrmse"]) < 1e-4


def test_complete_lrmc_with_separate_mask(tmp_path):
    rng = np.random.default_rng(0)
    X = np.outer(rng.standard_normal(5), rng.standard_normal(20))
    mask = rng.random(X.shape) < 0.7
    write_matrix_csv(tmp_path / "X.csv", np.where(mask, X, 0.0))
    write_matrix_csv(tmp_path / "mask.csv", mask.astype(float))
    write_matrix_csv(tmp_path / "X0.csv", X)
    out = tmp_path / "run"
    rc = main(["complete", "--input", str(tmp_path / "X.csv"),
               "--mask", str(tmp_path / "mask.csv"),
               "--truth", str(tmp_path / "X0.csv"),
               "--algorithm", "lrmc", "--rank", "1",
               "--max-iters", "2000", "--rel-tol", "1e-10",
               "--out-dir", str(out)])
    assert rc == 0
    report = _read_report(out / "report.txt")
    assert float(report["nrmse"]) < 1e-6


def test_complete_report_fields_same_for_every_algorithm(tmp_path):
    data = _synth_instance(tmp_path)
    keys = {}
    for algo in ("ladmc", "iladmc", "lrmc"):
        out = tmp_path / algo
        rc = main(["complete", "--input", str(data / "X.csv"),
                   "--truth", str(data / "X0.csv"), "--algorithm", algo,
                   "--rank", "2", "--max-iters", "20", "--out-dir", str(out)])
        assert rc == 0
        report = _read_report(out / "report.txt")
        assert report["stop"] in ("converged", "budget")
        assert report["converged"] == str(report["stop"] == "converged")
        assert int(report["restarts"]) >= 0
        assert int(report["full_eigh"]) >= 1  # the first iteration's
        keys[algo] = list(report)
    assert keys["ladmc"] == keys["iladmc"] == keys["lrmc"]


def test_complete_shape_mismatch(tmp_path):
    write_matrix_csv(tmp_path / "X.csv", np.ones((2, 2)))
    write_matrix_csv(tmp_path / "mask.csv", np.ones((3, 2)))
    with pytest.raises(SystemExit):
        main(["complete", "--input", str(tmp_path / "X.csv"),
              "--mask", str(tmp_path / "mask.csv"), "--rank", "1"])


def test_complete_and_phase_share_solver_flags():
    parser = build_parser()
    defaults = {"inner_T": 30, "max_iters": 4000, "rel_tol": 1e-9,
                "accel": False, "accel_restart": 500}
    for argv in (["complete", "--input", "x.csv", "--rank", "2"],
                 ["phase", "--d", "6", "--r", "1", "--K-list", "2",
                  "--m-list", "4"],
                 ["real", "--input", "x.csv", "--ranks", "3"]):
        args = vars(parser.parse_args(argv))
        assert {k: args[k] for k in defaults} == defaults, argv[0]
        # real judges no success, so it takes no success tolerance
        assert args.get("success_tol") == (
            None if argv[0] == "real" else 1e-4), argv[0]


def test_real_runs_the_solver_complete_builds(monkeypatch):
    seen = {}

    def fake_real(path, **kwargs):
        seen.update(kwargs)
        row = {"rank": 3, "val_rmse": 0.0, "test_rmse": 0.0}
        return {"excluded_columns": [], "mean_fill": row, "lrmc": row,
                "ladmc": row, "iladmc": row}

    monkeypatch.setattr(experiments, "run_real_experiment", fake_real)
    argv = ["real", "--input", "x.csv", "--ranks", "3", "--accel",
            "--accel-restart", "40"]
    assert main(argv) == 0
    assert seen["completion"] == _completion(build_parser().parse_args(argv))
    assert seen["completion"].svp.accel_restart == 40


def _bench_workloads():
    # perfbench/run.py imports no numpy and runs nothing at import
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_bench_command_lines_build_their_method():
    # a CLI change that drops or renames a flag the benchmark passes fails
    # here rather than in a bench run
    parser = build_parser()
    expected = {  # rank, order, accel_restart, max_iters
        "ladmc-p2-paper": (30, 2, 500, 4000),
        "iladmc-p2-paper": (30, 2, 500, 4000),
        "ladmc-p3-small": (8, 3, 500, 4000),
    }
    workloads = _bench_workloads()
    assert set(workloads) == set(expected) | {"check-9of15"}
    for name, (rank, order, restart, iters) in expected.items():
        _, cmd = workloads[name]
        args = parser.parse_args([*cmd, "--input", "X.csv"])
        cfg = _completion(args)
        got = (args.rank, cfg.p, cfg.svp.accel_restart, cfg.svp.max_iters)
        assert got == (rank, order, restart, iters), name
        assert cfg.svp.rel_tol == 1e-9 and cfg.iladmc_inner_T == 30, name
        # --accel is accepted and changes nothing: momentum is always on
        assert "--accel" in cmd, name
        plain = [arg for arg in cmd if arg != "--accel"]
        assert _completion(parser.parse_args([*plain, "--input", "X.csv"])
                           ) == cfg, name
    args = parser.parse_args(workloads["check-9of15"][1])
    assert (args.all_patterns, args.d, args.m, args.rank, args.order,
            args.trials) == (True, 15, 9, 30, 2, 1)


def _readme_commands():
    # the ladmc lines of README's "Command line" block, continuations joined
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("ladmc ")]


def test_readme_commands_parse():
    # parses only: an example that keeps a removed flag or leaves out a
    # required one fails here
    parser = build_parser()
    commands = _readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(_COMMANDS)
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: "
                        f"ladmc {shlex.join(argv)}")


def test_check_two_of_three(tmp_path):
    out = tmp_path / "v"
    main(["check", "--all-patterns", "--d", "3", "--m", "2",
          "--rank", "2", "--out-dir", str(out)])
    report = _read_report(out / "verdict.txt")
    assert report["identifiable"] == "no"
    assert report["ell"] == "2"
    # too few kernel vectors: no trial certifies rank D-R from the Gram
    assert report["details"].endswith(
        "trial 1: exact, 2 passes of 1 chunk; trial 2: exact, 2 passes of "
        "1 chunk; trial 3: exact, 2 passes of 1 chunk")


def test_check_four_of_six(tmp_path):
    out = tmp_path / "v"
    main(["check", "--all-patterns", "--d", "6", "--m", "4",
          "--rank", "2", "--out-dir", str(out)])
    report = _read_report(out / "verdict.txt")
    assert report["identifiable"] == "yes"
    assert report["kernel_dim"] == "2"
    assert report["details"] == (
        "kernel dims per trial: [2, 2, 2] (target 2); "
        "trial 1: certified, 1 chunk; trial 2: certified, 1 chunk; "
        "trial 3: certified, 1 chunk")


def test_check_reports_minimum_samples_only(tmp_path):
    out = tmp_path / "v"
    main(["check", "--d", "15", "--rank", "30", "--out-dir", str(out)])
    report = _read_report(out / "verdict.txt")
    assert report["ell"] == "8"
    assert "identifiable" not in report


def test_check_pattern_csv(tmp_path):
    from ladmc.synth import gen_all_patterns

    write_matrix_csv(tmp_path / "omega.csv",
                     gen_all_patterns(3, 2).astype(float))
    out = tmp_path / "v"
    main(["check", "--pattern", str(tmp_path / "omega.csv"),
          "--rank", "2", "--out-dir", str(out)])
    assert _read_report(out / "verdict.txt")["identifiable"] == "no"


def test_check_missing_args():
    with pytest.raises(SystemExit):
        main(["check", "--all-patterns", "--rank", "2"])


def test_check_rejects_zero_trials(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--all-patterns", "--d", "6", "--m", "4",
              "--rank", "2", "--trials", "0", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --trials: trials must be >= 1, got 0\n")


def test_phase_cli(tmp_path, capsys):
    out = tmp_path / "phase"
    rc = main(["phase", "--d", "6", "--r", "1", "--K-list", "2",
               "--m-list", "6", "--N-per-K", "100", "--trials", "1",
               "--max-iters", "50", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "phase_ladmc.csv").exists()
    assert (out / "phase_ladmc.pgm").exists()
    assert "m=  6: 1.00" in capsys.readouterr().out


def test_rank_verify_cli(tmp_path):
    rc = main(["rank-verify", "--K", "2", "--r", "1", "--d", "3", "--N",
               "100", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = _read_report(tmp_path / "rank_verify.txt")
    assert report["formula_rank"] == "2"
    assert report["pass"] == "True"


def test_real_cli(tmp_path, capsys):
    X = gen_uos(8, 1, 2, 80, seed=0)
    write_matrix_csv(tmp_path / "data.csv", X)
    rc = main(["real", "--input", str(tmp_path / "data.csv"),
               "--ranks", "3", "--max-iters", "200",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "method,rank,val_rmse,test_rmse" in stdout
    assert (tmp_path / "real_rmse.csv").exists()


def test_config_file_flags_override(tmp_path):
    data = _synth_instance(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "input={}\ntruth={}\nrank=2\n"
        "max-iters=3000\nrel-tol=1e-9\nseed=5\n".format(
            data / "X.csv", data / "X0.csv")
    )
    out = tmp_path / "run"
    rc = main(["complete", "--config", str(cfg), "--seed", "7",
               "--out-dir", str(out)])
    assert rc == 0
    report = _read_report(out / "report.txt")
    assert report["seed"] == "7"  # explicit flag beats config file
    assert float(report["nrmse"]) < 1e-4


def test_config_file_switch_lines(tmp_path):
    # a line that holds only a key sets a switch
    cfg = tmp_path / "run.cfg"
    cfg.write_text("input=X.csv\nrank=2\naugment-ones\n"
                   "accel-restart=40\n")
    args = build_parser().parse_args(
        _splice_config(["complete", "--config", str(cfg)]))
    assert args.augment_ones
    assert _completion(args, args.augment_ones).svp.accel_restart == 40


@pytest.mark.parametrize("spelling", ["equals", "two-files"])
def test_config_equals_and_several_files(tmp_path, spelling):
    # --config=FILE is read as --config FILE is, and several files are
    # read in order, a later file overriding an earlier one
    data = _synth_instance(tmp_path)
    first = tmp_path / "first.cfg"
    first.write_text(f"input={data / 'X.csv'}\nrank=2\nmax-iters=5\nseed=4\n")
    last = tmp_path / "last.cfg"
    last.write_text("max-iters=7\n")
    configs = {"equals": [f"--config={first}", f"--config={last}"],
               "two-files": ["--config", str(first), "--config", str(last)]}
    out = tmp_path / "run"
    assert main(["complete", *configs[spelling], "--out-dir", str(out)]) == 0
    report = _read_report(out / "report.txt")
    assert (report["iterations"], report["seed"]) == ("7", "4")


def test_config_lines_go_between_subcommand_and_flags(tmp_path):
    first = tmp_path / "first.cfg"
    first.write_text("# solver\nrank=2\naugment-ones\n")
    last = tmp_path / "last.cfg"
    last.write_text("max-iters = -0.5\n")
    argv = ["--config", str(first), "complete", "--max-iters", "-1",
            f"--config={last}", "--rel-tol=1e-3", "--seed", "-2"]
    assert _splice_config(argv) == [
        "complete", "--rank", "2", "--augment-ones", "--max-iters", "-0.5",
        "--max-iters", "-1", "--rel-tol=1e-3", "--seed", "-2"]


def test_complete_without_rank_is_a_usage_error(capsys):
    # the lifted rank is the caller's, as for check; nothing guesses it
    with pytest.raises(SystemExit) as exc:
        main(["complete", "--input", "X.csv"])
    assert exc.value.code == 2
    assert "--rank" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--success-tol", "1e-3"],
                                  ["--fractions", "0.5,x,0.25"]],
                         ids=["success-tol", "fractions"])
def test_real_bad_flag_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["real", "--input", "x.csv", "--ranks", "3", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("flag,message", [
    (["--fractions", "0.6,0.2,0.3"],
     "fractions must be three non-negative shares summing to 1"),
    (["--counts", "2"], "counts must be two non-negative entry counts"),
    (["--counts", "3,-1"], "counts must be two non-negative entry counts"),
], ids=["fractions-sum", "counts-length", "counts-negative"])
def test_real_bad_split_is_a_usage_error(capsys, flag, message):
    # the library's rule and message, reported as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["real", "--input", "x.csv", "--ranks", "3", *flag])
    assert exc.value.code == 2
    assert f"argument {flag[0]}: {message}" in capsys.readouterr().err


def test_config_flag_without_path_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["complete", "--input", "X.csv", "--config"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    # only a phase grid with workers > 1 uses a process pool; every other
    # command would pay for importing multiprocessing at start-up
    code = (
        "import sys\n"
        "import ladmc.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')\n"
        "             if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize("case", [
    "config", "complete-input", "complete-mask", "complete-truth",
    "check-pattern", "real-input"])
def test_missing_file_is_a_usage_error(tmp_path, capsys, case):
    # one line naming the flag and the path, not a traceback
    data = _synth_instance(tmp_path)
    missing = str(tmp_path / "nofile.csv")
    x_csv = str(data / "X.csv")
    argv, flag = {
        "config": (["complete", "--rank", "2", "--config", missing],
                   "--config"),
        "complete-input": (["complete", "--rank", "2", "--input", missing],
                           "--input"),
        "complete-mask": (["complete", "--rank", "2", "--input", x_csv,
                           "--mask", missing], "--mask"),
        "complete-truth": (["complete", "--rank", "2", "--input", x_csv,
                            "--truth", missing], "--truth"),
        "check-pattern": (["check", "--rank", "2", "--pattern", missing],
                          "--pattern"),
        "real-input": (["real", "--ranks", "2", "--input", missing],
                       "--input"),
    }[case]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"ladmc: error: {flag} {missing}: no such file\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [
    ["complete", "--input", "X.csv", "--rank", "2"],
    ["phase", "--d", "6", "--r", "1", "--K-list", "2", "--m-list", "4"],
    ["real", "--input", "X.csv", "--ranks", "3"]],
    ids=["complete", "phase", "real"])
@pytest.mark.parametrize("order", ["1", "4"])
def test_completion_order_is_two_or_three(capsys, command, order):
    # order 1 is the raw matrix, reached only through --algorithm lrmc
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, "--order", order])
    assert exc.value.code == 2
    assert (f"argument --order: invalid choice: {order} (choose from 2, 3)"
            in capsys.readouterr().err)


def test_check_and_rank_verify_take_order_one(tmp_path):
    # order 1 is the linear case: low-rank completion's sampling condition
    out = tmp_path / "v"
    assert main(["check", "--all-patterns", "--d", "6", "--m", "3",
                 "--rank", "2", "--order", "1", "--out-dir", str(out)]) == 0
    report = _read_report(out / "verdict.txt")
    assert (report["identifiable"], report["kernel_dim"], report["ell"]) == (
        "yes", "2", "2")
    assert main(["rank-verify", "--K", "2", "--r", "1", "--d", "5", "--N",
                 "40", "--order", "1", "--out-dir", str(tmp_path)]) == 0
    report = _read_report(tmp_path / "rank_verify.txt")
    assert (report["formula_rank"], report["pass"]) == ("2", "True")


def test_complete_truth_with_a_missing_cell(tmp_path, capsys):
    data = _synth_instance(tmp_path)
    X0, _ = read_matrix_csv(data / "X0.csv")
    holed = np.ones_like(X0, dtype=bool)
    holed[2, 5] = False
    truth = str(tmp_path / "truth.csv")
    write_matrix_csv(truth, X0, mask=holed)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["complete", "--input", str(data / "X.csv"), "--rank", "2",
              "--truth", truth, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"ladmc: error: --truth {truth}: truth file has missing cells\n")


def test_check_needs_patterns_or_d(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--rank", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "ladmc: error: argument --pattern: need --pattern, or --d (with --m "
        "for --all-patterns)\n")


def test_complete_lrmc_reports_order_one(tmp_path):
    # the baseline completes the raw matrix, whatever --order says
    data = _synth_instance(tmp_path)
    out = tmp_path / "run"
    assert main(["complete", "--input", str(data / "X.csv"), "--rank", "2",
                 "--algorithm", "lrmc", "--order", "3", "--max-iters", "5",
                 "--out-dir", str(out)]) == 0
    assert _read_report(out / "report.txt")["order"] == "1"


def test_phase_lrmc_overlay_is_the_order_one_bound(tmp_path):
    # rank min(K r, d) = 4 at order 1 needs 4 samples a column
    out = tmp_path / "phase"
    assert main(["phase", "--d", "6", "--r", "2", "--K-list", "2",
                 "--m-list", "5", "--N-per-K", "20", "--trials", "1",
                 "--max-iters", "5", "--algorithm", "lrmc",
                 "--out-dir", str(out)]) == 0
    assert (out / "ell_overlay.csv").read_text() == "K,ell\n2,4\n"


@pytest.mark.parametrize("argv,message", [
    (["check", "--all-patterns", "--d", "3", "--m", "2", "--rank", "2",
      "--order", "0"], "order must be >= 1, got 0"),
    (["check", "--d", "3", "--rank", "2", "--order", "-1"],
     "order must be >= 1, got -1"),
    (["rank-verify", "--K", "2", "--r", "1", "--d", "3", "--N", "20",
      "--order", "0"], "tensor order must be >= 1, got 0"),
], ids=["check-0", "check-negative", "rank-verify-0"])
def test_order_below_one_is_a_usage_error(tmp_path, argv, message):
    # a subprocess with a timeout, because the sample bound at order 0
    # looped forever
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "ladmc.cli", *argv,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 2
    assert out.stderr.endswith(f"argument --order: {message}\n")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv,message", [
    (["check", "--d", "6", "--rank", "0"],
     "argument --rank: R must be >= 1, got 0"),
    (["check", "--all-patterns", "--d", "6", "--m", "7", "--rank", "2"],
     "ladmc: error: argument --m: need 1 <= m <= d, got m=7, d=6"),
    (["check", "--all-patterns", "--d", "6", "--m", "0", "--rank", "2"],
     "ladmc: error: argument --m: need 1 <= m <= d, got m=0, d=6"),
    (["synth", "--d", "6", "--r", "1", "--N", "10", "--m", "7"],
     "ladmc: error: argument --m: need 1 <= m <= d, got m=7, d=6"),
], ids=["check-rank", "check-m-above-d", "check-m-zero", "synth-m"])
def test_bad_check_and_synth_input_is_a_usage_error(tmp_path, capsys, argv,
                                                   message):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(message + "\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv,message", [
    (["synth", "--d", "3", "--r", "5", "--N", "10", "--K", "2"],
     "ladmc: error: argument --r: subspace dimension r=5 exceeds ambient "
     "d=3"),
    (["synth", "--d", "3", "--r", "1", "--N", "10", "--K", "0"],
     "argument --K: K must be >= 1, got 0"),
    (["rank-verify", "--K", "0", "--r", "1", "--d", "3", "--N", "10"],
     "argument --K: K must be >= 1, got 0"),
    (["rank-verify", "--K", "1", "--r", "4", "--d", "3", "--N", "10"],
     "ladmc: error: argument --r: subspace dimension r=4 exceeds ambient "
     "d=3"),
    (["phase", "--d", "6", "--r", "1", "--K-list", "2", "--m-list", "4",
      "--trials", "0"],
     "argument --trials: trials must be >= 1, got 0"),
    (["check", "--all-patterns", "--rank", "2"],
     "ladmc: error: argument --all-patterns: requires --d and --m"),
    (["check", "--all-patterns", "--d", "6", "--rank", "2"],
     "ladmc: error: argument --all-patterns: requires --d and --m"),
    (["check", "--d", "0", "--rank", "2"],
     "argument --d: ambient dimension must be >= 1, got 0"),
    (["check", "--all-patterns", "--d", "0", "--m", "1", "--rank", "1"],
     "ladmc: error: argument --d: d must be >= 1, got 0"),
    (["check", "--d", "3", "--rank", "50"],
     "ladmc: error: argument --rank: R=50 must satisfy 1 <= R <= D, the "
     "lifted dimension D=6"),
    (["check", "--all-patterns", "--d", "3", "--m", "2", "--rank", "5",
      "--order", "1"],
     "ladmc: error: argument --rank: R=5 must satisfy 1 <= R <= D, the "
     "lifted dimension D=3"),
    (["complete", "--rank", "2", "--max-iters", "0"],
     "ladmc: error: argument --max-iters: max_iters must be >= 1, got 0"),
    (["complete", "--rank", "2", "--rel-tol", "0"],
     "ladmc: error: argument --rel-tol: rel_tol must be positive, got 0.0"),
    (["complete", "--rank", "2", "--accel-restart", "0"],
     "ladmc: error: argument --accel-restart: accel_restart must be >= 1, "
     "got 0"),
    (["complete", "--rank", "2", "--algorithm", "iladmc", "--inner-T", "0"],
     "ladmc: error: argument --inner-T: iladmc_inner_T must be >= 1, got 0"),
    (["complete", "--rank", "2", "--success-tol", "0"],
     "ladmc: error: argument --success-tol: success_tol must be positive, "
     "got 0.0"),
    (["complete", "--rank", "2", "--success-tol", "-1"],
     "ladmc: error: argument --success-tol: success_tol must be positive, "
     "got -1.0"),
    (["complete", "--rank", "200"],
     "ladmc: error: argument --rank: rank 200 exceeds the order-2 lift's "
     "smaller side: it is 21 x 10"),
    (["complete", "--rank", "29", "--augment-ones"],
     "ladmc: error: argument --rank: rank 29 exceeds the order-2 lift's "
     "smaller side: it is 28 x 10"),
    (["complete", "--rank", "7", "--algorithm", "lrmc"],
     "ladmc: error: argument --rank: rank 7 exceeds the order-1 lift's "
     "smaller side: it is 6 x 10"),
    (["complete", "--rank", "11"],
     "ladmc: error: argument --rank: rank 11 exceeds the order-2 lift's "
     "smaller side: it is 21 x 10"),
    (["phase", "--d", "6", "--r", "1", "--K-list", "2", "--m-list", "4",
      "--max-iters", "0"],
     "ladmc: error: argument --max-iters: max_iters must be >= 1, got 0"),
    (["phase", "--d", "6", "--r", "1", "--K-list", "2", "--m-list", "4",
      "--inner-T", "0"],
     "ladmc: error: argument --inner-T: iladmc_inner_T must be >= 1, got 0"),
    (["real", "--ranks", "2", "--rel-tol", "0"],
     "ladmc: error: argument --rel-tol: rel_tol must be positive, got 0.0"),
    (["real", "--ranks", "2", "--accel-restart", "0"],
     "ladmc: error: argument --accel-restart: accel_restart must be >= 1, "
     "got 0"),
], ids=["synth-r-above-d", "synth-K-zero", "rank-verify-K-zero",
        "rank-verify-r-above-d", "phase-trials-zero", "check-all-no-d",
        "check-all-no-m", "check-d-zero", "check-all-d-zero",
        "check-rank-above-lift",
        "check-all-rank-above-lift", "complete-max-iters-zero",
        "complete-rel-tol-zero", "complete-accel-restart-zero",
        "complete-inner-T-zero", "complete-success-tol-zero",
        "complete-success-tol-negative", "complete-rank-above-lift",
        "complete-rank-above-augmented-lift", "complete-rank-above-lrmc",
        "complete-rank-above-columns", "phase-max-iters-zero",
        "phase-inner-T-zero", "real-rel-tol-zero",
        "real-accel-restart-zero"])
def test_bad_input_is_a_usage_error_naming_its_flag(tmp_path, capsys, argv,
                                                    message):
    # complete and real read a 6 x 10 input
    if argv[0] in ("complete", "real"):
        write_matrix_csv(tmp_path / "X.csv", gen_uos(6, 2, 1, 10, seed=0))
        argv = [*argv, "--input", str(tmp_path / "X.csv")]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(message + "\n")
    assert not (tmp_path / "run").exists()


def test_check_rank_fits_pattern_rows(tmp_path, capsys):
    # the lift of the pattern's 3 rows has dimension 6: rank 6 is checked,
    # rank 7 is a usage error
    write_matrix_csv(tmp_path / "omega.csv",
                     gen_all_patterns(3, 2).astype(float))
    argv = ["check", "--pattern", str(tmp_path / "omega.csv"),
            "--out-dir", str(tmp_path / "v")]
    assert main([*argv, "--rank", "6"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--rank", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --rank: R=7 must satisfy 1 <= R <= D, the lifted dimension "
        "D=6\n")


# one out-of-range case or more for every numeric flag of every subcommand,
# and the bad data files: argv and the flag the error names, with the path
# for a data file; {name} is a path of the _bad_input_files fixture
_SYNTH = ["synth", "--d", "6", "--r", "1", "--N", "10"]
_COMPLETE = ["complete", "--input", "{X}", "--rank", "2"]
_CHECK = ["check", "--all-patterns", "--d", "6", "--m", "4", "--rank", "2"]
_PHASE = ["phase", "--d", "6", "--r", "1", "--K-list", "2", "--m-list", "4",
          "--trials", "1", "--max-iters", "5"]
_RANK_VERIFY = ["rank-verify", "--K", "2", "--r", "1", "--d", "3", "--N", "20"]
_REAL = ["real", "--input", "{X0}", "--ranks", "3"]
# the flags complete, phase and real share
_SHARED = (("--inner-T", "0"), ("--max-iters", "0"), ("--rel-tol", "0"),
           ("--accel-restart", "0"), ("--order", "4"), ("--seed", "-1"))
_BAD_VALUES = {
    **{f"synth{flag}={value}": ([*_SYNTH, flag, value], flag)
       for flag, value in (("--d", "0"), ("--K", "0"), ("--r", "0"),
                           ("--r", "7"), ("--N", "0"), ("--m", "7"),
                           ("--seed", "-1"))},
    **{f"complete{flag}={value}": ([*_COMPLETE, flag, value], flag)
       for flag, value in (*_SHARED, ("--rank", "0"), ("--rank", "200"),
                           ("--success-tol", "0"), ("--success-tol", "nan"))},
    "complete--input=text": ([*_COMPLETE, "--input", "{text}"],
                             "--input {text}"),
    "complete--mask=values": ([*_COMPLETE, "--mask", "{mask2}"],
                              "--mask {mask2}"),
    "complete--mask=shape": ([*_COMPLETE, "--mask", "{mask3}"],
                             "--mask {mask3}"),
    "complete--truth=holed": ([*_COMPLETE, "--truth", "{holed}"],
                              "--truth {holed}"),
    **{f"check{flag}={value}": ([*_CHECK, flag, value], flag)
       for flag, value in (("--m", "7"), ("--rank", "0"), ("--order", "0"),
                           ("--trials", "0"), ("--seed", "-1"))},
    "check--d=0": (["check", "--d", "0", "--rank", "2"], "--d"),
    "check--rank=50": (["check", "--d", "3", "--rank", "50"], "--rank"),
    "check--pattern=holed": (["check", "--rank", "2", "--pattern", "{holed}"],
                             "--pattern {holed}"),
    "check--pattern=none": (["check", "--rank", "2"], "--pattern"),
    **{f"phase{flag}={value}": ([*_PHASE, flag, value], flag)
       for flag, value in (*_SHARED, ("--d", "0"), ("--r", "0"), ("--r", "7"),
                           ("--K-list", "0"), ("--K-list", ","),
                           ("--m-list", "9"), ("--N", "0"), ("--N-per-K", "0"),
                           ("--N-cap", "0"), ("--trials", "0"),
                           ("--success-tol", "0"), ("--success-tol", "nan"),
                           ("--workers", "0"))},
    # a column budget below the lifted rank: 2 for K=2 lines, 6 for planes
    **{f"phase{flag}={value}-below-rank": ([*_PHASE, flag, value], flag)
       for flag, value in (("--N-cap", "1"), ("--N", "1"))},
    "phase--N-per-K=1-below-rank": ([*_PHASE, "--r", "2", "--N-per-K", "1"],
                                    "--N-per-K"),
    **{f"rank-verify{flag}={value}": ([*_RANK_VERIFY, flag, value], flag)
       for flag, value in (("--K", "0"), ("--r", "0"), ("--r", "4"),
                           ("--d", "0"), ("--N", "0"), ("--order", "0"),
                           ("--seed", "-1"))},
    **{f"real{flag}={value}": ([*_REAL, flag, value], flag)
       for flag, value in (*_SHARED, ("--ranks", "0"), ("--ranks", "300"),
                           ("--ranks", ","), ("--fractions", "1,0,0"),
                           ("--fractions", "0.6,0.2,0.3"),
                           ("--fractions", "nan,0.5,0.5"),
                           ("--fractions", "0.5,nan,0.5"),
                           ("--counts", "100,100"))},
}


def _numeric_flags():
    """(subcommand, flag) of every option whose type parses numbers."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions
            if action.type in (int, float, _int_list, _float_list)}


def test_every_numeric_flag_has_a_bad_value_case():
    covered = {(argv[0], named.split()[0])
               for argv, named in _BAD_VALUES.values()}
    assert not _numeric_flags() - covered


@pytest.fixture(scope="module")
def _bad_input_files(tmp_path_factory):
    # a 6 x 100 synth input, and data files that are wrong in one way each
    root = tmp_path_factory.mktemp("bad-input")
    paths = {name: str(root / f"{name}.csv")
             for name in ("X0", "X", "mask2", "mask3", "holed", "text")}
    X0 = gen_uos(6, 2, 1, 100, seed=0)
    holed = np.ones(X0.shape, dtype=bool)
    holed[2, 5] = False
    write_matrix_csv(paths["X0"], X0)
    write_matrix_csv(paths["X"], X0,
                     mask=np.random.default_rng(0).random(X0.shape) < 0.7)
    write_matrix_csv(paths["mask2"], np.full(X0.shape, 2.0))
    write_matrix_csv(paths["mask3"], np.ones((3, 100)))
    write_matrix_csv(paths["holed"], X0, mask=holed)
    Path(paths["text"]).write_text("1,2\n3,x\n")
    return paths


@pytest.mark.parametrize("argv,named", list(_BAD_VALUES.values()),
                         ids=list(_BAD_VALUES))
def test_bad_value_is_one_usage_error_line(tmp_path, capsys,
                                           _bad_input_files, argv, named):
    # exit 2 and one line naming the flag, "argument --FLAG: ..." for a
    # setting, argparse's own errors among them, and "--FLAG path: ..." (or
    # "path:line:") for a data file.  No traceback, no output directory
    argv = [arg.format(**_bad_input_files) for arg in argv]
    prefix = re.escape(named.format(**_bad_input_files))
    prefix = (rf"{prefix}(:\d+)?: " if " " in named
              else f"argument {prefix}: ")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and len(err.splitlines()) == 1
    assert re.fullmatch(rf"ladmc: error: {prefix}.+", err[:-1]), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("error", [
    ValueError("a bug inside the solve"),
    SettingError("trials", "trials must be >= 1, got 0"),
], ids=["plain", "setting-without-a-complete-flag"])
def test_error_inside_a_solve_is_not_a_usage_error(tmp_path, monkeypatch,
                                                   error):
    # complete has no --trials: only a setting of the running command's own
    # flags becomes a usage error, anything else stays a traceback
    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, "svp_complete", failing_solve)
    write_matrix_csv(tmp_path / "X.csv", gen_uos(6, 2, 1, 10, seed=0))
    with pytest.raises(ValueError) as exc:
        main(["complete", "--input", str(tmp_path / "X.csv"), "--rank", "2",
              "--out-dir", str(tmp_path / "run")])
    assert exc.value is error
