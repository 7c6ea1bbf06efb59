"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2-PP4", "--act"]
        )
        assert args.act and not args.cc
        assert args.microbatch == 1

    def test_fault_flags(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--fault-node", "2",
             "--fault-power-scale", "0.5"]
        )
        assert args.fault_node == 2
        assert args.fault_power_scale == 0.5
        assert args.fail_node is None

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.policy == "packed"
        assert args.seed == 0
        assert args.power_cap_kw is None

    def test_sweep_accepts_repeated_strategies(self):
        args = build_parser().parse_args(
            ["sweep", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--parallelism", "TP4",
             "--microbatch", "1", "2"]
        )
        assert args.parallelism == ["TP2", "TP4"]
        assert args.microbatch == [1, 2]

    def test_jobs_flag_defaults_to_serial(self):
        for argv in (
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"],
            ["sweep", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"],
            ["figures", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--output", "o"],
            ["full-sweep", "--cluster", "c", "--output", "o"],
            ["fleet"],
        ):
            assert build_parser().parse_args(argv).jobs == 1

    def test_fleet_num_jobs_is_separate_from_workers(self):
        args = build_parser().parse_args(
            ["fleet", "--num-jobs", "4", "--jobs", "2"]
        )
        assert args.num_jobs == 4
        assert args.jobs == 2

    def test_run_governor_defaults(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"]
        )
        assert args.governor == "none"
        assert args.freq_setpoint == 1.0
        assert args.power_limit_w is None

    def test_powerctl_sweep_defaults(self):
        args = build_parser().parse_args(
            ["powerctl", "sweep", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"]
        )
        assert args.setpoint == [0.6, 0.7, 0.8, 0.9, 1.0]

    def test_powerctl_search_defaults(self):
        args = build_parser().parse_args(
            ["powerctl", "search", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"]
        )
        assert args.lo == 0.55 and args.hi == 1.0
        assert args.max_slowdown == 0.05
        assert args.jobs == 1

    def test_powerctl_requires_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["powerctl"])

    def test_fleet_gpu_power_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--gpu-clock-limit", "0.8"]
        )
        assert args.gpu_clock_limit == 0.8
        assert args.gpu_power_limit_w is None


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-175b" in out
        assert "h200x32" in out

    def test_configs(self, capsys):
        assert main(
            ["configs", "--model", "gpt3-30b", "--cluster", "mi250x32"]
        ) == 0
        out = capsys.readouterr().out
        assert "valid configurations" in out
        assert "TP2-PP4" in out

    def test_run_with_artifact(self, capsys, tmp_path):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--output", str(tmp_path / "artifact"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out
        summary = json.loads(
            (tmp_path / "artifact" / "summary.json").read_text()
        )
        assert summary["model"] == "gpt3-13b"

    def test_run_with_fault_injection(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fail-node", "1",
            ]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_run_with_fault_node_flags(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "1", "--fault-power-scale", "0.5",
            ]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_run_with_bad_fault_scale_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "1", "--fault-power-scale", "1.5",
            ]
        )
        assert code == 2
        assert "fault-power-scale" in capsys.readouterr().err

    def test_fleet(self, capsys, tmp_path):
        code = main(
            [
                "fleet", "--policy", "thermal-aware", "--seed", "0",
                "--num-jobs", "4", "--power-cap-kw", "12",
                "--output", str(tmp_path / "fleet"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "4/4 completed" in out
        assert (tmp_path / "fleet" / "fleet_telemetry.csv").exists()
        assert (tmp_path / "fleet" / "fleet_timeline.svg").exists()

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP8-PP1", "--microbatch", "1", "2",
                "--global-batch", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("TP8-PP1") == 2

    def test_figures(self, capsys, tmp_path):
        code = main(
            [
                "figures", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--output", str(tmp_path / "figs"),
            ]
        )
        assert code == 0
        assert (tmp_path / "figs" / "temperature.svg").exists()
        assert (tmp_path / "figs" / "breakdown.svg").exists()

    def test_unknown_model_is_clean_error(self, capsys):
        code = main(
            ["configs", "--model", "gpt5", "--cluster", "h200x32"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_strategy_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TPx", "--global-batch", "16",
            ]
        )
        assert code == 2

    def test_bad_strategy_suggests_spelling(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "tp4_pp2", "--global-batch", "16",
            ]
        )
        assert code == 2
        assert "did you mean 'tp4-pp2'" in capsys.readouterr().err

    def test_misspelled_model_suggests_name(self, capsys):
        code = main(
            ["configs", "--model", "gpt3_13b", "--cluster", "h200x32"]
        )
        assert code == 2
        assert "did you mean 'gpt3-13b'" in capsys.readouterr().err

    def test_cache_stats_and_clear(self, capsys):
        from repro.core.sweep import clear_cache

        clear_cache()  # other tests may have memoised this config
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
            ]
        )
        assert code == 0
        capsys.readouterr()

        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries       : 1" in out

        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

        assert main(["cache", "stats"]) == 0
        assert "entries       : 0" in capsys.readouterr().out

    def test_run_summary_reports_power_and_energy(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-GPU power" in out
        assert "total energy" in out
        assert "governor" not in out  # only printed for governed runs

    def test_run_with_governor_reports_actuations(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--governor", "static", "--freq-setpoint", "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "governor      : static (1 actuations)" in out

    def test_setpoint_below_boost_implies_static(self, capsys):
        # --freq-setpoint without --governor should still cap the run.
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--freq-setpoint", "0.8",
            ]
        )
        assert code == 0
        assert "governor      : static" in capsys.readouterr().out

    def test_unknown_governor_suggests_spelling(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--governor", "termal",
            ]
        )
        assert code == 2
        assert "did you mean 'thermal'" in capsys.readouterr().err

    def test_fault_node_out_of_range_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "99", "--fault-power-scale", "0.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--fault-node" in err
        assert "has 4 nodes" in err

    def test_powerctl_sweep(self, capsys):
        code = main(
            [
                "powerctl", "sweep", "--model", "gpt3-13b",
                "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
                "--global-batch", "16", "--setpoint", "0.8", "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "setpoint" in out
        assert "0.8000" in out and "1.0000" in out

    def test_powerctl_search(self, capsys, tmp_path):
        # A loose tolerance stops after the initial 3-probe bracket,
        # keeping the test to three cached simulations.
        code = main(
            [
                "powerctl", "search", "--model", "gpt3-13b",
                "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
                "--global-batch", "16", "--tolerance", "0.5",
                "--output", str(tmp_path / "best"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best setpoint" in out
        assert (tmp_path / "best" / "summary.json").exists()

    def test_fleet_with_gpu_clock_limit(self, capsys):
        code = main(
            [
                "fleet", "--num-jobs", "2", "--gpu-clock-limit", "0.8",
            ]
        )
        assert code == 0
        assert "goodput" in capsys.readouterr().out

    def test_run_twice_hits_cache(self, capsys):
        from repro.core.sweep import clear_cache

        clear_cache()
        argv = [
            "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
            "--parallelism", "TP4-PP2", "--global-batch", "16",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second.splitlines()[:8] == first.splitlines()[:8]


class _Captured(Exception):
    """Raised by a stub executor to hand the built request back."""


class TestRequestsFromFlags:
    def _built(self, monkeypatch, argv):
        import repro.cli as cli
        import repro.optimize

        def capture(request, **_):
            raise _Captured(request)

        monkeypatch.setattr(cli, "submit", capture)
        monkeypatch.setattr(repro.optimize, "run_optimize", capture)
        with pytest.raises(_Captured) as excinfo:
            main(argv)
        return excinfo.value.args[0]

    def test_required_flags_build_the_default_request(self, monkeypatch):
        from repro.api import OptimizeRequest, SimRequest

        common = ["--model", "gpt3-13b", "--cluster", "h100x64"]
        cases = [
            (["run", *common, "--parallelism", "TP4-PP2"],
             SimRequest(model="gpt3-13b", cluster="h100x64",
                        parallelism="TP4-PP2")),
            (["optimize", *common],
             OptimizeRequest(model="gpt3-13b", cluster="h100x64")),
            (["inferserve", "run", *common],
             SimRequest(kind="serving", model="gpt3-13b",
                        cluster="h100x64")),
        ]
        for argv, expected in cases:
            assert self._built(monkeypatch, argv) == expected

    def test_flags_reach_their_fields(self, monkeypatch):
        request = self._built(monkeypatch, [
            "optimize", "--model", "gpt3-13b", "--cluster", "h100x64",
            "--lo", "0.6", "--microbatch", "2", "--max-slowdown", "-1",
            "--schedule", "zb-h1", "--allow-fsdp", "--timeout-s", "9",
        ])
        assert request.setpoint_lo == 0.6
        assert request.microbatch_sizes == (2,)
        assert request.max_slowdown is None
        assert request.schedules == ("zb-h1",)
        assert request.allow_fsdp is True
        assert request.timeout_s == 9.0

    def test_errors_name_real_flags(self, capsys):
        code = main([
            "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
            "--parallelism", "TP2-PP4", "--global-batch", "40",
            "--pipeline-schedule", "interleaved",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--global-batch 40 with --microbatch 1" in err
        assert "--global-batch-size" not in err
        assert "--pipeline-schedule 1f1b" in err

    def test_flagify_rewrites_whole_field_names_only(self):
        from repro.cli import _flagify

        assert _flagify("microbatch_sizes and microbatch_size") == (
            "--microbatch and --microbatch"
        )
        assert _flagify("unknown model 'x'") == "unknown model 'x'"
        assert _flagify("warmup_iterations must be") == (
            "warmup_iterations must be"
        )
        assert _flagify("gpu_power_limit_w") == "gpu_power_limit_w"

    def test_untileable_strategy_exit_code_ignores_jobs(self, capsys):
        errors = []
        for jobs in ("1", "2"):
            code = main([
                "sweep", "--model", "gpt3-13b", "--cluster", "h100x64",
                "--parallelism", "TP3", "--microbatch", "1", "2",
                "--jobs", jobs,
            ])
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "not divisible" in errors[0]
