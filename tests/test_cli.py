"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly-to-space"])

    def test_threshold_defaults(self):
        args = build_parser().parse_args(["threshold"])
        assert args.step == 0.01
        assert args.target == 0.9

    def test_sweep_sizes(self):
        args = build_parser().parse_args(["sweep", "--sizes", "6", "12"])
        assert args.sizes == [6, 12]


class TestThresholdCommand:
    def test_prints_figure_and_threshold(self, capsys):
        assert main(["threshold"]) == 0
        out = capsys.readouterr().out
        assert "FIG. 5" in out
        assert "0.70" in out

    def test_csv_output(self, tmp_path, capsys):
        assert main(["threshold", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig5_fidelity_vs_transmissivity.csv").exists()


class TestSweepCommands:
    def test_coverage_small(self, capsys, tmp_path):
        code = main(
            [
                "coverage",
                "--sizes", "6", "12",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
                "--csv", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIG. 6" in out
        assert (tmp_path / "fig6_coverage_vs_satellites.csv").exists()

    def test_sweep_small(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--sizes", "6", "12",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
                "--csv", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIGS. 6-8" in out
        assert (tmp_path / "fig7_served_requests_vs_satellites.csv").exists()
        assert (tmp_path / "fig8_fidelity_vs_satellites.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "coverage"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--sizes", "6", "--workers", "-3"], "n_workers"),
            (["--sizes", "12", "6"], "ascending"),
            (["--sizes", "0", "6"], ">= 1"),
        ],
        ids=["negative-workers", "descending-sizes", "zero-size"],
    )
    def test_bad_input_exits_two_without_traceback(self, command, args, message, capsys):
        assert main([command, "--step", "600", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: ")
        assert message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestCompareCommand:
    def test_reduced_comparison(self, capsys):
        code = main(
            [
                "compare",
                "--satellites", "12",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE III" in out
        assert "Air-Ground" in out


class TestWeatherCommand:
    def test_small_study(self, capsys):
        assert main(["weather", "--trials", "10", "--requests", "5"]) == 0
        out = capsys.readouterr().out
        assert "WEATHER MONTE CARLO" in out
        assert "availability" in out


class TestDesignCommand:
    def test_small_sweep(self, capsys):
        code = main(
            [
                "design",
                "--inclinations", "40", "53",
                "--altitudes", "500",
                "--step", "480",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ORBIT DESIGN SWEEP" in out
        assert "best design: 40 deg" in out


class TestReportCommand:
    def test_small_report(self, capsys, tmp_path):
        code = main(
            [
                "report",
                "--out", str(tmp_path),
                "--sizes", "6", "12",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "QNTN reproduction report" in out
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "table3_comparison.json").exists()

    def test_out_required(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_render_mode_writes_html(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"command": "sweep", "metrics": {}}))
        assert main(["report", str(manifest)]) == 0
        page = (tmp_path / "run.html").read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "http://" not in page and "https://" not in page  # self-contained

    def test_render_mode_respects_out_and_format(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps({"command": "sweep"}))
        out = tmp_path / "custom.html"
        assert main(["report", str(manifest), "--out", str(out)]) == 0
        assert out.exists()
        assert main(["report", str(manifest), "--format", "ascii"]) == 0
        assert "RUN REPORT" in capsys.readouterr().out

    def test_render_mode_bad_manifest_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["report", str(bad)]) == 2
        assert "repro report:" in capsys.readouterr().err


class TestHybridCommand:
    def test_reduced_hybrid(self, capsys):
        code = main(
            [
                "hybrid",
                "--satellites", "12",
                "--duty-hours", "12",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HYBRID STUDY" in out
        assert "Space-Ground" in out


class TestTelemetryFlags:
    def test_verbose_flag_counts(self):
        args = build_parser().parse_args(["-vv", "threshold"])
        assert args.verbose == 2
        assert build_parser().parse_args(["threshold"]).verbose == 0

    def test_verbose_logs_side_paths(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["-v", "threshold", "--csv", str(tmp_path)]) == 0
        assert any("series written to" in r.message for r in caplog.records)

    def test_side_paths_not_printed_to_stdout(self, tmp_path, capsys):
        assert main(["threshold", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "series written to" not in out
        assert "FIG. 5" in out  # result table still on stdout

    def test_profile_prints_table(self, capsys):
        assert main(["--profile", "threshold"]) == 0
        out = capsys.readouterr().out
        assert "RUN PROFILE" in out
        assert "threshold" in out

    def test_telemetry_writes_manifest(self, tmp_path):
        import json

        from repro import obs

        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "--telemetry", str(manifest_path),
                "sweep",
                "--sizes", "6",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "5",
            ]
        )
        assert code == 0
        assert not obs.enabled()  # flag restored after the run
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "sweep"
        assert "sweep/serve" in manifest["profile"]
        assert "sweep/propagate" in manifest["profile"]
        fidelity = manifest["metrics"]["network.fidelity"]
        assert fidelity["count"] > 0
        # Exact-mean contract: the histogram mean reproduces the printed
        # full-size fidelity.
        assert fidelity["mean"] == pytest.approx(fidelity["sum"] / fidelity["count"])

    def test_repeated_main_calls_keep_one_cli_handler(self):
        import logging

        assert main(["threshold"]) == 0
        assert main(["-v", "threshold"]) == 0
        logger = logging.getLogger("repro")
        cli_handlers = [h for h in logger.handlers if getattr(h, "_repro_cli", False)]
        assert len(cli_handlers) == 1  # regression: handlers used to stack
        assert logger.level == logging.INFO  # last call's -v took effect

    def test_telemetry_records_worker_reports(self, tmp_path):
        import json

        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "--telemetry", str(manifest_path),
                "sweep",
                "--sizes", "6",
                "--step", "600",
                "--requests", "5",
                "--time-steps", "4",
                "--workers", "2",
            ]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["workers"]) == 2
        for report in manifest["workers"]:
            assert report["n_items"] > 0
            assert report["timings_s"]["total"] >= 0.0


def _is_request_root(record) -> bool:
    return record["name"] == "request" and "trace" in record and "parent" not in record


class TestTraceFlag:
    _SWEEP = [
        "sweep",
        "--sizes", "6",
        "--step", "600",
        "--requests", "4",
        "--time-steps", "4",
    ]

    def test_trace_writes_jsonl_and_embeds_in_manifest(self, tmp_path):
        import json

        from repro.obs import events
        from repro.obs.trace import CAUSES

        trace_path = tmp_path / "trace.jsonl"
        manifest_path = tmp_path / "run.json"
        code = main(
            ["--telemetry", str(manifest_path), "--trace", str(trace_path)] + self._SWEEP
        )
        assert code == 0
        assert events.active() is None  # recorder stopped after the run
        records = list(events.read_events(trace_path))
        requests = [r["attrs"] for r in records if _is_request_root(r)]
        coverage = [r for r in records if r["name"] == "coverage" and "trace" not in r]
        assert len(requests) == 16  # 4 requests x 4 steps
        assert len(coverage) == 144  # full day at 600 s cadence
        for r in requests:
            assert r["served"] or r["cause"] in CAUSES
        summary = json.loads(manifest_path.read_text())["trace"]
        assert summary["requests"]["total"] == 16
        served = sum(1 for r in requests if r["served"])
        assert summary["requests"]["served"] == served
        assert summary["requests"]["denied"] == 16 - served

    def test_trace_sample_rate_thins_requests_not_coverage(self, tmp_path):
        from repro.obs import events

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["--trace", str(trace_path), "--trace-sample-rate", "0.0"] + self._SWEEP
        )
        assert code == 0
        records = list(events.read_events(trace_path))
        assert all("trace" not in r for r in records)  # process-scope only
        # The outage timeline still needs the full mask.
        assert sum(r["name"] == "coverage" for r in records) == 144


class TestObsDiffCommand:
    def _write(self, path, served, denied):
        import json

        path.write_text(
            json.dumps(
                {
                    "command": "sweep",
                    "metrics": {
                        "network.requests.served": {"type": "counter", "value": served},
                        "network.requests.denied": {"type": "counter", "value": denied},
                    },
                }
            )
        )

    def test_informational_diff_exits_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 40, 60)
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert "RUN DIFF" in capsys.readouterr().out

    def test_threshold_breach_exits_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 40, 60)
        assert main(["obs", "diff", str(a), str(b), "--max-served-delta", "5"]) == 1
        assert "threshold breached" in capsys.readouterr().err

    def test_within_threshold_exits_zero(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 59, 41)
        assert main(["obs", "diff", str(a), str(b), "--max-served-delta", "5"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write(a, 60, 40)
        assert main(["obs", "diff", str(a), str(tmp_path / "nope.json")]) == 2
        assert "repro obs diff:" in capsys.readouterr().err

    def test_accepts_bench_trajectory_files(self, tmp_path, capsys):
        import json

        entry = {"bench": "x", "git_sha": "s1", "timings_s": {"warm": 1.0}}
        a, b = tmp_path / "ta.json", tmp_path / "tb.json"
        a.write_text(json.dumps({"bench": "x", "schema": 1, "trajectory": [entry]}))
        newer = dict(entry, git_sha="s2", timings_s={"warm": 1.3})
        b.write_text(json.dumps({"bench": "x", "schema": 1, "trajectory": [entry, newer]}))
        code = main(
            ["obs", "diff", str(a), str(b), "--max-timing-delta-pct", "10"]
        )
        assert code == 1  # +30 % warm timing breaches the 10 % gate


class TestFlagValidation:
    """--trace-sample-rate / --fault-seed reject garbage at the parser."""

    def _parse(self, *flags):
        return build_parser().parse_args([*flags, "threshold"])

    def test_trace_sample_rate_rejects_nan(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--trace-sample-rate", "nan")
        assert exc.value.code == 2
        assert "got NaN" in capsys.readouterr().err

    def test_trace_sample_rate_rejects_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--trace-sample-rate=-0.5")
        assert exc.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_trace_sample_rate_rejects_above_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--trace-sample-rate", "1.5")
        assert exc.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_trace_sample_rate_rejects_non_numeric(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--trace-sample-rate", "often")
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    def test_trace_sample_rate_accepts_bounds(self):
        assert self._parse("--trace-sample-rate", "0.0").trace_sample_rate == 0.0
        assert self._parse("--trace-sample-rate", "1.0").trace_sample_rate == 1.0
        assert self._parse("--trace-sample-rate", "0.25").trace_sample_rate == 0.25

    def test_fault_seed_rejects_negative(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--fault-seed=-3")
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_fault_seed_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            self._parse("--fault-seed", "abc")
        assert exc.value.code == 2
        assert "invalid integer value" in capsys.readouterr().err

    def test_fault_seed_accepts_zero(self):
        assert self._parse("--fault-seed", "0").fault_seed == 0
        assert self._parse("--fault-seed", "17").fault_seed == 17


class TestFaultsFlag:
    _SWEEP = [
        "sweep",
        "--sizes", "12",
        "--step", "600",
        "--requests", "4",
        "--time-steps", "4",
    ]

    def _schedule_file(self, tmp_path):
        import json

        path = tmp_path / "faults.json"
        path.write_text(
            json.dumps(
                {
                    "events": [
                        {"kind": "satellite_outage", "start_s": 0.0,
                         "end_s": 86400.0, "satellite": "sat-000"},
                        {"kind": "weather_fade", "start_s": 0.0, "end_s": 43200.0,
                         "site": "ttu-0", "extra_db": 3.0},
                    ]
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_faults_run_records_schedule_in_manifest(self, tmp_path):
        import json

        from repro.faults import load_faults

        faults_path = self._schedule_file(tmp_path)
        manifest_path = tmp_path / "run.json"
        code = main(
            ["--telemetry", str(manifest_path), "--faults", str(faults_path),
             "--fault-seed", "11"] + self._SWEEP
        )
        assert code == 0
        extra = json.loads(manifest_path.read_text())["extra"]["faults"]
        assert extra["source"] == str(faults_path)
        assert extra["seed"] == 11
        assert extra["events"] == 2
        assert extra["schedule_hash"] == load_faults(faults_path).schedule_hash()

    def test_bad_faults_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        assert main(["--faults", str(bad)] + self._SWEEP) == 2
        assert "--faults" in capsys.readouterr().err

    def test_missing_faults_file_exits_two(self, tmp_path, capsys):
        assert main(["--faults", str(tmp_path / "nope.json")] + self._SWEEP) == 2
        assert "cannot read" in capsys.readouterr().err


class TestObsDiffJsonFormat:
    def _write(self, path, served, denied):
        import json

        path.write_text(
            json.dumps(
                {
                    "command": "sweep",
                    "metrics": {
                        "network.requests.served": {"type": "counter", "value": served},
                        "network.requests.denied": {"type": "counter", "value": denied},
                    },
                }
            )
        )

    def test_json_document_with_breach(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 40, 60)
        code = main(
            ["obs", "diff", str(a), str(b), "--format", "json", "--max-served-delta", "5"]
        )
        assert code == 1
        out, err = capsys.readouterr()
        # Strict JSON: no NaN literals allowed in the document.
        doc = json.loads(out, parse_constant=lambda _: pytest.fail("non-strict JSON"))
        assert doc["ok"] is False
        assert doc["n_breached"] == 1
        rows = {r["metric"]: r for r in doc["rows"]}
        assert rows["served_pct"]["breached"] is True
        assert rows["served_pct"]["delta"] == pytest.approx(-20.0)
        assert rows["mean_fidelity"]["delta"] is None  # absent -> null, not NaN
        assert "threshold breached" in err

    def test_json_document_clean(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 60, 40)
        assert main(["obs", "diff", str(a), str(b), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["n_breached"] == 0

    def test_table_remains_default(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 60, 40)
        self._write(b, 60, 40)
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert "RUN DIFF" in capsys.readouterr().out


class TestServeLiveFlags:
    _SERVE = [
        "serve",
        "--satellites",
        "12",
        "--duration",
        "60",
        "--rate",
        "2",
        "--step",
        "60",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.http_port is None
        assert args.http_host == "127.0.0.1"
        assert args.hold == 0.0
        assert args.slo is None
        assert args.slo_snapshots is None
        assert args.slo_interval == 1.0

    def test_slo_snapshots_and_manifest(self, tmp_path):
        import json

        manifest_path = tmp_path / "m.json"
        snap_path = tmp_path / "snap.jsonl"
        code = main(
            ["--telemetry", str(manifest_path)]
            + self._SERVE
            + ["--slo-snapshots", str(snap_path), "--slo-interval", "0.05"]
        )
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        slo = manifest["extra"]["slo"]
        assert slo["spec"]["served_fraction_target"] == 0.95
        assert "availability" in slo["final_states"]
        assert slo["snapshots"]  # the final flush always records a point
        # Timestamp satellite: ISO-8601 UTC bounds plus duration.
        assert manifest["started_at"].endswith("Z")
        assert manifest["finished_at"] >= manifest["started_at"]
        assert manifest["duration_s"] > 0
        # The JSONL stream parses line by line and matches the manifest tail.
        lines = [
            json.loads(line) for line in snap_path.read_text().splitlines() if line
        ]
        assert lines
        assert lines[-1]["objectives"].keys() == {"availability"}

    def test_custom_slo_spec_lands_in_manifest(self, tmp_path):
        import json

        spec_path = tmp_path / "slo.json"
        spec_path.write_text(
            json.dumps(
                {"served_fraction_target": 0.5, "queue_full_budget": 0.25}
            )
        )
        manifest_path = tmp_path / "m.json"
        code = main(
            ["--telemetry", str(manifest_path)]
            + self._SERVE
            + ["--slo", str(spec_path)]
        )
        assert code == 0
        slo = json.loads(manifest_path.read_text())["extra"]["slo"]
        assert slo["spec"]["served_fraction_target"] == 0.5
        assert set(slo["final_states"]) == {"availability", "saturation"}

    def test_bad_slo_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(self._SERVE + ["--slo", str(bad)]) == 2
        assert "repro serve: --slo" in capsys.readouterr().err

    def test_wrong_typed_slo_value_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"served_fraction_target": "0.9"}')
        assert main(self._SERVE + ["--slo", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro serve: --slo") and "real number" in err

    def test_serve_without_live_flags_unchanged(self, capsys):
        assert main(self._SERVE) == 0
        assert "STREAMING SERVICE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--tenants", "0"),
            ("--rate", "-1"),
            ("--step", "0"),
            ("--satellites", "0"),
        ],
    )
    def test_bad_input_exits_two_without_traceback(self, flag, value, capsys):
        assert main(self._SERVE + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: ")
        assert "Traceback" not in err

    def test_window_flag_is_unrecognised(self, capsys):
        """The link state fills once at construction: no advance window."""
        with pytest.raises(SystemExit) as exc:
            main(self._SERVE + ["--window", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window 7" in capsys.readouterr().err


class TestTopCommand:
    def test_parser_appends_status_path(self):
        args = build_parser().parse_args(["top", "http://h:1"])
        assert args.url == "http://h:1"
        assert args.interval == 2.0
        assert args.iterations == 0

    def test_unreachable_service_exits_one(self, capsys):
        code = main(
            ["top", "http://127.0.0.1:1", "--iterations", "1", "--interval", "0.01"]
        )
        assert code == 1
        assert "repro top:" in capsys.readouterr().err

    def test_rejects_negative_iterations(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top", "http://h:1", "--iterations", "-1"])


class TestServeLivePlaneWithoutTelemetry:
    def test_http_port_forces_live_plane_and_restores(self, capsys):
        from repro.obs import live

        code = main(
            TestServeLiveFlags._SERVE + ["--http-port", "0", "--hold", "0"]
        )
        assert code == 0
        assert not live.forced()  # restored after the run
        err = capsys.readouterr().err
        assert "observability endpoints: http://127.0.0.1:" in err


class TestTimelineFlag:
    _SERVE = TestServeLiveFlags._SERVE + ["--seed", "3"]

    def test_timeline_writes_events_and_embeds_summary(self, tmp_path):
        import json

        from repro.obs import events

        events_path = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "run.json"
        code = main(
            ["--telemetry", str(manifest_path), "--trace", str(events_path)]
            + self._SERVE
        )
        assert code == 0
        assert events.active() is None  # recorder stopped after the run
        records = list(events.read_events(events_path))
        roots = [r for r in records if "trace" in r and r.get("parent") is None]
        assert roots
        assert all(r["trace"].startswith("req-") for r in roots)
        for root in roots:
            assert "served" in root["attrs"] and "tenant" in root["attrs"]
        manifest = json.loads(manifest_path.read_text())
        assert "events" not in manifest  # one digest, under "trace"
        summary = manifest["trace"]
        assert summary["traces"] == len(roots)
        assert summary["events"] == len(records)
        assert summary["slowest"]
        # Every request lands in the flight digest, sheds included.
        assert summary["requests"]["total"] == len(roots)

    def test_timeline_sample_rate_zero_records_nothing(self, tmp_path):
        from repro.obs import events

        events_path = tmp_path / "events.jsonl"
        code = main(
            ["--trace", str(events_path), "--trace-sample-rate", "0.0"]
            + self._SERVE
        )
        assert code == 0
        assert all(
            "trace" not in r for r in events.read_events(events_path)
        )  # process-scope only — every trace sampled out

    def test_back_to_back_runs_never_leak_events(self, tmp_path):
        from repro.obs import events

        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        assert main(["--trace", str(first)] + self._SERVE) == 0
        assert main(["--trace", str(second)] + self._SERVE) == 0
        assert events.active() is None
        a = sorted(r["trace"] for r in events.read_events(first) if "trace" in r)
        b = sorted(r["trace"] for r in events.read_events(second) if "trace" in r)
        assert a == b  # identical streams: same traces, nothing carried over

    def test_run_without_timeline_keeps_recorder_off(self, tmp_path):
        from repro.obs import events

        events_path = tmp_path / "events.jsonl"
        assert main(["--trace", str(events_path)] + self._SERVE) == 0
        assert main(self._SERVE) == 0  # plain rerun
        assert events.active() is None


class TestTraceCommand:
    def _record_run(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(
            ["--trace", str(events_path)] + TestTimelineFlag._SERVE
        )
        assert code == 0
        capsys.readouterr()  # drop the serve run's own output
        return events_path

    def test_perfetto_export_is_valid_trace_event_json(self, tmp_path, capsys):
        import json

        events_path = self._record_run(tmp_path, capsys)
        assert main(["trace", str(events_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["otherData"]["producer"] == "repro.obs.events"
        span_events = [e for e in doc["traceEvents"] if e["cat"] == "span"]
        assert span_events
        for e in span_events:
            assert {"ph", "name", "ts", "pid", "tid"} <= set(e)
            assert e["ph"] in ("B", "E")

    def test_output_flag_writes_file(self, tmp_path, capsys):
        import json

        events_path = self._record_run(tmp_path, capsys)
        out = tmp_path / "trace.json"
        code = main(
            ["trace", str(events_path), "--format", "perfetto", "--output", str(out)]
        )
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_tree_format_renders_waterfall(self, tmp_path, capsys):
        events_path = self._record_run(tmp_path, capsys)
        assert main(["trace", str(events_path), "--format", "tree"]) == 0
        out = capsys.readouterr().out
        assert "req-" in out and "ms" in out

    def test_json_format_roundtrips_records(self, tmp_path, capsys):
        import json

        from repro.obs import events

        events_path = self._record_run(tmp_path, capsys)
        assert main(["trace", str(events_path), "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed == list(events.read_events(events_path))

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro trace:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, fmt",
        [
            ('{"ph":"X","name":"a","ts":1,"dur":0}\n{"ph":"X","na', "perfetto"),
            ('{"ph":"X","name":"a","dur":0}\n', "perfetto"),
            ("[1,2]\n", "tree"),
        ],
        ids=["truncated-last-line", "no-ts", "non-object"],
    )
    def test_malformed_stream_exits_two(self, tmp_path, capsys, content, fmt):
        path = tmp_path / "bad.jsonl"
        path.write_text(content)
        assert main(["trace", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("repro trace: ") and f"{path}:" in line


class TestReportJsonFormat:
    def test_json_format_emits_summary(self, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "run.json"
        events_path = tmp_path / "events.jsonl"
        code = main(
            ["--telemetry", str(manifest_path), "--trace", str(events_path)]
            + TestTimelineFlag._SERVE
        )
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(manifest_path), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["command"] == "serve"
        assert summary["trace"]["traces"] > 0
        assert summary["trace"]["slowest"]
