"""Tests for the dicer-repro CLI."""

import json

import pytest

from repro import obs
from repro.experiments.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig1_limited(self, capsys):
        assert main(["fig1", "--limit", "4"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig2_limited(self, capsys):
        assert main(["fig2", "--limit", "3"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_fig6_limited(self, capsys):
        assert main(["fig6", "--limit", "6", "--cores", "2", "10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out and "DICER" in out

    def test_fig5_uses_max_cores_only(self, capsys):
        assert main(["fig5", "--limit", "6", "--cores", "4"]) == 0
        assert "CT-" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cache_persists(self, tmp_path, capsys):
        cache = tmp_path / "results.json"
        assert main(["fig1", "--limit", "3", "--cache", str(cache)]) == 0
        assert cache.exists()

    def test_workers_flag_matches_serial(self, capsys):
        assert main(["fig1", "--limit", "3", "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(["fig1", "--limit", "3", "--workers", "1"]) == 0
        assert capsys.readouterr().out == parallel_out

    def test_ablation_classify(self, capsys):
        assert main(["ablation-classify", "--limit", "5"]) == 0
        assert "CT-T share" in capsys.readouterr().out

    def test_recommend(self, capsys):
        assert main([
            "recommend", "--hp", "namd1", "--be", "povray1", "--slo", "0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "Recommendation" in out and "Verdict" in out

    def test_ablation_detector(self, capsys):
        # Smoke only: a single fast pair.
        from repro.experiments.ablation import sweep_phase_detector

        text = sweep_phase_detector(pairs=(("wrf1", "gcc_base5"),))
        assert "ewma" in text


class TestRunExperiment:
    def test_single_pair_renders_summary(self, capsys):
        assert main(["run", "--hp", "milc1", "--be", "gcc_base6"]) == 0
        out = capsys.readouterr().out
        assert "milc1" in out and "DICER" in out
        assert "hp_slowdown" in out
        assert "resets (CT-F/CT-T)" in out  # DICER traces expose flavours

    def test_policy_selectable(self, capsys):
        assert main([
            "run", "--hp", "namd1", "--be", "povray1", "--policy", "UM",
        ]) == 0
        out = capsys.readouterr().out
        assert "UM" in out
        assert "resets" not in out  # UM produces no trace

    @pytest.mark.parametrize("policy", ["LFOC", "CBP"])
    def test_zoo_policies_render_event_summary(self, capsys, policy):
        # Regression: zoo decision records have no DICER ``mode`` field;
        # the trace summary must fall back to the event histogram instead
        # of crashing in summarise_trace.
        assert main([
            "run", "--hp", "namd1", "--be", "povray1", "--policy", policy,
        ]) == 0
        out = capsys.readouterr().out
        assert policy in out
        assert "events" in out and "warmup:" in out
        assert "resets" not in out  # DICER-only counters stay DICER-only

    def test_unknown_policy_rejected(self, capsys):
        # argparse rejects unlisted choices with usage + exit code 2.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--policy", "LRU"])
        assert exc.value.code == 2
        assert "--policy" in capsys.readouterr().err

    def test_unknown_hp_app_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="run: unknown application"):
            main(["run", "--hp", "milc99"])

    def test_unknown_be_app_suggests_alternatives(self):
        with pytest.raises(SystemExit, match="similar entries"):
            main(["run", "--hp", "milc1", "--be", "gcc_base99"])


class TestTelemetry:
    """The ISSUE's acceptance loop: run with --metrics, then report it."""

    def test_run_writes_decision_events_and_metrics(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        assert main([
            "run", "--hp", "milc1", "--be", "gcc_base6",
            "--metrics", str(path),
        ]) == 0
        capsys.readouterr()
        assert not obs.enabled()  # finalised even though main printed
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        kinds = {r["kind"] for r in records}
        assert {"campaign.start", "dicer.decision", "campaign.end",
                "metric", "telemetry.finalise"} <= kinds
        assert all(r.get("campaign") == "run" for r in records)

        decisions = [r for r in records if r["kind"] == "dicer.decision"]
        assert {"period", "mode", "event", "hp_ipc", "hp_ways"} <= set(
            decisions[0]
        )
        assert any(d["event"] == "sampling_start" for d in decisions)

        metrics = {
            r["name"]: r for r in records if r["kind"] == "metric"
        }
        assert metrics["dicer.decisions"]["value"] == len(decisions)
        assert metrics["steady_cache.misses"]["value"] > 0
        assert metrics["steady_cache.solve_seconds"]["type"] == "histogram"
        assert metrics["steady_cache.solve_seconds"]["count"] > 0

    def test_report_round_trip(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        main(["run", "--hp", "milc1", "--be", "gcc_base6",
              "--metrics", str(path)])
        capsys.readouterr()
        assert main(["report", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry report:" in out
        assert "dicer.decision" in out
        assert "steady_cache.solve_seconds" in out

    def test_report_requires_metrics_path(self):
        with pytest.raises(SystemExit, match="requires --metrics"):
            main(["report"])

    def test_report_missing_file_is_a_clean_error(self, tmp_path):
        absent = tmp_path / "never-written.jsonl"
        with pytest.raises(SystemExit, match="no telemetry file"):
            main(["report", "--metrics", str(absent)])

    def test_report_on_empty_store_renders_zero_summary(
        self, tmp_path, capsys
    ):
        # An existing-but-empty telemetry file (e.g. a campaign that died
        # before its first event) reports cleanly rather than crashing.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", "--metrics", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry report: 0 records" in out
        assert "0 run(s)" in out

    def test_telemetry_disabled_after_failure(self, tmp_path):
        # The finally block must tear telemetry down even when the
        # experiment aborts (here: an unknown application name, which
        # surfaces as a clean SystemExit rather than a traceback).
        path = tmp_path / "tel.jsonl"
        with pytest.raises(SystemExit, match="run: unknown application"):
            main(["run", "--hp", "no-such-app", "--metrics", str(path)])
        assert not obs.enabled()

    def test_no_metrics_flag_no_telemetry(self, capsys):
        assert main(["run", "--hp", "namd1", "--be", "povray1"]) == 0
        assert not obs.enabled()


class TestProfile:
    def test_profile_prints_hotspots(self, capsys):
        assert main(["table1", "--profile", "--profile-top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out  # the experiment itself still renders
        assert "cProfile: top 5 by cumulative time" in out
        assert "cumtime" in out  # pstats table header

    def test_profile_out_dumps_pstats(self, tmp_path, capsys):
        import pstats

        dump = tmp_path / "profile.pstats"
        assert main(
            ["table1", "--profile", "--profile-out", str(dump)]
        ) == 0
        assert "pstats dump written to" in capsys.readouterr().out
        assert dump.exists()
        pstats.Stats(str(dump))  # loadable by the standard tooling

    def test_profile_survives_experiment_failure(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit, match="run: unknown application"):
            main(["run", "--hp", "no-such-app", "--profile"])
        assert "cProfile" in capsys.readouterr().out

    def test_no_profile_flag_no_hotspots(self, capsys):
        assert main(["table1"]) == 0
        assert "cProfile" not in capsys.readouterr().out


class TestSupervisionFlags:
    """--max-retries / --cell-timeout / --on-failure wiring."""

    def _poison(self, monkeypatch, index):
        from repro.experiments.chaos import CHAOS_ENV_VAR, chaos_env

        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={index: "raise"}, persistent=[index]),
        )

    def test_skip_mode_renders_failure_manifest(self, monkeypatch, capsys):
        self._poison(monkeypatch, 3)
        assert main([
            "fig1", "--limit", "2", "--max-retries", "0",
            "--on-failure", "skip",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out  # partial results still render
        assert "Failure manifest:" in out
        assert "ChaosInjected" in out

    def test_abort_mode_exits_with_resume_hint(self, monkeypatch, tmp_path):
        self._poison(monkeypatch, 2)
        cache = tmp_path / "cache.json"
        with pytest.raises(SystemExit) as err:
            main([
                "fig1", "--limit", "2", "--max-retries", "0",
                "--cache", str(cache),
            ])
        message = str(err.value)
        assert "campaign aborted" in message
        assert "--on-failure=skip" in message

    def test_transient_fault_retried_to_clean_output(
        self, monkeypatch, capsys
    ):
        from repro.experiments.chaos import CHAOS_ENV_VAR, chaos_env

        assert main(["fig1", "--limit", "2"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={2: "raise"})
        )
        assert main(["fig1", "--limit", "2", "--max-retries", "2"]) == 0
        assert capsys.readouterr().out == clean

    def test_bad_on_failure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--limit", "2", "--on-failure", "explode"])


class TestBackendFlag:
    """--backend selects the result-store persistence engine."""

    def test_sqlite_backend_writes_a_database(self, tmp_path, capsys):
        cache = tmp_path / "results.db"
        assert main([
            "fig1", "--limit", "2", "--cache", str(cache),
            "--backend", "sqlite",
        ]) == 0
        assert cache.read_bytes()[:16] == b"SQLite format 3\x00"
        # Resume from it and render identical output.
        first = capsys.readouterr().out
        assert main([
            "fig1", "--limit", "2", "--cache", str(cache),
            "--backend", "sqlite",
        ]) == 0
        assert capsys.readouterr().out == first

    def test_backends_render_identical_reports(self, tmp_path, capsys):
        assert main(["fig1", "--limit", "2"]) == 0
        baseline = capsys.readouterr().out
        for name in ("results.json", "results.db"):
            assert main([
                "fig1", "--limit", "2", "--cache", str(tmp_path / name),
            ]) == 0  # backend=auto sniffs the suffix
            assert capsys.readouterr().out == baseline

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig1", "--limit", "2", "--backend", "parquet"])


class TestCampaignCli:
    """The campaign subcommand: producer, worker and monitor modes."""

    def test_worker_mode_requires_queue_and_store(self):
        with pytest.raises(SystemExit, match="--queue"):
            main(["campaign"])

    def test_monitor_requires_existing_queue(self, tmp_path):
        with pytest.raises(SystemExit, match="no queue database"):
            main(["campaign", "monitor", str(tmp_path / "missing.db")])

    def test_enqueue_drain_monitor_round_trip(self, tmp_path, capsys):
        queue_db = tmp_path / "q.db"
        store_db = tmp_path / "results.db"
        base = [
            "campaign", "--queue", str(queue_db), "--store", str(store_db),
            "--limit", "2", "--cores", "3", "--precision", "fast",
        ]
        assert main(base + ["--enqueue-only", "--worker-id", "prod"]) == 0
        out = capsys.readouterr().out
        assert "[prod] enqueued" in out
        assert "Campaign queue" in out

        assert main(base + ["--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "[w1] enqueued 0 new cell(s)" in out  # idempotent
        assert "[w1] drained:" in out
        assert "0 failed" in out

        assert main(["campaign", "monitor", str(queue_db)]) == 0
        monitor = capsys.readouterr().out
        assert "drained" in monitor
        assert "w1" in monitor

    def test_shared_metrics_tag_batches_by_worker(self, tmp_path, capsys):
        queue_db = tmp_path / "q.db"
        metrics = tmp_path / "metrics.jsonl"
        assert main([
            "campaign", "--queue", str(queue_db),
            "--store", str(tmp_path / "results.db"),
            "--limit", "2", "--cores", "3", "--precision", "fast",
            "--worker-id", "w1", "--metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        labels = {
            record.get("label")
            for record in obs.load_jsonl(metrics)
            if record.get("kind") == "campaign.batch"
        }
        assert labels == {"w1"}
        assert main([
            "campaign", "monitor", str(queue_db),
            "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "Telemetry:" in out
        assert "cells/s" in out
