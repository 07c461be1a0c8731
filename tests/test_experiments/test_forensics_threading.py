"""Forensics threaded through the experiment layers.

The flight recorder and forensic bundling ride the whole stack: the
in-process :class:`Runner` (fresh recorder per unit, bundles on disk,
manifest section), the warm worker pool's structured ``log`` frames
with campaign correlation IDs, and the CLI surface (flags plus the live
dashboard).
Each layer gets its own test here, cheapest first.
"""

import json
import os

import pytest

from repro.experiments.campaign import RunSpec
from repro.experiments.parallel import ResultCache
from repro.experiments.runner import Runner
from repro.experiments.supervisor import PoolConfig, PoolSupervisor
from repro.scor.apps.registry import app_by_name
from repro.telemetry import FlightConfig

#: cheapest unit that actually races (one scoped-atomic in ~2 s)
RACY = RunSpec("1DC", "scord", "default", races=("block_scope_out",))


# ----------------------------------------------------------------------
# In-process Runner
# ----------------------------------------------------------------------
class TestRunnerForensics:
    @pytest.fixture(scope="class")
    def captured(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("forensics")
        runner = Runner(
            verbose=False,
            flight=FlightConfig(mode="full"),
            forensics_dir=str(out),
        )
        record = runner.run(
            app_by_name(RACY.app), detector=RACY.detector,
            memory=RACY.memory, races=RACY.races,
        )
        return runner, record, out

    def test_unit_summary_fields(self, captured):
        runner, record, _ = captured
        assert record.unique_races >= 1
        assert len(runner.forensics_units) == 1
        entry = runner.forensics_units[0]
        assert entry["unit"] == "1DC.scord.default.block_scope_out"
        assert entry["bundles"] >= 1
        assert entry["rule_agreement"] == entry["bundles"]
        assert "scoped-atomic" in entry["race_types"]

    def test_bundles_land_on_disk(self, captured):
        runner, _, out = captured
        unit_dir = runner.forensics_units[0]["dir"]
        assert unit_dir is not None
        index = json.loads(
            open(os.path.join(unit_dir, "index.json")).read()
        )
        assert index["bundles"]
        assert os.path.dirname(unit_dir) == str(out)

    def test_manifest_section(self, captured):
        runner, _, out = captured
        section = runner.forensics_section()
        assert section["flight_mode"] == "full"
        assert section["units_captured"] == 1
        assert section["bundles"] >= 1
        assert section["rule_agreement"] == section["bundles"]
        assert section["units_by_race_type"].get("scoped-atomic") == 1
        assert section["dir"] == str(out)

    def test_capture_metrics_recorded(self, captured):
        runner, _, _ = captured
        snapshot = runner.telemetry.metrics.snapshot()
        assert snapshot["flight.units"] == 1.0
        assert snapshot["flight.total.events"] > 0
        assert snapshot["forensics.bundles"] >= 1.0

    def test_memo_still_dedupes_within_campaign(self, captured):
        runner, record, _ = captured
        again = runner.run(
            app_by_name(RACY.app), detector=RACY.detector,
            memory=RACY.memory, races=RACY.races,
        )
        assert again is record
        assert runner.fresh_runs == 1
        assert len(runner.forensics_units) == 1

    def test_runner_without_flight_has_no_section(self):
        runner = Runner(verbose=False)
        assert runner.forensics_section() is None
        assert runner.forensics_units == []


def test_disk_cache_is_bypassed_under_flight(tmp_path):
    """A cache hit skips simulation — and therefore capture — so the
    Runner must refuse the disk cache when forensics are on."""
    cache = ResultCache(tmp_path / "cache")
    plain = Runner(verbose=False, result_cache=cache)
    plain.run(app_by_name("RED"), detector="none")
    assert cache.get_spec(RunSpec("RED", "none", "default")) is not None

    capturing = Runner(
        verbose=False, result_cache=cache, flight=FlightConfig()
    )
    capturing.run(app_by_name("RED"), detector="none")
    assert capturing.fresh_runs == 1
    assert capturing.cached_runs == 0


# ----------------------------------------------------------------------
# Warm worker pool: structured log frames + correlation IDs
# ----------------------------------------------------------------------
class TestPoolForensics:
    def test_worker_streams_logs_and_forensics(self, tmp_path):
        bundles_dir = tmp_path / "bundles"
        event_log = tmp_path / "events.jsonl"
        config = PoolConfig(workers=1, unit_timeout=120)
        with PoolSupervisor(
            config,
            flight=FlightConfig(mode="full"),
            forensics_dir=str(bundles_dir),
            event_log_path=str(event_log),
        ) as sup:
            record = sup.execute(RACY)
            units = sup.all_forensics_units()
        stats = sup.stats()  # after close(): workers retired, log flushed

        assert record.unique_races >= 1
        # The worker's forensic summary crossed the pipe...
        assert len(units) == 1
        assert units[0]["unit"] == "1DC.scord.default.block_scope_out"
        assert units[0]["bundles"] >= 1
        # ...its bundles landed in the shared directory...
        index = os.path.join(units[0]["dir"], "index.json")
        assert os.path.exists(index)
        # ...and the structured event log carries correlated events.
        events = [
            json.loads(line) for line in
            event_log.read_text().splitlines()
        ]
        names = [event["event"] for event in events]
        assert names[0] == "unit-start"
        assert "forensics-unit" in names
        assert names[-1] == "unit-complete"
        for event in events:
            assert event["campaign"] == stats["campaign"]
            assert event["unit"] == RACY.describe()
            assert event["worker_pid"] > 0
        complete = events[-1]
        assert complete["unique_races"] == record.unique_races
        assert "scoped-atomic" in complete["race_types"]
        # Observability satellites: event counter + per-worker gauges.
        assert stats["log_events"] == len(events)
        worker = stats["per_worker"]["0"]
        assert worker["units_served"] == 1
        assert worker["lifetime_seconds"] > 0
        assert not worker["alive"]  # retired at close()

    def test_pool_without_flight_has_no_forensics(self):
        with PoolSupervisor(
            PoolConfig(workers=1, unit_timeout=60)
        ) as sup:
            sup.execute(RunSpec("RED", "none", "default"))
            stats = sup.stats()
        # Lifecycle events still flow (they need no capture)...
        events = [entry["event"] for entry in sup.log_events]
        assert events == ["unit-start", "unit-complete"]
        # ...but nothing forensic: no capture, no bundles, no log file.
        assert stats["forensics_units"] == 0
        assert stats["event_log"] is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_flight_flags_thread_to_manifest(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.experiments.cli as cli_module
        from repro.experiments.cli import main

        # Stand in for a real exhibit with one cheap racy unit driven
        # through the shared Runner (the real runner exhibits cost
        # minutes under full capture).
        def racy_exhibit(runner):
            runner.run(app_by_name(RACY.app), races=RACY.races)
            return "synthetic exhibit"

        monkeypatch.setattr(cli_module, "_table2", racy_exhibit)
        manifest_path = tmp_path / "manifest.json"
        code = main([
            "table2", "--quiet",
            "--forensics-out", str(tmp_path / "bundles"),
            "--flight-mode", "full",
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        section = manifest["forensics"]
        assert section["flight_mode"] == "full"
        assert section["units_captured"] == 1
        assert section["bundles"] >= 1
        assert section["rule_agreement"] == section["bundles"]
        unit_dir = section["units"][0]["dir"]
        assert os.path.exists(os.path.join(unit_dir, "index.json"))

    def test_explain_subcommand(self, capsys):
        from repro.experiments.cli import main

        assert main(["explain", "micro:fence_missing_cross_block"]) == 0
        out = capsys.readouterr().out
        assert "severed happens-before edge" in out
        assert "SL-F1" in out

    def test_flight_flag_validation(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["table2", "--flight", "--flight-mode", "bogus"])

    def test_live_report_renders_and_stops(self, tmp_path, capsys):
        from repro.experiments.cli import report_main

        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "schema": "campaign-manifest/v2",
            "exhibits": [],
            "forensics": {
                "dir": None, "flight_mode": "ring",
                "units_captured": 1, "bundles": 2, "rule_agreement": 2,
                "units_by_race_type": {"lock": 1}, "units": [],
            },
        }))
        code = report_main([
            "--manifest", str(manifest),
            "--live", "--iterations", "1", "--interval", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "\x1b[2J" in out  # clear-screen framing
        assert "forensics" in out

    def test_live_report_tolerates_missing_artifacts(self, tmp_path,
                                                     capsys):
        from repro.experiments.cli import report_main

        code = report_main([
            "--manifest", str(tmp_path / "never_written.json"),
            "--live", "--iterations", "1", "--interval", "0",
        ])
        assert code == 0
        assert "waiting for telemetry" in capsys.readouterr().out
