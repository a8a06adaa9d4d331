"""Tests for the device-state inspector CLI."""

import pytest

from repro.tools.inspect import (
    SCENARIOS,
    build_device,
    format_report,
    gather_report,
    run_scenario,
)


class TestInspector:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenarios_run_and_report(self, scenario):
        ssd = build_device(block_count=64)
        run_scenario(ssd, scenario)
        ssd.ftl.check_invariants()
        report = gather_report(ssd)
        assert report["mapped_lpns"] > 0
        assert 0 < report["utilization"] <= 1.0
        assert report["share_table_capacity"] == 250
        assert sum(report["wear_histogram"].values()) \
            == ssd.config.geometry.block_count

    def test_share_heavy_uses_share_table(self):
        ssd = build_device(block_count=64)
        run_scenario(ssd, "share-heavy")
        report = gather_report(ssd)
        assert report["shared_physical_pages"] > 0
        assert report["share_table_used"] > 0

    def test_unknown_scenario_rejected(self):
        ssd = build_device(block_count=64)
        with pytest.raises(ValueError):
            run_scenario(ssd, "nope")

    def test_format_report(self):
        ssd = build_device(block_count=64)
        run_scenario(ssd, "overwrite")
        text = format_report(gather_report(ssd))
        assert "wear histogram" in text
        assert "utilization" in text

    def test_main_entrypoint(self, capsys):
        from repro.tools.inspect import main
        assert main(["--scenario", "overwrite", "--blocks", "64"]) == 0
        assert "device state" in capsys.readouterr().out
