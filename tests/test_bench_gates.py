"""Tests for the host snapshot stamped into benchmark reports."""

from __future__ import annotations

import pytest

from repro.bench import host
from repro.bench.host import LOADED_THRESHOLD, describe_host, host_snapshot


class TestHostSnapshot:
    def test_snapshot_is_json_ready_and_complete(self):
        import json

        snapshot = host_snapshot()
        json.dumps(snapshot)  # must be serialisable into the bench reports
        assert snapshot["cpu_count"] >= 1
        assert set(snapshot["loadavg"]) == {"1m", "5m", "15m"}
        assert snapshot["busy_share"] is None or 0.0 <= snapshot["busy_share"] <= 1.0
        assert isinstance(snapshot["loaded"], bool)

    def test_loaded_flag_follows_threshold(self, monkeypatch):
        monkeypatch.setattr(host, "sample_busy_share", lambda: LOADED_THRESHOLD + 0.1)
        snapshot = host_snapshot()
        assert snapshot["loaded"] is True
        assert snapshot["busy_share"] == round(LOADED_THRESHOLD + 0.1, 3)
        monkeypatch.setattr(host, "sample_busy_share", lambda: 0.0)
        assert host_snapshot()["loaded"] is False

    def test_high_load_average_with_an_idle_sample_is_not_loaded(self, monkeypatch):
        import os

        # The 1-minute average still carries a run that has just finished.
        busy = (os.cpu_count() or 1) * (LOADED_THRESHOLD + 1.0)
        monkeypatch.setattr(os, "getloadavg", lambda: (busy, busy, busy))
        monkeypatch.setattr(host, "sample_busy_share", lambda: 0.02)
        snapshot = host_snapshot()
        assert snapshot["loaded"] is False
        assert "LOADED" not in describe_host(snapshot)

    def test_load_average_rule_without_a_busy_sample(self, monkeypatch):
        import os

        cores = os.cpu_count() or 1
        busy = cores * (LOADED_THRESHOLD + 0.1)
        monkeypatch.setattr(host, "_cpu_times", lambda: None)
        monkeypatch.setattr(os, "getloadavg", lambda: (busy, busy, busy))
        snapshot = host_snapshot()
        assert snapshot["busy_share"] is None and snapshot["loaded"] is True
        monkeypatch.setattr(os, "getloadavg", lambda: (0.0, 0.0, 0.0))
        assert host_snapshot()["loaded"] is False

    def test_busy_share_is_a_fraction_of_cpu_time(self, monkeypatch):
        samples = iter([(100, 1000), (160, 1200)])  # (busy, total) ticks
        slept = []
        monkeypatch.setattr(host, "_cpu_times", lambda: next(samples))
        monkeypatch.setattr(host.time, "sleep", slept.append)
        assert host.sample_busy_share() == pytest.approx(0.3)
        assert slept == [host._BUSY_SAMPLE_S]

    def test_describe_host_warns_when_loaded(self):
        quiet = {"cpu_count": 4, "loadavg": {"1m": 0.1, "5m": 0.1, "15m": 0.1}, "loaded": False}
        noisy = dict(quiet, loaded=True)
        assert "LOADED" not in describe_host(quiet)
        assert "LOADED" in describe_host(noisy)
        assert "unreliable" in describe_host(noisy)

