"""Tests for the host snapshot stamped into benchmark reports."""

from __future__ import annotations

from repro.bench.host import LOADED_THRESHOLD, describe_host, host_snapshot


class TestHostSnapshot:
    def test_snapshot_is_json_ready_and_complete(self):
        import json

        snapshot = host_snapshot()
        json.dumps(snapshot)  # must be serialisable into the bench reports
        assert snapshot["cpu_count"] >= 1
        assert set(snapshot["loadavg"]) == {"1m", "5m", "15m"}
        assert isinstance(snapshot["loaded"], bool)

    def test_loaded_flag_follows_threshold(self, monkeypatch):
        import os

        cores = os.cpu_count() or 1
        busy = cores * (LOADED_THRESHOLD + 0.1)
        monkeypatch.setattr(os, "getloadavg", lambda: (busy, busy, busy))
        assert host_snapshot()["loaded"] is True
        monkeypatch.setattr(os, "getloadavg", lambda: (0.0, 0.0, 0.0))
        assert host_snapshot()["loaded"] is False

    def test_describe_host_warns_when_loaded(self):
        quiet = {"cpu_count": 4, "loadavg": {"1m": 0.1, "5m": 0.1, "15m": 0.1}, "loaded": False}
        noisy = dict(quiet, loaded=True)
        assert "LOADED" not in describe_host(quiet)
        assert "LOADED" in describe_host(noisy)
        assert "unreliable" in describe_host(noisy)

