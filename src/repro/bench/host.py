"""Host snapshot stamped into benchmark reports.

A benchmark figure is only comparable across runs that saw the same machine
conditions: a background process steals cycles and moves latencies without
any code change.  ``perfbench/run.py`` prints the CPU count, the load
averages and the CPU busy share before and after every run, so a suspect
run is diagnosable after the fact instead of silently becoming a new
baseline.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional, Tuple

# A busy share of the whole machine's CPU time above this fraction when the
# bench starts means some other process is competing for the CPU and the
# run's latencies are unreliable.  Where no busy share can be sampled, the
# 1-minute load average per core is held against the same fraction.
LOADED_THRESHOLD = 0.5
# Seconds between the two /proc/stat samples behind the busy share.
_BUSY_SAMPLE_S = 0.5


def _cpu_times() -> Optional[Tuple[int, int]]:
    """``(busy, total)`` jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        # user nice system idle iowait irq softirq steal; guest time is
        # already counted in user and nice.
        ticks = [int(value) for value in fields[1:9]]
    except (OSError, ValueError):
        return None
    if not fields or fields[0] != "cpu" or len(ticks) < 4:
        return None
    total = sum(ticks)
    return total - sum(ticks[3:5]), total


def sample_busy_share() -> Optional[float]:
    """The share of all cores' time spent busy over ``_BUSY_SAMPLE_S`` seconds.

    Unlike the 1-minute load average, two samples half a second apart do not
    carry the load of a benchmark run that has just finished.  ``None`` when
    /proc/stat is unreadable (not Linux) or no tick elapsed.
    """
    first = _cpu_times()
    if first is None:
        return None
    time.sleep(_BUSY_SAMPLE_S)
    second = _cpu_times()
    if second is None or second[1] <= first[1]:
        return None
    return (second[0] - first[0]) / (second[1] - first[1])


def host_snapshot() -> Dict[str, object]:
    """Capture the benchmarking host's identity and current load.

    Returns a JSON-ready dict with the platform, core count, the 1/5/15
    minute load averages and the sampled ``busy_share`` (``None`` when it
    cannot be sampled), and a ``loaded`` flag set when the busy share
    exceeds ``LOADED_THRESHOLD`` — or, without a busy share, when the
    1-minute average exceeds that fraction of the cores.  Callers surface
    it so a noisy run's latencies are never trusted unknowingly.
    """
    cores = os.cpu_count() or 1
    try:
        load_1m, load_5m, load_15m = os.getloadavg()
    except OSError:  # pragma: no cover - platforms without getloadavg
        load_1m = load_5m = load_15m = -1.0
    busy = sample_busy_share()
    if busy is None:
        loaded = load_1m >= 0 and load_1m / cores > LOADED_THRESHOLD
    else:
        loaded = busy > LOADED_THRESHOLD
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": cores,
        "loadavg": {
            "1m": round(load_1m, 2),
            "5m": round(load_5m, 2),
            "15m": round(load_15m, 2),
        },
        "busy_share": None if busy is None else round(busy, 3),
        "loaded": loaded,
    }


def describe_host(snapshot: Dict[str, object]) -> str:
    """One-line human summary of a :func:`host_snapshot` for bench logs."""
    load = snapshot.get("loadavg", {})
    line = (
        f"host: {snapshot.get('cpu_count', '?')} core(s), "
        f"loadavg {load.get('1m', '?')}/{load.get('5m', '?')}/{load.get('15m', '?')}"
    )
    if snapshot.get("busy_share") is not None:
        line += f", busy {snapshot['busy_share']:.0%}"
    if snapshot.get("loaded"):
        line += " — LOADED: this run's latencies are unreliable"
    return line
