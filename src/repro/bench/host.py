"""Host snapshot stamped into benchmark reports.

The regression gates compare dimensionless speedup *ratios* across runs on
the assumption that both paths of a ratio see the same machine conditions.
That assumption breaks on a loaded host: a background build steals cycles
unevenly between a short warm loop and a long concurrent section, skewing
the ratio without any code change (see CHANGES.md, PR 9 baseline-noise
postmortem).  Stamping the CPU count and load averages into every report
makes a suspect baseline diagnosable after the fact instead of silently
becoming the new CI floor.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

# A 1-minute load average above this fraction of the core count when the
# bench starts means some other process is competing for the CPU and the
# measured ratios are unreliable.
LOADED_THRESHOLD = 0.5


def available_cores() -> int:
    """Usable CPU cores (affinity-aware: containers often pin fewer)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def host_snapshot() -> Dict[str, object]:
    """Capture the benchmarking host's identity and current load.

    Returns a JSON-ready dict with the platform, core count, the 1/5/15
    minute load averages at capture time, and a ``loaded`` flag set when
    the 1-minute average exceeds ``LOADED_THRESHOLD`` of the cores —
    callers surface it so a noisy run is never committed as a baseline
    unknowingly.
    """
    cores = os.cpu_count() or 1
    try:
        load_1m, load_5m, load_15m = os.getloadavg()
    except OSError:  # pragma: no cover - platforms without getloadavg
        load_1m = load_5m = load_15m = -1.0
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": cores,
        "loadavg": {
            "1m": round(load_1m, 2),
            "5m": round(load_5m, 2),
            "15m": round(load_15m, 2),
        },
        "loaded": load_1m >= 0 and load_1m / cores > LOADED_THRESHOLD,
    }


def describe_host(snapshot: Dict[str, object]) -> str:
    """One-line human summary of a :func:`host_snapshot` for bench logs."""
    load = snapshot.get("loadavg", {})
    line = (
        f"host: {snapshot.get('cpu_count', '?')} core(s), "
        f"loadavg {load.get('1m', '?')}/{load.get('5m', '?')}/{load.get('15m', '?')}"
    )
    if snapshot.get("loaded"):
        line += " — LOADED: speedup ratios from this run are unreliable as baselines"
    return line
