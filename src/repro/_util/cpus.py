"""How many CPUs this process may run on."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (``taskset``, a
    cpuset-limited container), not the host's count.  Where the platform
    has no affinity call, ``os.cpu_count()``, and 1 if that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
