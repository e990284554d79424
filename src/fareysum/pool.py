"""Worker-count bound shared by the scan and the counting sweep.

`ProcessPoolExecutor` under fork starts every worker up front, so a pool
is never sized past the CPUs this process may run on or the work it has.
"""

from __future__ import annotations

import os


def worker_count(jobs: int, tasks: int) -> int:
    """min(jobs, usable CPUs, tasks), and at least 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus, tasks))
