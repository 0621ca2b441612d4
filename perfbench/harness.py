"""Shared arithmetic and plumbing of the benchmark.

Everything here is independent of `repro`: run sizing, repeats and
host-speed normalization, percentiles and the tail rule, failure
accounting, digests, the host fingerprint, the set-up timer that spawns
fresh processes, and the result line the command prints last.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Run-time working files (disk caches, span files, server logs); inside
#: the checkout, listed in the root ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"

#: Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def op_count(seconds: float, nominal_per_s: float, multiple: int = 1) -> int:
    """Ops in a run of ``seconds``: the count that takes about that long at
    the workload's nominal rate on the reference host (2 CPUs).

    The count depends on the run length only, never on the seed or on how
    fast the program is, so every run of a length does the same work and a
    faster program is not charged for doing more of it.
    """
    return multiple * max(1, round(seconds * nominal_per_s / multiple))


def repeat_order(rng, count: int, repeats: int) -> list[int]:
    """Input indices ``0..count-1``, each ``repeats`` times, every pass in
    its own seed-chosen order (so the repeats of an input are far apart)."""
    order: list[int] = []
    for _ in range(repeats):
        order += rng.sample(range(count), count)
    return order


def best_of_repeats(keys: list, seconds: list[float], work: list[float]) -> tuple[float, float]:
    """Rate and median op time of a run whose inputs each ran several times.

    Load from other tenants of the host only ever slows an op, and on a
    shared host the speed swings by a third or more in phases of seconds
    to minutes.  Each input's fastest repeat estimates the program's own
    speed, and summing over every input keeps the work the same whatever
    the seed.  Returns (work per second over the fastest repeats, median
    fastest op time in seconds).
    """
    best: dict = {}
    amount: dict = {}
    for key, took, done in zip(keys, seconds, work):
        best[key] = min(took, best.get(key, math.inf))
        amount[key] = done
    return sum(amount.values()) / sum(best.values()), statistics.median(best.values())


#: `python_probe` seconds on the reference host (2-CPU Xeon, Python 3.11)
#: at full speed: the scale `host_normalized` converts op times to.
PROBE_REFERENCE_S = 0.015


def python_probe() -> float:
    """Seconds for a fixed piece of pure-Python work (dict and integer
    operations): how fast this host runs the interpreter right now."""
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 1)
    acc = 0
    for i in range(100_000):
        table[i & 1023] = i
        acc = (acc + table[(i * 7) & 1023]) % 1000
    return time.perf_counter() - start


def host_normalized(op_seconds: list[float], probes: list[float]) -> list[float]:
    """Op times rescaled to the reference host's full speed.

    ``probes`` holds one `python_probe` before the first op and one after
    each op; an op is scaled by the mean of the two probes around it.
    On a shared host whose CPUs are hyperthreads, the interpreter's speed
    swings by up to two-thirds as other tenants load the sibling threads,
    for seconds to minutes at a time; a single-threaded pure-Python op
    slows in step with the probe, so the ratio stays put.
    """
    return [
        took * PROBE_REFERENCE_S * 2 / (before + after)
        for took, before, after in zip(op_seconds, probes, probes[1:])
    ]


def child_env() -> dict:
    """Environment for processes that import `repro` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_OBS", None)
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default rule).

    ``inf`` entries (failed requests) sort last, so a percentile that
    reaches them is ``inf``: a failure misses every latency bound.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or data[low] == data[high]:
        return data[low]
    if math.isinf(data[high]):
        return math.inf
    return data[low] + (data[high] - data[low]) * (rank - low)


def tail_percentile(count: int) -> float | None:
    """Highest percentile of `TAIL_LADDER` with at least `TAIL_BEYOND`
    of ``count`` samples beyond it, or None when even the median has not."""
    for q in TAIL_LADDER:
        # In thousandths, so 100 samples have exactly 10 beyond p90.
        if count * (1000 - round(q * 10)) >= TAIL_BEYOND * 1000:
            return q
    return None


def latency_summary(latencies_s: list[float], failed: int = 0) -> dict:
    """Median and tail (ms) of one request class, with its sample count.

    ``failed`` requests of the class count as samples that missed every
    latency bound: they enter the distribution as ``inf``.
    """
    samples = [s * 1e3 for s in latencies_s] + [math.inf] * failed
    if not samples:
        return {"n": 0, "p50_ms": None, "tail_q": None, "tail_ms": None}
    q = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50_ms": percentile(samples, 50.0),
        "tail_q": q,
        "tail_ms": percentile(samples, q) if q is not None else None,
    }


def share_sum_ok(share_sum: float, tolerance: float = 0.05) -> bool:
    """Whether the layer shares of wall time (the benchmark's root
    included) sum to 1 within ``tolerance``."""
    return abs(share_sum - 1.0) <= tolerance


class Tally:
    """Ops attempted and failed in one run.

    A failed op is one that raised, was refused (any non-200), or whose
    output failed its correctness check.  `fail` never double-counts an
    op: checks name ops by a key, and each key fails at most once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set = set()
        self.notes: list[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, key, note: str | None = None) -> None:
        self._failed.add(key)
        if note and len(self.notes) < 20:
            self.notes.append(note)

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# Digests, host, memory
# ---------------------------------------------------------------------------
def digest(obj) -> str:
    """Short content digest of a JSON-able value (canonical encoding)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint(load_start: tuple[float, ...]) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------
READY = "PERFBENCH-READY"


def spawn_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``worker.py`` with ``args``; return it and its set-up time:
    spawn until it prints `READY` (imports plus input generation done)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    for line in process.stdout:
        if line.strip() == READY:
            return process, time.perf_counter() - start
    process.wait()
    raise RuntimeError(f"worker exited with {process.returncode} before set-up")


def finish_worker(process: subprocess.Popen, out: Path, timeout: float) -> dict:
    """Wait for a worker and load the result object it wrote to ``out``."""
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def timed_setups(args: list[str], repeats: int) -> tuple[subprocess.Popen, list[float]]:
    """Measure worker set-up ``repeats`` times; the last worker is left
    running (it goes on to the timed phase) and the others exit."""
    times = []
    for _ in range(repeats - 1):
        process, elapsed = spawn_worker([*args, "--setup-only"])
        times.append(elapsed)
        process.communicate(timeout=60)
    process, elapsed = spawn_worker(args)
    times.append(elapsed)
    return process, times


def emit(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    """The result line: the last line the command prints.  A value that is
    not finite (a latency every request missed) is written as null."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {
                    "value": value if value is not None and math.isfinite(value) else None,
                    "unit": unit,
                }
                for name, (value, unit) in metrics.items()
            },
        }
    )
