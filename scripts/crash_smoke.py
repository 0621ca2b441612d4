"""Crash smoke: SIGKILL a resumable run mid-way, rerun it, assert identity.

Both resumable commands promise that a killed run loses wall-clock, never
answers: ``repro fleet-risk`` resumes from its checkpoints and ``repro sim
run`` from its snapshots.  This script holds each to that promise with
real subprocesses, in one sequence for both targets:

1. start the run with periodic records and SIGKILL it once
   ``--kill-after`` records exist; it must die by that signal;
2. copy the surviving records to ``--artifacts-dir``; they must verify
   through the target's store;
3. rerun the identical command: it must resume from a record and finish;
4. run the same configuration uninterrupted, without records: it must not
   resume;
5. compare the two outputs, which land in ``--artifacts-dir`` as
   ``resumed.json`` and ``baseline.json``, so a red run can be diffed
   without reproducing it.

Usage::

    python scripts/crash_smoke.py fleet --modules 2000 --checkpoint-every 100
    python scripts/crash_smoke.py memsys --length 8000 --snapshot-every 1000
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fleet snapshot fields that legitimately differ between an interrupted-
#: and-resumed run and an uninterrupted one.  Everything else must match
#: bit-for-bit.
RUN_SHAPED_FIELDS = frozenset({"wall_s", "cache_hits", "cache_misses", "resumed_from"})


def _fail(message: str) -> None:
    print(f"crash_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


class Fleet:
    """repro fleet-risk, resuming from its checkpoints"""

    kill_after = 2

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--modules", type=int, default=2000)
        parser.add_argument("--checkpoint-every", type=int, default=100)
        parser.add_argument("--workers", type=int, default=2)

    def command(self, args, work: Path, records: Path | None, out: Path) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro", "fleet-risk",
            "--modules", str(args.modules),
            "--seed", "11",
            "--scenario", "mixed",
            # One outcome cache for every run: cached or computed summaries
            # must not matter.
            "--cache", str(work / "cache"),
            "--workers", str(args.workers),
            "--out", str(out),
        ]
        if records is not None:
            cmd += [
                "--checkpoint-dir", str(records),
                "--checkpoint-every", str(args.checkpoint_every),
            ]
        return cmd

    def store_class(self):
        from repro.fleet.aggregate import CheckpointStore

        return CheckpointStore

    def resumed(self, run: subprocess.CompletedProcess, out: Path) -> bool:
        return json.loads(out.read_text())["resumed_from"] is not None

    def compare(self, resumed_out: Path, baseline_out: Path) -> str:
        resumed, baseline = (
            {
                key: value
                for key, value in json.loads(path.read_text()).items()
                if key not in RUN_SHAPED_FIELDS
            }
            for path in (resumed_out, baseline_out)
        )
        if resumed != baseline:
            differing = sorted(
                key for key in resumed.keys() | baseline.keys()
                if resumed.get(key) != baseline.get(key)
            )
            _fail(
                f"resumed and uninterrupted snapshots differ in {differing}; "
                f"see {resumed_out} vs {baseline_out}"
            )
        return (
            f"{resumed['modules_done']} modules, {len(resumed['intervals'])} "
            "tREFC bins, percentiles bit-identical to the uninterrupted run"
        )


class Memsys:
    """repro sim run (2 channels, timing enforced), resuming from its snapshots"""

    kill_after = 1

    def add_arguments(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--cores", type=int, default=4)
        parser.add_argument(
            "--length", type=int, default=20000,
            help="requests per core (long enough to be killed mid-run)",
        )
        parser.add_argument("--snapshot-every", type=int, default=2000)

    def command(self, args, work: Path, records: Path | None, out: Path) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro", "sim", "run",
            "--cores", str(args.cores),
            "--mpki", "40",
            "--locality", "0.4",
            "--length", str(args.length),
            "--banks", "16",
            "--channels", "2",
            "--ranks", "2",
            "--enforce-timing",
            "--out", str(out),
        ]
        if records is not None:
            cmd += [
                "--snapshot-dir", str(records),
                "--snapshot-every", str(args.snapshot_every),
            ]
        return cmd

    def store_class(self):
        from repro.sim.memsys import SnapshotStore

        return SnapshotStore

    def resumed(self, run: subprocess.CompletedProcess, out: Path) -> bool:
        return "resumed from snapshot" in run.stdout

    def compare(self, resumed_out: Path, baseline_out: Path) -> str:
        if resumed_out.read_bytes() != baseline_out.read_bytes():
            _fail("resumed result differs from the uninterrupted run")
        result = json.loads(resumed_out.read_bytes())
        timing = result.get("timing", {})
        if not timing.get("checked") or not timing.get("enforced"):
            _fail("run was not timing-checked/enforced as requested")
        violations = timing.get("violations", [])
        if violations:
            _fail(
                f"enforced run reported {len(violations)} timing "
                f"violation(s); first: {violations[0]}"
            )
        channels = result.get("channel_report", [])
        if len(channels) != 2 or any(entry["requests"] == 0 for entry in channels):
            _fail(f"unexpected channel report: {channels}")
        return (
            "result byte-identical, 0 violations over "
            f"{result['requests']} requests on {len(channels)} channels"
        )


TARGETS = {"fleet": Fleet(), "memsys": Memsys()}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    return env


def _kill_once_recorded(cmd: list[str], records: Path, pattern: str, args) -> None:
    """Start ``cmd``, SIGKILL it once ``args.kill_after`` records exist,
    and check that it died by that signal."""
    process = subprocess.Popen(cmd, env=_env(), stdout=subprocess.DEVNULL)
    deadline = time.monotonic() + args.timeout
    try:
        while len(list(records.glob(pattern))) < args.kill_after:
            if process.poll() is not None:
                _fail(
                    f"the run exited {process.returncode} before "
                    f"{args.kill_after} record(s) appeared; lengthen it or "
                    "record more often"
                )
            if time.monotonic() > deadline:
                _fail("timed out waiting for records")
            time.sleep(0.05)
        process.kill()
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != -signal.SIGKILL:
        _fail(f"expected death by SIGKILL, got returncode {process.returncode}")


def _run(cmd: list[str], label: str, timeout: float) -> subprocess.CompletedProcess:
    run = subprocess.run(
        cmd, env=_env(), capture_output=True, text=True, timeout=timeout
    )
    if run.returncode != 0:
        _fail(f"the {label} exited {run.returncode}:\n{run.stderr}")
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="target", required=True)
    for name, target in TARGETS.items():
        sub = subparsers.add_parser(name, help=target.__doc__)
        target.add_arguments(sub)
        sub.add_argument(
            "--kill-after", type=int, default=target.kill_after,
            help="SIGKILL once this many records exist",
        )
        sub.add_argument(
            "--artifacts-dir", default=f"{name}-smoke-artifacts",
            help="directory for both outputs and the surviving records",
        )
        sub.add_argument(
            "--timeout", type=float, default=600.0,
            help="per-run timeout in seconds",
        )
    args = parser.parse_args(argv)
    target = TARGETS[args.target]
    sys.path.insert(0, str(REPO_ROOT / "src"))
    store_class = target.store_class()

    artifacts = Path(args.artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    resumed_out = artifacts / "resumed.json"
    baseline_out = artifacts / "baseline.json"
    with tempfile.TemporaryDirectory(prefix="crash-smoke-") as tmp:
        work = Path(tmp)
        records = work / "records"
        pattern = f"{store_class.prefix}-*.json"
        cmd = target.command(args, work, records, resumed_out)
        print(f"crash_smoke: run, kill: {' '.join(cmd)}", flush=True)
        _kill_once_recorded(cmd, records, pattern, args)
        survivors = sorted(records.glob(pattern))
        if not survivors:
            _fail("no record survived the SIGKILL")
        for survivor in survivors:
            shutil.copy2(survivor, artifacts / survivor.name)
        if store_class(records).latest() is None:
            _fail("the surviving records do not verify through their store")
        print(
            f"crash_smoke: killed mid-run; {len(survivors)} record(s) "
            f"survive and verify, newest {survivors[-1].name}",
            flush=True,
        )

        if not target.resumed(_run(cmd, "rerun", args.timeout), resumed_out):
            _fail("the rerun did not resume from a record: it restarted")
        print("crash_smoke: the rerun resumed and finished", flush=True)
        baseline_cmd = target.command(args, work, None, baseline_out)
        baseline = _run(baseline_cmd, "baseline", args.timeout)
        if target.resumed(baseline, baseline_out):
            _fail("the uninterrupted baseline resumed")

    summary = target.compare(resumed_out, baseline_out)
    print(f"crash_smoke: {args.target} OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
