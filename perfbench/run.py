"""Benchmark of the ColumnDisturb reproduction: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload {serve,campaign,fleet,memsys} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; `repro` is imported from ``src/``.  The
seed picks which inputs are used (serials, temperatures, instance ranges,
mix order), never how many; ``--seconds`` sizes the run (a fixed op count
per workload, about that long on the reference host).  The command prints every metric by name with
its unit and sample count, the correctness checks with output digests,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A trace run also runs the
untraced pass, so it reports tracing overhead, prints the layer table and
writes its spans under ``.perfbench/`` (``repro obs trace FILE`` renders
them).  It exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("serve", "campaign", "fleet", "memsys")
#: Set-up samples per pass of an in-process workload.
SETUP_REPEATS = 5
#: Slack over ``--seconds`` a worker pass may take (checks, last op).
WORKER_SLACK_S = 75.0


def _worker_pass(workload: str, seed: int, seconds: float, spans: Path | None) -> dict:
    tag = f"{workload}-{os.getpid()}-{'traced' if spans else 'plain'}"
    out = harness.WORK_DIR / f"{tag}.json"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--out", str(out)]
    if spans is not None:
        args += ["--spans", str(spans)]
    process, setups = harness.timed_setups(args, SETUP_REPEATS)
    try:
        result = harness.finish_worker(process, out, seconds + WORKER_SLACK_S)
    finally:
        out.unlink(missing_ok=True)
    result["setup_samples"] = setups
    return result


def _passes(workload: str, seed: int, seconds: float, spans: Path | None) -> dict:
    """The untraced pass and, when ``spans`` names a file for them, the
    traced pass."""
    if workload == "serve":
        import wl_serve

        return wl_serve.run(seed, seconds, spans)
    passes = {"plain": _worker_pass(workload, seed, seconds, None)}
    if spans is not None:
        passes["traced"] = _worker_pass(workload, seed, seconds, spans)
    return passes


def _end_to_end(result: dict) -> dict:
    """name -> (value, unit, samples) of every end-to-end metric."""
    metrics = {name: tuple(value) for name, value in result["metrics"].items()}
    setups = result["setup_samples"]
    metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, *samples) in metrics.items():
        count = f"(n={samples[0]})" if samples else ""
        print(f"  {name:<28} {_fmt(value):>14} {unit:<10} {count}".rstrip())


def _print_checks(result: dict, prefix: str = "") -> bool:
    """Print a pass's checks and failures; whether all of them held."""
    for name, ok in result["checks"].items():
        print(f"check {prefix}{name}: {'ok' if ok else 'FAILED'}")
    for note in result["notes"]:
        print(f"  failure: {note}")
    return all(result["checks"].values()) and result["failed"] == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {harness.SRC}; run from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    harness.WORK_DIR.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    spans_path = None
    if args.trace:
        spans_path = harness.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    passes = _passes(args.workload, args.seed, args.seconds, spans_path)
    plain = passes["plain"]
    traced = passes.get("traced")

    host = harness.host_fingerprint(load_start)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    e2e = _end_to_end(plain)
    _print_metrics("end-to-end (benchmark tracing off):", e2e)
    attempted, failed = plain["attempted"], plain["failed"]
    print(f"  {'failed_share':<28} {_fmt(plain['failed'] / plain['attempted']):>14} "
          f"{'ratio':<10} (n={plain['attempted']})")
    _print_metrics(f"{args.workload} metrics:", {k: tuple(v) for k, v in plain["named"].items()})
    correct = _print_checks(plain)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host,
        "end_to_end": e2e,
        "named": plain["named"],
        "setup_samples": plain["setup_samples"],
        "checks": plain["checks"],
        "digests": plain["digests"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "notes": plain["notes"],
    }
    for name, value in plain["digests"].items():
        print(f"digest {args.workload}.{name} {value}")

    if traced is not None:
        traced_e2e = _end_to_end(traced)
        overhead = {
            name: (traced_e2e[name][0] - value, unit)
            for name, (value, unit, _) in e2e.items()
        }
        table = traced["layer_table"]
        print("traced pass: layer table (self time is thread-busy; share is of wall time)")
        print(tracer.render_layer_table(table))
        share_ok = harness.share_sum_ok(table["share_sum"])
        print(f"check layer_shares_sum_to_wall_within_5pct: {'ok' if share_ok else 'FAILED'}")
        # The wrappers only time calls: the traced outputs must not change.
        same_outputs = traced["digests"] == plain["digests"]
        print(f"check traced_outputs_match_untraced: {'ok' if same_outputs else 'FAILED'}")
        traced_ok = _print_checks(traced, prefix="traced.")
        layers = {name: 0.0 for name in catalog.PER_LAYER}
        layers.update(traced["layers"])
        for layer, row in table["layers"].items():
            layers[f"share.{layer}"] = row["share"]
        _print_metrics(
            "per-layer (traced pass):",
            {name: (value, catalog.PER_LAYER[name][0]) for name, value in layers.items()},
        )
        print("tracing overhead (traced minus untraced):")
        for name, (delta, unit) in overhead.items():
            print(f"  {name:<28} {_fmt(delta):>14} {unit}")
        print(f"spans written to {spans_path} (render with: repro obs trace FILE)")
        correct = correct and traced_ok and share_ok and same_outputs
        attempted += traced["attempted"]
        failed += traced["failed"]
        record.update(
            traced_end_to_end=traced_e2e,
            tracing_overhead=overhead,
            per_layer=layers,
            layer_table=table,
            traced_checks=traced["checks"],
        )
        metrics = {name: (value, catalog.PER_LAYER[name][0]) for name, value in layers.items()}
    else:
        metrics = {name: (e2e[name][0], unit) for name, (unit, _, _) in catalog.END_TO_END.items()}
    result_path = (
        harness.WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    result_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"result written to {result_path}")
    print(harness.emit(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
