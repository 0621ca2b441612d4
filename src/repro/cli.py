"""Command-line interface: quick access to the catalog, characterization,
risk analysis, and mitigation planning.

Usage (after ``pip install -e .``)::

    python -m repro catalog
    python -m repro floor S0 --temperature 85
    python -m repro risk M8 --window 64
    python -m repro characterize S4 --subarrays 4
    python -m repro mitigations M8 --projected-scale 8
    python -m repro datasheet M8
    python -m repro run-program M8 examples/programs/press_attack.txt
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

import repro
from repro import obs
from repro._util.units import format_seconds
from repro.analysis import DistributionSummary, seconds, table
from repro.chip import (
    CATALOG,
    BankGeometry,
    SimulatedModule,
    get_module,
)
from repro.core import (
    Campaign,
    CampaignScale,
    WORST_CASE,
    refresh_window_risk,
)
from repro.fleet.scenario import SCENARIO_NAMES
from repro.refresh import columndisturb_safe_period, compare_mitigations


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """Shared ``--trace`` / ``--metrics`` / ``--metrics-port`` plumbing:
    every data-producing subcommand gets the same three flags."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append observability spans to FILE as JSONL, each as it "
             "finishes (render it with 'repro obs trace FILE')",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="enable observability and write a metrics snapshot to FILE "
             "(.json for a JSON snapshot, anything else for Prometheus text)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="enable observability and serve live /metrics on PORT while "
             "the command runs (0 picks a free port)",
    )


def _cmd_catalog(args: argparse.Namespace) -> str:
    rows = [
        [
            spec.serial, spec.manufacturer, spec.density, spec.die_revision,
            spec.organization, spec.interface, spec.chips,
            format_seconds(spec.profile.first_flip_floor(85.0)),
        ]
        for spec in CATALOG.values()
    ]
    return table(
        ["serial", "manufacturer", "density", "die", "org", "interface",
         "chips", "CD floor @85C"],
        rows,
    )


def _cmd_floor(args: argparse.Namespace) -> str:
    spec = get_module(args.serial)
    floor = spec.profile.first_flip_floor(args.temperature)
    safe = columndisturb_safe_period(spec, args.temperature)
    return "\n".join([
        f"{spec.serial}: {spec.manufacturer} {spec.die_label}",
        f"  time-to-first-bitflip floor @ {args.temperature:.0f}C: "
        f"{format_seconds(floor)}",
        f"  ColumnDisturb-safe refresh period: {format_seconds(safe)}",
        f"  inside the 64 ms refresh window: "
        f"{'YES - at risk' if floor <= 0.064 else 'no'}",
    ])


def _cmd_risk(args: argparse.Namespace) -> str:
    from repro.serve.protocol import RiskRequest

    # The served request's bounds and default geometry, so `repro risk`
    # and `POST /v1/risk` answer (or refuse) the same questions.
    request = RiskRequest.from_json({
        "serial": args.serial,
        "window_ms": args.window,
        "temperature_c": args.temperature,
    })
    risk = refresh_window_risk(
        request.serial, request.scale,
        window=request.window_ms / 1000.0, temperature_c=request.temperature_c,
    )
    lines = [
        f"{request.serial} @ {request.temperature_c:.0f}C, "
        f"{request.window_ms:.0f} ms window:",
        f"  at risk: {'YES' if risk.at_risk else 'no'}",
        f"  vulnerable cells: {risk.vulnerable_cells} in "
        f"{risk.vulnerable_rows} rows",
        f"  fastest bitflip: {seconds(risk.time_to_first)}",
    ]
    if risk.closest_victim_rows is not None:
        lines.append(
            f"  victim distance from aggressor: "
            f"{risk.closest_victim_rows}-{risk.farthest_victim_rows} rows"
        )
    return "\n".join(lines)


def _cmd_characterize(args: argparse.Namespace) -> str:
    from repro.core import OutcomeCache

    scale = CampaignScale(
        BankGeometry(
            subarrays=args.subarrays, rows_per_subarray=args.rows,
            columns=args.columns,
        )
    )
    campaign = Campaign(
        scale=scale,
        workers=args.workers,
        cache=OutcomeCache(args.cache) if args.cache else None,
        retries=args.retries,
        timeout=args.timeout,
        failure_policy=args.failure_policy,
    )
    records = campaign.characterize_module(
        args.serial, WORST_CASE, intervals=(0.512, 16.0)
    )
    measured = [r for r in records if r.status == "ok"]
    summary = DistributionSummary.from_values(
        [r.time_to_first for r in measured]
    )
    rows = [
        [
            r.subarray, seconds(r.time_to_first), r.cd_flips[0.512],
            r.cd_rows[0.512], r.cd_flips[16.0], r.ret_flips[16.0],
        ]
        if r.status == "ok"
        else [r.subarray, "SKIPPED", "-", "-", "-", "-"]
        for r in records
    ]
    body = table(
        ["subarray", "time to 1st flip", "CD flips @512ms", "CD rows @512ms",
         "CD flips @16s", "RET flips @16s"],
        rows,
    )
    footer = (
        f"\ntime-to-first-bitflip: min {seconds(summary.minimum)}, "
        f"median {seconds(summary.median)}"
        if summary.count
        else "\nno bitflips within the 512 ms search window"
    )
    skipped = len(records) - len(measured)
    if skipped:
        footer += f"\nWARNING: {skipped} subarray(s) skipped after failures"
    if args.trace:
        footer += "\n\n" + _run_trace_summary(obs.current_span().trace_id)
    return body + footer


def _run_trace_summary(trace_id: str) -> str:
    """The ``characterize --trace`` footer, from the run's spans: units by
    source, retries, nearest-rank unit latencies (skipped units have
    none) and the engine's serial-fallback decision."""
    spans = [s for s in obs.finished_spans() if s["trace_id"] == trace_id]
    units = [s for s in spans if s["name"] == "engine.unit"]
    walls = {"computed": [], "memory": [], "disk": [], "skipped": []}
    for unit in units:
        walls[unit["attributes"]["source"]].append(unit["duration_s"])
    attempts = [unit["attributes"]["attempts"] for unit in units]
    computed, hits = walls["computed"], walls["memory"] + walls["disk"]

    def latency(samples: list[float]) -> str:
        ordered = sorted(samples)

        def at(q: float) -> str:
            if not ordered:
                return "n/a"
            rank = math.ceil(q / 100.0 * len(ordered))
            return f"{ordered[max(rank, 1) - 1] * 1e3:.2f} ms"

        return f"p50 {at(50.0)}, p95 {at(95.0)}"

    lines = [
        "run trace summary:",
        f"  units: {len(units)} ({len(computed)} computed, "
        f"{len(walls['memory'])} memory hits, {len(walls['disk'])} disk hits, "
        f"{len(walls['skipped'])} skipped)",
        f"  cache hit ratio: {len(hits) / len(units) if units else 0.0:.1%}",
        f"  units retried: {sum(a > 1 for a in attempts)} "
        f"({sum(attempts)} total attempts)",
        f"  unit latency: {latency(computed + hits)}",
        f"  computed latency: {latency(computed)}",
        f"  cache-hit latency: {latency(hits)}",
        f"  total unit wall time: {sum(computed) + sum(hits):.3f} s",
    ]
    for span in spans:
        attributes = span["attributes"]
        if span["name"] == "engine.characterize" and attributes.get("serial_fallback"):
            lines.append(
                f"  decision [serial-fallback]: workers={attributes['workers']} "
                f"requested, {attributes['effective_workers']} effective; the "
                "host offers no parallelism, so units ran in-process"
            )
    return "\n".join(lines)


def _cmd_datasheet(args: argparse.Namespace) -> str:
    from repro.analysis.report import module_datasheet

    return module_datasheet(args.serial)


def _cmd_run_program(args: argparse.Namespace) -> str:
    from pathlib import Path

    from repro.bender import DramBender, parse_program

    spec = get_module(args.serial)
    geometry = BankGeometry(
        subarrays=args.subarrays, rows_per_subarray=args.rows,
        columns=args.columns,
    )
    module = SimulatedModule(spec, geometry=geometry)
    module.set_temperature(args.temperature)
    program = parse_program(Path(args.program).read_text(), name=args.program)
    result = DramBender(module).execute(program)
    lines = [
        f"executed {args.program} on {args.serial} "
        f"({format_seconds(result.elapsed)} of device time)"
    ]
    for record in result.reads:
        flips = int(record.bits.sum())
        label = record.tag or f"row {record.row}"
        lines.append(
            f"  {label}: {flips} ones / {len(record.bits)} bits"
        )
    return "\n".join(lines)


def _cmd_obs(args: argparse.Namespace) -> str:
    if args.obs_command == "report":
        return _render_metrics_file(args.file)
    if args.obs_command == "trace":
        return _render_trace_files(
            args.path, top=args.top, trace_id=args.trace_id
        )
    raise ValueError(f"unknown obs command {args.obs_command!r}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_span_record(record: object) -> bool:
    """A span record: string ``name`` and ``trace_id``, numeric
    ``duration_s``, and the written types on the optional fields the
    renderer reads."""
    return (
        isinstance(record, dict)
        and isinstance(record.get("name"), str)
        and isinstance(record.get("trace_id"), str)
        and _is_number(record.get("duration_s"))
        and _is_number(record.get("start_unix", 0.0))
        and isinstance(record.get("span_id"), (str, type(None)))
        and isinstance(record.get("parent_id"), (str, type(None)))
        and isinstance(record.get("attributes") or {}, dict)
        and isinstance(record.get("links") or [], list)
    )


def _read_trace_entries(path: str) -> list[dict]:
    """Load trace JSONL files into per-trace entries.

    Accepts one file or a directory of ``*.jsonl`` files holding the two
    shapes the toolkit writes: slow-request capture entries (an object
    whose ``spans`` is a list of span records, one request per line) and
    span records (``--trace`` output, one span per line).  Any other line
    raises `ValueError` naming its file and line.  A trace split across
    files — the front door's capture and a worker's — is merged into one
    entry keyed by ``trace_id``.
    """
    import json
    from pathlib import Path

    target = Path(path)
    if target.is_dir():
        files = sorted(target.glob("*.jsonl"))
    elif target.exists():
        files = [target]
    else:
        raise ValueError(f"no such trace file or directory: {path}")
    entries: dict[str, dict] = {}

    def _entry(trace_id: str) -> dict:
        return entries.setdefault(
            trace_id,
            {
                "trace_id": trace_id,
                "request_id": None,
                "route": None,
                "duration_s": 0.0,
                "spans": [],
            },
        )

    for file in files:
        lines = file.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{file}:{number}: not JSON ({exc})") from None
            if isinstance(record, dict) and "spans" in record:  # capture entry
                spans = record["spans"]
                if not (
                    isinstance(spans, list)
                    and all(_is_span_record(span) for span in spans)
                    and isinstance(record.get("trace_id", ""), str)
                    and _is_number(record.get("duration_s") or 0.0)
                ):
                    raise ValueError(
                        f"{file}:{number}: malformed trace capture entry"
                    )
                entry = _entry(record.get("trace_id", ""))
                entry["spans"].extend(record["spans"])
                entry["request_id"] = entry["request_id"] or record.get("request_id")
                entry["route"] = entry["route"] or record.get("route")
                entry["duration_s"] = max(
                    entry["duration_s"], record.get("duration_s") or 0.0
                )
            elif _is_span_record(record):
                entry = _entry(record["trace_id"])
                entry["spans"].append(record)
                entry["duration_s"] = max(entry["duration_s"], record["duration_s"])
            else:
                raise ValueError(
                    f"{file}:{number}: neither a span record nor a trace "
                    "capture entry"
                )
    return list(entries.values())


def _render_trace_tree(entry: dict) -> str:
    spans = entry["spans"]
    span_ids = {span.get("span_id") for span in spans}
    children: dict[object, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in span_ids:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    header = (
        f"trace {entry['trace_id'] or '(no trace id)'}"
        f"  request_id={entry.get('request_id') or '-'}"
        f"  route={entry.get('route') or '-'}"
        f"  duration={entry['duration_s'] * 1000:.1f}ms"
        f"  spans={len(spans)}"
    )
    lines = [header]

    def _walk(span: dict, depth: int) -> None:
        attrs = span.get("attributes") or {}
        detail = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
        duration_ms = (span.get("duration_s") or 0.0) * 1000
        parts = [
            f"{'  ' * depth}- {span.get('name', '?')}",
            f"[{duration_ms:.2f}ms]",
            f"pid={span.get('pid', '?')}",
        ]
        if detail:
            parts.append(detail)
        if span.get("links"):
            parts.append(f"links={len(span['links'])}")
        lines.append(" ".join(parts))
        for child in sorted(
            children.get(span.get("span_id"), []),
            key=lambda record: record.get("start_unix", 0.0),
        ):
            _walk(child, depth + 1)

    for root in sorted(roots, key=lambda record: record.get("start_unix", 0.0)):
        _walk(root, 1)
    return "\n".join(lines)


def _render_trace_files(
    path: str, top: int = 10, trace_id: str | None = None
) -> str:
    entries = _read_trace_entries(path)
    if not entries:
        return "no traces recorded"
    if trace_id:
        matches = [
            entry for entry in entries if entry["trace_id"].startswith(trace_id)
        ]
        if not matches:
            raise ValueError(f"no trace matching {trace_id!r} in {path}")
        return "\n\n".join(_render_trace_tree(entry) for entry in matches)
    entries.sort(key=lambda entry: entry["duration_s"], reverse=True)
    shown = entries[:top]
    body = table(
        ["trace_id", "request_id", "route", "duration_ms", "spans"],
        [
            [
                entry["trace_id"] or "-",
                entry.get("request_id") or "-",
                entry.get("route") or "-",
                f"{entry['duration_s'] * 1000:.1f}",
                len(entry["spans"]),
            ]
            for entry in shown
        ],
    )
    return (
        body
        + f"\n{len(entries)} trace(s); showing the {len(shown)} slowest "
        "(repro obs trace PATH --trace-id ID for the span tree)"
    )


def _render_metrics_file(path: str) -> str:
    import json
    from pathlib import Path

    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        # JSON snapshots keep family/type structure: use the rich report.
        try:
            return obs.render_report(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
        except (AttributeError, KeyError, TypeError) as exc:
            # The report reads 'metrics' as a list of families with samples.
            raise ValueError(
                f"{path}: not a metrics snapshot ({type(exc).__name__}: {exc})"
            ) from None
    samples = obs.parse_prometheus_text(text)
    rows = [
        [
            name,
            ",".join(f"{k}={v}" for k, v in labels.items()) or "-",
            value,
        ]
        for name, entries in sorted(samples.items())
        for labels, value in entries
    ]
    if not rows:
        return "no metrics recorded"
    return table(["metric", "labels", "value"], rows)


def _cmd_serve(args: argparse.Namespace) -> str:
    # The service exposes /metrics itself; enable observability so the
    # scrape carries spans-adjacent gauges (cache tiers, queue depth).
    obs.enable()
    if args.fleet:
        from repro.serve.fleet import FleetConfig
        from repro.serve.fleet import run as fleet_run

        fleet_run(
            FleetConfig(
                host=args.host,
                port=args.port,
                fleet=args.fleet,
                workers=args.workers,
                cache_dir=args.cache_dir,
                max_queue=args.max_queue,
                max_inflight=args.fleet_max_inflight,
                trace_dir=args.trace_dir,
                slow_trace_ms=args.slow_trace_ms,
            )
        )
        return ""
    from repro.serve import ServeConfig
    from repro.serve import run as serve_run

    serve_run(
        ServeConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            cache_dir=args.cache_dir,
            max_queue=args.max_queue,
            trace_dir=args.trace_dir,
            slow_trace_ms=args.slow_trace_ms,
        )
    )
    return ""


def _cmd_fleet_risk(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.core import OutcomeCache
    from repro.fleet import FleetCampaign, FleetSpec

    try:
        intervals = tuple(float(part) for part in args.intervals.split(","))
    except ValueError:
        raise ValueError("--intervals must be comma-separated seconds") from None
    spec = FleetSpec(
        modules=args.modules,
        seed=args.seed,
        offset=args.offset,
        serials=tuple(args.serials.split(",")) if args.serials else (),
        scenario=args.scenario,
        temperature_c=args.temperature,
        intervals=intervals,
        rows=args.rows,
        columns=args.columns,
        sigma_retention_die=args.sigma_retention,
        sigma_kappa_die=args.sigma_kappa,
        channels=args.channels,
        ranks=args.ranks,
    )
    campaign = FleetCampaign(
        spec=spec,
        cache=OutcomeCache(args.cache) if args.cache else None,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
    )
    try:
        result = campaign.run()
    except KeyboardInterrupt:
        # The campaign already flushed its checkpoint; say so on the way
        # to exit 130 so the operator knows a rerun resumes, not restarts.
        if args.checkpoint_dir:
            print(
                f"repro fleet-risk: interrupted at "
                f"{campaign.modules_done}/{spec.modules} modules; checkpoint "
                f"flushed to {args.checkpoint_dir} (rerun to resume)",
                file=sys.stderr,
            )
        raise
    snapshot = result.snapshot()
    if args.out:
        Path(args.out).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    rows = [
        [
            f"{entry['interval_s']:g}",
            f"{entry['p50_flip_rate']:.3e}",
            f"{entry['p95_flip_rate']:.3e}",
            f"{entry['p99_flip_rate']:.3e}",
            f"{entry['vulnerable_fraction']:.1%}",
        ]
        for entry in snapshot["intervals"]
    ]
    body = table(
        ["tREFC (s)", "p50 flip rate", "p95 flip rate", "p99 flip rate",
         "vulnerable"],
        rows,
    )
    footer = (
        f"\n{result.modules_done}/{spec.modules} modules "
        f"({spec.scenario} scenario, seed {spec.seed}) in {result.wall_s:.1f}s"
    )
    if result.cache_hits or result.cache_misses:
        footer += (
            f"; cache: {result.cache_hits} hits / "
            f"{result.cache_misses} computed"
        )
    if result.resumed_from is not None:
        footer += f"; resumed from instance {result.resumed_from}"
    if args.out:
        footer += f"\npercentile snapshot written to {args.out}"
    return body + footer


def _cmd_sim(args: argparse.Namespace) -> str:
    if args.sim_command == "run":
        return _sim_run(args)
    if args.sim_command == "report":
        return _sim_report(args)
    raise ValueError(f"unknown sim command {args.sim_command!r}")


def _parse_per_core(text: str, cores: int, what: str) -> list[float]:
    """Parse a float or comma-separated per-core float list."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"--{what} must be a number or comma-separated numbers"
        ) from None
    if len(values) == 1:
        return values * cores
    if len(values) != cores:
        raise ValueError(
            f"--{what} lists one value or one per core "
            f"({cores}), got {len(values)}"
        )
    return values


def _parse_timing(text: str | None):
    """`MEMSYS_DDR4_3200` with ``key=value,...`` overrides applied."""
    import dataclasses

    from repro.sim.timing import MEMSYS_DDR4_3200, MemsysTiming

    if not text:
        return MEMSYS_DDR4_3200
    known = {f.name for f in dataclasses.fields(MemsysTiming)}
    overrides: dict[str, int] = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or name not in known:
            raise ValueError(
                f"--timing expects key=value pairs over {sorted(known)}, "
                f"got {part!r}"
            )
        try:
            overrides[name] = int(value)
        except ValueError:
            raise ValueError(
                f"--timing {name} must be an integer cycle count, "
                f"got {value!r}"
            ) from None
    return dataclasses.replace(MEMSYS_DDR4_3200, **overrides)


def _sim_run(args: argparse.Namespace) -> str:
    import json
    from pathlib import Path

    from repro.sim.memsys import MemsysSimulation, MemsysTopology, SnapshotStore
    from repro.sim.refreshpolicy import NoRefresh, PeriodicRefresh
    from repro.workloads.trace import WorkloadTrace

    if args.cores < 1:
        raise ValueError("--cores must be at least 1")
    topology = MemsysTopology(channels=args.channels, ranks=args.ranks)
    timing = _parse_timing(args.timing)
    mpkis = _parse_per_core(args.mpki, args.cores, "mpki")
    localities = _parse_per_core(args.locality, args.cores, "locality")
    traces = [
        WorkloadTrace(
            name=f"sim-core{i}", mpki=mpkis[i], locality=localities[i],
            banks=args.banks, length=args.length,
        )
        for i in range(args.cores)
    ]
    if args.policy == "no-refresh":
        policy = NoRefresh()
    else:
        policy = PeriodicRefresh(timing)
    simulation = MemsysSimulation(
        traces,
        policy,
        banks=args.banks,
        topology=topology,
        timing=timing,
        window=args.window,
        check_timing=args.check_timing or args.enforce_timing,
        enforce_timing=args.enforce_timing,
    )
    store = None
    resumed_at = None
    if args.snapshot_dir:
        store = SnapshotStore(args.snapshot_dir)
        state = store.latest()
        if state is not None:
            try:
                simulation.restore(state)
                resumed_at = simulation.events_processed
            except ValueError as exc:
                # A snapshot from some other configuration: start fresh
                # rather than silently diverging from it.
                print(
                    f"repro sim: ignoring snapshot ({exc})", file=sys.stderr
                )
    result = simulation.run(store=store, snapshot_every=args.snapshot_every)
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    body = _render_sim_result(result.to_json())
    if resumed_at is not None:
        body += f"\nresumed from snapshot at event {resumed_at}"
    if args.out:
        body += f"\nresult written to {args.out}"
    return body


def _sim_report(args: argparse.Namespace) -> str:
    import json

    try:
        with open(args.file, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.file} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "channel_report" not in payload:
        raise ValueError(
            f"{args.file} is not a `repro sim run --out` result "
            "(missing channel_report)"
        )
    return _render_sim_result(payload)


def _render_sim_result(payload: dict) -> str:
    """Render a `SystemResult.to_json` payload as the sim report table."""
    topology = payload.get("topology", {})
    rows = [
        [
            str(entry["channel"]),
            str(entry["requests"]),
            f"{entry['utilization']:.1%}",
            f"{entry['row_hit_ratio']:.1%}",
            f"{entry['command_bus_efficiency']:.1%}",
            str(entry["rank_turnarounds"]),
            "/".join(str(b) for b in entry["rank_busy_cycles"]),
        ]
        for entry in payload["channel_report"]
    ]
    body = table(
        ["channel", "requests", "data-bus util", "row hits",
         "cmd-bus eff", "turnarounds", "busy/rank"],
        rows,
    )
    ipcs = ", ".join(f"{ipc:.3f}" for ipc in payload.get("ipcs", []))
    footer = (
        f"\n{payload.get('policy')} policy, "
        f"{topology.get('channels')}ch x {topology.get('ranks')}rk x "
        f"{topology.get('banks_total')} banks: "
        f"{payload.get('requests')} requests in {payload.get('cycles')} "
        f"cycles (IPC {ipcs})"
    )
    energy = payload.get("energy", {})
    if energy.get("total_mj"):
        footer += f"\nenergy: {energy['total_mj']:.3f} mJ total"
    timing = payload.get("timing", {})
    if timing.get("checked"):
        violations = timing.get("violations", [])
        mode = "enforced" if timing.get("enforced") else "modeled"
        footer += (
            f"\ntiming ({mode}): {len(violations)} violation(s)"
        )
        by_constraint: dict[str, int] = {}
        for violation in violations:
            name = violation.get("constraint", "?")
            by_constraint[name] = by_constraint.get(name, 0) + 1
        if by_constraint:
            footer += " — " + ", ".join(
                f"{name}: {count}"
                for name, count in sorted(by_constraint.items())
            )
    return body + footer


def _cmd_mitigations(args: argparse.Namespace) -> str:
    spec = get_module(args.serial)
    estimates = compare_mitigations(
        spec, temperature_c=args.temperature,
        projected_scale=args.projected_scale,
    )
    return table(
        ["mitigation", "throughput loss", "refresh energy rate", "protects?"],
        [
            [
                e.name, f"{e.throughput_loss:.1%}",
                f"{e.refresh_energy_rate:.3f}",
                "yes" if e.protects_columndisturb else "NO",
            ]
            for e in estimates
        ],
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ColumnDisturb characterization and planning toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the Table 1 module population")

    floor = sub.add_parser("floor", help="die time-to-first-bitflip floor")
    floor.add_argument("serial", choices=sorted(CATALOG))
    floor.add_argument("--temperature", type=float, default=85.0)

    risk = sub.add_parser("risk", help="refresh-window vulnerability")
    risk.add_argument("serial", choices=sorted(CATALOG))
    risk.add_argument("--window", type=float, default=64.0,
                      help="refresh window in ms")
    risk.add_argument("--temperature", type=float, default=85.0)
    _add_observability_args(risk)

    character = sub.add_parser(
        "characterize", help="per-subarray worst-case characterization"
    )
    character.add_argument("serial", choices=sorted(CATALOG))
    character.add_argument("--subarrays", type=int, default=4)
    character.add_argument("--rows", type=int, default=256)
    character.add_argument("--columns", type=int, default=512)
    character.add_argument(
        "--workers", type=int, default=0,
        help="worker threads for the parallel engine (0 = serial)",
    )
    character.add_argument(
        "--cache", default=None, metavar="DIR",
        help="on-disk outcome cache directory (reused across runs)",
    )
    _add_observability_args(character)
    character.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per unit after a failed execution",
    )
    character.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock limit (parallel workers only)",
    )
    character.add_argument(
        "--failure-policy", choices=("raise", "skip-with-record"),
        default="raise",
        help="abort the campaign on an exhausted unit, or complete it "
             "with an explicit skipped record in that unit's slot",
    )

    mitigations = sub.add_parser(
        "mitigations", help="compare §6.1 mitigation costs"
    )
    mitigations.add_argument("serial", choices=sorted(CATALOG))
    mitigations.add_argument("--temperature", type=float, default=85.0)
    mitigations.add_argument("--projected-scale", type=float, default=1.0)
    _add_observability_args(mitigations)

    datasheet = sub.add_parser(
        "datasheet", help="full markdown datasheet for one module"
    )
    datasheet.add_argument("serial", choices=sorted(CATALOG))

    run_program = sub.add_parser(
        "run-program", help="execute a textual DRAM test program"
    )
    run_program.add_argument("serial", choices=sorted(CATALOG))
    run_program.add_argument("program", help="path to the program file")
    run_program.add_argument("--subarrays", type=int, default=4)
    run_program.add_argument("--rows", type=int, default=256)
    run_program.add_argument("--columns", type=int, default=512)
    run_program.add_argument("--temperature", type=float, default=85.0)
    _add_observability_args(run_program)

    serve = sub.add_parser(
        "serve", help="run the async characterization HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (0 picks a free port)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="engine worker threads per submission (0 = in-process)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk outcome cache directory shared across requests",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission bound on in-flight requests; excess gets HTTP 429",
    )
    serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="shard the service across N worker processes behind a "
             "consistent-hash front door (0 = single process); workers "
             "share --cache-dir as their warm tier",
    )
    serve.add_argument(
        "--fleet-max-inflight", type=int, default=32, metavar="M",
        help="per-worker in-flight request cap at the front door "
             "(fleet mode only)",
    )
    serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="capture the span tree of every slow request as JSONL files "
             "under DIR (read them back with 'repro obs trace DIR')",
    )
    serve.add_argument(
        "--slow-trace-ms", type=float, default=1000.0, metavar="MS",
        help="latency threshold for --trace-dir capture (default 1000)",
    )

    fleet_risk = sub.add_parser(
        "fleet-risk",
        help="run a fleet-scale risk campaign over sampled module instances",
    )
    fleet_risk.add_argument(
        "--modules", type=int, required=True, metavar="N",
        help="number of module instances to sample",
    )
    fleet_risk.add_argument("--seed", type=int, default=0)
    fleet_risk.add_argument(
        "--offset", type=int, default=0,
        help="first instance index (for sharded campaigns)",
    )
    fleet_risk.add_argument(
        "--serials", default=None, metavar="S0,S1,...",
        help="comma-separated catalog serials to sample from "
             "(default: whole catalog)",
    )
    fleet_risk.add_argument(
        "--scenario", choices=SCENARIO_NAMES, default="worst-case",
        help="attack scenario axis ('mixed' samples one per instance)",
    )
    fleet_risk.add_argument("--temperature", type=float, default=85.0)
    fleet_risk.add_argument(
        "--intervals", default="1,2,4,8,16", metavar="S,S,...",
        help="comma-separated tREFC bins in seconds",
    )
    fleet_risk.add_argument("--rows", type=int, default=64)
    fleet_risk.add_argument("--columns", type=int, default=256)
    fleet_risk.add_argument(
        "--sigma-retention", type=float, default=0.25, metavar="SIGMA",
        help="per-die lognormal sigma on median retention",
    )
    fleet_risk.add_argument(
        "--sigma-kappa", type=float, default=0.35, metavar="SIGMA",
        help="per-die lognormal sigma on median coupling strength",
    )
    fleet_risk.add_argument(
        "--channels", type=int, default=1, metavar="C",
        help="deployed memory channels (attacker bandwidth dilutes over "
             "channels x ranks; default 1)",
    )
    fleet_risk.add_argument(
        "--ranks", type=int, default=1, metavar="R",
        help="deployed ranks per channel (default 1)",
    )
    fleet_risk.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write periodic resume checkpoints under DIR; rerunning with "
             "the same spec resumes from the newest one",
    )
    fleet_risk.add_argument(
        "--checkpoint-every", type=int, default=500, metavar="N",
        help="checkpoint cadence in modules (default 500)",
    )
    fleet_risk.add_argument(
        "--cache", default=None, metavar="DIR",
        help="on-disk outcome cache shared with other campaigns",
    )
    fleet_risk.add_argument(
        "--workers", type=int, default=0,
        help="characterization threads (0 = serial)",
    )
    fleet_risk.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the percentile snapshot as JSON to FILE",
    )
    _add_observability_args(fleet_risk)

    sim_parser = sub.add_parser(
        "sim",
        help="multi-rank/multi-channel memory-system simulation "
             "(repro.sim.memsys)",
    )
    sim_sub = sim_parser.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser(
        "run",
        help="run a multiprogrammed mix over a channels x ranks topology",
    )
    sim_run.add_argument(
        "--cores", type=int, default=4, metavar="N",
        help="cores in the mix (default 4)",
    )
    sim_run.add_argument(
        "--mpki", default="30", metavar="M[,M,...]",
        help="LLC MPKI, one value or one per core (default 30)",
    )
    sim_run.add_argument(
        "--locality", default="0.5", metavar="L[,L,...]",
        help="row-buffer locality in [0,1], one value or per core",
    )
    sim_run.add_argument(
        "--length", type=int, default=2000, metavar="N",
        help="requests per core trace (default 2000)",
    )
    sim_run.add_argument(
        "--banks", type=int, default=16, metavar="N",
        help="global banks, interleaved over channels x ranks (default 16)",
    )
    sim_run.add_argument(
        "--channels", type=int, default=1, metavar="C",
        help="memory channels (default 1)",
    )
    sim_run.add_argument(
        "--ranks", type=int, default=1, metavar="R",
        help="ranks per channel (default 1)",
    )
    sim_run.add_argument(
        "--window", type=int, default=4, metavar="N",
        help="per-core MLP window (default 4)",
    )
    sim_run.add_argument(
        "--policy", choices=("no-refresh", "periodic"), default="periodic",
        help="refresh policy (default periodic)",
    )
    sim_run.add_argument(
        "--timing", default=None, metavar="KEY=VAL,...",
        help="override MEMSYS_DDR4_3200 timing fields, e.g. "
             "t_rtrs=6,t_ccd=8",
    )
    sim_run.add_argument(
        "--check-timing", action="store_true",
        help="check the implied command stream against JEDEC-class "
             "constraints and report violations",
    )
    sim_run.add_argument(
        "--enforce-timing", action="store_true",
        help="delay accesses until their implied commands are legal "
             "(implies --check-timing; changes schedules)",
    )
    sim_run.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="CRC-verified snapshots under DIR; rerunning with the same "
             "configuration resumes from the newest valid one",
    )
    sim_run.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="snapshot cadence in processed events (0 disables)",
    )
    sim_run.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the full result JSON to FILE",
    )
    _add_observability_args(sim_run)
    sim_report = sim_sub.add_parser(
        "report",
        help="render a `sim run --out` result file as the per-channel "
             "bandwidth table",
    )
    sim_report.add_argument("file", help="a `repro sim run --out` JSON file")

    obs_parser = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report", help="render a metrics file (--metrics output) as a table"
    )
    report.add_argument("file", help="a JSON snapshot or Prometheus text file")
    trace = obs_sub.add_parser(
        "trace",
        help="render trace captures: top-N slowest requests, or one "
             "trace's span tree with --trace-id",
    )
    trace.add_argument(
        "path",
        help="a trace JSONL file or a --trace-dir directory of them",
    )
    trace.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many of the slowest traces to list (default 10)",
    )
    trace.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="render the span tree of the trace(s) whose id starts with ID",
    )

    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "floor": _cmd_floor,
    "risk": _cmd_risk,
    "characterize": _cmd_characterize,
    "fleet-risk": _cmd_fleet_risk,
    "mitigations": _cmd_mitigations,
    "run-program": _cmd_run_program,
    "datasheet": _cmd_datasheet,
    "serve": _cmd_serve,
    "sim": _cmd_sim,
    "obs": _cmd_obs,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    metrics_port = getattr(args, "metrics_port", None)
    trace_path = getattr(args, "trace", None)
    # An in-process caller gets back the observability state it had.
    was_enabled = obs.is_enabled()
    if metrics_path or metrics_port is not None or trace_path:
        obs.enable()
    server = None
    if metrics_port is not None:
        server = obs.MetricsServer(port=metrics_port)
        print(f"serving /metrics on port {server.port}", file=sys.stderr)
    try:
        with obs.stream_spans(trace_path), obs.span(
            f"cli.{args.command}", version=repro.__version__
        ):
            output = _HANDLERS[args.command](args)
        if output:
            print(output)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except KeyboardInterrupt:
        # Campaign handlers flush their checkpoint before re-raising, so by
        # the time the interrupt reaches here the work is resumable.  Exit
        # with the conventional 128+SIGINT code instead of a traceback.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        # Bad input (unknown serial, unreadable file, busy port, malformed
        # program) is a one-line diagnostic and a nonzero exit, never a
        # traceback.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.close()
        if metrics_path and obs.is_enabled():
            obs.write_metrics(obs.REGISTRY, metrics_path)
        if not was_enabled:
            obs.disable()
    return 0
