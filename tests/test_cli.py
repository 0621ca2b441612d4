"""CLI subcommands."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_catalog(capsys):
    out = run(capsys, "catalog")
    assert "S0" in out and "HBM0" in out
    assert "Micron" in out and "16Gb" in out


def test_floor_vulnerable(capsys):
    out = run(capsys, "floor", "M8")
    assert "63.5ms" in out or "63.6ms" in out
    assert "YES - at risk" in out


def test_floor_resilient(capsys):
    out = run(capsys, "floor", "H0")
    assert "at risk" not in out.replace("YES - at risk", "") or True
    assert "no" in out


def test_risk(capsys):
    out = run(capsys, "risk", "M8")
    assert "at risk: YES" in out
    assert "victim distance" in out


def test_risk_window_flag(capsys):
    out = run(capsys, "risk", "H0", "--window", "32", "--temperature", "45")
    assert "at risk: no" in out


def test_characterize(capsys):
    out = run(capsys, "characterize", "S4", "--rows", "128", "--columns",
              "256")
    assert "time to 1st flip" in out
    assert "min" in out


def test_mitigations(capsys):
    out = run(capsys, "mitigations", "M8", "--projected-scale", "8")
    assert "PRVR" in out
    assert "NO" in out  # status quo does not protect the projected die


def test_unknown_serial_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["floor", "Z9"])


def test_command_required():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------------------
# Bad input exits nonzero with a one-line diagnostic, never a traceback
# ---------------------------------------------------------------------------

def assert_clean_error(capsys, *argv) -> str:
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_run_program_missing_file_exits_cleanly(capsys):
    assert_clean_error(capsys, "run-program", "S0", "/no/such/program.txt")


def test_run_program_malformed_program_exits_cleanly(tmp_path, capsys):
    program = tmp_path / "bad.txt"
    program.write_text("FROB 1 2 3\n")
    err = assert_clean_error(capsys, "run-program", "S0", str(program))
    assert "FROB" in err


def test_obs_report_missing_file_exits_cleanly(capsys):
    assert_clean_error(capsys, "obs", "report", "/no/such/metrics.prom")


def test_characterize_bad_geometry_exits_cleanly(capsys):
    err = assert_clean_error(
        capsys, "characterize", "S0", "--subarrays", "2", "--rows", "64",
        "--columns", "7",
    )
    assert "columns" in err


@pytest.mark.parametrize("flags", [
    ("--window", "-5"),
    ("--window", "nan"),
    ("--window", "0"),
    ("--temperature", "1000"),
    ("--temperature", "inf"),
])
def test_risk_out_of_bounds_exits_cleanly(capsys, flags):
    """`repro risk` shares the served request's bounds."""
    err = assert_clean_error(capsys, "risk", "S0", *flags)
    assert "must be in" in err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_characterize_bad_timeout_exits_cleanly(capsys, timeout):
    err = assert_clean_error(
        capsys, "characterize", "S0", "--subarrays", "2", "--rows", "64",
        "--columns", "128", "--workers", "2", "--timeout", timeout,
    )
    assert "timeout" in err


@pytest.mark.parametrize("argv", [
    ("risk", "S0", "--kernel", "reference"),
    ("characterize", "S0", "--kernel", "batched"),
    ("run-program", "S0", "prog.txt", "--kernel", "batched"),
    ("serve", "--kernel", "batched"),
])
def test_kernel_flag_is_gone(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Observability flags (shared across subcommands) and the obs subcommand
# ---------------------------------------------------------------------------

@pytest.fixture(autouse=True)
def _clean_obs():
    from repro import obs

    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


def test_risk_metrics_file(tmp_path, capsys):
    from repro import obs

    metrics = tmp_path / "risk.json"
    run(capsys, "risk", "H0", "--metrics", str(metrics))
    samples = obs.load_metrics(metrics)
    assert "refresh_trefw_violations_total" in samples or samples
    import json

    assert json.loads(metrics.read_text())["repro_version"]


def test_span_trace_on_non_characterize_command(tmp_path, capsys):
    import json

    trace = tmp_path / "spans.jsonl"
    run(capsys, "mitigations", "M8", "--projected-scale", "8",
        "--trace", str(trace))
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert any(r["name"] == "cli.mitigations" for r in records)


def test_run_program_metrics_match_program_text(tmp_path, capsys):
    from repro import obs

    program = tmp_path / "p.txt"
    program.write_text(
        "WRITE 1 0x00\n"
        "WRITE 3 0xFF\n"
        "LOOP 25\n"
        "  ACT 2\n"
        "  WAIT 50ns\n"
        "  PRE\n"
        "ENDLOOP\n"
        "READ 1 tag=a\n"
        "READ 3 tag=b\n"
    )
    metrics = tmp_path / "m.prom"
    run(capsys, "run-program", "S0", str(program), "--rows", "64",
        "--columns", "128", "--metrics", str(metrics))
    samples = {
        (name, frozenset(labels.items())): value
        for name, entries in obs.load_metrics(metrics).items()
        for labels, value in entries
    }
    assert samples[("bender_commands_total", frozenset({("kind", "ACT")}))] == 25
    assert samples[("bender_commands_total", frozenset({("kind", "PRE")}))] == 25
    assert samples[("bender_commands_total", frozenset({("kind", "RD")}))] == 2
    assert samples[("bender_commands_total", frozenset({("kind", "WR")}))] == 2
    assert samples[("bender_programs_total", frozenset())] == 1


def test_obs_report_subcommand(tmp_path, capsys):
    metrics = tmp_path / "m.prom"
    run(capsys, "risk", "H0", "--metrics", str(metrics))
    out = run(capsys, "obs", "report", str(metrics))
    assert "repro_build_info" in out


def test_characterize_trace_still_prints_run_summary(tmp_path, capsys):
    out = run(capsys, "characterize", "S0", "--subarrays", "2", "--rows",
              "64", "--columns", "128", "--trace",
              str(tmp_path / "t.jsonl"))
    assert "cache hit ratio" in out


CHARACTERIZE_SMALL = ("characterize", "S0", "--subarrays", "2", "--rows", "64",
                      "--columns", "128")


def _summary_counts(out: str) -> list[str]:
    """The run trace summary lines that hold counts, not timings."""
    lines = out.split("run trace summary:\n", 1)[1].splitlines()
    assert len(lines) == 7
    return [line for line in lines if "latency" not in line and "wall" not in line]


def test_characterize_trace_is_span_jsonl_cold_and_warm(tmp_path, capsys):
    """`characterize --trace` writes the span JSONL every command writes:
    `repro obs trace` renders each run's tree, and the footer counts units
    as before, cold and warm."""
    import json

    trace = tmp_path / "trace.jsonl"
    flags = ("--cache", str(tmp_path / "cache"), "--trace", str(trace))
    cold = run(capsys, *CHARACTERIZE_SMALL, *flags)
    warm = run(capsys, *CHARACTERIZE_SMALL, *flags)
    assert _summary_counts(cold) == [
        "  units: 2 (2 computed, 0 memory hits, 0 disk hits, 0 skipped)",
        "  cache hit ratio: 0.0%",
        "  units retried: 0 (2 total attempts)",
    ]
    assert _summary_counts(warm) == [
        "  units: 2 (0 computed, 0 memory hits, 2 disk hits, 0 skipped)",
        "  cache hit ratio: 100.0%",
        "  units retried: 0 (0 total attempts)",
    ]
    # The tables above the footer are the untraced run's, byte for byte.
    plain = run(capsys, *CHARACTERIZE_SMALL)
    assert cold.split("\nrun trace summary:")[0] == plain
    assert warm.split("\nrun trace summary:")[0] == plain

    records = [json.loads(line) for line in trace.read_text().splitlines()]
    roots = [r for r in records if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["cli.characterize"] * 2
    listing = run(capsys, "obs", "trace", str(trace))
    assert "2 trace(s)" in listing
    for root, source in zip(roots, ("computed", "disk")):
        tree = run(capsys, "obs", "trace", str(trace), "--trace-id",
                   root["trace_id"]).splitlines()
        assert [line.split(" [")[0] for line in tree[1:]] == [
            "  - cli.characterize",
            "    - engine.characterize",
            "      - engine.unit",
            "      - engine.unit",
        ]
        assert all(f"source={source}" in line for line in tree[3:])


def test_characterize_trace_streams_spans_before_the_command_returns(
    tmp_path, capsys, monkeypatch
):
    """Each span is on disk the moment it finishes: when the campaign
    returns, its unit and campaign spans are in the file while the
    command's own span is still open."""
    import json

    from repro.core import Campaign

    trace = tmp_path / "trace.jsonl"
    on_disk = []
    characterize_module = Campaign.characterize_module

    def watched(self, *args, **kwargs):
        records = characterize_module(self, *args, **kwargs)
        on_disk.extend(
            json.loads(line)["name"] for line in trace.read_text().splitlines()
        )
        return records

    monkeypatch.setattr(Campaign, "characterize_module", watched)
    run(capsys, *CHARACTERIZE_SMALL, "--trace", str(trace))
    assert on_disk == ["engine.unit", "engine.unit", "engine.characterize"]
    names = [json.loads(line)["name"] for line in trace.read_text().splitlines()]
    assert names == on_disk + ["cli.characterize"]


def test_obs_trace_renders_captures_and_benchmark_spans(tmp_path, capsys):
    """Both shapes `repro obs trace` reads: a slow-request capture entry
    and a span record carrying extra keys (a benchmark's ``layer``)."""
    import json

    from repro import obs
    from repro.serve.server import capture_slow_trace

    obs.enable()
    with obs.span("serve.request", route="/v1/characterize") as request:
        with obs.span("serve.batch"):
            pass
    capture_slow_trace(str(tmp_path), 0.0, request.trace_id, "req-1",
                       "/v1/characterize", 0.25)
    (tmp_path / "bench.jsonl").write_text(json.dumps({
        "name": "core.engine.execute_unit", "layer": "core.engine",
        "trace_id": "ab" * 16, "span_id": "cd" * 8, "parent_id": None,
        "start_unix": 1.0, "duration_s": 0.5, "pid": 1,
        "attributes": {"units": 2},
    }) + "\n")
    listing = run(capsys, "obs", "trace", str(tmp_path))
    assert "req-1" in listing and "2 trace(s)" in listing
    tree = run(capsys, "obs", "trace", str(tmp_path), "--trace-id",
               request.trace_id)
    assert "- serve.request" in tree and "  - serve.batch" in tree


@pytest.mark.parametrize(
    "line, problem",
    [
        ("[1,2]", "neither a span record nor a trace capture entry"),
        ('{"spans": 5, "trace_id": "ab"}', "malformed trace capture entry"),
        ('{"name": "x", "trace_id": "ab", "duration_s": "fast"}',
         "neither a span record nor a trace capture entry"),
        ('{"name": "x", "trace_id": "ab", "duration_s": 1, "attributes": [1]}',
         "neither a span record nor a trace capture entry"),
        ('{"spans": [{"name": "x", "trace_id": 7, "duration_s": 1}]}',
         "malformed trace capture entry"),
        ("{not json", "not JSON"),
    ],
    ids=["list", "spans-not-a-list", "duration-not-a-number",
         "attributes-not-an-object", "capture-span-without-trace-id",
         "not-json"],
)
def test_obs_trace_rejects_malformed_lines(tmp_path, capsys, line, problem):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"name": "ok", "trace_id": "ab", "duration_s": 1}\n'
                     + line + "\n")
    err = assert_clean_error(capsys, "obs", "trace", str(trace))
    assert f"{trace}:2: {problem}" in err


def test_obs_trace_rejects_a_run_trace_file(tmp_path, capsys):
    """The per-unit JSONL `characterize --trace` wrote before it wrote
    spans (a meta header, then one object per unit) is not a span file."""
    trace = tmp_path / "old.jsonl"
    trace.write_text(
        '{"meta": {"repro_version": "1.0.0"}}\n'
        '{"attempts": 1, "bank": 0, "chip": 0, "error": null, '
        '"executor": "serial", "index": 0, "serial": "S0", '
        '"source": "computed", "subarray": 0, "wall_s": 0.01, "worker": 1}\n'
    )
    err = assert_clean_error(capsys, "obs", "trace", str(trace))
    assert f"{trace}:1:" in err


@pytest.mark.parametrize(
    "snapshot",
    [
        '{"metrics": 3}',
        '{"metrics": [3]}',
        '{"metrics": [{"name": "x", "type": "counter", "samples": 1}]}',
        '{"metrics": [{"name": "x", "type": "counter", '
        '"samples": [{"labels": {}, "value": "many"}]}]}',
        '{"metrics": [{"name": "h", "type": "histogram", '
        '"samples": [{"labels": {}, "count": 1}]}]}',
        "{not json",
    ],
    ids=["metrics-not-a-list", "family-not-an-object", "samples-not-a-list",
         "value-not-a-number", "histogram-without-sum", "not-json"],
)
def test_obs_report_rejects_malformed_snapshots(tmp_path, capsys, snapshot):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(snapshot)
    err = assert_clean_error(capsys, "obs", "report", str(metrics))
    assert str(metrics) in err

def test_sim_run_prints_channel_table(capsys):
    out = run(capsys, "sim", "run", "--cores", "1", "--length", "50")
    assert "channel" in out and "data-bus util" in out
    assert "no-refresh" not in out  # default policy is periodic


def test_sim_run_out_then_report_round_trip(tmp_path, capsys):
    result = tmp_path / "sim.json"
    first = run(capsys, "sim", "run", "--cores", "2", "--length", "80",
                "--channels", "2", "--out", str(result))
    assert f"result written to {result}" in first
    second = run(capsys, "sim", "report", str(result))
    assert "data-bus util" in second


def test_sim_run_rejects_bad_topology(capsys):
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--channels", "99")
    assert "channels" in err
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--ranks", "0")
    assert "ranks" in err
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--banks", "10",
                             "--channels", "2", "--ranks", "2")
    assert "divide evenly" in err


def test_sim_run_rejects_bad_timing_overrides(capsys):
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--timing", "t_nope=5")
    assert "--timing" in err
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--timing", "t_rcd=fast")
    assert "integer cycle count" in err


def test_sim_run_rejects_mismatched_per_core_lists(capsys):
    err = assert_clean_error(capsys, "sim", "run", "--cores", "2",
                             "--length", "50", "--mpki", "40,50,60")
    assert "--mpki" in err and "per core" in err
    err = assert_clean_error(capsys, "sim", "run", "--cores", "1",
                             "--length", "50", "--locality", "high")
    assert "--locality" in err


def test_sim_report_rejects_bad_files(tmp_path, capsys):
    err = assert_clean_error(capsys, "sim", "report",
                             str(tmp_path / "missing.json"))
    assert "missing.json" in err
    not_a_result = tmp_path / "other.json"
    not_a_result.write_text("{\"rows\": []}")
    err = assert_clean_error(capsys, "sim", "report", str(not_a_result))
    assert "channel_report" in err
