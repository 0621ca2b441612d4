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
