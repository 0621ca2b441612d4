"""Run the ``repro`` CLI with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/serve_entry.py SPANS_JSON serve --port 0``.
The wrappers go in before the CLI entry point runs, so the traced server
is the shipped ``repro serve`` plus spans.  When the CLI returns (after a
SIGTERM drain) the spans, and the count of spans `repro.obs` recorded,
are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness
import tracer


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    sys.path.insert(0, str(harness.SRC))
    import wl_serve

    from repro import cli, obs

    recorder = tracer.Recorder()
    patches = tracer.Patches()
    wl_serve.install_server(recorder, patches)
    try:
        code = cli.main(argv[1:])
    finally:
        patches.restore()
        spans_path.write_text(
            json.dumps(
                {
                    "records": recorder.records,
                    "obs_spans": len(obs.finished_spans()),
                    "obs_dropped": obs.dropped_spans(),
                },
                default=str,
            ),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
