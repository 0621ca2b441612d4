"""CI smoke test for the characterization service.

Starts ``repro serve`` as a real subprocess on an ephemeral port, fires
concurrent duplicate requests with the bundled client, and asserts the
things the serving layer promises:

* every request answers 200 with identical payloads;
* one sequential repeat after the burst is answered from the memory tier:
  the identical payload, no new engine job (``/healthz`` ``stats.jobs``)
  and ``stats.answered`` one higher;
* two concurrent ``/v1/risk`` requests on a bank whose row count is not a
  power of two (M8, an XOR-mapped module, at 3 x 128 x 256) answer 200
  with identical payloads equal to the in-process ``refresh_window_risk``;
* ``serve_coalesced_total`` on ``/metrics`` is nonzero (duplicates
  attached to one in-flight computation rather than recomputing);
* SIGTERM drains cleanly — exit code 0 and the drain banner on stderr.

``--fleet N`` runs the same checks through a ``repro serve --fleet N``
front door instead: duplicates must still coalesce *after* sharding,
and the sequential repeat must be answered from memory (both read from the
aggregated ``/fleet/stats`` totals), the front door must expose
its fleet metrics federated with per-worker labels, a request's
``X-Request-Id`` must surface in a worker's forwarded JSON log line,
and SIGTERM must drain front door and workers to a zero exit.

Exits nonzero with a one-line reason on any violation.

Usage: ``PYTHONPATH=src python scripts/serve_smoke.py [--fleet N]``
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import NoReturn

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REQUEST = {"serial": "S0", "subarrays": 2, "rows": 64, "columns": 128,
           "intervals": [0.512, 16.0]}
CLIENTS = 6
RISK_REQUEST = {"serial": "M8", "subarrays": 3, "rows": 128, "columns": 256}
RISK_CLIENTS = 2


def fail(reason: str) -> NoReturn:
    print(f"serve_smoke: FAIL: {reason}", file=sys.stderr)
    sys.exit(1)


def concurrent_calls(port: int, count: int, call) -> list:
    """Run ``call(client)`` from ``count`` clients released together;
    fails the smoke if any call raises or does not complete."""
    from repro.serve import ServeClient

    results: list = [None] * count
    errors: list = []
    barrier = threading.Barrier(count)

    def hit(index: int) -> None:
        with ServeClient(port=port) as client:
            barrier.wait()
            try:
                results[index] = call(client)
            except Exception as exc:
                errors.append(exc)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        fail(f"a concurrent request failed: {errors[0]}")
    if any(result is None for result in results):
        fail("a concurrent request did not complete")
    if any(result != results[0] for result in results):
        fail("concurrent duplicate requests returned different payloads")
    return results


def scheduler_counters(client, fleet: bool) -> dict:
    """Scheduler counters: the server's ``/healthz`` stats, or the sum
    over the fleet's workers from ``/fleet/stats``."""
    if fleet:
        return client.fleet_stats()["totals"]
    return client.healthz()["stats"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="smoke the sharded fleet front door with N workers "
             "(default: single-process server)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.core import refresh_window_risk
    from repro.serve import RiskRequest, ServeClient
    from repro.serve.protocol import risk_to_json

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--batch-window-ms", "25"]
    # The fleet front door forwards worker banners to its own stderr, so
    # the port scrape must anchor on the front-door banner specifically.
    banner = r"listening on http://[^:]+:(\d+)"
    if args.fleet:
        command += ["--fleet", str(args.fleet)]
        banner = r"front door listening on http://[^:]+:(\d+)"
    process = subprocess.Popen(
        command, env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and process.poll() is None:
            line = process.stderr.readline()
            match = re.search(banner, line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            fail("server never announced its port")
        role = f"fleet front door ({args.fleet} workers)" if args.fleet \
            else "server"
        print(f"serve_smoke: {role} up on port {port}")

        results = concurrent_calls(
            port, CLIENTS, lambda client: client.characterize(REQUEST)
        )
        if len(results[0]["records"]) != REQUEST["subarrays"]:
            fail(f"expected {REQUEST['subarrays']} records, "
                 f"got {len(results[0]['records'])}")
        print(f"serve_smoke: {CLIENTS} duplicate requests OK, "
              "identical payloads")

        with ServeClient(port=port) as client:
            before = scheduler_counters(client, args.fleet)
            repeat = client.characterize(REQUEST)
            after = scheduler_counters(client, args.fleet)
        if repeat != results[0]:
            fail("a sequential repeat returned a different payload")
        if after.get("jobs") != before.get("jobs"):
            fail(f"a sequential repeat ran an engine job (jobs "
                 f"{before.get('jobs')} -> {after.get('jobs')})")
        answered = (before.get("answered", 0), after.get("answered", 0))
        if answered[1] != answered[0] + 1:
            fail(f"a sequential repeat was not answered from memory "
                 f"(answered {answered[0]} -> {answered[1]})")
        print("serve_smoke: sequential repeat answered from memory, "
              "identical payload, no engine job")

        risks = concurrent_calls(
            port, RISK_CLIENTS, lambda client: client.risk(RISK_REQUEST)
        )
        risk_request = RiskRequest.from_json(RISK_REQUEST)
        expected = risk_to_json(refresh_window_risk(
            risk_request.serial, risk_request.scale,
            window=risk_request.window_ms / 1000.0,
            temperature_c=risk_request.temperature_c,
        ))
        if risks[0] != expected:
            fail(f"served risk {risks[0]} differs from in-process {expected}")
        print(f"serve_smoke: {RISK_CLIENTS} concurrent risk requests OK, "
              "equal to the in-process result")

        traced_request_id = None
        if args.fleet:
            with ServeClient(port=port) as client:
                stats = client.fleet_stats()
                client.metrics()  # this scrape hits every worker's /metrics
                metrics = client.metrics()  # ...so this one carries samples
                client.characterize(REQUEST)
                traced_request_id = client.last_request_id
            coalesced = stats["totals"].get("coalesced", 0)
            if coalesced == 0:
                fail("fleet coalesced total is zero: sharding broke "
                     "duplicate coalescing")
            print(f"serve_smoke: fleet coalesced={coalesced} "
                  f"(ratio {stats['coalesce_ratio']})")
            for metric in ("fleet_workers", "fleet_proxied_total",
                           "fleet_restarts_total"):
                if metric not in metrics:
                    fail(f"front door /metrics is missing {metric}")
            if not re.search(r'\{[^}]*worker="\d+"[^}]*\}', metrics):
                fail("federated /metrics has no per-worker-labeled series")
            if 'worker="all"' not in metrics:
                fail('federated /metrics has no worker="all" aggregate')
            if not traced_request_id:
                fail("front door did not echo an X-Request-Id header")
            print("serve_smoke: fleet metrics federated with worker labels")
        else:
            with ServeClient(port=port) as client:
                metrics = client.metrics()
            match = re.search(
                r"^serve_coalesced_total (\d+)", metrics, re.MULTILINE
            )
            coalesced = int(match.group(1)) if match else 0
            if coalesced == 0:
                fail("serve_coalesced_total is zero: duplicates did not "
                     "coalesce")
            print(f"serve_smoke: serve_coalesced_total={coalesced}")

        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=120)
        stderr_tail = process.stderr.read()
        if code != 0:
            fail(f"exit code {code} after SIGTERM")
        if "drained cleanly" not in stderr_tail:
            fail(f"no clean-drain banner; stderr tail: {stderr_tail!r}")
        print("serve_smoke: SIGTERM drained cleanly, exit 0")
        if traced_request_id is not None:
            # The worker that served the traced request logged it as JSON
            # (request_id + worker index), and the front door forwarded
            # that line verbatim — log correlation survives the fleet.
            correlated = False
            for line in stderr_tail.splitlines():
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if (record.get("request_id") == traced_request_id
                        and "worker" in record):
                    correlated = True
                    break
            if not correlated:
                fail(f"X-Request-Id {traced_request_id} never appeared in a "
                     "worker JSON log line")
            print(f"serve_smoke: request {traced_request_id[:8]}… correlated "
                  f"to worker {record['worker']} log line")
        print("serve_smoke: PASS")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
