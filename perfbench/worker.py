"""One pass of an in-process workload, in a fresh process.

Started by ``run.py``: generates the workload's inputs (its set-up), prints
`harness.READY`, then runs the timed phase and writes its result object
to ``--out``.  With ``--setup-only`` it exits after set-up, which is how
set-up time is sampled several times per run.  With ``--spans FILE`` the
benchmark's timing wrappers are installed for the timed phase and the
spans are written to ``FILE``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

import harness
import tracer

WORKLOADS = {
    "campaign": "wl_campaign",
    "fleet": "wl_fleet",
    "memsys": "wl_memsys",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(harness.SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = module.setup(args.seed, args.seconds)
    print(harness.READY, flush=True)
    if args.setup_only:
        return 0
    recorder = tracer.Recorder() if args.spans else None
    result = module.run(ctx, recorder)
    if recorder is not None:
        tracer.write_spans(recorder.records, args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
