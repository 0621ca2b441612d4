"""Golden pin of the engine's outward output: records, not summaries.

The engine sizes each summary to the intervals its caller asks about, so
the summaries themselves may shrink; the records built from them must
not move.  These digests were recorded while the engine still built every
summary to a 128 s floor, and hash the JSON image of every record
(`record_to_json`, the served response row), so any drift in any metric
at any interval fails here.  `tests/test_summary_golden.py` separately
pins the summaries `execute_unit` builds at its 128 s default.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.campaign import QUICK_SCALE
from repro.core.config import WORST_CASE
from repro.core.engine import CharacterizationEngine
from repro.serve.protocol import CharacterizeRequest, record_to_json
from repro.serve.scheduler import RequestScheduler

ENGINE_RECORDS_DIGEST = "14ca6e66e8e6dc777f46fe6e6f68fc987e9ea214a152183613452b373176602b"
SCHEDULER_BATCH_DIGEST = (
    "41cedb0a5eb3561d940408971639cb1140e1ade089cf8654a8047c42790b57ff"
)


def images_digest(images: list) -> str:
    return hashlib.sha256(json.dumps(images, sort_keys=True).encode()).hexdigest()


def test_engine_records_are_pinned():
    engine = CharacterizationEngine(scale=QUICK_SCALE)
    records = engine.characterize_modules(
        ("S0", "M8", "H0", "HBM0"), WORST_CASE, (0.064, 0.512, 1.0, 4.0, 16.0)
    )
    images = [record_to_json(record) for record in records]
    assert images_digest(images) == ENGINE_RECORDS_DIGEST


def test_scheduler_batch_is_pinned():
    """Served requests on one scheduler that ask for different interval
    sets, one of them past the paper's 16 s, each run as its own lane job.
    The digest was recorded with the three folded into one engine
    submission; a summary answers every interval up to its horizon bit for
    bit, so one job per request gives the same records."""
    scheduler = RequestScheduler()
    try:
        responses = [
            scheduler._execute_characterize(
                CharacterizeRequest(serial="S0", intervals=intervals)
            )
            for intervals in ((0.512,), (0.512, 16.0), (4.0, 64.0))
        ]
    finally:
        scheduler._executor.shutdown(wait=True)
    assert images_digest(responses) == SCHEDULER_BATCH_DIGEST
