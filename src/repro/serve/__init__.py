"""repro.serve: async characterization service (stdlib-only).

An HTTP JSON front end over the Campaign/engine/OutcomeCache stack with
request coalescing, answers from memory, and backpressure — plus a
consistent-hash sharded multi-worker fleet (`repro.serve.fleet`) for
horizontal scale-out.  See ``docs/SERVING.md`` for the API schema and
operational contract.
"""

from repro.serve.client import ServeClient, ServeError, parse_retry_after
from repro.serve.fleet import FleetConfig, FleetFrontDoor, HashRing
from repro.serve.fleet import run as run_fleet
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    CharacterizeRequest,
    FleetRiskRequest,
    ProtocolError,
    RiskRequest,
)
from repro.serve.scheduler import (
    DrainingError,
    QueueFullError,
    RequestScheduler,
)
from repro.serve.server import (
    ReproServer,
    ServeConfig,
    ServerThread,
    run,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CharacterizeRequest",
    "FleetRiskRequest",
    "RiskRequest",
    "ProtocolError",
    "RequestScheduler",
    "QueueFullError",
    "DrainingError",
    "ReproServer",
    "ServeConfig",
    "ServerThread",
    "run",
    "FleetConfig",
    "FleetFrontDoor",
    "HashRing",
    "run_fleet",
    "ServeClient",
    "ServeError",
    "parse_retry_after",
]
