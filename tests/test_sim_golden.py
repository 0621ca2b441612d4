"""Golden digests of the memory-system simulator's outputs.

Every digest below is the sha256 of a canonical JSON image of one run,
recorded when the command-level backend was still a separate controller
with its own event loop.  Three things are pinned:

* `simulate_mix`'s `SimulationResult` fields (policy, IPCs, cycles,
  requests, row-hit rate, both refresh rates) on both backends, for every
  refresh-policy builder with FR-FCFS on and off, for both reactive
  mechanisms, and for a write-heavy mix on the command backend;
* the full `SystemResult.to_json()` of a 1x1 run, a checked but
  unenforced 2x2 run and an enforced 2x2 run;
* the (kind, bank, cycle) command stream the command-level scheduler
  issues for three fixed access lists.

Any schedule change, however small, moves a digest.  After an intended
change, print `_digest(...)` of the failing case and record it here with
the reason.
"""

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from repro.sim import (
    DDR4_3200,
    DynamicPrvr,
    MemoryRequest,
    MemsysTopology,
    NeighbourRefreshTrr,
    NoRefresh,
    PeriodicRefresh,
    prvr_policy,
    raidr_policy,
    simulate_mix,
    smd_raidr_policy,
)
from repro.sim.memsys import MemorySystem
from repro.workloads import WorkloadTrace, make_mix

ROWS_PER_BANK = 65536

POLICIES = {
    "none": NoRefresh,
    "periodic-x1": lambda: PeriodicRefresh(DDR4_3200),
    "periodic-x4": lambda: PeriodicRefresh(DDR4_3200, rate_multiplier=4.0),
    "raidr": lambda: raidr_policy(DDR4_3200, ROWS_PER_BANK, 0.1),
    "prvr": lambda: prvr_policy(DDR4_3200),
    "smd-raidr": lambda: smd_raidr_policy(DDR4_3200, ROWS_PER_BANK, 0.5),
}

MECHANISMS = {
    "dynamic-prvr": lambda: DynamicPrvr(
        DDR4_3200, victim_rows=64, time_to_first_bitflip=2e-5, safety_factor=1.0
    ),
    "trr": lambda: NeighbourRefreshTrr(DDR4_3200, threshold=2, reach=2),
}

#: The three fixed access lists of `tests/test_cmdlevel_constraints.py`:
#: (bank, row, is_write) served back to back on four banks.
ACCESS_LISTS = {
    "dense-single-bank-conflicts": [(0, row % 3, False) for row in range(30)],
    "act-storm-across-banks": [(bank % 4, bank, False) for bank in range(24)],
    "write-read-interleave": [(i % 2, i % 4, i % 2 == 0) for i in range(20)],
}


def _table(text: str) -> dict[str, str]:
    """Parse a ``case-name digest`` table, one case a line."""
    return dict(line.split() for line in text.strip().splitlines())


SIMULATION_DIGESTS = _table(
    """
simple/none/fr-fcfs         f84095c23133bb1664a5875e4cb00fcfd019a07d3842a75b82db0088e300176e
simple/none/fcfs            b3e02be21b9ee2cf0913bfcce45d3509d72e31ca8f837c4fbc91c64a577c5227
simple/periodic-x1/fr-fcfs  62d48c1055a77c5e71d6e6548a1da5e01f20a45295c62458e398455824cd5fe4
simple/periodic-x1/fcfs     dea0eff07a5d11456ecc11240163e03b1c2a282c34343b63ce296334d3df62b4
simple/periodic-x4/fr-fcfs  7512212ee916c743f4e2f86555aa40a4f36f3b7dba45c8205f96e3c3519a5268
simple/periodic-x4/fcfs     5c7cd14c352c5e0781f039903a0e3471cd5b5f14b862cb18e5e79b1aadf96007
simple/raidr/fr-fcfs        1b143a427bf29dfacdf5ba663ed173c1d4aa402814d1732b609fadfbb28e2af5
simple/raidr/fcfs           a7d33a7322af083cb9a34b6fd658ecfcac4d8f88921d71038ac3c5bf4e73e5ac
simple/prvr/fr-fcfs         8595dc8079d5455cf7c4fbdb7a642a99ca69c1685d35922690ef56fcd28bfa16
simple/prvr/fcfs            5aaa535b61b9f6a75c6197420f443eb160e6a4a6e401df0a51948cf10e8b7cf1
simple/smd-raidr/fr-fcfs    030c324eaf4073072818036596de6bd6175120df6700a0f7515f6d0be076da25
simple/smd-raidr/fcfs       c29367273f9a184603d3c2cc3ba2a002fd536487124b5e8ef68380ac88057e81
command/none/fr-fcfs        0b8a42f4f007ef7c314f56c7434030d2632321234210e18bbf364ec1c36c64c8
command/none/fcfs           4ccca257d1809704b3a64c67aaada35361341025feb472f0d690c4dfd85b503e
command/periodic-x1/fr-fcfs cbafa8e00880e61381de61f589073983e92455ee96d7be72b3470792599bfd8a
command/periodic-x1/fcfs    7c396fe62d159129aa0af72ba13a477e2b3fef298cd4eef1fb525f260e61e1b1
command/periodic-x4/fr-fcfs 87c0cd3d4289ba4f79f545cc0606186933d45f3f29c7663bd376a0910073c689
command/periodic-x4/fcfs    8bde48742dfbb8d55b4f0f4fc244a86bbb7cda4c30cd2d96bafe6bca64d8b3bd
command/raidr/fr-fcfs       010fdf5537c0aea7ba7c25447fa34952d6544c49e07ee29fdbbecd9fd7bdea77
command/raidr/fcfs          156c0fe27b7c07559f868cec62f1680c1bbc5918e86fd0b8956f3fa186cffc0e
command/prvr/fr-fcfs        55a3c5c17443f391ce190eb161e12e133818dd1766f0ca4b8d9698632b1ebaf9
command/prvr/fcfs           ee3c74a6684f0a473de7eb1d97dff341a64d0b3d0c0444ea03cd70e6d1be95b9
command/smd-raidr/fr-fcfs   7d6403d983781bc472ece9c95bc0b6be3c808870b8ee16ca2d5ffb5a30374698
command/smd-raidr/fcfs      8ef535dc7b0c8851e57e05b314c7451fb68754898779da23ca1e6afcc2653b1a
simple/dynamic-prvr         9bebda640531698c201227b408c9ca2dbe0a5e86f5b32154aa675a445af923f9
simple/trr                  187bdf0702b1e007d7186d9d1d0d2052fd3bf8ddcfa1ec200d5e17d9b3e941a3
command/dynamic-prvr        f535bc6ba1790751dd752e53cbebf1b37a7e72a7af5efa27e3aa23d7bb8a42b0
command/trr                 3d18b98c6012bd843b036e6fa3c682652a375bdf774113f0c1048d7410265408
command/writes              0eb21ca0972396dd10dae30af633f14385f89ad7b72506286d093b981a11b9c9
"""
)

SYSTEM_DIGESTS = _table(
    """
1x1          696dcf3a5554c7eb042beb1e812de9b4460acafe20b8fd6ba3d62a8c5a9eb27f
2x2-checked  62c8c996b769ccf6b8914b69a757a84eeb046a3feda96a87325ed4ff69d7f9fb
2x2-enforced f60d7717bf2ac77b3e5772cba1112b9b88491a0a5698bae2899260f3e1eb1ff8
"""
)

STREAM_DIGESTS = _table(
    """
dense-single-bank-conflicts 978075608d034c24cd22092e75d7dd5034759687eb59d47d308daa217ddf5dcc
act-storm-across-banks      45c235ba738741d0926c846e72cc2d2c097672c6ef5a312d1b7e0bb60e8992a6
write-read-interleave       7d8a9dc1237610b448f36f241cb358b13e61637e70ff740e4e1b12755c1270c7
"""
)


def _digest(image) -> str:
    payload = json.dumps(image, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _result_image(result) -> list:
    return [
        result.policy_name,
        result.ipcs,
        result.cycles,
        result.requests,
        result.row_hit_rate,
        result.refresh_events_per_second,
        result.refresh_rows_per_second,
    ]


def _mix() -> list[WorkloadTrace]:
    return make_mix(3, length=300)


def _write_mix() -> list[WorkloadTrace]:
    return [
        WorkloadTrace(
            name=f"rw-{i}", mpki=30.0, locality=0.5, length=300, write_fraction=0.3
        )
        for i in range(2)
    ]


def _simulation_case(name: str):
    backend, rest = name.split("/", 1)
    if rest == "writes":
        return simulate_mix(_write_mix(), NoRefresh(), backend=backend)
    if rest in MECHANISMS:
        return simulate_mix(
            _mix(), NoRefresh(), backend=backend, mechanism=MECHANISMS[rest]()
        )
    policy, scheduler = rest.split("/")
    return simulate_mix(
        _mix(),
        POLICIES[policy](),
        backend=backend,
        fr_fcfs=scheduler == "fr-fcfs",
    )


def _system_case(name: str):
    if name == "1x1":
        return simulate_mix(_mix(), PeriodicRefresh(DDR4_3200))
    return simulate_mix(
        _mix(),
        PeriodicRefresh(DDR4_3200),
        topology=MemsysTopology(channels=2, ranks=2),
        check_timing=True,
        enforce_timing=name == "2x2-enforced",
    )


def _command_stream(accesses) -> list[tuple[str, int, int]]:
    """(kind, bank, cycle) of every command the command-level scheduler
    issues while serving ``accesses`` back to back."""
    if "backend" in inspect.signature(MemorySystem).parameters:
        scheduler = MemorySystem(banks=4, backend="command", check_timing=True)
    else:
        # A tree whose command level is still the standalone controller
        # these digests were recorded from.
        from repro.sim.cmdlevel import CommandLevelController

        scheduler = CommandLevelController(banks=4, log_commands=True)
    now = 0
    for index, (bank, row, is_write) in enumerate(accesses):
        scheduler.enqueue(
            MemoryRequest(
                core=0, index=index, bank=bank, row=row, arrival=now, is_write=is_write
            )
        )
        served = scheduler.serve_next(bank, now)
        assert served is not None
        now = max(now, served.completion)
    if isinstance(scheduler, MemorySystem):
        return [(c.kind, c.bank, c.cycle) for c in scheduler.commands]
    return scheduler.command_log


@pytest.mark.parametrize("name", sorted(SIMULATION_DIGESTS))
def test_simulate_mix_results_match_golden(name):
    assert _digest(_result_image(_simulation_case(name))) == SIMULATION_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SYSTEM_DIGESTS))
def test_system_result_json_matches_golden(name):
    assert _digest(_system_case(name).to_json()) == SYSTEM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_command_stream_matches_golden(name):
    assert _digest(_command_stream(ACCESS_LISTS[name])) == STREAM_DIGESTS[name]
