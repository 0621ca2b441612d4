"""Simulated DRAM modules: specs, chips, banks, and address translation.

A :class:`ModuleSpec` is a catalog entry (one row of the paper's Table 1
expanded to per-module granularity); a :class:`SimulatedModule` is the
runnable device: it owns lazily-created :class:`SimulatedBank` instances and
the module's logical-to-physical row mapping.

Simulation scale: real modules have 8-16 chips with 16 banks each; most
characterization conclusions are per-subarray statistics, so experiments
choose how many chips/banks to instantiate (``sim_chips``/``sim_banks``).
Populations are deterministic per (serial, chip, bank, subarray), so scaling
up only *adds* silicon; it never changes previously observed cells.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.chip.bank import SimulatedBank
from repro.chip.geometry import DEFAULT_BANK_GEOMETRY, BankGeometry
from repro.chip.kernels import resolve_kernel
from repro.chip.mapping import RowMapping, make_mapping
from repro.chip.timing import DDR4, HBM2, TimingParameters
from repro.physics.constants import T_REFERENCE_C
from repro.physics.profile import DisturbanceProfile

MANUFACTURERS = ("SK Hynix", "Micron", "Samsung")


@dataclass(frozen=True)
class ModuleSpec:
    """Static description of one DRAM module (a Table 1 row, per module).

    Attributes:
        serial: module identifier, e.g. ``"S0"``.
        manufacturer: one of ``MANUFACTURERS``.
        density: per-chip density string, e.g. ``"16Gb"``.
        die_revision: die revision code (``"A"``, ``"B"``, ...).
        organization: chip data width, ``"x8"`` or ``"x16"``.
        interface: ``"DDR4"`` or ``"HBM2"``.
        chips: DRAM chips on the module.
        profile: calibrated disturbance parameters of this die generation.
        mapping_scheme: logical->physical row mapping scheme name.
    """

    serial: str
    manufacturer: str
    density: str
    die_revision: str
    organization: str
    interface: str
    chips: int
    profile: DisturbanceProfile
    mapping_scheme: str = "identity"

    def __post_init__(self) -> None:
        if self.manufacturer not in MANUFACTURERS:
            raise ValueError(f"unknown manufacturer {self.manufacturer!r}")
        if self.chips < 1:
            raise ValueError("module needs at least one chip")
        if self.interface not in ("DDR4", "HBM2"):
            raise ValueError(f"unknown interface {self.interface!r}")

    @property
    def die_label(self) -> str:
        """Label used on the Fig. 6 x-axis, e.g. ``"16Gb-A"``."""
        return f"{self.density}-{self.die_revision}"


class SimulatedModule:
    """A runnable simulated DRAM module.

    Args:
        spec: the module's catalog entry.
        geometry: bank geometry (default: the paper-matching
            1024-rows-per-subarray layout).
        timing: DRAM timing parameters; defaults by interface.
        sim_chips: how many of the module's chips to instantiate.
        sim_banks: banks per instantiated chip.
        temperature_c: initial temperature of all banks.
        kernel: hot-path execution kernel for every bank (see
            `repro.chip.kernels`); ``None`` selects the default.
    """

    def __init__(
        self,
        spec: ModuleSpec,
        geometry: BankGeometry = DEFAULT_BANK_GEOMETRY,
        timing: TimingParameters | None = None,
        sim_chips: int = 1,
        sim_banks: int = 1,
        temperature_c: float = T_REFERENCE_C,
        kernel: str | None = None,
    ) -> None:
        if sim_chips < 1 or sim_chips > spec.chips:
            raise ValueError(f"sim_chips must be in [1, {spec.chips}]")
        if sim_banks < 1:
            raise ValueError("sim_banks must be positive")
        self.spec = spec
        self.geometry = geometry
        self.timing = timing or (HBM2 if spec.interface == "HBM2" else DDR4)
        self.sim_chips = sim_chips
        self.sim_banks = sim_banks
        self.temperature_c = temperature_c
        self.kernel = resolve_kernel(kernel)
        self.mapping: RowMapping = make_mapping(spec.mapping_scheme, geometry.rows)
        self._banks: dict[tuple[int, int], SimulatedBank] = {}

    @property
    def profile(self) -> DisturbanceProfile:
        """The module's die-generation disturbance profile."""
        return self.spec.profile

    def bank(self, chip: int = 0, bank: int = 0) -> SimulatedBank:
        """The (lazily created) simulated bank ``bank`` of chip ``chip``."""
        if not 0 <= chip < self.sim_chips:
            raise IndexError(f"chip {chip} out of range [0, {self.sim_chips})")
        if not 0 <= bank < self.sim_banks:
            raise IndexError(f"bank {bank} out of range [0, {self.sim_banks})")
        key = (chip, bank)
        if key not in self._banks:
            self._banks[key] = SimulatedBank(
                key=(self.spec.serial, chip, bank),
                geometry=self.geometry,
                profile=self.spec.profile,
                timing=self.timing,
                temperature_c=self.temperature_c,
                kernel=self.kernel,
            )
        return self._banks[key]

    def iter_banks(self) -> Iterator[SimulatedBank]:
        """Iterate over every instantiated-scale bank (creating lazily)."""
        for chip in range(self.sim_chips):
            for bank in range(self.sim_banks):
                yield self.bank(chip, bank)

    def set_temperature(self, temperature_c: float) -> None:
        """Set the device temperature of the module and all its banks."""
        self.temperature_c = temperature_c
        for bank in self._banks.values():
            bank.temperature_c = temperature_c

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------
    def to_physical(self, logical_row: int) -> int:
        """Physical row address of a logical row."""
        return self.mapping.to_physical(logical_row)

    def to_logical(self, physical_row: int) -> int:
        """Logical row address of a physical row."""
        return self.mapping.to_logical(physical_row)
