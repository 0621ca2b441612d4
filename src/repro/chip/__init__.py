"""Simulated DRAM devices: geometry, timing, cells, banks, modules, catalog."""

from repro.chip.bank import SimulatedBank
from repro.chip.catalog import (
    CATALOG,
    DIE_SCALES,
    REPRESENTATIVE_SERIALS,
    ddr4_modules,
    die_profile,
    get_module,
    hbm2_modules,
    modules_by_manufacturer,
    total_chip_count,
)
from repro.chip.cells import CellPopulation, PopulationStack
from repro.chip.datapattern import (
    ALL_ONES,
    ALL_ZEROS,
    PAPER_PATTERNS,
    expand_pattern,
    invert_pattern,
    ones_fraction,
)
from repro.chip.geometry import (
    DEFAULT_BANK_GEOMETRY,
    EVEN,
    ODD,
    SMALL_BANK_GEOMETRY,
    BankGeometry,
    VariableBankGeometry,
)
from repro.chip.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    BankKernel,
    BatchedKernel,
    ReferenceKernel,
    make_kernel,
    resolve_kernel,
)
from repro.chip.mapping import (
    IdentityMapping,
    MirroredMapping,
    RowMapping,
    XorScrambleMapping,
    make_mapping,
)
from repro.chip.module import MANUFACTURERS, ModuleSpec, SimulatedModule
from repro.chip.timing import (
    DDR4,
    DDR5_32GB,
    HBM2,
    T_AGG_ON_DEFAULT,
    T_AGG_ON_VALUES,
    TimingParameters,
)

__all__ = [
    "SimulatedBank",
    "CATALOG",
    "DIE_SCALES",
    "REPRESENTATIVE_SERIALS",
    "ddr4_modules",
    "die_profile",
    "get_module",
    "hbm2_modules",
    "modules_by_manufacturer",
    "total_chip_count",
    "CellPopulation",
    "PopulationStack",
    "ALL_ONES",
    "ALL_ZEROS",
    "PAPER_PATTERNS",
    "expand_pattern",
    "invert_pattern",
    "ones_fraction",
    "DEFAULT_BANK_GEOMETRY",
    "EVEN",
    "ODD",
    "SMALL_BANK_GEOMETRY",
    "BankGeometry",
    "VariableBankGeometry",
    "DEFAULT_KERNEL",
    "KERNELS",
    "BankKernel",
    "BatchedKernel",
    "ReferenceKernel",
    "make_kernel",
    "resolve_kernel",
    "IdentityMapping",
    "MirroredMapping",
    "RowMapping",
    "XorScrambleMapping",
    "make_mapping",
    "MANUFACTURERS",
    "ModuleSpec",
    "SimulatedModule",
    "DDR4",
    "DDR5_32GB",
    "HBM2",
    "T_AGG_ON_DEFAULT",
    "T_AGG_ON_VALUES",
    "TimingParameters",
]
