"""Hardware models: coupling graphs, calibrations, gate sets, devices."""

from .topology import CouplingGraph, TopologyError
from .library import (
    TOPOLOGY_GENERATORS,
    fully_connected,
    grid,
    heavy_hex,
    line,
    ring,
    rotated_surface_code,
    square_grid,
    star,
    surface7,
    surface17,
    surface_code_grid,
)
from .calibration import (
    Calibration,
    IBM_FALCON_CALIBRATION,
    IDEAL_CALIBRATION,
    SURFACE17_CALIBRATION,
)
from .gateset import (
    CNOT_GATESET,
    GateSet,
    IBM_BASIS_GATESET,
    SURFACE17_GATESET,
    UNRESTRICTED_GATESET,
)
from .device import (
    Device,
    all_to_all_device,
    grid_device,
    line_device,
    surface17_device,
    surface17_extended_device,
    surface7_device,
)
from .drift import (
    CalibrationDelta,
    CalibrationStream,
    DriftDiff,
    DriftPlan,
    diff_calibrations,
)
from .registry import DEVICE_SPECS, resolve_device

__all__ = [
    "DEVICE_SPECS",
    "resolve_device",
    "CouplingGraph",
    "TopologyError",
    "TOPOLOGY_GENERATORS",
    "fully_connected",
    "grid",
    "heavy_hex",
    "line",
    "ring",
    "rotated_surface_code",
    "square_grid",
    "star",
    "surface7",
    "surface17",
    "surface_code_grid",
    "Calibration",
    "CalibrationDelta",
    "CalibrationStream",
    "DriftDiff",
    "DriftPlan",
    "diff_calibrations",
    "IBM_FALCON_CALIBRATION",
    "IDEAL_CALIBRATION",
    "SURFACE17_CALIBRATION",
    "CNOT_GATESET",
    "GateSet",
    "IBM_BASIS_GATESET",
    "SURFACE17_GATESET",
    "UNRESTRICTED_GATESET",
    "Device",
    "all_to_all_device",
    "grid_device",
    "line_device",
    "surface17_device",
    "surface17_extended_device",
    "surface7_device",
]
